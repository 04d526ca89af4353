#include "toleo/trip.hh"

#include <algorithm>

#include "common/logging.hh"

namespace toleo {

namespace {

/** Uneven-entry private-offset width, bits (7 in the paper). */
constexpr unsigned offsetBits = 7;
/** Largest private offset an uneven entry holds. */
constexpr std::uint32_t offsetMax = (1u << offsetBits) - 1;

} // namespace

const char *
tripFormatName(TripFormat fmt)
{
    switch (fmt) {
      case TripFormat::Flat: return "flat";
      case TripFormat::Uneven: return "uneven";
      case TripFormat::Full: return "full";
    }
    return "?";
}

TripStore::TripStore(const TripConfig &cfg)
    : cfg_(cfg), rng_(cfg.seed), slots_(16, 0), slotShift_(64 - 4)
{
    if (cfg.stealthBits == 0 || cfg.stealthBits > 32)
        fatal("TripStore: stealthBits must be in 1..32");
    stealthMask_ =
        static_cast<std::uint32_t>((std::uint64_t{1} << cfg.stealthBits) - 1);
    uvMask_ = cfg.uvBits >= 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << cfg.uvBits) - 1;
}

std::uint32_t
TripStore::randomStealth()
{
    return static_cast<std::uint32_t>(rng_.next()) & stealthMask_;
}

std::uint32_t
TripStore::initialBase(PageNum pg) const
{
    // splitmix64 finalizer over (seed, page): every flat entry gets a
    // stable random initial base without materializing the page.
    std::uint64_t x = cfg_.seed ^ (pg * 0x9e3779b97f4a7c15ULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::uint32_t>(x) & stealthMask_;
}

std::uint32_t
TripStore::incStealth(std::uint32_t v) const
{
    return (v + 1) & stealthMask_;
}

std::size_t
TripStore::findSlot(PageNum pg) const
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slotOf(pg);
    while (slots_[i] != 0 && pages_[slots_[i] - 1].page != pg)
        i = (i + 1) & mask;
    return i;
}

void
TripStore::growIndex()
{
    slots_.assign(slots_.size() * 2, 0);
    --slotShift_;
    for (std::size_t p = 0; p < pages_.size(); ++p)
        slots_[findSlot(pages_[p].page)] = static_cast<std::uint32_t>(p + 1);
}

TripStore::PageState &
TripStore::page(PageNum pg)
{
    std::size_t i = findSlot(pg);
    if (slots_[i] != 0)
        return pages_[slots_[i] - 1];
    if (2 * (pages_.size() + 1) > slots_.size()) {
        growIndex();
        i = findSlot(pg);
    }
    PageState &ps = pages_.emplace_back();
    ps.page = pg;
    ps.base = initialBase(pg);
    slots_[i] = static_cast<std::uint32_t>(pages_.size());
    return ps;
}

const TripStore::PageState *
TripStore::findPage(PageNum pg) const
{
    const std::uint32_t s = slots_[findSlot(pg)];
    return s ? &pages_[s - 1] : nullptr;
}

std::uint32_t
TripStore::stealthOf(const PageState &ps, unsigned idx) const
{
    switch (ps.fmt) {
      case TripFormat::Flat:
        return (ps.base + ((ps.bitvec >> idx) & 1)) & stealthMask_;
      case TripFormat::Uneven:
        return (ps.base + ps.uneven->off[idx]) & stealthMask_;
      case TripFormat::Full:
        return ps.full->ver[idx];
    }
    panic("TripStore: bad format");
}

void
TripStore::releaseEntries(PageState &ps)
{
    if (ps.uneven) {
        ps.uneven.reset();
        --unevenCount_;
    }
    if (ps.full) {
        ps.full.reset();
        --fullCount_;
    }
}

void
TripStore::resetPage(PageState &ps)
{
    releaseEntries(ps);
    ps.fmt = TripFormat::Flat;
    ps.uv = (ps.uv + 1) & uvMask_;
    ps.base = randomStealth();
    ps.vbase = 0;
    ps.bitvec = 0;
    ps.vlead = 0;
    ps.maxOff = ps.minOff = 0;
}

TripUpdateResult
TripStore::update(BlockNum blk)
{
    ++updates_;
    PageState &ps = page(pageOfBlock(blk));
    const unsigned idx = blockIndexInPage(blk);

    TripUpdateResult res;
    res.fmtBefore = ps.fmt;

    /** Virtual (non-modular) version of the block after this write. */
    std::uint64_t vv = 0;

    switch (ps.fmt) {
      case TripFormat::Flat: {
        const std::uint64_t bit = std::uint64_t{1} << idx;
        if (!(ps.bitvec & bit)) {
            ps.bitvec |= bit;
            vv = ps.vbase + 1;
            if (ps.bitvec == ~std::uint64_t{0}) {
                // Whole page written uniformly: fold into the base.
                ps.base = incStealth(ps.base);
                ++ps.vbase;
                ps.bitvec = 0;
            }
        } else {
            // Second write to the same block before the page filled:
            // stride exceeds one, upgrade to uneven (Section 4.3).
            ps.uneven = std::make_unique<UnevenEntry>();
            ++unevenCount_;
            ++upToUneven_;
            res.upgraded = true;
            for (unsigned i = 0; i < blocksPerPage; ++i)
                ps.uneven->off[i] =
                    static_cast<std::uint8_t>((ps.bitvec >> i) & 1);
            ps.bitvec = 0; // bit-vector now holds the entry pointer
            ps.fmt = TripFormat::Uneven;
            ps.uneven->off[idx] += 1; // becomes 2
            ps.minOff = 0;
            ps.maxOff = ps.uneven->off[idx];
            vv = ps.vbase + ps.uneven->off[idx];
        }
        break;
      }
      case TripFormat::Uneven: {
        auto &off = ps.uneven->off;
        std::uint32_t new_off = static_cast<std::uint32_t>(off[idx]) + 1;
        if (new_off > offsetMax) {
            // Try to renormalize: fold MIN into the base.
            std::uint8_t mn = 255;
            for (unsigned i = 0; i < blocksPerPage; ++i)
                mn = std::min(mn, i == idx
                                      ? static_cast<std::uint8_t>(255)
                                      : off[i]);
            // Include the incremented block in the min computation.
            mn = std::min<std::uint32_t>(mn, new_off) & 0xff;
            if (mn > 0) {
                ++normalizations_;
                res.normalized = true;
                for (auto &o : off)
                    o = static_cast<std::uint8_t>(o - mn);
                new_off -= mn;
                ps.base = (ps.base + mn) & stealthMask_;
                ps.vbase += mn;
            }
        }
        if (new_off > offsetMax) {
            // Stride exceeds 2^7 even after normalization: full.
            ps.full = std::make_unique<FullEntry>();
            ++fullCount_;
            ++upToFull_;
            res.upgraded = true;
            for (unsigned i = 0; i < blocksPerPage; ++i) {
                ps.full->ver[i] = (ps.base + off[i]) & stealthMask_;
                ps.full->vcnt[i] = ps.vbase + off[i];
            }
            ps.full->ver[idx] = (ps.base + new_off) & stealthMask_;
            ps.full->vcnt[idx] = ps.vbase + new_off;
            vv = ps.full->vcnt[idx];
            ps.uneven.reset();
            --unevenCount_;
            ps.fmt = TripFormat::Full;
        } else {
            off[idx] = static_cast<std::uint8_t>(new_off);
            if (res.normalized) {
                // Recompute extremes after shifting all offsets.
                std::uint8_t mx = 0, mn2 = 255;
                for (auto o : off) {
                    mx = std::max(mx, o);
                    mn2 = std::min(mn2, o);
                }
                ps.maxOff = mx;
                ps.minOff = mn2;
            } else {
                ps.maxOff = std::max(ps.maxOff, off[idx]);
            }
            vv = ps.vbase + off[idx];
        }
        break;
      }
      case TripFormat::Full: {
        ps.full->ver[idx] = incStealth(ps.full->ver[idx]);
        ps.full->vcnt[idx] += 1;
        vv = ps.full->vcnt[idx];
        break;
      }
    }

    // Leading-version tracking and the probabilistic reset draw
    // (Section 4.2): only increments that advance the page's leading
    // version draw a reset, with probability 2^-resetLog2.
    if (vv > ps.vlead) {
        ps.vlead = vv;
        if (rng_.nextPow2Draw(cfg_.resetLog2)) {
            resetPage(ps);
            ++resets_;
            res.reset = true;
        }
    }

    res.fmtAfter = ps.fmt;
    res.version = composeVersion(ps.uv, stealthOf(ps, idx),
                                 cfg_.stealthBits);
    return res;
}

std::uint64_t
TripStore::stealth(BlockNum blk) const
{
    const PageState *ps = findPage(pageOfBlock(blk));
    if (!ps) {
        // Untouched pages sit at their deterministic initial state:
        // the statically mapped flat entry with its provisioned base.
        return initialBase(pageOfBlock(blk));
    }
    return stealthOf(*ps, blockIndexInPage(blk));
}

std::uint64_t
TripStore::fullVersion(BlockNum blk) const
{
    const PageState *ps = findPage(pageOfBlock(blk));
    if (!ps)
        return composeVersion(0, initialBase(pageOfBlock(blk)),
                              cfg_.stealthBits);
    return composeVersion(ps->uv, stealthOf(*ps, blockIndexInPage(blk)),
                          cfg_.stealthBits);
}

std::uint64_t
TripStore::upperVersion(PageNum page) const
{
    const PageState *ps = findPage(page);
    return ps ? ps->uv : 0;
}

TripFormat
TripStore::formatOf(PageNum page) const
{
    const PageState *ps = findPage(page);
    return ps ? ps->fmt : TripFormat::Flat;
}

void
TripStore::freePage(PageNum pg)
{
    const std::uint32_t s = slots_[findSlot(pg)];
    if (s == 0)
        return;
    resetPage(pages_[s - 1]);
    ++frees_;
}

std::uint64_t
TripStore::dynamicBytes() const
{
    return unevenCount_ * unevenEntryBytes +
           fullCount_ * fullEntryAllocBytes;
}

TripStore::Usage
TripStore::usage(std::uint64_t touchedPages,
                 std::uint64_t declaredPages) const
{
    Usage u;
    u.rssPages = std::max(touchedPages, declaredPages);
    u.unevenPages = unevenCount_;
    u.fullPages = fullCount_;
    const std::uint64_t dynamic = unevenCount_ + fullCount_;
    u.flatPages = u.rssPages >= dynamic ? u.rssPages - dynamic : 0;
    u.bytes = usageBytes(u.rssPages);
    if (u.rssPages == 0) {
        u.avgEntryBytesPerPage = flatEntryBytes;
        return u;
    }
    u.avgEntryBytesPerPage =
        static_cast<double>(u.rssPages * flatEntryBytes +
                            unevenCount_ * unevenEntryBytes +
                            fullCount_ * fullEntryBytes) /
        static_cast<double>(u.rssPages);
    const double pagesPerTb = 1e12 / pageSize;
    u.flatGbPerTb = pagesPerTb * flatEntryBytes / 1e9;
    u.unevenGbPerTb =
        pagesPerTb * u.share(unevenCount_) * unevenEntryBytes / 1e9;
    u.fullGbPerTb =
        pagesPerTb * u.share(fullCount_) * fullEntryAllocBytes / 1e9;
    return u;
}

} // namespace toleo
