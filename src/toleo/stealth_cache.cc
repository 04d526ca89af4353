#include "toleo/stealth_cache.hh"

namespace toleo {

StealthCache::StealthCache(const StealthCacheConfig &cfg)
    : cfg_(cfg),
      tlb_(cfg.tlbEntries),
      overflow_(cfg.overflowBytes / overflowBlockBytes / overflowAssoc,
                overflowAssoc),
      combine_(updateCombineEntries)
{}

std::uint64_t
StealthCache::overflowKey(PageNum page, unsigned chunk) const
{
    return (page << 2) | chunk;
}

StealthLookup
StealthCache::access(BlockNum blk, TripFormat fmt, bool is_update)
{
    const PageNum page = pageOfBlock(blk);
    StealthLookup out;

    bool hit;
    if (is_update) {
        // Version updates must not displace the read path's working
        // set: touch without allocating.  A missing entry means the
        // update goes to the device as a compact command; bursts of
        // updates to the same page coalesce in a small
        // write-combining buffer first.
        hit = tlb_.touch(page, true);
        if (fmt == TripFormat::Uneven) {
            hit = overflow_.touch(overflowKey(page, 0), true) && hit;
        } else if (fmt == TripFormat::Full) {
            const unsigned chunk = blockIndexInPage(blk) / 16;
            hit = overflow_.touch(overflowKey(page, chunk), true) &&
                  hit;
        }
        if (!hit)
            hit = combine_.access(page, false).hit;
    } else {
        // Flat entry (base + bit-vector / pointer) is always needed.
        auto tlb_res = tlb_.access(page, false);
        hit = tlb_res.hit;
        if (tlb_res.writebackTag)
            out.writebackBytes += tlbExtBytes;

        if (fmt == TripFormat::Uneven) {
            auto ov = overflow_.access(overflowKey(page, 0), false);
            hit = hit && ov.hit;
            if (ov.writebackTag)
                out.writebackBytes += overflowBlockBytes;
        } else if (fmt == TripFormat::Full) {
            // A 56 B chunk holds 16 x 27-bit versions; pick the
            // chunk containing this block's version.
            const unsigned chunk = blockIndexInPage(blk) / 16;
            auto ov =
                overflow_.access(overflowKey(page, chunk), false);
            hit = hit && ov.hit;
            if (ov.writebackTag)
                out.writebackBytes += overflowBlockBytes;
        }
    }

    out.hit = hit;
    // Figure 7's hit rate covers the LLC-miss (read) path, where the
    // version gates decryption; writeback updates are tracked
    // separately -- they cost link bandwidth, not read latency.
    if (is_update) {
        if (hit)
            ++updateHits_;
        else
            ++updateMisses_;
    } else {
        if (hit)
            ++hits_;
        else
            ++misses_;
    }
    return out;
}

void
StealthCache::invalidatePage(PageNum page)
{
    tlb_.invalidate(page);
    for (unsigned chunk = 0; chunk < 4; ++chunk)
        overflow_.invalidate(overflowKey(page, chunk));
    // The write-combining buffer holds per-page coalescing state
    // too: a stale entry would let updates to a reset/downgraded
    // page falsely coalesce against the pre-reset entry.
    combine_.invalidate(page);
}

double
StealthCache::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / total : 0.0;
}

std::uint64_t
StealthCache::sramBytes() const
{
    return static_cast<std::uint64_t>(cfg_.tlbEntries) * tlbExtBytes +
           cfg_.overflowBytes;
}

void
StealthCache::resetStats()
{
    hits_ = misses_ = 0;
    updateHits_ = updateMisses_ = 0;
    tlb_.resetStats();
    overflow_.resetStats();
    // The combine buffer is transient coalescing state, not a warmed
    // cache: entries left over from the warmup phase would count as
    // measured update hits they never earned.  Drop contents and
    // stats together.
    combine_.invalidateAll();
    combine_.resetStats();
}

} // namespace toleo
