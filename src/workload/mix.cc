#include "workload/mix.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace toleo {

namespace {

/** Scatter a popularity rank over a region deterministically. */
std::uint64_t
scatterRank(std::uint64_t rank, std::uint64_t domain)
{
    return (rank * 0x9e3779b97f4a7c15ULL) % domain;
}

} // namespace

MixWorkload::MixWorkload(WorkloadInfo info, MixSpec spec, unsigned core,
                         std::uint64_t seed)
    : TraceGen(std::move(info)), spec_(std::move(spec)),
      rng_(seed * 0x2545f4914f6cdd1dULL + core + 1)
{
    if (spec_.streams.empty())
        panic("MixWorkload: no streams");

    // Each core owns a disjoint 1 TiB slice of the address space;
    // streams carve disjoint regions out of that slice.
    Addr next_base = (static_cast<Addr>(core) + 1) << 40;
    double cum = 0.0;
    for (const auto &s : spec_.streams) {
        StreamState st;
        st.spec = s;
        st.base = next_base;
        next_base += (s.regionBytes + pageSize - 1) / pageSize * pageSize;
        if (s.pattern == Pattern::Zipf) {
            const std::uint64_t blocks =
                std::max<std::uint64_t>(1, s.regionBytes / blockSize);
            st.zipf = std::make_unique<ZipfSampler>(
                blocks, s.theta, rng_.next());
        }
        if (s.pattern == Pattern::PageLocalRandom) {
            const std::uint64_t region_pages = std::max<std::uint64_t>(
                1, s.regionBytes / pageSize);
            for (unsigned k = 0; k < s.activePages; ++k)
                st.active.push_back(rng_.nextBounded(region_pages));
        }
        streams_.push_back(std::move(st));
        cum += s.weight;
        cumWeight_.push_back(cum);
    }
    totalWeight_ = cumWeight_.back();
    // Jitter bounds [0.5g, 1.5g], truncated.  Guard the degenerate
    // cases: a non-finite, negative, or over-range meanGap must not
    // reach the float->unsigned cast (UB for values the target type
    // cannot represent), and truncation must never leave
    // gapHi_ < gapLo_, which would feed nextRange an inverted
    // interval.  The cap keeps gapHi_ = 1.5g inside MemRef's u32
    // instGap field.  Small positive gaps (meanGap < 2) legitimately
    // collapse toward [0, g]; they stay well-formed here.
    constexpr double maxGap = 0x7fffffff; // 1.5x still fits in u32
    const double gap =
        std::isfinite(spec_.meanGap) && spec_.meanGap > 0.0
            ? std::min(spec_.meanGap, maxGap)
            : 0.0;
    gapLo_ = static_cast<std::uint64_t>(gap * 0.5);
    gapHi_ = std::max(gapLo_, static_cast<std::uint64_t>(gap * 1.5));
}

Addr
MixWorkload::addrFor(StreamState &st)
{
    const auto &s = st.spec;
    const std::uint64_t region_blocks =
        std::max<std::uint64_t>(1, s.regionBytes / blockSize);

    // Finish an in-flight burst first.
    if (st.burstLeft > 0) {
        --st.burstLeft;
        st.burstAddr += blockSize;
        return st.burstAddr;
    }

    switch (s.pattern) {
      case Pattern::HotSeq:
      case Pattern::StreamSeq: {
        const Addr a = st.base + st.cursor;
        st.cursor += s.strideBytes;
        if (st.cursor >= s.regionBytes)
            st.cursor = 0;
        return a;
      }
      case Pattern::UniformRandom: {
        const std::uint64_t blk = rng_.nextBounded(region_blocks);
        return st.base + blk * blockSize +
               rng_.nextBounded(blockSize / 8) * 8;
      }
      case Pattern::Zipf: {
        const std::uint64_t rank = st.zipf->next();
        const std::uint64_t blk =
            s.clustered ? rank % region_blocks
                        : scatterRank(rank, region_blocks);
        return st.base + blk * blockSize;
      }
      case Pattern::PageLocalRandom: {
        const std::uint64_t region_pages = std::max<std::uint64_t>(
            1, s.regionBytes / pageSize);
        if (rng_.nextBool(s.pageTurnover)) {
            st.active[rng_.nextBounded(st.active.size())] =
                rng_.nextBounded(region_pages);
        }
        const std::uint64_t page =
            st.active[rng_.nextBounded(st.active.size())];
        const unsigned blk_in_page = static_cast<unsigned>(
            rng_.nextBounded(blocksPerPage));
        Addr a = st.base + page * pageSize +
                 static_cast<Addr>(blk_in_page) * blockSize;
        if (s.burstBlocks > 1) {
            st.burstLeft = s.burstBlocks - 1;
            if (blk_in_page + s.burstBlocks > blocksPerPage)
                a = st.base + page * pageSize;
            st.burstAddr = a;
        }
        return a;
      }
      case Pattern::GaussPage: {
        const std::uint64_t region_pages =
            std::max<std::uint64_t>(1, s.regionBytes / pageSize);
        const double center = static_cast<double>(region_pages) / 2.0;
        double draw = rng_.nextGaussian(center, s.sigmaPages);
        if (draw < 0.0)
            draw = 0.0;
        auto page = static_cast<std::uint64_t>(draw);
        if (page >= region_pages)
            page = region_pages - 1;
        const unsigned blk_in_page = static_cast<unsigned>(
            rng_.nextBounded(blocksPerPage));
        Addr a = st.base + page * pageSize +
                 static_cast<Addr>(blk_in_page) * blockSize;
        if (s.burstBlocks > 1) {
            st.burstLeft = s.burstBlocks - 1;
            // Keep bursts within the page.
            if (blk_in_page + s.burstBlocks > blocksPerPage)
                a = st.base + page * pageSize;
            st.burstAddr = a;
        }
        return a;
      }
    }
    panic("MixWorkload: unknown pattern");
}

MemRef
MixWorkload::draw()
{
    // Weighted random stream selection.
    const double draw = rng_.nextDouble() * totalWeight_;
    std::size_t idx = 0;
    while (idx + 1 < cumWeight_.size() && cumWeight_[idx] <= draw)
        ++idx;
    StreamState &st = streams_[idx];

    MemRef ref;
    ref.addr = addrFor(st);
    ref.isWrite = rng_.nextBool(st.spec.writeProb);

    // Jittered instruction gap: uniform in [0.5g, 1.5g].
    ref.instGap =
        static_cast<std::uint32_t>(rng_.nextRange(gapLo_, gapHi_));
    return ref;
}

void
MixWorkload::nextBatch(MemRef *out, std::size_t n)
{
    // One virtual dispatch per batch; draw() inlines into this loop.
    for (std::size_t i = 0; i < n; ++i)
        out[i] = draw();
}

} // namespace toleo
