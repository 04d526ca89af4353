#include "sim/trip_analysis.hh"

#include <memory>

#include "cache/set_assoc.hh"
#include "sim/page_footprint.hh"
#include "workload/workload.hh"

namespace toleo {

namespace {

/** Associativity of the write-coalescing filter. */
constexpr unsigned cacheAssoc = 16;

/** Usage-timeline samples per run (Figure 12). */
constexpr unsigned timelinePoints = 64;

} // namespace

TripAnalysisResult
runTripAnalysis(const TripAnalysisConfig &cfg)
{
    TripStore store(TripConfig{});
    auto cache = SetAssocCache::fromCapacity(cfg.cacheBytes, blockSize,
                                             cacheAssoc);
    std::vector<std::unique_ptr<TraceGen>> gens;
    for (unsigned c = 0; c < cfg.cores; ++c)
        gens.push_back(makeWorkload(cfg.workload, c, cfg.seed));

    PageFootprint footprint;

    TripAnalysisResult res;
    res.workload = cfg.workload;

    const std::uint64_t total_refs = cfg.refsPerCore * cfg.cores;
    const std::uint64_t sample_every =
        std::max<std::uint64_t>(1, total_refs / timelinePoints);
    std::uint64_t refs = 0;

    for (std::uint64_t r = 0; r < cfg.refsPerCore; ++r) {
        for (unsigned c = 0; c < cfg.cores; ++c) {
            const MemRef ref = gens[c]->next();
            footprint.insert(pageOf(ref.addr));
            auto cr = cache.access(blockOf(ref.addr), ref.isWrite);
            if (cr.writebackTag)
                store.update(*cr.writebackTag);
            if ((++refs % sample_every) == 0)
                res.timeline.emplace_back(
                    refs, store.usageBytes(footprint.size()));
        }
    }

    // Flat entries are statically allocated for the OS-reported RSS
    // (Section 7.2), which includes resident-but-cold pages the
    // window never touches (allocator arenas, cold KV values).
    res.usage = store.usage(
        footprint.size(), workloadInfo(cfg.workload).simFootprintBytes /
                              pageSize * cfg.cores);
    res.updates = store.updates();
    res.resets = store.resets();
    return res;
}

} // namespace toleo
