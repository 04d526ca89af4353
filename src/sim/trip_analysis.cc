#include "sim/trip_analysis.hh"

#include <memory>
#include <sstream>

#include "cache/set_assoc.hh"
#include "sim/page_footprint.hh"
#include "workload/workload.hh"

namespace toleo {

double
TripAnalysisResult::flatFraction() const
{
    return footprintPages
               ? static_cast<double>(flatPages) / footprintPages
               : 1.0;
}

double
TripAnalysisResult::unevenFraction() const
{
    return footprintPages
               ? static_cast<double>(unevenPages) / footprintPages
               : 0.0;
}

double
TripAnalysisResult::fullFraction() const
{
    return footprintPages
               ? static_cast<double>(fullPages) / footprintPages
               : 0.0;
}

TripAnalysisResult
runTripAnalysis(const TripAnalysisConfig &cfg)
{
    TripStore store(cfg.trip);
    auto cache = SetAssocCache::fromCapacity(cfg.cacheBytes, blockSize,
                                             cfg.cacheAssoc);
    std::vector<std::unique_ptr<TraceGen>> gens;
    for (unsigned c = 0; c < cfg.cores; ++c)
        gens.push_back(makeWorkload(cfg.workload, c, cfg.seed));

    PageFootprint footprint;

    TripAnalysisResult res;
    res.workload = cfg.workload;

    const std::uint64_t total_refs = cfg.refsPerCore * cfg.cores;
    const std::uint64_t sample_every =
        std::max<std::uint64_t>(1, total_refs / cfg.timelinePoints);
    std::uint64_t refs = 0;

    for (std::uint64_t r = 0; r < cfg.refsPerCore; ++r) {
        for (unsigned c = 0; c < cfg.cores; ++c) {
            const MemRef ref = gens[c]->next();
            footprint.insert(pageOf(ref.addr));
            auto cr = cache.access(blockOf(ref.addr), ref.isWrite);
            if (cr.writebackTag)
                store.update(*cr.writebackTag);
            if ((++refs % sample_every) == 0) {
                res.timeline.emplace_back(
                    refs, footprint.size() * flatEntryBytes +
                              store.dynamicBytes());
            }
        }
    }

    const auto b = store.breakdown();
    // Flat entries are statically allocated for the OS-reported RSS
    // (Section 7.2), which includes resident-but-cold pages the
    // window never touches (allocator arenas, cold KV values).
    const std::uint64_t declared_pages =
        workloadInfo(cfg.workload).simFootprintBytes / pageSize *
        cfg.cores;
    res.footprintPages =
        std::max<std::uint64_t>(footprint.size(), declared_pages);
    res.unevenPages = b.uneven;
    res.fullPages = b.full;
    res.flatPages = res.footprintPages >= b.uneven + b.full
                        ? res.footprintPages - b.uneven - b.full
                        : 0;
    res.updates = store.updates();
    res.resets = store.resets();

    if (res.footprintPages > 0) {
        const double fp = static_cast<double>(res.footprintPages);
        res.avgEntryBytesPerPage =
            (fp * flatEntryBytes + b.uneven * unevenEntryBytes +
             b.full * fullEntryBytes) /
            fp;
        const double pages_per_tb = 1e12 / pageSize;
        res.flatGbPerTb = pages_per_tb * flatEntryBytes / 1e9;
        res.unevenGbPerTb = pages_per_tb * (b.uneven / fp) *
                            unevenEntryBytes / 1e9;
        res.fullGbPerTb = pages_per_tb * (b.full / fp) *
                          fullEntryAllocBytes / 1e9;
    } else {
        res.avgEntryBytesPerPage = flatEntryBytes;
    }
    return res;
}

std::string
TripProfileCache::keyOf(const TripAnalysisConfig &cfg)
{
    // Every field that feeds the analysis; a new config knob must be
    // added here or equal-key configs could alias (the unit test
    // exercises each existing field).
    std::ostringstream key;
    key << cfg.workload << '|' << cfg.cores << '|' << cfg.seed << '|'
        << cfg.cacheBytes << '|' << cfg.cacheAssoc << '|'
        << cfg.refsPerCore << '|' << cfg.timelinePoints << '|'
        << cfg.trip.stealthBits << '|' << cfg.trip.uvBits << '|'
        << cfg.trip.resetLog2 << '|' << cfg.trip.offsetBits << '|'
        << cfg.trip.seed;
    return key.str();
}

const TripAnalysisResult &
TripProfileCache::get(const TripAnalysisConfig &cfg)
{
    const std::string key = keyOf(cfg);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
        ++hits_;
        return it->second;
    }
    ++misses_;
    return cache_.emplace(key, runTripAnalysis(cfg)).first->second;
}

} // namespace toleo
