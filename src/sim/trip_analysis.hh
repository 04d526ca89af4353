/**
 * @file
 * Cache-only long-run Trip analysis (Section 7.2).
 *
 * The paper's Trip-format statistics come from long simulations "with
 * Sniper in cache-only mode": no timing, just the reference stream
 * filtered through a cache (which coalesces repeated writes) into the
 * version store.  This runner reproduces that methodology: millions
 * of references per core stream through a write-back filter cache;
 * dirty evictions drive TripStore updates; the touched footprint
 * models the RSS.  It is ~50x faster per reference than the timing
 * simulation, which is what lets format drift (uneven/full upgrades)
 * reach steady state the way the paper's 32-billion-instruction runs
 * do.  Its timeline is the one usage-over-time model (Figure 12);
 * the timing System reports only the end-of-run usage.
 */

#ifndef TOLEO_SIM_TRIP_ANALYSIS_HH
#define TOLEO_SIM_TRIP_ANALYSIS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "toleo/trip.hh"

namespace toleo {

struct TripAnalysisConfig
{
    std::string workload = "bsw";
    unsigned cores = 8;
    std::uint64_t seed = 42;
    /** Write-coalescing filter capacity (models the cache system). */
    std::uint64_t cacheBytes = 512 * KiB;
    std::uint64_t refsPerCore = 2'000'000;
};

struct TripAnalysisResult
{
    std::string workload;
    /** The store's usage over the RSS (Figs 10, 11, Table 4). */
    TripStore::Usage usage;
    std::uint64_t updates = 0;
    std::uint64_t resets = 0;

    /** (references, usage bytes) over time (Figure 12). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> timeline;
};

/** Run the cache-only analysis for one workload. */
TripAnalysisResult runTripAnalysis(const TripAnalysisConfig &cfg);

} // namespace toleo

#endif // TOLEO_SIM_TRIP_ANALYSIS_HH
