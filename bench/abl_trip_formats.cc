/**
 * @file
 * Ablation: Trip compression vs alternatives.
 *
 * Compares trusted-memory bytes per touched page under:
 *  - naive: a full 27-bit stealth version per cache block (1:19);
 *  - flat-only: pages that would upgrade are stored uncompressed;
 *  - Trip (flat/uneven/full) as measured per workload.
 *
 * This regenerates the "what if we had no Trip" argument behind
 * Table 4 and Section 4.3.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "sim/trip_analysis.hh"
#include "toleo/version.hh"

using namespace toleo;

int
main()
{
    setVerbose(false);
    printHeader("Ablation: Version Compression Schemes (B per page)");

    // Naive representation: 64 blocks x 27 bits = 216 B/page.
    const double naive = 64.0 * 27 / 8;

    std::printf("%-12s %8s %10s %10s %12s\n", "bench", "naive",
                "flat-only", "Trip", "Trip ratio");

    double sum_trip = 0;
    for (const auto &name : paperWorkloads()) {
        TripAnalysisConfig cfg;
        cfg.workload = name;
        cfg.refsPerCore = 1'000'000;
        const auto u = runTripAnalysis(cfg).usage;
        // flat-only: any page that needed uneven/full falls back to
        // the naive full list.
        const double frac_irregular =
            u.share(u.unevenPages) + u.share(u.fullPages);
        const double flat_only =
            flatEntryBytes + frac_irregular * fullEntryBytes;
        std::printf("%-12s %8.0f %10.2f %10.2f %9.0f:1\n",
                    name.c_str(), naive, flat_only,
                    u.avgEntryBytesPerPage,
                    pageSize / u.avgEntryBytesPerPage);
        sum_trip += u.avgEntryBytesPerPage;
    }
    const double avg = sum_trip / paperWorkloads().size();
    std::printf("%-12s %8.0f %10s %10.2f %9.0f:1\n", "average", naive,
                "-", avg, pageSize / avg);
    std::printf("\npaper: naive 1:19 vs Trip 1:240 average "
                "(uneven as a middle tier buys ~%.0f%% of pages a "
                "4x cheaper fallback than full)\n",
                100.0 * (unevenEntryBytes * 1.0 / fullEntryBytes));
    return 0;
}
