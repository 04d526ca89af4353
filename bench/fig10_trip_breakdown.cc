/**
 * @file
 * Figure 10: pages classified by Trip format after a long cache-only
 * run (the paper's Sniper cache-only methodology, Section 7.2).
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "sim/trip_analysis.hh"

using namespace toleo;

int
main()
{
    setVerbose(false);
    printHeader("Figure 10: Pages Classified by Trip Format");

    std::printf("%-12s %9s %9s %9s %10s\n", "bench", "flat%",
                "uneven%", "full%", "RSS pages");

    double sum_flat = 0, sum_uneven = 0, sum_full = 0;
    for (const auto &name : paperWorkloads()) {
        TripAnalysisConfig cfg;
        cfg.workload = name;
        const auto u = runTripAnalysis(cfg).usage;
        const double flat = u.share(u.flatPages);
        const double uneven = u.share(u.unevenPages);
        const double full = u.share(u.fullPages);
        std::printf("%-12s %8.1f%% %8.1f%% %8.2f%% %10llu\n",
                    name.c_str(), 100 * flat, 100 * uneven, 100 * full,
                    static_cast<unsigned long long>(u.rssPages));
        sum_flat += flat;
        sum_uneven += uneven;
        sum_full += full;
    }
    const double n = paperWorkloads().size();
    std::printf("%-12s %8.1f%% %8.1f%% %8.2f%%\n", "average",
                100 * sum_flat / n, 100 * sum_uneven / n,
                100 * sum_full / n);

    std::printf("\npaper: 92%% flat / 7.5%% uneven / 0.32%% full "
                "average; fmi worst; dbg/pileup/redis/memcached 98%% "
                "flat; bsw/chain/llama2 >96%% flat\n");
    return 0;
}
