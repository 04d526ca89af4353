/**
 * @file
 * Figure 11: peak Toleo usage per TB of protected data, split into
 * flat / uneven / full contributions (long cache-only runs).
 */

#include <cstdio>
#include <string>

#include "bench/bench_util.hh"
#include "sim/trip_analysis.hh"

using namespace toleo;

int
main()
{
    setVerbose(false);
    printHeader("Figure 11: Peak Toleo Usage (GB per TB protected)");

    std::printf("%-12s %8s %8s %8s %8s\n", "bench", "flat", "uneven",
                "full", "total");

    double worst = 0, sum = 0;
    std::string worst_name;
    for (const auto &name : paperWorkloads()) {
        TripAnalysisConfig cfg;
        cfg.workload = name;
        const auto u = runTripAnalysis(cfg).usage;
        std::printf("%-12s %8.2f %8.2f %8.2f %8.2f\n", name.c_str(),
                    u.flatGbPerTb, u.unevenGbPerTb, u.fullGbPerTb,
                    u.totalGbPerTb());
        sum += u.totalGbPerTb();
        if (u.totalGbPerTb() > worst) {
            worst = u.totalGbPerTb();
            worst_name = name;
        }
    }
    const double avg = sum / paperWorkloads().size();
    std::printf("%-12s %35.2f\n", "average", avg);
    std::printf("\n168 GB device protects ~%.0f TB at the average "
                "rate (paper: 4.27 GB/TB avg -> ~37 TB; fmi worst "
                "7.6 GB/TB)\n", 168.0 / avg);
    std::printf("worst locality here: %s (%.2f GB/TB)\n",
                worst_name.c_str(), worst);
    return 0;
}
