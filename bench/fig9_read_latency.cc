/**
 * @file
 * Figure 9: average memory read latency under NoProtect, C, CI,
 * CI+Toleo, and InvisiMem, plus the zero-load DRAM reference line.
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace toleo;

int
main()
{
    setVerbose(false);
    printHeader("Figure 9: Average Memory Read Latency (ns)");

    const EngineKind kinds[] = {EngineKind::NoProtect, EngineKind::C,
                                EngineKind::CI, EngineKind::Toleo,
                                EngineKind::InvisiMem};

    std::printf("zero-load local DRAM: %.0f ns\n\n", ddrLatencyNs);

    std::printf("%-12s %10s %10s %10s %10s %10s\n", "bench",
                "NoProtect", "C", "CI", "CI+Toleo", "InvisiMem");
    double sums[5] = {0, 0, 0, 0, 0};
    for (const auto &name : paperWorkloads()) {
        std::printf("%-12s", name.c_str());
        int i = 0;
        for (auto kind : kinds) {
            const auto st = runExperiment(name, kind);
            std::printf(" %10.1f", st.avgReadLatencyNs);
            sums[i++] += st.avgReadLatencyNs;
        }
        std::printf("\n");
    }
    std::printf("%-12s", "average");
    for (double s : sums)
        std::printf(" %10.1f", s / paperWorkloads().size());
    std::printf("\n\npaper shape: C +18.6%%, I +36.9%% more, Toleo "
                "<5%% more (redis/memcached outliers), InvisiMem "
                "~2.1x NoProtect\n");
    return 0;
}
