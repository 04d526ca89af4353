/**
 * @file
 * Section 7.3: on-chip area/SRAM overhead accounting and the
 * freshness share of off-chip traffic.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "toleo/stealth_cache.hh"

using namespace toleo;

int
main()
{
    setVerbose(false);
    printHeader("Section 7.3: Area and Traffic Overhead");

    StealthCacheConfig sc;
    StealthCache cache(sc);
    std::printf("L2 TLB stealth extension: %u entries x %u B = %llu "
                "KB\n", sc.tlbEntries, StealthCache::tlbExtBytes,
                static_cast<unsigned long long>(
                    sc.tlbEntries * StealthCache::tlbExtBytes / KiB));
    std::printf("stealth overflow buffer:  %llu KB (%.1f%% of the "
                "1 MB MAC cache)\n",
                static_cast<unsigned long long>(sc.overflowBytes / KiB),
                100.0 * sc.overflowBytes / (1.0 * MiB));
    std::printf("total added SRAM:         %llu KB "
                "(paper: 31 KB for 32 cores)\n",
                static_cast<unsigned long long>(cache.sramBytes() /
                                                KiB));

    // Freshness share of off-chip bytes across the workloads.
    printHeader("Freshness share of off-chip traffic (Toleo config)");
    double worst = 0;
    for (const auto &name : paperWorkloads()) {
        const auto st = runExperiment(name, EngineKind::Toleo);
        const double total =
            st.dataBpi + st.macBpi + st.stealthBpi;
        const double share = total > 0 ? st.stealthBpi / total : 0;
        std::printf("%-12s stealth %6.3f B/inst = %5.2f%% of "
                    "off-chip bytes\n",
                    name.c_str(), st.stealthBpi, share * 100);
        worst = std::max(worst, share);
    }
    std::printf("\nworst case %.2f%% (paper: ~1%% of bytes fetched "
                "off-chip are for freshness)\n", worst * 100);
    return 0;
}
