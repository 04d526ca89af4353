/**
 * @file
 * Ablation: CXL IDE skid mode (Sections 3.1, 4.1).
 *
 * Skid mode releases data before the link integrity check completes,
 * making IDE's latency contribution near zero; without it every Toleo
 * access serializes behind the flit MAC check.  The paper adopts skid
 * mode and parallelizes memory-security and IDE checks -- this sweep
 * shows what that choice is worth.
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace toleo;

int
main()
{
    setVerbose(false);
    printHeader("Ablation: CXL IDE Skid Mode");

    std::printf("%-12s %14s %14s %12s\n", "bench", "skid lat(ns)",
                "no-skid lat", "exec delta");
    for (const char *wl : {"bsw", "pr", "redis", "memcached"}) {
        SystemConfig skid = makeScaledConfig(wl, EngineKind::Toleo, 8);
        skid.mem.ideSkidMode = true;
        SystemConfig strict = skid;
        strict.mem.ideSkidMode = false;

        System a(skid), b(strict);
        const auto sa = a.run(30000, 60000);
        const auto sb = b.run(30000, 60000);
        std::printf("%-12s %14.1f %14.1f %+11.2f%%\n", wl,
                    sa.avgReadLatencyNs, sb.avgReadLatencyNs,
                    (sb.execSeconds / sa.execSeconds - 1.0) * 100.0);
    }
    std::printf("\npaper: skid mode makes IDE's latency/bandwidth "
                "overhead negligible; the non-skid penalty lands on "
                "every stealth-cache miss\n");
    return 0;
}
