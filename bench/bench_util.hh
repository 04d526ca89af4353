/**
 * @file
 * Shared helpers for the experiment harnesses in bench/.
 *
 * Every paper table/figure binary uses runExperiment() with a common
 * scaled-node configuration: 8 cores (the paper itself scales its
 * 128-core node down 4x; we scale once more to keep each binary in
 * seconds), default warmup/measure windows sized so rates (MPKI, hit
 * rates, bytes/instruction) are stable.  Absolute times are not
 * comparable to the paper's testbed; shapes and ratios are.
 */

#ifndef TOLEO_BENCH_BENCH_UTIL_HH
#define TOLEO_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace toleo {

/** The common experiment window; maps onto SweepOptions. */
struct BenchWindow
{
    std::uint64_t warmupRefs = 30000;
    std::uint64_t measureRefs = 60000;
    unsigned cores = 8;
    std::uint64_t seed = 42;

    SweepOptions sweepOptions() const
    {
        SweepOptions opts;
        opts.cores = cores;
        opts.warmupRefs = warmupRefs;
        opts.measureRefs = measureRefs;
        opts.seed = seed;
        return opts;
    }
};

/** Run one cell with the shared sweep API (see sim/sweep.hh). */
inline SimStats
runExperiment(const std::string &workload, EngineKind kind,
              const BenchWindow &w = {})
{
    return runSweepCell({workload, kind}, w.sweepOptions());
}

inline void
printHeader(const char *title)
{
    std::printf("\n%s\n", title);
    for (const char *p = title; *p; ++p)
        std::printf("=");
    std::printf("\n");
}

} // namespace toleo

#endif // TOLEO_BENCH_BENCH_UTIL_HH
