/**
 * @file
 * The paper record: every simulation that bench/paper's figures and
 * tables share, each run once.
 *
 * Figs 6-9, Table 2, Section 7.3 and the IDE-skid and Merkle
 * ablations print cells of one grid: the 12 paper workloads under
 * NoProtect, C, CI, Toleo and InvisiMem at SweepOptions{}'s window,
 * an 8-core scaled node (the paper itself scales its 128-core node
 * down 4x; we scale once more to keep the run in seconds) with
 * warmup/measure windows sized so rates (MPKI, hit rates,
 * bytes/instruction) are stable.  Figs 10-12, Table 4 and the
 * Trip-format ablation print long cache-only Trip analyses of every
 * workload, at two windows.  A section looks its numbers up by name,
 * so it cannot print another cell's numbers.  Absolute times are not
 * comparable to the paper's testbed; shapes and ratios are.
 */

#ifndef TOLEO_BENCH_BENCH_UTIL_HH
#define TOLEO_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "sim/trip_analysis.hh"

namespace toleo {

/** Trip window of Figs 10 and 11, references per core. */
constexpr std::uint64_t longTripRefs = 2'000'000;
/** Trip window of Fig 12, Table 4 and the Trip-format ablation. */
constexpr std::uint64_t shortTripRefs = 1'000'000;

class PaperRecord
{
  public:
    /** Run the grid on one pool thread per hardware thread (as
     *  toleo_sim's auto --jobs does), then every Trip analysis. */
    PaperRecord()
    {
        SweepOptions opts;
        opts.jobs = std::max(1u, std::thread::hardware_concurrency());
        grid_ = runSweep(
            makeSweepGrid(paperWorkloads(),
                          {EngineKind::NoProtect, EngineKind::C,
                           EngineKind::CI, EngineKind::Toleo,
                           EngineKind::InvisiMem}),
            opts);
        for (std::uint64_t refs : {longTripRefs, shortTripRefs}) {
            for (const auto &name : paperWorkloads()) {
                TripAnalysisConfig cfg;
                cfg.workload = name;
                cfg.refsPerCore = refs;
                trips_.push_back({refs, runTripAnalysis(cfg)});
            }
        }
    }

    /** The grid cell of @p workload under @p engine. */
    const SimStats &
    cell(const std::string &workload, EngineKind engine) const
    {
        const std::string name = engineKindName(engine);
        for (const auto &st : grid_)
            if (st.workload == workload && st.engine == name)
                return st;
        panic("paper record has no %s/%s cell", workload.c_str(),
              name.c_str());
    }

    /** The Trip analysis of @p workload at @p refsPerCore. */
    const TripAnalysisResult &
    trip(const std::string &workload, std::uint64_t refsPerCore) const
    {
        for (const auto &t : trips_)
            if (t.refsPerCore == refsPerCore &&
                t.result.workload == workload)
                return t.result;
        panic("paper record has no %s Trip analysis at %llu refs",
              workload.c_str(),
              static_cast<unsigned long long>(refsPerCore));
    }

  private:
    struct TripRun
    {
        std::uint64_t refsPerCore = 0;
        TripAnalysisResult result;
    };

    std::vector<SimStats> grid_;
    std::vector<TripRun> trips_;
};

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
