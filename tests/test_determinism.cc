/**
 * @file
 * Determinism regression tests for the sweep pipeline.
 *
 * The per-reference hot loop is heavily restructured for speed
 * (per-core private batching, shared-event replay, MRU shortcuts,
 * reciprocal-based bounded draws); these tests pin down the contract
 * that none of it is observable: a fixed seed produces byte-identical
 * statsToJson output across repeated runs and across worker-thread
 * counts, and a sweep survives a throwing cell with a real exception
 * instead of std::terminate.
 */

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rack.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

using namespace toleo;

namespace {

SweepOptions
tinyWindow(unsigned jobs)
{
    SweepOptions opts;
    opts.cores = 2;
    opts.warmupRefs = 1000;
    opts.measureRefs = 3000;
    opts.jobs = jobs;
    return opts;
}

std::vector<SweepCell>
smallGrid()
{
    // One engine of each flavor that exercises distinct machinery.
    return makeSweepGrid({"bsw", "redis"},
                         {EngineKind::NoProtect, EngineKind::Toleo,
                          EngineKind::Merkle});
}

std::vector<std::string>
dumpAll(const std::vector<SimStats> &results)
{
    std::vector<std::string> dumps;
    dumps.reserve(results.size());
    for (const auto &stats : results)
        dumps.push_back(statsToJson(stats).dump(2));
    return dumps;
}

} // namespace

TEST(Determinism, SameSeedSameBytesAcrossRuns)
{
    const auto cells = smallGrid();
    const auto a = dumpAll(runSweep(cells, tinyWindow(1)));
    const auto b = dumpAll(runSweep(cells, tinyWindow(1)));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << cells[i].workload << "/"
                              << engineKindName(cells[i].engine);
}

TEST(Determinism, SameSeedSameBytesAcrossJobCounts)
{
    const auto cells = smallGrid();
    const auto serial = dumpAll(runSweep(cells, tinyWindow(1)));
    const auto parallel = dumpAll(runSweep(cells, tinyWindow(4)));
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i])
            << cells[i].workload << "/"
            << engineKindName(cells[i].engine);
}

TEST(Determinism, DifferentSeedsDiffer)
{
    // Sanity check that the byte-compare above is not vacuous.
    SweepOptions a = tinyWindow(1);
    SweepOptions b = tinyWindow(1);
    b.seed = 43;
    const SweepCell cell{"bsw", EngineKind::Toleo};
    EXPECT_NE(statsToJson(runSweepCell(cell, a)).dump(2),
              statsToJson(runSweepCell(cell, b)).dump(2));
}

TEST(SweepErrors, CellExceptionSurfacesAfterJoin)
{
    const auto cells = smallGrid();
    const auto boom = [](const SweepCell &cell,
                         const SweepOptions &opts) -> SimStats {
        if (cell.engine == EngineKind::Merkle)
            throw std::runtime_error("injected cell failure");
        return runSweepCell(cell, opts);
    };
    // Parallel: the exception must cross the worker-thread boundary
    // instead of calling std::terminate.
    EXPECT_THROW(runSweep(cells, tinyWindow(4), {}, boom),
                 std::runtime_error);
    // Serial path takes the same capture-and-rethrow route.
    EXPECT_THROW(runSweep(cells, tinyWindow(1), {}, boom),
                 std::runtime_error);
}

TEST(SweepErrors, FirstErrorWinsAndStopsDispatch)
{
    const auto cells = smallGrid();
    try {
        runSweep(cells, tinyWindow(1), {},
                 [](const SweepCell &, const SweepOptions &)
                     -> SimStats {
                     throw std::runtime_error("cell 0 failed");
                 });
        FAIL() << "expected runSweep to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "cell 0 failed");
    }
}

namespace {

/**
 * A rack grid covering a contended Toleo cell (memcached runs its
 * device link near saturation, so the arbiter really queues) and a
 * no-device engine, at 3 nodes so the round-robin order matters.
 */
std::vector<SweepCell>
rackGrid()
{
    return makeSweepGrid({"memcached", "bsw"},
                         {EngineKind::Toleo, EngineKind::NoProtect});
}

SweepOptions
rackWindow(unsigned jobs)
{
    SweepOptions opts;
    opts.cores = 2;
    opts.warmupRefs = 2000;
    opts.measureRefs = 6000;
    opts.jobs = jobs;
    opts.rackNodes = 3;
    return opts;
}

std::vector<std::string>
dumpAllRacks(const std::vector<RackStats> &results)
{
    std::vector<std::string> dumps;
    dumps.reserve(results.size());
    for (const auto &stats : results)
        dumps.push_back(rackStatsToJson(stats).dump(2));
    return dumps;
}

} // namespace

TEST(RackDeterminism, SameSeedSameBytesAcrossRuns)
{
    const auto cells = rackGrid();
    const auto a = dumpAllRacks(runRackSweep(cells, rackWindow(1)));
    const auto b = dumpAllRacks(runRackSweep(cells, rackWindow(1)));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << cells[i].workload << "/"
                              << engineKindName(cells[i].engine);
}

TEST(RackDeterminism, SameSeedSameBytesAcrossJobCounts)
{
    // Rack cells are self-contained (each builds its own shared
    // device and arbiter), so worker-thread interleaving must be
    // invisible just like in the single-node sweep.
    const auto cells = rackGrid();
    const auto serial = dumpAllRacks(runRackSweep(cells, rackWindow(1)));
    const auto parallel =
        dumpAllRacks(runRackSweep(cells, rackWindow(4)));
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i])
            << cells[i].workload << "/"
            << engineKindName(cells[i].engine);
}

TEST(RackDeterminism, DifferentSeedsDiffer)
{
    SweepOptions a = rackWindow(1);
    SweepOptions b = rackWindow(1);
    b.seed = 43;
    const SweepCell cell{"memcached", EngineKind::Toleo};
    EXPECT_NE(rackStatsToJson(runRackSweepCell(cell, a)).dump(2),
              rackStatsToJson(runRackSweepCell(cell, b)).dump(2));
}

namespace {

/** tinyWindow with enough cores that an 8-thread intra-cell pool is
 *  not clamped down to the core count. */
SweepOptions
intraWindow(unsigned jobs, unsigned intra)
{
    SweepOptions opts = tinyWindow(jobs);
    opts.cores = 8;
    opts.intraThreads = intra;
    return opts;
}

} // namespace

// ---------------------------------------------------------------------
// Intra-cell (private-phase) threading: SystemConfig::intraThreads
// runs each core's generator draws and L1/L2 accesses on a worker
// pool, with the shared phase replaying the exact global order.  The
// contract is the same as for --jobs: not observable in the stats.
// ---------------------------------------------------------------------

TEST(IntraThreadDeterminism, SameSeedSameBytesAcrossThreadCounts)
{
    const auto cells = smallGrid();
    const auto one = dumpAll(runSweep(cells, intraWindow(1, 1)));
    const auto two = dumpAll(runSweep(cells, intraWindow(1, 2)));
    const auto eight = dumpAll(runSweep(cells, intraWindow(1, 8)));
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, eight);
}

TEST(IntraThreadDeterminism, ComposesWithCrossCellJobs)
{
    // jobs x intraThreads: every cell gets its own pool while the
    // cells themselves run on the cross-cell pool.
    const auto cells = smallGrid();
    const auto serial = dumpAll(runSweep(cells, intraWindow(1, 1)));
    const auto composed = dumpAll(runSweep(cells, intraWindow(4, 2)));
    EXPECT_EQ(serial, composed);
}

TEST(IntraThreadDeterminism, RackNodesSameBytesAcrossThreadCounts)
{
    const auto cells = rackGrid();
    SweepOptions w1 = rackWindow(1);
    SweepOptions w2 = rackWindow(1);
    w2.intraThreads = 2;
    SweepOptions w8 = rackWindow(1);
    w8.intraThreads = 8; // clamped to the per-node core count
    const auto one = dumpAllRacks(runRackSweep(cells, w1));
    const auto two = dumpAllRacks(runRackSweep(cells, w2));
    const auto eight = dumpAllRacks(runRackSweep(cells, w8));
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, eight);
}

namespace {

/** An open-loop grid: request-shaped apps plus a classic mix
 *  workload, all under a Poisson arrival process. */
std::vector<SweepCell>
openGrid()
{
    return makeSweepGrid({"kvs", "nat", "redis"},
                         {EngineKind::NoProtect, EngineKind::Toleo});
}

SweepOptions
openWindow(unsigned jobs, unsigned intra = 1)
{
    SweepOptions opts;
    opts.cores = 8;
    opts.warmupRefs = 1000;
    opts.measureRefs = 3000;
    opts.jobs = jobs;
    opts.intraThreads = intra;
    opts.arrival.kind = ArrivalKind::Poisson;
    opts.arrival.ratePerSec = 2e6;
    return opts;
}

} // namespace

// ---------------------------------------------------------------------
// Open-loop serving: the arrival overlay (per-request latency, SLO
// attainment, the latency histogram) obeys the exact same determinism
// contract as the rest of the stats -- fixed seed => byte-identical
// serving block across runs, worker counts, and intra-cell pools.
// ---------------------------------------------------------------------

TEST(ServingDeterminism, SameSeedSameBytesAcrossRuns)
{
    const auto cells = openGrid();
    const auto a = dumpAll(runSweep(cells, openWindow(1)));
    const auto b = dumpAll(runSweep(cells, openWindow(1)));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]) << cells[i].workload << "/"
                              << engineKindName(cells[i].engine);
        // Not vacuous: every dump really carries a serving block.
        EXPECT_NE(a[i].find("\"serving\""), std::string::npos);
    }
}

TEST(ServingDeterminism, SameSeedSameBytesAcrossJobCounts)
{
    const auto cells = openGrid();
    EXPECT_EQ(dumpAll(runSweep(cells, openWindow(1))),
              dumpAll(runSweep(cells, openWindow(4))));
}

TEST(ServingDeterminism, SameSeedSameBytesAcrossIntraThreadCounts)
{
    // Request boundaries are staged in the parallel private phase but
    // finalized in deterministic shared-phase round order, so the
    // intra-cell pool size must be invisible here too.
    const auto cells = openGrid();
    EXPECT_EQ(dumpAll(runSweep(cells, openWindow(1, 1))),
              dumpAll(runSweep(cells, openWindow(1, 8))));
}

TEST(ServingDeterminism, RackSameBytesAcrossRunsAndThreads)
{
    const auto cells =
        makeSweepGrid({"kvs"}, {EngineKind::Toleo});
    SweepOptions w = openWindow(1);
    w.rackNodes = 2;
    SweepOptions w8 = openWindow(1, 8);
    w8.rackNodes = 2;
    const auto a = dumpAllRacks(runRackSweep(cells, w));
    const auto b = dumpAllRacks(runRackSweep(cells, w));
    const auto c = dumpAllRacks(runRackSweep(cells, w8));
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_NE(a[0].find("\"serving\""), std::string::npos);
}

TEST(SweepTiming, PhaseBreakdownReported)
{
    // perfbench's traced run turns SystemConfig::phaseTimers on and
    // attributes host time from phaseTimes(); that is only sound if
    // the timers leave every statistic untouched.
    const SweepOptions w = tinyWindow(1);
    for (const SweepCell &cell : smallGrid()) {
        SystemConfig cfg =
            makeScaledConfig(cell.workload, cell.engine, w.cores);
        cfg.seed = w.seed;
        System plain(cfg);
        const std::string want =
            statsToJson(plain.run(w.warmupRefs, w.measureRefs)).dump(2);
        cfg.phaseTimers = true;
        System timed(cfg);
        const std::string got =
            statsToJson(timed.run(w.warmupRefs, w.measureRefs)).dump(2);
        const std::string name =
            cell.workload + "/" + engineKindName(cell.engine);
        EXPECT_EQ(got, want) << name;
        // Every cell simulates real work in both phases; the epoch
        // accumulator can be arbitrarily small but never negative.
        const PhaseTimes ph = timed.phaseTimes();
        EXPECT_GT(ph.privateNs, 0.0) << name;
        EXPECT_GT(ph.sharedNs, 0.0) << name;
        EXPECT_GE(ph.epochNs, 0.0) << name;
    }
}
