/**
 * @file
 * Regression harness for the multi-node rack simulation
 * (sim/rack.hh): the golden-stats fixtures pinning fixed-seed
 * 4-node cells byte-for-byte (closed and open-loop), the 1-node
 * bit-identity invariant against a plain System::run, the
 * epoch-steppable run API, and the error paths that keep a rack
 * config honest.
 */

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "sim/intra_pool.hh"
#include "sim/rack.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "workload/trace_file.hh"

using namespace toleo;

namespace {

/**
 * The pinned rack cell: memcached is the most version-traffic-bound
 * workload (its Toleo link runs near saturation), so four nodes
 * behind one device exercise real queueing, and the window is long
 * enough for the stealth caches to reach eviction steady state.
 */
const SweepCell goldenCell{"memcached", EngineKind::Toleo};

SweepOptions
rackWindow(unsigned nodes)
{
    SweepOptions opts;
    opts.cores = 4;
    opts.warmupRefs = 20000;
    opts.measureRefs = 40000;
    opts.rackNodes = nodes;
    return opts;
}

std::string
dump(const SimStats &stats)
{
    return statsToJson(stats).dump(2);
}

/**
 * rackStatsToJson of runRackSweepCell(goldenCell, @p opts), run with
 * the in-cell thread knobs that no sweep sets: RackConfig::rackThreads
 * and every node's SystemConfig::intraThreads.
 */
std::string
goldenRackAtThreads(const SweepOptions &opts, unsigned rackThreads,
                    unsigned intraThreads)
{
    SystemConfig base = makeScaledConfig(goldenCell.workload,
                                         goldenCell.engine, opts.cores);
    base.seed = opts.seed;
    base.arrival = opts.arrival;
    base.intraThreads = intraThreads;
    RackConfig rc = makeRackConfig(opts.rackNodes, base);
    rc.rackThreads = rackThreads;
    rc.warmupRefs = opts.warmupRefs;
    rc.measureRefs = opts.measureRefs;
    return rackStatsToJson(runRack(rc)).dump(2);
}

} // namespace

TEST(Rack, OneNodeRackIsBitIdenticalToSingleSystemRun)
{
    // The rack path reroutes everything through the shared device,
    // the epoch-stepped loop, and the arbiter; with one node all of
    // it must be an exact no-op.  Cover a version-heavy and a
    // version-light workload plus a non-Toleo engine.
    struct Case
    {
        const char *workload;
        EngineKind engine;
    };
    for (const Case &c :
         {Case{"bsw", EngineKind::Toleo},
          Case{"memcached", EngineKind::Toleo},
          Case{"redis", EngineKind::NoProtect}}) {
        SystemConfig base = makeScaledConfig(c.workload, c.engine, 2);
        base.seed = 42;
        RackConfig rc = makeRackConfig(1, base);
        rc.warmupRefs = 2000;
        rc.measureRefs = 6000;
        const RackStats rack = runRack(rc);

        System solo(base);
        const SimStats ref = solo.run(2000, 6000);

        ASSERT_EQ(rack.nodes.size(), 1u);
        EXPECT_EQ(dump(rack.nodes[0].sim), dump(ref))
            << c.workload << "/" << engineKindName(c.engine);
        EXPECT_EQ(rack.nodes[0].contentionStallNs, 0.0);
        EXPECT_EQ(rack.nodes[0].peakBacklogBytes, 0u);
        EXPECT_EQ(rack.saturatedEpochs, 0u);
        EXPECT_EQ(rack.devicePeakBacklogBytes, 0u);
    }
}

TEST(Rack, EpochSteppedLoopMatchesMonolithicRun)
{
    // The beginRun/stepEpoch/finishRun decomposition must perform
    // the identical operation sequence to run().
    SystemConfig cfg = makeScaledConfig("redis", EngineKind::Toleo, 2);
    cfg.seed = 7;

    System a(cfg);
    const SimStats ra = a.run(1500, 4500);

    System b(cfg);
    b.beginRun(1500, 4500);
    std::uint64_t steps = 0;
    while (b.stepEpoch())
        ++steps;
    const SimStats rb = b.finishRun();

    EXPECT_EQ(dump(ra), dump(rb));
    // Every true return closed one boundary; the final (false)
    // step closed the run-ending boundary on top.
    EXPECT_EQ(b.epochsCompleted(), steps + 1);
    EXPECT_TRUE(b.measuring());
}

TEST(Rack, FourNodeContentionIsVisibleAndCharged)
{
    const RackStats rack = runRackSweepCell(goldenCell, rackWindow(4));
    ASSERT_EQ(rack.nodes.size(), 4u);

    // The shared device saturates in some (not all) epochs...
    EXPECT_GT(rack.saturatedEpochs, 0u);
    EXPECT_LT(rack.saturatedEpochs, rack.epochs);
    EXPECT_GT(rack.devicePeakBacklogBytes, 0u);

    // ...and the queueing lands on the nodes as core stall.
    double total_stall = 0.0;
    for (const RackNodeStats &node : rack.nodes) {
        EXPECT_GT(node.deviceRequests, 0u);
        EXPECT_GT(node.toleoLinkBytes, 0u);
        total_stall += node.contentionStallNs;
    }
    EXPECT_GT(total_stall, 0.0);

    // Node 0 seeds identically to a lone run; contention can only
    // slow it down, never speed it up.
    const RackStats solo = runRackSweepCell(goldenCell, rackWindow(1));
    EXPECT_EQ(solo.nodes[0].contentionStallNs, 0.0);
    EXPECT_GE(rack.nodes[0].sim.execSeconds,
              solo.nodes[0].sim.execSeconds);

    // One store really holds the whole rack: four nodes' slices
    // touch more pages than one node's.
    EXPECT_GT(rack.sharedTouchedPages, solo.sharedTouchedPages);
    EXPECT_GT(rack.deviceGrantedBytes, solo.deviceGrantedBytes);
}

TEST(Rack, StagedEpochHalvesMatchInterleavedStep)
{
    // Both orders of the same per-item executors must agree: for
    // every epoch, stepEpochPrivate() + replayEpochShared() (all
    // private halves, then all shared halves -- the order the rack
    // pool relies on) must be bit-identical to one stepEpoch() (each
    // item's halves back to back) -- same return values, same epoch
    // count, same final stats.  Covered for a version-heavy Toleo
    // node and an open-loop serving node (the staged request
    // boundaries are the subtle part).
    for (const bool serving : {false, true}) {
        SystemConfig cfg =
            makeScaledConfig("memcached", EngineKind::Toleo, 2);
        cfg.seed = 11;
        if (serving) {
            std::string err;
            ASSERT_TRUE(
                parseArrivalSpec("burst:1e6,2", cfg.arrival, err));
        }

        System interleaved(cfg);
        interleaved.beginRun(2000, 6000);
        System staged(cfg);
        staged.beginRun(2000, 6000);

        bool moreInterleaved = true, moreStaged = true;
        while (moreInterleaved) {
            moreInterleaved = interleaved.stepEpoch();
            moreStaged = staged.stepEpochPrivate();
            staged.replayEpochShared();
            ASSERT_EQ(moreInterleaved, moreStaged)
                << "serving=" << serving;
            ASSERT_EQ(interleaved.epochsCompleted(),
                      staged.epochsCompleted());
        }
        EXPECT_EQ(dump(interleaved.finishRun()),
                  dump(staged.finishRun()))
            << "serving=" << serving;
    }
}

TEST(Rack, StagedEpochMisuseThrows)
{
    SystemConfig cfg = makeScaledConfig("bsw", EngineKind::Toleo, 2);
    // Several epochs per run window, so a staged epoch is never the
    // run-closing one and every step below returns true.
    cfg.epochRefs = 1000;
    System sys(cfg);
    sys.beginRun(1000, 2000);

    // Replay with nothing staged.
    EXPECT_THROW(sys.replayEpochShared(), std::logic_error);

    // Staging (or stepping) twice without replaying in between.
    ASSERT_TRUE(sys.stepEpochPrivate());
    EXPECT_THROW(sys.stepEpochPrivate(), std::logic_error);
    EXPECT_THROW(sys.stepEpoch(), std::logic_error);

    // The staged epoch is still intact: replay and carry on.
    sys.replayEpochShared();
    EXPECT_THROW(sys.replayEpochShared(), std::logic_error);
    EXPECT_TRUE(sys.stepEpoch());

    // beginRun clears a pending replay.
    ASSERT_TRUE(sys.stepEpochPrivate());
    sys.beginRun(1000, 2000);
    EXPECT_THROW(sys.replayEpochShared(), std::logic_error);
    EXPECT_TRUE(sys.stepEpoch());
}

TEST(Rack, RackThreadsAreBitIdentical)
{
    // The headline determinism contract of RackConfig::rackThreads:
    // the full RackStats record (per-node sims, contention counters,
    // device scalars) is byte-identical to the sweep's serial cell for
    // any thread count, and across repeated runs of the same count.
    const SweepOptions opts = rackWindow(4);
    const std::string serial =
        rackStatsToJson(runRackSweepCell(goldenCell, opts)).dump(2);
    for (const unsigned threads : {2u, 8u})
        EXPECT_EQ(serial, goldenRackAtThreads(opts, threads, 1))
            << "rackThreads=" << threads;
    // Repeat at 8 (well past the 4-node clamp): run-to-run identity.
    EXPECT_EQ(serial, goldenRackAtThreads(opts, 8, 1));
}

TEST(Rack, RackThreadsComposeWithIntraThreadsAndServing)
{
    // Both in-cell tiers at once -- rack workers outside, per-node
    // intra pools inside, plus the open-loop overlay whose staged
    // request boundaries ride the private phase -- must still
    // reproduce the serial record byte-for-byte.
    SweepOptions opts = rackWindow(3);
    std::string err;
    ASSERT_TRUE(parseArrivalSpec("poisson:2e6", opts.arrival, err));
    const std::string serial =
        rackStatsToJson(runRackSweepCell(goldenCell, opts)).dump(2);
    EXPECT_EQ(serial, goldenRackAtThreads(opts, 3, 2));
}

TEST(Rack, OneNodeRackWithRackThreadsKeepsSoloInvariant)
{
    // rackThreads clamps to the node count, so a 1-node rack takes
    // the serial path and the 1-node == System::run invariant must
    // hold no matter what was requested.
    SystemConfig base = makeScaledConfig("bsw", EngineKind::Toleo, 2);
    base.seed = 42;
    RackConfig rc = makeRackConfig(1, base);
    rc.warmupRefs = 2000;
    rc.measureRefs = 6000;
    rc.rackThreads = 8;
    const RackStats rack = runRack(rc);

    System solo(base);
    EXPECT_EQ(dump(rack.nodes[0].sim), dump(solo.run(2000, 6000)));
    EXPECT_EQ(rack.nodes[0].contentionStallNs, 0.0);
}

TEST(Rack, WorkerExceptionsPropagateToTheCaller)
{
    // The rack node pool is an IntraPool: a throwing node body must
    // surface on the caller after the barrier (not terminate), and
    // the pool must stay usable for the next epoch.
    IntraPool pool(4);
    std::atomic<unsigned> ran{0};
    try {
        pool.run(8, [&](unsigned i) {
            if (i == 5)
                throw std::runtime_error("node 5 failed");
            ++ran;
        });
        FAIL() << "worker exception was swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "node 5 failed");
    }
    // Everything except the throwing index still ran exactly once.
    EXPECT_EQ(ran.load(), 7u);

    ran = 0;
    pool.run(8, [&](unsigned) { ++ran; });
    EXPECT_EQ(ran.load(), 8u);
}

TEST(Rack, MixedArrivalConfigsAreRejected)
{
    // The rack serving aggregate is only meaningful when every node
    // runs the same arrival model against the same SLO; anything
    // mixed must throw instead of reporting whichever node was
    // aggregated last (the historical bug).
    SystemConfig base = makeScaledConfig("kvs", EngineKind::Toleo, 2);
    std::string err;

    RackConfig rc = makeRackConfig(2, base);
    ASSERT_TRUE(
        parseArrivalSpec("poisson:1e6", rc.nodes[0].arrival, err));
    EXPECT_THROW(runRack(rc), std::invalid_argument); // open + closed

    ASSERT_TRUE(
        parseArrivalSpec("burst:1e6,2", rc.nodes[1].arrival, err));
    EXPECT_THROW(runRack(rc), std::invalid_argument); // poisson+burst

    ASSERT_TRUE(
        parseArrivalSpec("poisson:1e6", rc.nodes[1].arrival, err));
    rc.nodes[1].arrival.sloUs = rc.nodes[0].arrival.sloUs * 2;
    EXPECT_THROW(runRack(rc), std::invalid_argument); // mixed SLO

    // Different *rates* under one model are legal: they sum.
    rc.nodes[1].arrival.sloUs = rc.nodes[0].arrival.sloUs;
    rc.nodes[1].arrival.ratePerSec = 2e6;
    rc.warmupRefs = 1000;
    rc.measureRefs = 3000;
    const RackStats rack = runRack(rc);
    EXPECT_DOUBLE_EQ(rack.serving.offeredRatePerSec, 3e6);
}

TEST(Rack, InvalidConfigsThrow)
{
    EXPECT_THROW(runRack(RackConfig{}), std::invalid_argument);

    // A device slower than a node's own link would stall even an
    // uncontended node: reject instead of silently breaking the
    // 1-node invariant.
    SystemConfig base = makeScaledConfig("bsw", EngineKind::Toleo, 2);
    RackConfig rc = makeRackConfig(2, base);
    rc.deviceServiceGBps = 0.5 * base.mem.toleoLinkBandwidthGBps;
    EXPECT_THROW(runRack(rc), std::invalid_argument);

    const std::vector<SweepCell> cell = {
        {"bsw", EngineKind::Toleo}};
    SweepOptions opts = rackWindow(0);
    EXPECT_THROW(runRackSweep(cell, opts), std::invalid_argument);
}

namespace {

std::size_t
commas(const std::string &s)
{
    std::size_t n = 0;
    for (char c : s)
        n += c == ',' ? 1u : 0u;
    return n;
}

} // namespace

TEST(Rack, CsvRowsMatchHeaderAndDenormalizeRackScalars)
{
    RackStats stats;
    stats.nodes.resize(2);
    stats.nodes[0].sim.workload = "bsw";
    stats.nodes[0].sim.engine = "toleo";
    stats.nodes[1].sim.workload = "bsw";
    stats.nodes[1].sim.engine = "toleo";
    stats.nodes[1].deviceRequests = 7;
    stats.epochs = 11;
    stats.deviceServiceGBps = 3.5;

    // Every row lines up with the header, column for column.
    const std::string header = rackCsvHeader();
    const std::string r0 = rackCsvRow(stats, 0);
    const std::string r1 = rackCsvRow(stats, 1);
    EXPECT_EQ(commas(header), commas(r0));
    EXPECT_EQ(commas(header), commas(r1));

    // The node index is the first column; the single-sim columns are
    // embedded unchanged.
    EXPECT_EQ(r0.rfind("0,", 0), 0u);
    EXPECT_EQ(r1.rfind("1,", 0), 0u);
    EXPECT_NE(r0.find(statsCsvRow(stats.nodes[0].sim)),
              std::string::npos);

    // Rack-level scalars are denormalized onto every node row, so a
    // concatenated sweep stays filterable without a join.
    EXPECT_NE(r0.find(",11,"), std::string::npos);
    EXPECT_NE(r1.find(",11,"), std::string::npos);
    EXPECT_NE(r1.find(",3.5,"), std::string::npos);

    EXPECT_THROW(rackCsvRow(stats, 2), std::out_of_range);
}

#ifdef TOLEO_RACK_GOLDEN

TEST(RackGolden, FourNodeFixedSeedStatsArePinned)
{
    // The full RackStats record of fixed-seed 4-node cells,
    // byte-for-byte: the memcached cell closed-loop and under a bursty
    // open-loop arrival, a request app (whose generator marks its own
    // request ends) under Poisson arrivals, and a Poisson replay of
    // the committed capture (sliced into fixed-size requests).  Any
    // drift in the hot loop, the arbiter, the shared store, the
    // serving overlay, or the serializers shows up here first.
    // After an *intended* change, regenerate with
    //
    //   TOLEO_UPDATE_GOLDEN=1 ./tests/test_rack
    //       --gtest_filter=RackGolden.*
    //
    // and commit the refreshed tests/data/golden_rack4*.json.
    struct Input
    {
        const char *workload;
        const char *arrival;
        const char *trace; ///< replayed capture, or nullptr
        const char *golden;
    };
    for (const Input &input :
         {Input{"memcached", "closed", nullptr, TOLEO_RACK_GOLDEN},
          Input{"memcached", "burst:1e6,2", nullptr,
                TOLEO_RACK_BURST_GOLDEN},
          Input{"kvs", "poisson:1e6", nullptr, TOLEO_RACK_KVS_GOLDEN},
          Input{"bsw", "poisson:1e6", TOLEO_TRACE_FIXTURE,
                TOLEO_RACK_REPLAY_GOLDEN}}) {
        SweepOptions opts = rackWindow(4);
        std::string err;
        ASSERT_TRUE(parseArrivalSpec(input.arrival, opts.arrival, err))
            << err;
        if (input.trace)
            opts.trace = TraceFile::open(input.trace);
        const RackStats stats = runRackSweepCell(
            {input.workload, EngineKind::Toleo}, opts);
        const std::string got = rackStatsToJson(stats).dump(2) + "\n";

        // Golden-regeneration entry point, never read during a normal
        // test run.  toleo-lint: allow(nondeterminism)
        if (const char *update = std::getenv("TOLEO_UPDATE_GOLDEN");
            update && *update) {
            std::ofstream out(input.golden,
                              std::ios::binary | std::ios::trunc);
            out << got;
            ASSERT_TRUE(out.good()) << "cannot write " << input.golden;
        }

        std::ifstream in(input.golden, std::ios::binary);
        ASSERT_TRUE(in.good())
            << "missing golden fixture " << input.golden
            << " (regenerate as described above)";
        std::ostringstream want;
        want << in.rdbuf();
        EXPECT_EQ(got, want.str())
            << "fixed-seed " << input.workload << " " << input.arrival
            << " RackStats drifted from the committed golden "
            << input.golden;
    }
}

#endif // TOLEO_RACK_GOLDEN
