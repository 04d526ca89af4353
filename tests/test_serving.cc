/**
 * @file
 * Open-loop serving tests: the arrival-model parser, transparency of
 * the RequestSource wrapper (the wrapped generator must emit the
 * exact same reference stream, with request ends flagged the same
 * way however it is batched), the contract that the serving overlay
 * never perturbs any non-serving statistic, monotone tail-latency
 * degradation as the offered rate crosses saturation, the rack-wide
 * aggregate, the record-closed/replay-open trace round trip, and
 * recording under an open arrival.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rack.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "workload/request.hh"
#include "workload/request_apps.hh"
#include "workload/trace_file.hh"
#include "workload/workload.hh"

using namespace toleo;

namespace {

SweepOptions
servingWindow(const std::string &arrival = "closed")
{
    SweepOptions opts;
    opts.cores = 2;
    opts.warmupRefs = 1000;
    opts.measureRefs = 4000;
    std::string err;
    if (!parseArrivalSpec(arrival, opts.arrival, err))
        ADD_FAILURE() << "bad arrival spec '" << arrival << "': "
                      << err;
    return opts;
}

/** Rebuild a JSON object without one top-level key. */
Json
dropKey(const Json &j, const std::string &key)
{
    Json out = Json::object();
    for (const auto &item : j.items())
        if (item.first != key)
            out[item.first] = item.second;
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Arrival-spec parsing
// ---------------------------------------------------------------------

TEST(ArrivalSpec, ParsesAllThreeModels)
{
    ArrivalConfig cfg;
    std::string err;
    ASSERT_TRUE(parseArrivalSpec("closed", cfg, err));
    EXPECT_EQ(cfg.kind, ArrivalKind::Closed);
    EXPECT_FALSE(cfg.open());

    ASSERT_TRUE(parseArrivalSpec("poisson:2.5e6", cfg, err));
    EXPECT_EQ(cfg.kind, ArrivalKind::Poisson);
    EXPECT_TRUE(cfg.open());
    EXPECT_DOUBLE_EQ(cfg.ratePerSec, 2.5e6);

    ASSERT_TRUE(parseArrivalSpec("burst:5e5,2.0", cfg, err));
    EXPECT_EQ(cfg.kind, ArrivalKind::Burst);
    EXPECT_DOUBLE_EQ(cfg.ratePerSec, 5e5);
    EXPECT_DOUBLE_EQ(cfg.cv, 2.0);
}

TEST(ArrivalSpec, RejectsMalformedSpecs)
{
    ArrivalConfig cfg;
    std::string err;
    const char *bad[] = {
        "",           "bogus",        "poisson",       "poisson:",
        "poisson:0",  "poisson:-1",   "poisson:inf",   "poisson:nan",
        "poisson:1x", "burst:1e6",    "burst:1e6,",    "burst:,1",
        "burst:1e6,-2", "burst:1e6,nan", "burst:1e6,inf",
        "burst:1e6,0x", "burst:0,1",  "closed:1",
    };
    for (const char *spec : bad) {
        err.clear();
        EXPECT_FALSE(parseArrivalSpec(spec, cfg, err))
            << "accepted '" << spec << "'";
        EXPECT_FALSE(err.empty()) << spec;
    }
}

TEST(ArrivalSpec, BurstErrorsNameTheOffendingField)
{
    // Each malformed burst spec names the field and its constraint,
    // not a generic "bad spec" (the CLI surfaces err verbatim).
    ArrivalConfig cfg;
    std::string err;
    ASSERT_FALSE(parseArrivalSpec("burst:1e6", cfg, err));
    EXPECT_NE(err.find("comma"), std::string::npos) << err;
    ASSERT_FALSE(parseArrivalSpec("burst:0,1", cfg, err));
    EXPECT_NE(err.find("rate"), std::string::npos) << err;
    ASSERT_FALSE(parseArrivalSpec("burst:1e6,-2", cfg, err));
    EXPECT_NE(err.find("CV"), std::string::npos) << err;
}

TEST(ArrivalSpec, BurstAcceptsZeroCv)
{
    // CV = 0 is a deterministic-interarrival request: the lognormal
    // degenerates to its mean.  The parse must accept it and the
    // draw must return exactly the mean gap while consuming the same
    // RNG draws as any other CV (determinism composition).
    ArrivalConfig cfg;
    std::string err;
    ASSERT_TRUE(parseArrivalSpec("burst:1e6,0", cfg, err)) << err;
    EXPECT_EQ(cfg.kind, ArrivalKind::Burst);
    EXPECT_DOUBLE_EQ(cfg.ratePerSec, 1e6);
    EXPECT_DOUBLE_EQ(cfg.cv, 0.0);

    Rng detRng(7), refRng(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(drawInterarrivalNs(cfg, 1e6, detRng), 1e3)
            << "draw " << i;
    // Same number of underlying uniform draws as cv > 0: the two
    // streams stay in lockstep.
    ArrivalConfig bursty = cfg;
    bursty.cv = 2.0;
    for (int i = 0; i < 100; ++i)
        drawInterarrivalNs(bursty, 1e6, refRng);
    EXPECT_EQ(detRng.next(), refRng.next());
}

// ---------------------------------------------------------------------
// RequestSource transparency
// ---------------------------------------------------------------------

TEST(RequestSource, WrappedRequestAppEmitsIdenticalStream)
{
    // A request app flags its own request ends, so the wrapper passes
    // its stream through untouched, flags included.
    auto plain = makeWorkload("kvs", 0, 42);
    RequestSource wrapped(makeWorkload("kvs", 0, 42), 64);
    std::uint64_t ends = 0;
    for (int i = 0; i < 20000; ++i) {
        const MemRef a = plain->next();
        const MemRef b = wrapped.next();
        ASSERT_EQ(a.addr, b.addr) << "ref " << i;
        ASSERT_EQ(a.isWrite, b.isWrite) << "ref " << i;
        ASSERT_EQ(a.instGap, b.instGap) << "ref " << i;
        ASSERT_EQ(a.endsRequest, b.endsRequest) << "ref " << i;
        ends += a.endsRequest;
    }
    // kvs requests run 7-22 refs, never 64: the flags are the app's.
    EXPECT_GT(ends, 20000u / 64);
}

TEST(RequestSource, FixedChunkingIsTransparentForMixWorkloads)
{
    auto plain = makeWorkload("bsw", 1, 42);
    RequestSource wrapped(makeWorkload("bsw", 1, 42), 7);
    std::vector<MemRef> a(1000), b(1000);
    plain->nextBatch(a.data(), a.size());
    wrapped.nextBatch(b.data(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].addr, b[i].addr) << "ref " << i;
        ASSERT_EQ(a[i].isWrite, b[i].isWrite) << "ref " << i;
        ASSERT_EQ(a[i].instGap, b[i].instGap) << "ref " << i;
        // A mix generator carries no request structure of its own.
        ASSERT_FALSE(a[i].endsRequest) << "ref " << i;
        // 7-ref requests end at 6, 13, ..., 993; the 143rd request is
        // still in flight when the batch ends.
        ASSERT_EQ(b[i].endsRequest, i % 7 == 6) << "ref " << i;
    }
}

namespace {

/** Draw @p total refs in batches of @p batch (0 = through next()). */
std::vector<MemRef>
drawInBatches(TraceGen &gen, std::size_t total, std::size_t batch)
{
    std::vector<MemRef> out(total);
    for (std::size_t pos = 0; pos < total;) {
        if (batch == 0) {
            out[pos++] = gen.next();
            continue;
        }
        const std::size_t n = std::min(batch, total - pos);
        gen.nextBatch(out.data() + pos, n);
        pos += n;
    }
    return out;
}

} // namespace

TEST(RequestSource, RequestEndsIndependentOfBatching)
{
    // Request ends ride the reference stream, so where a request ends
    // never depends on how the System slices the stream into batches:
    // the request apps flag their own plans, and fixed slicing counts
    // across batch edges.
    constexpr std::size_t total = 3000;
    const auto makeGen = [](const std::string &name)
        -> std::unique_ptr<TraceGen> {
        if (name == "bsw/7")
            return std::make_unique<RequestSource>(
                makeWorkload("bsw", 0, 42), 7);
        return makeWorkload(name, 0, 42);
    };
    for (const std::string name : {"kvs", "nat", "bm25", "knn", "bsw/7"}) {
        auto ref = makeGen(name);
        const std::vector<MemRef> want = drawInBatches(*ref, total, 1);
        std::size_t ends = 0;
        for (std::size_t i = 0; i < total; ++i)
            ends += want[i].endsRequest;
        EXPECT_GT(ends, 0u) << name;
        if (name == "bsw/7") {
            for (std::size_t i = 0; i < total; ++i)
                ASSERT_EQ(want[i].endsRequest, i % 7 == 6)
                    << name << " ref " << i;
        }
        for (const std::size_t batch : {std::size_t{7}, std::size_t{256},
                                        std::size_t{0}}) {
            auto gen = makeGen(name);
            const std::vector<MemRef> got =
                drawInBatches(*gen, total, batch);
            for (std::size_t i = 0; i < total; ++i) {
                ASSERT_EQ(got[i].addr, want[i].addr)
                    << name << " batch " << batch << " ref " << i;
                ASSERT_EQ(got[i].isWrite, want[i].isWrite)
                    << name << " batch " << batch << " ref " << i;
                ASSERT_EQ(got[i].instGap, want[i].instGap)
                    << name << " batch " << batch << " ref " << i;
                ASSERT_EQ(got[i].endsRequest, want[i].endsRequest)
                    << name << " batch " << batch << " ref " << i;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Request-shaped app generators
// ---------------------------------------------------------------------

TEST(RequestApps, RegisteredAndDeterministic)
{
    for (const auto &name : requestAppWorkloads()) {
        auto a = makeWorkload(name, 0, 42);
        auto b = makeWorkload(name, 0, 42);
        ASSERT_NE(a, nullptr) << name;
        EXPECT_EQ(workloadInfo(name).suite, "tina-rx") << name;
        for (int i = 0; i < 5000; ++i) {
            const MemRef ra = a->next();
            const MemRef rb = b->next();
            ASSERT_EQ(ra.addr, rb.addr) << name << " ref " << i;
            ASSERT_EQ(ra.isWrite, rb.isWrite) << name << " ref " << i;
        }
        // Core c draws only from its own 1 TiB slice at (c+1) << 40.
        EXPECT_EQ(a->next().addr >> 40, 1u) << name;
        auto other = makeWorkload(name, 1, 42);
        EXPECT_EQ(other->next().addr >> 40, 2u) << name;
    }
}

TEST(RequestApps, NotInThePaperGrid)
{
    // The 12-workload paper grid stays byte-pinned; request apps are
    // reachable but never part of "all".
    const auto &paper = paperWorkloads();
    ASSERT_EQ(paper.size(), 12u);
    for (const auto &name : requestAppWorkloads())
        for (const auto &p : paper)
            EXPECT_NE(name, p);
}

// ---------------------------------------------------------------------
// The serving overlay never perturbs execution
// ---------------------------------------------------------------------

TEST(Serving, ClosedModeEmitsNoServingBlock)
{
    const SweepCell cell{"kvs", EngineKind::Toleo};
    const SimStats stats = runSweepCell(cell, servingWindow());
    EXPECT_TRUE(stats.serving.arrival.empty());
    EXPECT_FALSE(statsToJson(stats).has("serving"));
}

TEST(Serving, OpenLoopChangesOnlyTheServingBlock)
{
    // The acceptance contract: an open-loop run's statsToJson equals
    // the closed run's byte-for-byte once the serving block is
    // stripped -- the overlay is pure observation.
    const SweepCell cell{"kvs", EngineKind::Toleo};
    const Json closed =
        statsToJson(runSweepCell(cell, servingWindow()));
    const Json open = statsToJson(
        runSweepCell(cell, servingWindow("poisson:1e6")));
    ASSERT_FALSE(closed.has("serving"));
    ASSERT_TRUE(open.has("serving"));
    EXPECT_EQ(closed.dump(2), dropKey(open, "serving").dump(2));
}

TEST(Serving, OverlayIsObservationOnlyForMixWorkloadsToo)
{
    const SweepCell cell{"redis", EngineKind::Merkle};
    const Json closed =
        statsToJson(runSweepCell(cell, servingWindow()));
    const Json open = statsToJson(
        runSweepCell(cell, servingWindow("burst:5e5,2.0")));
    EXPECT_EQ(closed.dump(2), dropKey(open, "serving").dump(2));
}

TEST(Serving, ReportsRequestsAndCoherentStats)
{
    const SweepCell cell{"kvs", EngineKind::Toleo};
    const SimStats stats =
        runSweepCell(cell, servingWindow("poisson:1e6"));
    const ServingStats &sv = stats.serving;
    EXPECT_EQ(sv.arrival, "poisson");
    EXPECT_DOUBLE_EQ(sv.offeredRatePerSec, 1e6);
    EXPECT_GT(sv.requests, 0u);
    EXPECT_EQ(sv.requests, sv.latency.count());
    EXPECT_LE(sv.sloMet, sv.requests);
    EXPECT_GE(sv.sloAttainment, 0.0);
    EXPECT_LE(sv.sloAttainment, 1.0);
    EXPECT_GT(sv.spanSeconds, 0.0);
    EXPECT_GT(sv.completedRps, 0.0);
    // latency = queue + service, so the means obey the same identity.
    EXPECT_NEAR(sv.meanLatencyUs, sv.meanQueueUs + sv.meanServiceUs,
                1e-6 * sv.meanLatencyUs + 1e-9);
    // Percentiles are ordered and bounded by the observed max.
    EXPECT_LE(sv.p50LatencyUs, sv.p99LatencyUs);
    EXPECT_LE(sv.p99LatencyUs, sv.p999LatencyUs);
    EXPECT_LE(sv.p999LatencyUs, sv.maxLatencyUs + 1e-9);
}

// ---------------------------------------------------------------------
// Saturation behavior: rate up => tails up, attainment down
// ---------------------------------------------------------------------

TEST(Serving, TailsDegradeMonotonicallyWithOfferedRate)
{
    // The same seed draws the same uniforms at every rate; an
    // interarrival sequence scaled by 1/rate can only shrink idle
    // gaps, so every Lindley wait (and hence every latency quantile)
    // is pointwise nondecreasing in the rate.
    const SweepCell cell{"kvs", EngineKind::Toleo};
    const double rates[] = {1e4, 1e6, 1e8, 1e10};
    std::vector<ServingStats> runs;
    for (const double r : rates) {
        SweepOptions opts = servingWindow();
        opts.arrival.kind = ArrivalKind::Poisson;
        opts.arrival.ratePerSec = r;
        // The whole measured span is only tens of microseconds, so a
        // datacenter-scale 100 us SLO could never be violated; pin
        // the threshold near the per-request service time instead.
        opts.arrival.sloUs = 1.0;
        runs.push_back(runSweepCell(cell, opts).serving);
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_LE(runs[i - 1].p99LatencyUs, runs[i].p99LatencyUs)
            << "rate " << rates[i];
        EXPECT_LE(runs[i - 1].p999LatencyUs, runs[i].p999LatencyUs)
            << "rate " << rates[i];
        EXPECT_GE(runs[i - 1].sloAttainment, runs[i].sloAttainment)
            << "rate " << rates[i];
    }
    // The sweep must actually cross saturation: at a vanishing rate
    // queueing is nil and the SLO holds; far past saturation the
    // queue dominates and attainment collapses.
    EXPECT_GT(runs.front().sloAttainment, 0.9);
    EXPECT_LT(runs.back().sloAttainment, 0.5);
    EXPECT_GT(runs.back().p99LatencyUs,
              10.0 * runs.front().p99LatencyUs);
    EXPECT_GT(runs.back().meanQueueUs, runs.front().meanQueueUs);
}

// ---------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------

TEST(ServingConfig, RejectsNonPositiveRate)
{
    SystemConfig cfg = makeScaledConfig("kvs", EngineKind::Toleo, 2);
    cfg.arrival.kind = ArrivalKind::Poisson;
    cfg.arrival.ratePerSec = 0.0;
    EXPECT_THROW(System{cfg}, std::invalid_argument);
    cfg.arrival.ratePerSec = -5.0;
    EXPECT_THROW(System{cfg}, std::invalid_argument);
    // Positive and finite, yet the per-core mean interarrival or the
    // lognormal variance overflows: every latency would clamp.
    for (const char *spec :
         {"poisson:1e-300", "burst:1e-300,1", "burst:1e6,1e200"}) {
        std::string err;
        ASSERT_TRUE(parseArrivalSpec(spec, cfg.arrival, err)) << err;
        EXPECT_THROW(System{cfg}, std::invalid_argument) << spec;
    }
}

// A rate that passes those checks can still drive a core's arrival
// clock past 2^53 ns, where a double no longer resolves 1 ns: every
// latency used to round to exactly 0.  The run stops by field name.
TEST(ServingConfig, RejectsArrivalClockPast2To53Ns)
{
    SystemConfig cfg = makeScaledConfig("kvs", EngineKind::Toleo, 2);
    std::string err;
    ASSERT_TRUE(parseArrivalSpec("poisson:1e-20", cfg.arrival, err))
        << err;
    System sys(cfg);
    try {
        sys.run(500, 1500);
        ADD_FAILURE() << "no throw";
    } catch (const std::range_error &e) {
        EXPECT_NE(std::string(e.what()).find("arrival.ratePerSec"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ServingConfig, RejectsBadSloAndRequestRefs)
{
    SystemConfig cfg = makeScaledConfig("kvs", EngineKind::Toleo, 2);
    cfg.arrival.kind = ArrivalKind::Poisson;
    cfg.arrival.ratePerSec = 1e6;
    cfg.arrival.sloUs = 0.0;
    EXPECT_THROW(System{cfg}, std::invalid_argument);
    cfg.arrival.sloUs = 100.0;
    cfg.arrival.requestRefs = 0;
    EXPECT_THROW(System{cfg}, std::invalid_argument);
}

// ---------------------------------------------------------------------
// Rack aggregation
// ---------------------------------------------------------------------

TEST(ServingRack, AggregatesAcrossNodes)
{
    SweepOptions opts = servingWindow("poisson:1e6");
    opts.rackNodes = 2;
    const RackStats rack =
        runRackSweepCell({"kvs", EngineKind::Toleo}, opts);
    ASSERT_EQ(rack.nodes.size(), 2u);
    std::uint64_t reqs = 0, met = 0;
    for (const auto &node : rack.nodes) {
        EXPECT_EQ(node.sim.serving.arrival, "poisson");
        reqs += node.sim.serving.requests;
        met += node.sim.serving.sloMet;
    }
    EXPECT_EQ(rack.serving.requests, reqs);
    EXPECT_EQ(rack.serving.sloMet, met);
    EXPECT_EQ(rack.serving.latency.count(), reqs);
    EXPECT_DOUBLE_EQ(rack.serving.offeredRatePerSec, 2e6);
    // The merged-histogram p99 is bracketed by the per-node extremes.
    double lo = rack.nodes[0].sim.serving.p99LatencyUs;
    double hi = lo;
    for (const auto &node : rack.nodes) {
        lo = std::min(lo, node.sim.serving.p99LatencyUs);
        hi = std::max(hi, node.sim.serving.p99LatencyUs);
    }
    EXPECT_GE(rack.serving.p99LatencyUs, lo - 1e-9);
    EXPECT_LE(rack.serving.p99LatencyUs, hi + 1e-9);
    // And the JSON gains (only) a rack-level serving block.
    EXPECT_TRUE(rackStatsToJson(rack).has("serving"));
}

TEST(ServingRack, ClosedRackEmitsNoServingBlock)
{
    SweepOptions opts = servingWindow();
    opts.rackNodes = 2;
    const RackStats rack =
        runRackSweepCell({"kvs", EngineKind::Toleo}, opts);
    EXPECT_TRUE(rack.serving.arrival.empty());
    EXPECT_FALSE(rackStatsToJson(rack).has("serving"));
}

// ---------------------------------------------------------------------
// Record closed, replay open
// ---------------------------------------------------------------------

TEST(ServingTrace, RecordClosedReplayOpenRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "serving_capture.trc";
    const SweepCell cell{"kvs", EngineKind::Toleo};

    // Capture the request-shaped stream's raw draws, and run the
    // closed-loop cell they come from.
    const SweepOptions closed = servingWindow();
    captureTrace(path, "kvs", closed.cores, closed.seed,
                 closed.warmupRefs + closed.measureRefs);
    const Json live = statsToJson(runSweepCell(cell, closed));

    // Replay it open-loop: the trace readers are not request-shaped,
    // so the fixed requestRefs grouping segments the stream; all
    // non-serving stats still match the closed run byte-for-byte.
    SweepOptions rep = servingWindow("poisson:1e6");
    rep.trace = TraceFile::open(path);
    const Json replayed = statsToJson(runSweepCell(cell, rep));
    ASSERT_TRUE(replayed.has("serving"));
    EXPECT_EQ(live.dump(2), dropKey(replayed, "serving").dump(2));

    // And the replay itself is deterministic.
    const Json again = statsToJson(runSweepCell(cell, rep));
    EXPECT_EQ(replayed.dump(2), again.dump(2));

    std::remove(path.c_str());
}

TEST(ServingTrace, RecordingComposesWithOpenArrival)
{
    // A capture holds the raw draws under any arrival model: what an
    // open-loop System draws (each generator wrapped in a
    // RequestSource, one batch at a time) decodes from the capture
    // reference for reference, request ends aside.
    const std::string path =
        ::testing::TempDir() + "serving_open.trc";
    const SweepOptions open = servingWindow("poisson:1e6");
    const std::uint64_t perCore = open.warmupRefs + open.measureRefs;
    captureTrace(path, "kvs", open.cores, open.seed, perCore);
    const auto trace = TraceFile::open(path);

    constexpr std::size_t batch = 256;
    std::vector<MemRef> drawn(batch), replayed(batch);
    for (unsigned c = 0; c < open.cores; ++c) {
        RequestSource live(makeWorkload("kvs", c, open.seed),
                           open.arrival.requestRefs);
        TraceReplayGen replay(workloadInfo("kvs"), trace, c);
        for (std::uint64_t done = 0; done < perCore; done += batch) {
            const std::size_t n =
                std::min<std::uint64_t>(batch, perCore - done);
            live.nextBatch(drawn.data(), n);
            replay.nextBatch(replayed.data(), n);
            for (std::size_t k = 0; k < n; ++k) {
                ASSERT_EQ(drawn[k].addr, replayed[k].addr) << c;
                ASSERT_EQ(drawn[k].isWrite, replayed[k].isWrite) << c;
                ASSERT_EQ(drawn[k].instGap, replayed[k].instGap) << c;
            }
        }
    }
    std::remove(path.c_str());
}
