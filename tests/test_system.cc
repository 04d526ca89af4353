/**
 * @file
 * Integration tests on the full System: the end-to-end properties the
 * paper's evaluation rests on -- protection overhead ordering
 * (NoProtect < Toleo-extra < CI-extra ... InvisiMem worst), stealth
 * cache behaviour, Trip classification, and traffic decomposition.
 * Uses few cores / short windows so the suite stays fast.
 */

#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/system.hh"
#include "sim/trip_analysis.hh"
#include "workload/trace_file.hh"

using namespace toleo;

namespace {

SystemConfig
smallConfig(const std::string &workload, EngineKind kind)
{
    SystemConfig cfg = makeScaledConfig(workload, kind, 4);
    cfg.epochRefs = 4096;
    return cfg;
}

SimStats
runSmall(const std::string &workload, EngineKind kind,
         std::uint64_t refs = 30000)
{
    System sys(smallConfig(workload, kind));
    return sys.run(refs / 3, refs);
}

} // namespace

TEST(System, RunsAndCountsInstructions)
{
    auto st = runSmall("bsw", EngineKind::NoProtect, 10000);
    EXPECT_GT(st.instructions, 10000u * 4);
    EXPECT_GT(st.execSeconds, 0.0);
    EXPECT_GT(st.llcMisses, 0u);
    EXPECT_EQ(st.engine, std::string("NoProtect"));
}

TEST(System, DeterministicAcrossRuns)
{
    auto a = runSmall("pr", EngineKind::Toleo, 8000);
    auto b = runSmall("pr", EngineKind::Toleo, 8000);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_DOUBLE_EQ(a.execSeconds, b.execSeconds);
}

TEST(System, ProtectionCostsOrdering)
{
    const auto np = runSmall("pr", EngineKind::NoProtect);
    const auto c = runSmall("pr", EngineKind::C);
    const auto ci = runSmall("pr", EngineKind::CI);
    const auto tol = runSmall("pr", EngineKind::Toleo);

    // Each added guarantee costs more time.
    EXPECT_GT(c.execSeconds, np.execSeconds);
    EXPECT_GT(ci.execSeconds, c.execSeconds);
    EXPECT_GE(tol.execSeconds, ci.execSeconds * 0.999);

    // ...but Toleo's freshness is nearly free on top of CI.
    const double ci_over = ci.execSeconds / np.execSeconds - 1.0;
    const double tol_over = tol.execSeconds / np.execSeconds - 1.0;
    EXPECT_LT(tol_over - ci_over, 0.10);
    EXPECT_GT(ci_over, 0.02);
}

TEST(System, InvisiMemCostsMoreThanToleo)
{
    const auto tol = runSmall("bsw", EngineKind::Toleo);
    const auto inv = runSmall("bsw", EngineKind::InvisiMem);
    EXPECT_GT(inv.execSeconds, tol.execSeconds);
    EXPECT_GT(inv.dummyBpi, 0.0);
}

TEST(System, ReadLatencyBreakdownIsConsistent)
{
    const auto st = runSmall("bfs", EngineKind::Toleo);
    EXPECT_GT(st.avgReadLatencyNs, 0.0);
    EXPECT_NEAR(st.avgReadLatencyNs,
                st.avgDramLatencyNs + st.avgMetaLatencyNs, 1e-6);
    EXPECT_GT(st.avgDramLatencyNs, 30.0); // at least zero-load DRAM
}

TEST(System, StealthCacheHitRateHighForStreaming)
{
    const auto st = runSmall("bsw", EngineKind::Toleo, 60000);
    EXPECT_GT(st.stealthCacheHitRate, 0.90);
}

TEST(System, StealthCacheWorseForKvStore)
{
    // The KV-store outlier behaviour (Fig 7) needs the full-scale
    // node: 8 cores sharing the 256-entry TLB extension.
    auto run8 = [](const char *wl) {
        System sys(makeScaledConfig(wl, EngineKind::Toleo, 8));
        return sys.run(30000, 60000);
    };
    const auto redis = run8("redis");
    const auto bsw = run8("bsw");
    EXPECT_LT(redis.stealthCacheHitRate, bsw.stealthCacheHitRate);
    EXPECT_LT(redis.stealthCacheHitRate, 0.95);
}

TEST(System, TripMostPagesFlatForDp)
{
    const auto st = runSmall("bsw", EngineKind::Toleo, 60000);
    const TripStore::Usage &u = st.usage;
    const auto total = u.flatPages + u.unevenPages + u.fullPages;
    ASSERT_GT(total, 0u);
    EXPECT_GT(static_cast<double>(u.flatPages) / total, 0.9);
}

TEST(System, TripUnevenShowsUpForFmi)
{
    // Format drift needs the long cache-only mode (Section 7.2);
    // fmi must show the worst version locality of the suite.
    TripAnalysisConfig cfg;
    cfg.workload = "fmi";
    cfg.refsPerCore = 300000;
    const auto u = runTripAnalysis(cfg).usage;
    EXPECT_GT(u.unevenPages, 0u);
    EXPECT_GT(u.share(u.unevenPages), 0.03);
}

TEST(System, TrafficDecompositionSane)
{
    const auto st = runSmall("pr", EngineKind::Toleo);
    EXPECT_GT(st.dataBpi, 0.0);
    EXPECT_GT(st.macBpi, 0.0);
    // Stealth traffic must be a small fraction of data traffic
    // (Section 7.1: ~1% of off-chip bytes).
    EXPECT_LT(st.stealthBpi, st.dataBpi * 0.2);
    EXPECT_DOUBLE_EQ(st.dummyBpi, 0.0); // only InvisiMem pads
}

TEST(System, NoProtectHasNoMetadataTraffic)
{
    const auto st = runSmall("pr", EngineKind::NoProtect);
    EXPECT_DOUBLE_EQ(st.macBpi, 0.0);
    EXPECT_DOUBLE_EQ(st.stealthBpi, 0.0);
}

TEST(System, ToleoReportsStoreUsage)
{
    const auto st = runSmall("bsw", EngineKind::Toleo);
    EXPECT_GT(st.usage.bytes, 0u);
}

TEST(System, FootprintCountsEveryDistinctCapturedPage)
{
    // Two streams of three passes over 400 pages each: stream 0 pages
    // [0, 400), stream 1 pages [200, 600), so 200 pages are shared
    // and 600 are distinct -- above bsw's declared 2 x 200 pages, so
    // the reported RSS is the touched set itself.  Every fifth page's
    // first touch is a store.  The first pass is the warmup; pages
    // ending in 3 are touched only there (the RSS accumulates from
    // process start).  The second pass revisits pages at another
    // block, the third repeats the first pass's blocks.
    constexpr unsigned passPages = 400;
    constexpr unsigned passes = 3;
    const Addr base = Addr{1} << 32;
    TraceWriter writer(2, "bsw", 0);
    std::set<PageNum> distinct;
    for (unsigned stream = 0; stream < 2; ++stream) {
        std::vector<MemRef> refs;
        for (unsigned i = 0; i < passPages * passes; ++i) {
            const unsigned pass = i / passPages;
            PageNum page = stream * 200 + (i * 7) % passPages;
            if (pass > 0 && page % 10 == 3)
                --page;
            const unsigned block = pass == 1 ? 13 : 0;
            MemRef ref;
            ref.addr = base + page * pageSize + block * blockSize;
            ref.isWrite = pass == 0 && page % 5 == 0;
            ref.instGap = i % 4;
            refs.push_back(ref);
            distinct.insert(pageOf(ref.addr));
        }
        writer.append(stream, refs.data(), refs.size());
    }
    ASSERT_EQ(distinct.size(), 600u);
    const std::string path =
        ::testing::TempDir() + "system_footprint.trc";
    writer.writeTo(path);

    SystemConfig cfg = makeScaledConfig("bsw", EngineKind::Toleo, 2);
    cfg.epochRefs = 512;
    cfg.trace = TraceFile::open(path);
    // Replay exactly the captured window: warmup + measure = one lap.
    const std::uint64_t warmup = passPages;
    const std::uint64_t measure = passPages * passes - warmup;
    const auto rss = [](const SimStats &st) {
        return st.usage.flatPages + st.usage.unevenPages +
               st.usage.fullPages;
    };

    System serial(cfg);
    const SimStats a = serial.run(warmup, measure);
    EXPECT_EQ(rss(a), distinct.size());

    System staged(cfg);
    staged.beginRun(warmup, measure);
    bool more = true;
    while (more) {
        more = staged.stepEpochPrivate();
        staged.replayEpochShared();
    }
    const SimStats b = staged.finishRun();
    EXPECT_EQ(rss(b), distinct.size());
    EXPECT_EQ(statsToJson(a).dump(), statsToJson(b).dump());
    std::remove(path.c_str());
}

TEST(System, MerkleWorseThanToleo)
{
    const auto merkle = runSmall("bfs", EngineKind::Merkle);
    const auto tol = runSmall("bfs", EngineKind::Toleo);
    EXPECT_GT(merkle.execSeconds, tol.execSeconds);
    EXPECT_GT(merkle.macBpi + merkle.dataBpi, tol.dataBpi);
}

TEST(System, WarmupIsExcludedFromStats)
{
    System sys(smallConfig("bsw", EngineKind::Toleo));
    auto st = sys.run(20000, 10000);
    // Instructions counted only for the measurement phase.
    EXPECT_LT(st.instructions, 10000u * 4 * 20);
}

// The measurement window covers the engines' statistics too: each
// measured LLC miss or writeback makes exactly one MAC-cache access,
// on CI and on Toleo (which composes on CI), and warmup makes none
// that count.
TEST(MeasurementWindow, MacCacheCountsOnlyMeasuredAccesses)
{
    for (const char *wl : {"fmi", "redis", "bsw"}) {
        for (EngineKind kind : {EngineKind::CI, EngineKind::Toleo}) {
            System sys(makeScaledConfig(wl, kind, 8));
            const SimStats st = sys.run(30000, 60000);
            const auto &ci = dynamic_cast<CiEngine &>(sys.engine());
            EXPECT_EQ(ci.macCache().accesses(),
                      st.llcMisses + st.llcWritebacks)
                << wl << ' ' << engineKindName(kind);
        }
    }
}

// InvisiMem pads a measured epoch at most up to its constant-rate
// target, so the measured dummy bytes stay within that rate over the
// measured time, however long the warmup before it.
TEST(MeasurementWindow, InvisiMemDummyBytesStayWithinTargetRate)
{
    for (const char *wl : {"fmi", "redis", "bsw"}) {
        const SystemConfig cfg =
            makeScaledConfig(wl, EngineKind::InvisiMem, 8);
        System sys(cfg);
        const SimStats st = sys.run(300000, 30000);
        const double agg_gbps =
            cfg.mem.ddrChannels * cfg.mem.ddrBandwidthGBps +
            cfg.mem.cxlPoolBandwidthGBps;
        const double target_bytes = InvisiMemEngine::dummyRateFraction *
                                    agg_gbps * st.execSeconds * 1e9;
        EXPECT_GT(st.dummyBpi, 0.0) << wl;
        EXPECT_LE(st.dummyBpi * static_cast<double>(st.instructions),
                  target_bytes)
            << wl;
    }
}

TEST(System, RejectsCacheCoreCountThatDiffers)
{
    // The hierarchy is built from caches.numCores and the front end
    // from numCores; a System never picks one of two counts.
    SystemConfig cfg = smallConfig("bsw", EngineKind::Toleo);
    cfg.caches.numCores = cfg.numCores + 1;
    try {
        System sys(cfg);
        FAIL() << "a config with two core counts ran";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("caches.numCores"),
                  std::string::npos)
            << e.what();
    }
}

// The goldens pin every value the timing model reads; this pins the
// Table 3 values that are only printed (the L1/L2/L3 and AES
// latencies, the TLB-extension bytes, the overflow geometry), for
// the paper's node and for the scaled node the benches run.
TEST(System, ConfigPrinterMentionsKeyParts)
{
    const auto printed = [](const SystemConfig &cfg) {
        std::ostringstream os;
        printConfig(cfg, os);
        return os.str();
    };
    EXPECT_EQ(printed(SystemConfig{}),
              "Processor        2.25 GHz, 32 cores (base IPC 1.25)\n"
              "L1-I/D cache     32 KB per core, 8-way, 4 cycles, LRU\n"
              "L2 cache         1 MB per core, 16-way, 14 cycles, LRU\n"
              "L3 cache         16 MB shared by every 8 cores, 16-way, "
              "49 cycles, LRU\n"
              "DRAM             DDR4-3200, 3 channels x 25.6 GB/s, "
              "60 ns\n"
              "CXL mem pool     PCIe5 x8 12.7 GB/s, +95 ns (retimer)\n"
              "Toleo link       CXL2.0 IDE PCIe5 x2 3.32 GB/s, +95 ns; "
              "HMC2 15 ns (skid mode)\n"
              "AES engine       40 cycles latency, 1/cycle throughput\n"
              "MAC cache        1024 KB, 16-way, LRU\n"
              "L2 TLB ext.      256 entries, fully assoc, +12 B/entry\n"
              "Stealth buf.     28 KB, 16-way, 56 B blocks\n"
              "Toleo device     168 GB capacity, protects 27.2677 TB\n");
    EXPECT_EQ(printed(makeScaledConfig("bsw", EngineKind::Toleo, 8)),
              "Processor        2.25 GHz, 8 cores (base IPC 1.25)\n"
              "L1-I/D cache     16 KB per core, 8-way, 4 cycles, LRU\n"
              "L2 cache         64 KB per core, 16-way, 14 cycles, LRU\n"
              "L3 cache         1 MB shared by every 8 cores, 16-way, "
              "49 cycles, LRU\n"
              "DRAM             DDR4-3200, 1 channels x 19.2 GB/s, "
              "60 ns\n"
              "CXL mem pool     PCIe5 x8 3.175 GB/s, +95 ns (retimer)\n"
              "Toleo link       CXL2.0 IDE PCIe5 x2 0.827875 GB/s, "
              "+95 ns; HMC2 15 ns (skid mode)\n"
              "AES engine       40 cycles latency, 1/cycle throughput\n"
              "MAC cache        32 KB, 16-way, LRU\n"
              "L2 TLB ext.      256 entries, fully assoc, +12 B/entry\n"
              "Stealth buf.     28 KB, 16-way, 56 B blocks\n"
              "Toleo device     168 GB capacity, protects 27.2677 TB\n");
}
