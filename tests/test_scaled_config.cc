/**
 * @file
 * Tests for the scaled-node construction (makeScaledConfig) and the
 * channel throughput floor -- the two pieces of simulation
 * methodology the calibrated results depend on.
 */

#include <gtest/gtest.h>

#include "crypto/timing.hh"
#include "mem/topology.hh"
#include "sim/system.hh"

using namespace toleo;

TEST(ScaledConfig, BandwidthScalesWithCores)
{
    const auto c8 = makeScaledConfig("bsw", EngineKind::Toleo, 8);
    const auto c16 = makeScaledConfig("bsw", EngineKind::Toleo, 16);
    const double bw8 = c8.mem.ddrChannels * c8.mem.ddrBandwidthGBps +
                       c8.mem.cxlPoolBandwidthGBps;
    const double bw16 =
        c16.mem.ddrChannels * c16.mem.ddrBandwidthGBps +
        c16.mem.cxlPoolBandwidthGBps;
    EXPECT_NEAR(bw16 / bw8, 2.0, 0.05);
}

TEST(ScaledConfig, ToleoLinkKeepsPaperRatio)
{
    // 3.32 GB/s of 89.5 GB/s data bandwidth = 3.7% in Table 3; the
    // ratio decides whether the version link can bottleneck.
    for (unsigned cores : {4u, 8u, 16u, 32u}) {
        const auto cfg =
            makeScaledConfig("bsw", EngineKind::Toleo, cores);
        const double data =
            cfg.mem.ddrChannels * cfg.mem.ddrBandwidthGBps +
            cfg.mem.cxlPoolBandwidthGBps;
        EXPECT_NEAR(cfg.mem.toleoLinkBandwidthGBps / data, 0.037,
                    1e-6)
            << cores;
    }
}

TEST(ScaledConfig, DesignConstantsStayAtPaperValues)
{
    const auto cfg = makeScaledConfig("bsw", EngineKind::Toleo, 8);
    // The design under study must not be scaled away.
    EXPECT_EQ(cfg.stealth.tlbEntries, 256u);
    EXPECT_EQ(cfg.stealth.overflowBytes, 28 * KiB);
    EXPECT_EQ(cfg.device.trip.stealthBits, 27u);
    EXPECT_EQ(cfg.device.trip.uvBits, 37u);
    EXPECT_EQ(cfg.device.trip.resetLog2, 20u);
    // Table 3 values no configuration varies.
    EXPECT_EQ(StealthCache::tlbExtBytes, 12u);
    EXPECT_EQ(aesLatency, 40u);
    EXPECT_DOUBLE_EQ(toleoLinkLatencyNs, 95.0);
}

TEST(ScaledConfig, HierarchyIsWellOrdered)
{
    const auto cfg = makeScaledConfig("bsw", EngineKind::Toleo, 8);
    EXPECT_LT(cfg.caches.l1Bytes, cfg.caches.l2Bytes);
    EXPECT_LT(cfg.caches.l2Bytes, cfg.caches.l3SliceBytes);
}

TEST(ThroughputFloor, RequiredNsMatchesArithmetic)
{
    Channel ch(10.0, 50.0); // 10 B/ns
    ch.addTraffic(5000);
    EXPECT_DOUBLE_EQ(ch.requiredNs(), 500.0);
    EXPECT_EQ(ch.pendingBytes(), 5000u);
    ch.endEpoch(1000.0);
    EXPECT_DOUBLE_EQ(ch.requiredNs(), 0.0);
}

TEST(ThroughputFloor, TopologyTakesMaxOverChannels)
{
    MemTopologyConfig cfg;
    MemTopology topo(cfg);
    topo.addToleoTraffic(1000);
    const double req = topo.requiredEpochNs();
    EXPECT_NEAR(req, 1000.0 / cfg.toleoLinkBandwidthGBps, 1e-9);
}

TEST(ThroughputFloor, BandwidthBoundWorkloadStretchesTime)
{
    // A saturating stream must run slower on a narrower channel.
    auto narrow = makeScaledConfig("micro-seq-read",
                                   EngineKind::NoProtect, 4);
    auto wide = narrow;
    narrow.mem.ddrBandwidthGBps = 2.0;
    wide.mem.ddrBandwidthGBps = 50.0;
    System a(narrow), b(wide);
    const auto sa = a.run(5000, 20000);
    const auto sb = b.run(5000, 20000);
    EXPECT_GT(sa.execSeconds, sb.execSeconds * 1.5);
}
