/**
 * @file
 * Tests for the rack memory topology (Figure 1 page placement and
 * channel selection).
 */

#include <gtest/gtest.h>

#include "mem/topology.hh"

using namespace toleo;

TEST(Topology, PoolFractionIsBandwidthProportional)
{
    MemTopologyConfig cfg;
    MemTopology topo(cfg);
    const double expect = cfg.cxlPoolBandwidthGBps /
                          (cfg.ddrChannels * cfg.ddrBandwidthGBps +
                           cfg.cxlPoolBandwidthGBps);
    EXPECT_NEAR(topo.poolFraction(), expect, 1e-12);
}

TEST(Topology, PagePlacementMatchesFraction)
{
    MemTopology topo({});
    const int n = 100000;
    int pool = 0;
    for (PageNum p = 0; p < n; ++p)
        pool += (topo.targetFor(p) == MemTarget::CxlPool);
    const double frac = static_cast<double>(pool) / n;
    EXPECT_NEAR(frac, topo.poolFraction(), 0.01);
}

TEST(Topology, PlacementIsDeterministic)
{
    MemTopology a({}), b({});
    for (PageNum p = 0; p < 1000; ++p)
        EXPECT_EQ(a.targetFor(p) == MemTarget::CxlPool,
                  b.targetFor(p) == MemTarget::CxlPool);
}

TEST(Topology, CxlPagesHaveHigherLatency)
{
    MemTopologyConfig cfg;
    MemTopology topo(cfg);
    PageNum local = 0, remote = 0;
    for (PageNum p = 0; p < 10000; ++p) {
        if (topo.targetFor(p) == MemTarget::CxlPool)
            remote = p;
        else
            local = p;
    }
    EXPECT_GT(topo.dataLatencyNs(remote), topo.dataLatencyNs(local));
    EXPECT_NEAR(topo.dataLatencyNs(remote) - topo.dataLatencyNs(local),
                cxlPoolLatencyNs, 1e-9);
}

TEST(Topology, ToleoLatencyIncludesLinkAndHmc)
{
    MemTopologyConfig cfg;
    MemTopology topo(cfg);
    EXPECT_NEAR(topo.toleoLatencyNs(),
                toleoLinkLatencyNs + toleoDramLatencyNs, 1e-9);
}

TEST(Topology, NonSkidModeAddsPenalty)
{
    MemTopologyConfig cfg;
    cfg.ideSkidMode = false;
    MemTopology topo(cfg);
    MemTopologyConfig skid;
    MemTopology stopo(skid);
    EXPECT_NEAR(topo.toleoLatencyNs() - stopo.toleoLatencyNs(),
                ideNonSkidPenaltyNs, 1e-9);
}

TEST(Topology, TrafficRoutedToOwningChannel)
{
    MemTopology topo({});
    // Find one local page and one pooled page.
    PageNum local = 0, remote = 0;
    for (PageNum p = 0; p < 10000; ++p) {
        if (topo.targetFor(p) == MemTarget::CxlPool)
            remote = p;
        else
            local = p;
    }
    topo.addDataTraffic(remote, 640);
    EXPECT_EQ(topo.cxlPool().totalBytes(), 640u);
    topo.addDataTraffic(local, 64);
    EXPECT_EQ(topo.totalDataBytes(), 704u);
}

TEST(Topology, ToleoTrafficSeparate)
{
    MemTopology topo({});
    topo.addToleoTraffic(128);
    EXPECT_EQ(topo.toleoBytes(), 128u);
    EXPECT_EQ(topo.totalDataBytes(), 0u);
}

TEST(Topology, LoadInflatesDataLatency)
{
    MemTopology topo({});
    PageNum local = 0;
    for (PageNum p = 0; p < 1000; ++p)
        if (topo.targetFor(p) != MemTarget::CxlPool) {
            local = p;
            break;
        }
    const double before = topo.dataLatencyNs(local);
    topo.addDataTraffic(local, 20000000); // saturate
    topo.endEpoch(1000.0);
    EXPECT_GT(topo.dataLatencyNs(local), before);
}
