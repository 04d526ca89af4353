/**
 * @file
 * Tests for the bandwidth/latency channel model.
 */

#include <gtest/gtest.h>

#include "mem/channel.hh"

using namespace toleo;

TEST(Channel, ZeroLoadLatencyIsBase)
{
    Channel ch(25.6, 60.0);
    EXPECT_DOUBLE_EQ(ch.latencyNs(), 60.0);
}

TEST(Channel, IdleEpochKeepsBaseLatency)
{
    Channel ch(25.6, 60.0);
    ch.endEpoch(1000.0);
    EXPECT_DOUBLE_EQ(ch.utilization(), 0.0);
    EXPECT_DOUBLE_EQ(ch.latencyNs(), 60.0);
}

TEST(Channel, UtilizationComputedFromTraffic)
{
    Channel ch(10.0, 50.0); // 10 bytes/ns
    ch.addTraffic(5000);
    ch.endEpoch(1000.0); // capacity 10000 B -> u = 0.5
    EXPECT_NEAR(ch.utilization(), 0.5, 1e-9);
}

TEST(Channel, QueueDelayGrowsWithLoad)
{
    Channel a(10.0, 50.0), b(10.0, 50.0);
    a.addTraffic(2000);
    b.addTraffic(9000);
    a.endEpoch(1000.0);
    b.endEpoch(1000.0);
    EXPECT_GT(b.latencyNs(), a.latencyNs());
    EXPECT_GT(a.latencyNs(), 50.0);
}

TEST(Channel, UtilizationIsCapped)
{
    Channel ch(10.0, 50.0);
    ch.addTraffic(1000000); // 100x capacity
    ch.endEpoch(1000.0);
    EXPECT_LE(ch.utilization(), 0.95);
    EXPECT_LT(ch.latencyNs(), 10000.0); // finite
}

TEST(Channel, TotalBytesAccumulateAcrossEpochs)
{
    Channel ch(10.0, 50.0);
    ch.addTraffic(100);
    ch.endEpoch(10.0);
    ch.addTraffic(200);
    ch.endEpoch(10.0);
    EXPECT_EQ(ch.totalBytes(), 300u);
}

TEST(Channel, ResetStatsClears)
{
    Channel ch(10.0, 50.0);
    ch.addTraffic(100);
    ch.endEpoch(10.0);
    ch.resetStats();
    EXPECT_EQ(ch.totalBytes(), 0u);
    EXPECT_DOUBLE_EQ(ch.latencyNs(), 50.0);
}
