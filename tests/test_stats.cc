/**
 * @file
 * Unit tests for the serving latency histogram.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/stats.hh"

using namespace toleo;

TEST(LatencyHistogram, ExactBelowSubCountAndTracksMinMax)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentileNs(0.5), 0.0);

    h.sample(3.0);
    h.sample(5.0);
    h.sample(7.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.minNs(), 3.0);
    EXPECT_DOUBLE_EQ(h.maxNs(), 7.0);
    EXPECT_DOUBLE_EQ(h.meanNs(), 5.0);
    // Values below subCount land in exact 1-ns buckets, and the
    // rank-1 / rank-count endpoints return the exact min and max.
    EXPECT_DOUBLE_EQ(h.percentileNs(0.0), 3.0);
    EXPECT_DOUBLE_EQ(h.percentileNs(1.0), 7.0);
    EXPECT_NEAR(h.percentileNs(0.5), 5.0, 1.0);
}

TEST(LatencyHistogram, LogBucketsBoundRelativeError)
{
    // 8 sub-buckets per octave bound the relative quantile error at
    // ~12.5%; spot-check across several decades.
    for (const double v : {100.0, 3333.0, 1e6, 4.2e9, 1e13}) {
        LatencyHistogram h;
        for (int i = 0; i < 100; ++i)
            h.sample(v);
        EXPECT_NEAR(h.percentileNs(0.5), v, v * 0.13) << v;
    }
}

TEST(LatencyHistogram, PercentilesOrderedOnSkewedData)
{
    LatencyHistogram h;
    // 1000 fast requests, 10 slow stragglers, 1 disaster.
    for (int i = 0; i < 1000; ++i)
        h.sample(1000.0);
    for (int i = 0; i < 10; ++i)
        h.sample(100000.0);
    h.sample(5e7);
    const double p50 = h.percentileNs(0.50);
    const double p99 = h.percentileNs(0.99);
    const double p999 = h.percentileNs(0.999);
    EXPECT_NEAR(p50, 1000.0, 130.0);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, p999);
    EXPECT_NEAR(p999, 100000.0, 13000.0);
    EXPECT_DOUBLE_EQ(h.percentileNs(1.0), 5e7);
}

TEST(LatencyHistogram, ClampsOutOfRangeSamples)
{
    LatencyHistogram h;
    h.sample(-5.0);  // negative clamps to 0
    h.sample(1e300); // astronomical clamps to the top bucket
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.minNs(), 0.0);
    EXPECT_GE(h.percentileNs(1.0), h.percentileNs(0.0));
}

TEST(LatencyHistogram, MergeMatchesCombinedSampling)
{
    LatencyHistogram a, b, all;
    for (int i = 1; i <= 500; ++i) {
        a.sample(i * 17.0);
        all.sample(i * 17.0);
    }
    for (int i = 1; i <= 300; ++i) {
        b.sample(i * 1003.0);
        all.sample(i * 1003.0);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.sumNs(), all.sumNs());
    EXPECT_DOUBLE_EQ(a.minNs(), all.minNs());
    EXPECT_DOUBLE_EQ(a.maxNs(), all.maxNs());
    for (const double p : {0.1, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(a.percentileNs(p), all.percentileNs(p)) << p;
}

// Property pinning merge() for the rack aggregation path: merging K
// per-node shards into an accumulator must equal one histogram fed
// the concatenated samples -- count, sum, min, max, and every
// percentile.  Shard layouts deliberately cover the awkward min/max
// cases: empty shards at the front/middle/back, a shard whose entire
// range lies above (and one below) everything seen so far, a
// single-sample shard, and duplicated extremes across shards.
// Samples are integer-valued so the sums compare exactly.
TEST(LatencyHistogram, MergingKShardsMatchesConcatenatedSamples)
{
    // shard -> list of integer latencies (ns); {} = empty shard.
    const std::vector<std::vector<std::uint64_t>> shards = {
        {},                                     // empty accumulator seed
        {5000, 12, 777, 5000},                  // duplicates + spread
        {3},                                    // single sample, new min
        {},                                     // empty in the middle
        {1'000'000, 2'000'003, 40'000'000},     // strictly above all
        {3, 4, 5},                              // re-hits the global min
        {9'999'999'999},                        // lone huge outlier
        {},                                     // empty at the back
    };

    LatencyHistogram merged, all;
    std::vector<std::uint64_t> concat;
    for (const auto &shard : shards) {
        LatencyHistogram h;
        for (const std::uint64_t ns : shard) {
            h.sample(static_cast<double>(ns));
            concat.push_back(ns);
        }
        merged.merge(h);
    }
    for (const std::uint64_t ns : concat)
        all.sample(static_cast<double>(ns));

    ASSERT_EQ(merged.count(), all.count());
    ASSERT_EQ(merged.count(), concat.size());
    EXPECT_DOUBLE_EQ(merged.sumNs(), all.sumNs());
    EXPECT_DOUBLE_EQ(merged.minNs(), all.minNs());
    EXPECT_DOUBLE_EQ(merged.maxNs(), all.maxNs());
    for (const double p :
         {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0})
        EXPECT_DOUBLE_EQ(merged.percentileNs(p), all.percentileNs(p))
            << "p=" << p;

    // Merge order must not matter either (the rack loop visits nodes
    // in index order, but nothing should depend on it).
    LatencyHistogram reversed;
    for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
        LatencyHistogram h;
        for (const std::uint64_t ns : *it)
            h.sample(static_cast<double>(ns));
        reversed.merge(h);
    }
    EXPECT_EQ(reversed.count(), all.count());
    EXPECT_DOUBLE_EQ(reversed.sumNs(), all.sumNs());
    EXPECT_DOUBLE_EQ(reversed.minNs(), all.minNs());
    EXPECT_DOUBLE_EQ(reversed.maxNs(), all.maxNs());
    for (const double p : {0.5, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(reversed.percentileNs(p), all.percentileNs(p))
            << "p=" << p;

    // Merging an empty histogram into an empty one stays empty.
    LatencyHistogram e1, e2;
    e1.merge(e2);
    EXPECT_EQ(e1.count(), 0u);
    EXPECT_DOUBLE_EQ(e1.percentileNs(0.99), 0.0);
}
