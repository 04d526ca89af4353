/**
 * @file
 * Tests for the stealth-version caches (TLB extension + overflow
 * buffer, Figure 5).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "toleo/stealth_cache.hh"

using namespace toleo;

namespace {

BlockNum
blk(PageNum pg, unsigned idx)
{
    return (pg << (pageBits - blockBits)) | idx;
}

StealthCacheConfig
paperConfig()
{
    return {};
}

} // namespace

TEST(StealthCache, ColdMissThenHit)
{
    StealthCache sc(paperConfig());
    EXPECT_FALSE(sc.access(blk(1, 0), TripFormat::Flat, false).hit);
    EXPECT_TRUE(sc.access(blk(1, 0), TripFormat::Flat, false).hit);
}

TEST(StealthCache, FlatHitsTrackPageResidency)
{
    StealthCache sc(paperConfig());
    sc.access(blk(1, 0), TripFormat::Flat, false);
    // Any block of the same page hits: flat entries are per page.
    EXPECT_TRUE(sc.access(blk(1, 63), TripFormat::Flat, false).hit);
}

TEST(StealthCache, UnevenNeedsOverflowEntryToo)
{
    StealthCache sc(paperConfig());
    sc.access(blk(2, 0), TripFormat::Flat, false); // TLB now has page 2
    // First uneven access misses (overflow entry not resident).
    EXPECT_FALSE(sc.access(blk(2, 0), TripFormat::Uneven, false).hit);
    EXPECT_TRUE(sc.access(blk(2, 0), TripFormat::Uneven, false).hit);
}

TEST(StealthCache, FullEntrySpansFourChunks)
{
    StealthCache sc(paperConfig());
    sc.access(blk(3, 0), TripFormat::Full, false);
    // Same 16-block chunk: hit.
    EXPECT_TRUE(sc.access(blk(3, 15), TripFormat::Full, false).hit);
    // Different chunk: the chunk itself misses.
    EXPECT_FALSE(sc.access(blk(3, 16), TripFormat::Full, false).hit);
}

TEST(StealthCache, InvalidatePageDropsEverything)
{
    StealthCache sc(paperConfig());
    sc.access(blk(4, 0), TripFormat::Uneven, false);
    sc.access(blk(4, 0), TripFormat::Uneven, false);
    sc.invalidatePage(4);
    EXPECT_FALSE(sc.access(blk(4, 0), TripFormat::Uneven, false).hit);
}

TEST(StealthCache, DirtyEvictionsReportWritebackBytes)
{
    StealthCacheConfig cfg;
    cfg.tlbEntries = 2;
    StealthCache sc(cfg);
    // Allocate via the read path, then dirty via an update hit.
    sc.access(blk(1, 0), TripFormat::Flat, false);
    sc.access(blk(1, 0), TripFormat::Flat, true); // touch: dirty
    sc.access(blk(2, 0), TripFormat::Flat, false);
    auto r = sc.access(blk(3, 0), TripFormat::Flat, false); // evicts 1
    EXPECT_EQ(r.writebackBytes, StealthCache::tlbExtBytes);
}

TEST(StealthCache, UpdatesDoNotAllocate)
{
    // Version updates for long-cold pages must not displace the read
    // path's working set (fire-and-forget to the device).
    StealthCacheConfig cfg;
    cfg.tlbEntries = 2;
    StealthCache sc(cfg);
    sc.access(blk(1, 0), TripFormat::Flat, false);
    sc.access(blk(2, 0), TripFormat::Flat, false);
    auto up = sc.access(blk(9, 0), TripFormat::Flat, true); // miss
    EXPECT_FALSE(up.hit);
    // Read-path entries survived.
    EXPECT_TRUE(sc.access(blk(1, 0), TripFormat::Flat, false).hit);
    EXPECT_TRUE(sc.access(blk(2, 0), TripFormat::Flat, false).hit);
    EXPECT_EQ(sc.updateMisses(), 1u);
}

TEST(StealthCache, SequentialPageSweepHas98PercentHits)
{
    // The paper's key caching claim: block-granularity misses sweep
    // 64 blocks per page, so the flat entry misses once per page ->
    // ~63/64 = 98.4% hit rate.
    StealthCache sc(paperConfig());
    for (PageNum pg = 0; pg < 200; ++pg)
        for (unsigned b = 0; b < blocksPerPage; ++b)
            sc.access(blk(pg, b), TripFormat::Flat, false);
    EXPECT_GT(sc.hitRate(), 0.975);
    EXPECT_LT(sc.hitRate(), 0.99);
}

TEST(StealthCache, RandomPageAccessHasLowHitRate)
{
    // redis-like behaviour: one block per random page.
    StealthCache sc(paperConfig());
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        const PageNum pg = rng.nextBounded(4096);
        sc.access(blk(pg, 0), TripFormat::Flat, false);
    }
    EXPECT_LT(sc.hitRate(), 0.3);
}

TEST(StealthCache, SramBudgetMatchesPaper)
{
    // Section 7.3: 12 B x 256 entries = 3 KB TLB extension plus the
    // 28 KB overflow buffer = 31 KB total added SRAM.
    StealthCache sc(paperConfig());
    EXPECT_EQ(sc.sramBytes(), 3 * KiB + 28 * KiB);
}

TEST(StealthCache, ResetStatsClears)
{
    StealthCache sc(paperConfig());
    sc.access(blk(1, 0), TripFormat::Flat, false);
    sc.resetStats();
    EXPECT_EQ(sc.hits(), 0u);
    EXPECT_EQ(sc.misses(), 0u);
}

TEST(StealthCache, ResetStatsDropsCombineBufferState)
{
    // Regression: resetStats() used to leave the write-combining
    // buffer populated, so warmup-phase entries counted as measured
    // update hits they never earned.
    StealthCache sc(paperConfig());
    // Update miss to a cold page allocates its combine entry.
    EXPECT_FALSE(sc.access(blk(7, 0), TripFormat::Flat, true).hit);
    sc.resetStats();
    // After the reset the same update must miss again: the combine
    // entry from the pre-reset phase is gone.
    auto r = sc.access(blk(7, 0), TripFormat::Flat, true);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(sc.updateMisses(), 1u);
    EXPECT_EQ(sc.updateHits(), 0u);
}

TEST(StealthCache, InvalidatePageDropsCombineEntry)
{
    // Regression: invalidatePage() used to leave the page's combine
    // entry behind, so updates to a reset page falsely coalesced
    // against the stale pre-reset entry.
    StealthCache sc(paperConfig());
    EXPECT_FALSE(sc.access(blk(8, 0), TripFormat::Flat, true).hit);
    sc.invalidatePage(8);
    // A fresh update to the reset page must not hit the stale entry.
    EXPECT_FALSE(sc.access(blk(8, 0), TripFormat::Flat, true).hit);
    EXPECT_EQ(sc.updateHits(), 0u);
    EXPECT_EQ(sc.updateMisses(), 2u);
}
