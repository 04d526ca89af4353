/**
 * @file
 * Tests for the three-level cache hierarchy, driven the way the
 * simulator drives it: a core's private half (L1 + L2), then the
 * shared L3 slice when that half needs it.
 */

#include <gtest/gtest.h>

#include <set>

#include "cache/hierarchy.hh"

using namespace toleo;

namespace {

CacheHierarchyConfig
smallConfig()
{
    CacheHierarchyConfig cfg;
    cfg.numCores = 2;
    cfg.coresPerL3Slice = 2;
    cfg.l1Bytes = 1 * KiB;
    cfg.l1Assoc = 2;
    cfg.l2Bytes = 4 * KiB;
    cfg.l2Assoc = 4;
    cfg.l3SliceBytes = 16 * KiB;
    cfg.l3Assoc = 4;
    return cfg;
}

/** Both halves of one access. */
struct Access
{
    PrivateAccessResult priv;
    HierarchyResult shared;
};

/** @p core's L1/L2, then its L3 slice if the private half needs it
 *  (the System's private phase and shared replay, back to back). */
Access
access(CacheHierarchy &h, unsigned core, BlockNum blk, bool isWrite)
{
    Access a;
    a.priv = h.privateCaches(core).access(blk, isWrite);
    if (a.priv.needsShared())
        h.accessShared(core, blk, a.priv, a.shared);
    return a;
}

} // namespace

TEST(Hierarchy, ColdMissGoesToMemory)
{
    CacheHierarchy h(smallConfig());
    const Access a = access(h, 0, 0x1000, false);
    EXPECT_FALSE(a.priv.l1Hit);
    EXPECT_TRUE(a.priv.l2Miss);
    EXPECT_TRUE(a.shared.llcMiss);
    EXPECT_TRUE(a.shared.memWritebacks.empty());
    EXPECT_EQ(h.llcMisses(), 1u);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    CacheHierarchy h(smallConfig());
    access(h, 0, 0x1000, false);
    const Access a = access(h, 0, 0x1000, false);
    EXPECT_TRUE(a.priv.l1Hit);
    EXPECT_FALSE(a.priv.needsShared());
    EXPECT_FALSE(a.shared.llcMiss);
    EXPECT_EQ(h.llcMisses(), 1u);
}

TEST(Hierarchy, CoresShareL3Slice)
{
    CacheHierarchy h(smallConfig());
    access(h, 0, 0x3000, false); // core 0 fills L3
    const Access a = access(h, 1, 0x3000, false);
    EXPECT_TRUE(a.priv.l2Miss);      // core 1's private levels are its own
    EXPECT_FALSE(a.shared.llcMiss);  // but it finds the block in shared L3
    EXPECT_EQ(h.llcMisses(), 1u);
}

TEST(Hierarchy, DirtyEvictionReachesMemoryEventually)
{
    CacheHierarchy h(smallConfig());
    // Write a block, then stream enough blocks to push it out of all
    // levels; its writeback must leave the chip.
    access(h, 0, 0x9999, true);
    std::set<BlockNum> toMemory;
    for (BlockNum b = 0; b < 4096; ++b)
        for (BlockNum v : access(h, 0, b, false).shared.memWritebacks)
            toMemory.insert(v);
    EXPECT_EQ(toMemory, std::set<BlockNum>{0x9999});
}

TEST(Hierarchy, WritebacksCarryPreviouslyWrittenBlocks)
{
    CacheHierarchy h(smallConfig());
    std::set<BlockNum> written, evicted;
    for (BlockNum b = 0; b < 1024; ++b) {
        const Access a = access(h, 0, b, true);
        written.insert(b);
        for (BlockNum v : a.shared.memWritebacks) {
            EXPECT_TRUE(written.count(v)) << "evicted unwritten " << v;
            EXPECT_TRUE(evicted.insert(v).second) << "evicted twice " << v;
        }
    }
    EXPECT_GT(evicted.size(), 0u);
}

TEST(Hierarchy, MissRateStreamingIsHigh)
{
    CacheHierarchy h(smallConfig());
    std::uint64_t l3Accesses = 0;
    for (BlockNum b = 0; b < 100000; ++b)
        l3Accesses += access(h, 0, b, false).priv.l2Miss;
    ASSERT_EQ(l3Accesses, 100000u);
    EXPECT_GT(static_cast<double>(h.llcMisses()) / l3Accesses, 0.95);
}

TEST(Hierarchy, ResidentWorkingSetBarelyMisses)
{
    CacheHierarchy h(smallConfig());
    // Working set fits in L1 (16 lines): loop it many times.  Only
    // compulsory (and a handful of conflict) misses may reach
    // memory over 8000 accesses.
    for (int it = 0; it < 1000; ++it)
        for (BlockNum b = 0; b < 8; ++b)
            access(h, 0, b, false);
    EXPECT_LT(h.llcMisses(), 50u);
}

TEST(Hierarchy, StatsReset)
{
    CacheHierarchy h(smallConfig());
    access(h, 0, 1, false);
    ASSERT_EQ(h.llcMisses(), 1u);
    h.resetLlcStats();
    EXPECT_EQ(h.llcMisses(), 0u);
    // The counters reset, the contents stay: core 1 finds the block
    // core 0 brought into the shared slice.
    EXPECT_FALSE(access(h, 1, 1, false).shared.llcMiss);
    EXPECT_EQ(h.llcMisses(), 0u);
}
