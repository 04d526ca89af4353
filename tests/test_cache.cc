/**
 * @file
 * Unit tests for the set-associative cache model and the exact-LRU
 * fully associative table, which must behave as a one-set
 * SetAssocCache of the same capacity.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cache/fully_assoc.hh"
#include "cache/set_assoc.hh"
#include "common/rng.hh"

using namespace toleo;

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache c(16, 4);
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, FromCapacityGeometry)
{
    auto c = SetAssocCache::fromCapacity(32 * KiB, 64, 8);
    EXPECT_EQ(c.numSets(), 64u);
    EXPECT_EQ(c.assoc(), 8u);
}

TEST(SetAssocCache, LruEvictsOldest)
{
    // Fully associative, 2 ways: the LRU key must be the victim.
    SetAssocCache c(1, 2);
    c.access(1, false);
    c.access(2, false);
    c.access(1, false);      // 2 becomes LRU
    auto r = c.access(3, false);
    EXPECT_FALSE(r.hit);
    ASSERT_TRUE(r.evictedTag.has_value());
    EXPECT_EQ(*r.evictedTag, 2u);
    EXPECT_TRUE(c.contains(1));
    EXPECT_FALSE(c.contains(2));
}

TEST(SetAssocCache, DirtyVictimReportsWriteback)
{
    SetAssocCache c(1, 1);
    c.access(7, true);
    auto r = c.access(8, false);
    ASSERT_TRUE(r.writebackTag.has_value());
    EXPECT_EQ(*r.writebackTag, 7u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(SetAssocCache, CleanVictimNoWriteback)
{
    SetAssocCache c(1, 1);
    c.access(7, false);
    auto r = c.access(8, false);
    EXPECT_FALSE(r.writebackTag.has_value());
    ASSERT_TRUE(r.evictedTag.has_value());
    EXPECT_EQ(*r.evictedTag, 7u);
}

TEST(SetAssocCache, WriteHitMarksDirty)
{
    SetAssocCache c(1, 1);
    c.access(7, false);
    c.access(7, true); // hit, now dirty
    auto r = c.access(8, false);
    ASSERT_TRUE(r.writebackTag.has_value());
}

TEST(SetAssocCache, InvalidateReturnsDirtiness)
{
    SetAssocCache c(4, 2);
    c.access(1, true);
    c.access(2, false);
    EXPECT_TRUE(c.invalidate(1));
    EXPECT_FALSE(c.invalidate(2));
    EXPECT_FALSE(c.invalidate(99)); // absent
    EXPECT_FALSE(c.contains(1));
}

TEST(SetAssocCache, MarkDirtyOnResident)
{
    SetAssocCache c(1, 2);
    c.access(1, false);
    EXPECT_TRUE(c.markDirtyIfPresent(1));
    EXPECT_TRUE(c.invalidate(1)); // invalidate reports it was dirty
    EXPECT_FALSE(c.markDirtyIfPresent(99));
}

TEST(SetAssocCache, StaleKeyOnInvalidatedMruLineMisses)
{
    // One full 8-way set.  Invalidating the MRU key leaves that key
    // in its way with a cleared metadata word, so the tag probe must
    // check the valid bit, and invalidate must drop the MRU shortcut.
    SetAssocCache c(1, 8);
    for (std::uint64_t k = 5; k <= 12; ++k)
        c.access(k, false);
    c.access(7, true);
    EXPECT_TRUE(c.invalidate(7));
    EXPECT_FALSE(c.contains(7));
    EXPECT_TRUE(c.contains(11));

    const std::uint64_t misses = c.misses();
    const auto r = c.access(7, false);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(c.misses(), misses + 1);
    EXPECT_FALSE(r.writebackTag.has_value());
    EXPECT_EQ(c.writebacks(), 0u);
}

TEST(SetAssocCache, HitRateMath)
{
    SetAssocCache c(16, 4);
    c.access(1, false);
    c.access(1, false);
    c.access(1, false);
    c.access(2, false);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
}

TEST(SetAssocCache, HalfCapacityWorkingSetMostlyFits)
{
    // A working set at half capacity should mostly hit after warmup
    // (the hashed index still allows a few conflict misses).
    auto c = SetAssocCache::fromCapacity(4 * KiB, 64, 4);
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t k = 0; k < 32; ++k)
            c.access(k, false);
    c.resetStats();
    for (std::uint64_t k = 0; k < 32; ++k)
        c.access(k, false);
    EXPECT_GT(c.hitRate(), 0.8);
}

TEST(SetAssocCache, ThrashingWorkingSetMisses)
{
    auto c = SetAssocCache::fromCapacity(4 * KiB, 64, 4);
    for (std::uint64_t k = 0; k < 4096; ++k)
        c.access(k, false);
    c.resetStats();
    for (std::uint64_t k = 0; k < 4096; ++k)
        c.access(k, false);
    EXPECT_LT(c.hitRate(), 0.2);
}

TEST(FullyAssocCache, BasicHitMiss)
{
    FullyAssocCache c(4);
    EXPECT_FALSE(c.access(1, false).hit);
    EXPECT_TRUE(c.access(1, false).hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(FullyAssocCache, FullyAssociativeLru)
{
    FullyAssocCache c(2);
    c.access(1, false);
    c.access(2, false);
    c.access(1, false);
    auto r = c.access(3, false); // evicts 2
    ASSERT_TRUE(r.evictedTag.has_value());
    EXPECT_EQ(*r.evictedTag, 2u);
    EXPECT_TRUE(c.contains(1));
    EXPECT_FALSE(c.contains(2));
}

namespace {

/**
 * Drive FullyAssocCache(n) and its reference SetAssocCache(1, n)
 * with one seeded sequence of accesses (reads and writes), touches
 * (with and without dirty), invalidations, invalidateAll and
 * resetStats over about 3n keys, half of them offset by 2^40 so the
 * index hashes more than small integers, and compare every
 * observable after each op.
 */
void
expectMatchesOneSetCache(unsigned n, std::uint64_t seed, int ops)
{
    FullyAssocCache fa(n);
    SetAssocCache ref(1, n);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < 3 * n; ++k)
        keys.push_back(k % 2 ? k : k | (std::uint64_t{1} << 40));
    Rng rng(seed);
    std::uint64_t evictions = 0;
    for (int op = 0; op < ops; ++op) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " op=" << op);
        const std::uint64_t key = keys[rng.nextBounded(keys.size())];
        const std::uint64_t kind = rng.nextBounded(1000);
        if (kind < 550) {
            const bool is_write = rng.nextBool(0.3);
            const CacheAccessResult a = fa.access(key, is_write);
            const CacheAccessResult b = ref.access(key, is_write);
            ASSERT_EQ(a.hit, b.hit);
            ASSERT_EQ(a.writebackTag, b.writebackTag);
            ASSERT_EQ(a.evictedTag, b.evictedTag);
            evictions += a.writebackTag || a.evictedTag;
        } else if (kind < 850) {
            const bool dirty = rng.nextBool(0.5);
            ASSERT_EQ(fa.touch(key, dirty), ref.touch(key, dirty));
        } else if (kind < 980) {
            ASSERT_EQ(fa.invalidate(key), ref.invalidate(key));
        } else if (kind < 999) {
            fa.resetStats();
            ref.resetStats();
        } else {
            fa.invalidateAll();
            ref.invalidateAll();
        }
        for (const std::uint64_t k : keys)
            ASSERT_EQ(fa.contains(k), ref.contains(k)) << "key " << k;
        ASSERT_EQ(fa.hits(), ref.hits());
        ASSERT_EQ(fa.misses(), ref.misses());
        ASSERT_EQ(fa.writebacks(), ref.writebacks());
    }
    // The sequence must reach the replacement path, not just fill.
    EXPECT_GT(evictions, static_cast<std::uint64_t>(ops / 20));
}

} // namespace

TEST(FullyAssocCache, MatchesOneSetSetAssocCache)
{
    for (const unsigned n : {1u, 2u, 16u, 256u})
        ASSERT_NO_FATAL_FAILURE(expectMatchesOneSetCache(n, 100 + n, 6000));
}
