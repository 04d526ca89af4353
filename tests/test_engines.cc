/**
 * @file
 * Tests for the protection engines: guarantee matrix (Table 1),
 * MAC-cache behaviour of CI, Merkle walk depth, InvisiMem padding,
 * and the Toleo engine's stealth-cache / device interaction.
 */

#include <gtest/gtest.h>

#include "secmem/ci.hh"
#include "secmem/invisimem.hh"
#include "secmem/merkle.hh"
#include "secmem/noprotect.hh"
#include "toleo/engine.hh"

using namespace toleo;

namespace {

BlockNum
blk(PageNum pg, unsigned idx)
{
    return (pg << (pageBits - blockBits)) | idx;
}

ToleoDeviceConfig
devConfig()
{
    ToleoDeviceConfig cfg;
    cfg.capacityBytes = 100 * MiB;
    cfg.protectedBytes = 1 * GiB;
    cfg.trip.resetLog2 = 63;
    return cfg;
}

} // namespace

TEST(GuaranteeMatrix, MatchesTable1)
{
    MemTopology topo({});
    NoProtectEngine np(topo);
    CiEngine c(topo, {}, false);
    CiEngine ci(topo, {}, true);
    ToleoDevice dev(devConfig());
    ToleoEngine tol(topo, dev, {}, {});
    InvisiMemEngine inv(topo);

    // NoProtect: nothing.
    EXPECT_FALSE(np.confidentiality());
    EXPECT_FALSE(np.integrity());
    EXPECT_FALSE(np.freshness());

    // Scalable-SGX-like CI: C+I over full memory, no freshness.
    EXPECT_TRUE(ci.confidentiality());
    EXPECT_TRUE(ci.integrity());
    EXPECT_FALSE(ci.freshness());
    EXPECT_TRUE(ci.fullMemory());
    EXPECT_FALSE(c.integrity());

    // Toleo: all three over full memory (the paper's row).
    EXPECT_TRUE(tol.confidentiality());
    EXPECT_TRUE(tol.integrity());
    EXPECT_TRUE(tol.freshness());
    EXPECT_TRUE(tol.fullMemory());

    // InvisiMem: CIF but not economically full-memory.
    EXPECT_TRUE(inv.freshness());
    EXPECT_FALSE(inv.fullMemory());

    // Client-SGX-style Merkle at 28 TB is not feasible.
    MerkleConfig mcfg;
    MerkleTreeEngine merkle(topo, mcfg);
    EXPECT_TRUE(merkle.freshness());
    EXPECT_FALSE(merkle.fullMemory());
}

TEST(CiEngine, ReadAddsAesLatency)
{
    MemTopology topo({});
    CiEngine c(topo, {}, false);
    auto cost = c.onRead(blk(1, 0));
    EXPECT_NEAR(cost.latencyNs, 40.0 / 2.25, 1e-9);
    EXPECT_EQ(cost.metaBytes, 0u);
}

TEST(CiEngine, MacMissFetchesMacBlock)
{
    MemTopology topo({});
    CiEngine ci(topo, {}, true);
    auto cost = ci.onRead(blk(1, 0));
    EXPECT_EQ(cost.metaBytes, blockSize); // cold MAC block
    // Adjacent blocks share the MAC block: second read hits.
    auto cost2 = ci.onRead(blk(1, 1));
    EXPECT_EQ(cost2.metaBytes, 0u);
    EXPECT_GT(ci.macCacheHitRate(), 0.0);
}

TEST(CiEngine, MacCacheMissLatencyExceedsHit)
{
    MemTopology topo({});
    CiEngine ci(topo, {}, true);
    auto miss = ci.onRead(blk(5, 0));
    auto hit = ci.onRead(blk(5, 1));
    EXPECT_GT(miss.latencyNs, hit.latencyNs);
}

TEST(CiEngine, EightBlocksPerMacBlock)
{
    MemTopology topo({});
    CiEngine ci(topo, {}, true);
    // Blocks 0..7 share one MAC block; block 8 starts a new one.
    ci.onRead(blk(0, 0));
    for (unsigned i = 1; i < 8; ++i)
        EXPECT_EQ(ci.onRead(blk(0, i)).metaBytes, 0u);
    EXPECT_EQ(ci.onRead(blk(0, 8)).metaBytes, blockSize);
}

TEST(CiEngine, DirtyMacBlocksWriteBack)
{
    MemTopology topo({});
    CiConfig cfg;
    cfg.macCacheBytes = 2 * blockSize; // 2-entry MAC cache
    cfg.macCacheAssoc = 2;
    CiEngine ci(topo, cfg, true);
    ci.onWriteback(blk(0, 0));  // dirty MAC block 0
    ci.onWriteback(blk(10, 0)); // dirty MAC block for page 10
    auto cost = ci.onRead(blk(20, 0)); // evicts a dirty victim
    EXPECT_GE(cost.metaBytes, 2 * blockSize); // fetch + writeback
    EXPECT_GE(ci.macCache().writebacks(), 1u);
}

TEST(Merkle, LevelCountGrowsWithProtectedMemory)
{
    MemTopology topo({});
    MerkleConfig small;
    small.protectedBytes = 128 * MiB;
    MerkleConfig big;
    big.protectedBytes = 28 * TiB;
    MerkleTreeEngine se(topo, small), be(topo, big);
    EXPECT_GT(be.numLevels(), se.numLevels());
    // 28 TB, 8-ary: the paper quotes ~13 dependent accesses.
    EXPECT_GE(be.numLevels(), 12u);
    EXPECT_LE(be.numLevels(), 15u);
}

TEST(Merkle, ColdReadWalksManyLevels)
{
    MemTopology topo({});
    MerkleConfig cfg;
    cfg.protectedBytes = 28 * TiB;
    MerkleTreeEngine m(topo, cfg);
    auto cost = m.onRead(blk(123456, 0));
    EXPECT_GE(cost.metaBytes, 12 * blockSize);
    // Warm read stops at the first cached level.
    auto cost2 = m.onRead(blk(123456, 1));
    EXPECT_LE(cost2.metaBytes, blockSize);
}

TEST(Merkle, SharedAncestorsShortenWalks)
{
    MemTopology topo({});
    MerkleConfig cfg;
    cfg.protectedBytes = 28 * TiB;
    MerkleTreeEngine m(topo, cfg);
    m.onRead(blk(1000, 0));
    // A neighbouring page shares upper levels: shorter walk.
    auto cost = m.onRead(blk(1001, 0));
    EXPECT_LT(cost.metaBytes, 12 * blockSize);
}

TEST(InvisiMem, PacketPaddingOnEveryAccess)
{
    MemTopology topo({});
    InvisiMemEngine inv(topo);
    EXPECT_EQ(inv.onRead(blk(1, 0)).metaBytes,
              InvisiMemEngine::packetOverheadBytes);
    EXPECT_EQ(inv.onWriteback(blk(1, 0)).metaBytes,
              InvisiMemEngine::packetOverheadBytes);
}

TEST(InvisiMem, DummyPacketsPadIdleEpochs)
{
    MemTopology topo({});
    InvisiMemEngine inv(topo);
    inv.onRead(blk(1, 0));
    const auto pad = inv.padEpoch(1000.0);
    EXPECT_GT(pad, 0u); // one access nowhere near the constant rate
    EXPECT_EQ(inv.dummyBytes(), pad);
}

TEST(InvisiMem, BusyEpochsNeedLessPadding)
{
    MemTopology topo({});
    InvisiMemEngine a(topo), b(topo);
    a.onRead(blk(1, 0));
    for (int i = 0; i < 200; ++i)
        b.onRead(blk(1, i % 64));
    EXPECT_GT(a.padEpoch(100.0), b.padEpoch(100.0));
}

TEST(ToleoEngine, StealthMissFetchesFromDevice)
{
    MemTopology topo({});
    ToleoDevice dev(devConfig());
    ToleoEngine eng(topo, dev, {}, {});
    eng.onRead(blk(1, 0));
    const auto cold = topo.toleoBytes();
    EXPECT_GT(cold, 0u); // cold stealth miss
    eng.onRead(blk(1, 1));
    EXPECT_EQ(topo.toleoBytes(), cold); // flat entry now cached
}

TEST(ToleoEngine, WritebackUpdatesDeviceVersion)
{
    MemTopology topo({});
    ToleoDevice dev(devConfig());
    ToleoEngine eng(topo, dev, {}, {});
    const auto v0 = dev.fullVersion(blk(2, 0));
    eng.onWriteback(blk(2, 0));
    EXPECT_NE(dev.fullVersion(blk(2, 0)), v0);
    EXPECT_EQ(dev.updateRequests(), 1u);
}

TEST(ToleoEngine, UpgradeInvalidatesCachedEntries)
{
    MemTopology topo({});
    ToleoDevice dev(devConfig());
    ToleoEngine eng(topo, dev, {}, {});
    eng.onWriteback(blk(3, 0));
    eng.onWriteback(blk(3, 0)); // upgrade flat -> uneven
    EXPECT_EQ(dev.formatOf(3), TripFormat::Uneven);
    // Next read must miss (stale overflow entry dropped).
    const auto before = topo.toleoBytes();
    eng.onRead(blk(3, 0));
    EXPECT_GT(topo.toleoBytes(), before);
}

TEST(ToleoEngine, ResetChargesReencryption)
{
    MemTopology topo({});
    auto dcfg = devConfig();
    dcfg.trip.resetLog2 = 0; // reset on every leading increment
    ToleoDevice dev(dcfg);
    ToleoEngine eng(topo, dev, {}, {});
    auto cost = eng.onWriteback(blk(4, 0));
    EXPECT_GE(cost.metaBytes, 2 * blocksPerPage * blockSize);
    EXPECT_EQ(eng.pageReencryptions(), 1u);
}

// resetMeasurement() opens the measurement window: every statistic an
// engine reports goes to zero, while what it has cached stays, so a
// block that hit before the reset still hits after it.

TEST(ResetMeasurement, CiZeroesMacCountersAndKeepsMacBlocks)
{
    MemTopology topo({});
    CiConfig cfg;
    cfg.macCacheBytes = 2 * blockSize; // 2-entry MAC cache
    cfg.macCacheAssoc = 2;
    CiEngine ci(topo, cfg, true);
    ci.onWriteback(blk(0, 0));
    ci.onWriteback(blk(10, 0));
    ci.onRead(blk(20, 0)); // evicts a dirty MAC block
    ASSERT_GE(ci.macCache().writebacks(), 1u);

    ci.resetMeasurement();
    EXPECT_EQ(ci.macCache().accesses(), 0u);
    EXPECT_EQ(ci.macCache().writebacks(), 0u);
    EXPECT_DOUBLE_EQ(ci.macCacheHitRate(), 0.0);

    EXPECT_EQ(ci.onRead(blk(20, 1)).metaBytes, 0u);
    EXPECT_EQ(ci.macCache().hits(), 1u);
    EXPECT_DOUBLE_EQ(ci.macCacheHitRate(), 1.0);
}

TEST(ResetMeasurement, ToleoZeroesCacheCountsAndReencryptions)
{
    MemTopology topo({});
    auto dcfg = devConfig();
    dcfg.trip.resetLog2 = 0; // reset on every leading increment
    ToleoDevice dev(dcfg);
    ToleoEngine eng(topo, dev, {}, {});
    eng.onRead(blk(1, 0));
    eng.onRead(blk(1, 1));
    eng.onWriteback(blk(4, 0));
    ASSERT_GT(eng.macCache().accesses(), 0u);
    ASSERT_GT(eng.stealthCache().misses(), 0u);
    ASSERT_EQ(eng.pageReencryptions(), 1u);

    eng.resetMeasurement();
    EXPECT_EQ(eng.macCache().accesses(), 0u);
    EXPECT_EQ(eng.stealthCache().hits() + eng.stealthCache().misses(),
              0u);
    EXPECT_EQ(eng.pageReencryptions(), 0u);
    // Device state belongs to the device: the reset leaves it alone.
    EXPECT_EQ(dev.updateRequests(), 1u);

    const auto link = topo.toleoBytes();
    EXPECT_EQ(eng.onRead(blk(1, 2)).metaBytes, 0u);
    EXPECT_EQ(topo.toleoBytes(), link);
    EXPECT_EQ(eng.macCache().hits(), 1u);
    EXPECT_EQ(eng.stealthCache().hits(), 1u);
}

TEST(ResetMeasurement, InvisiMemZeroesDummyBytesAndKeepsEpochBytes)
{
    MemTopology topo({});
    InvisiMemEngine a(topo), b(topo);
    a.padEpoch(1000.0);
    b.padEpoch(1000.0);
    ASSERT_GT(a.dummyBytes(), 0u);
    a.onRead(blk(1, 0));
    b.onRead(blk(1, 0));

    a.resetMeasurement();
    EXPECT_EQ(a.dummyBytes(), 0u);
    // The open epoch's real bytes survive, so both pad alike.
    const auto pad = a.padEpoch(1000.0);
    EXPECT_EQ(pad, b.padEpoch(1000.0));
    EXPECT_EQ(a.dummyBytes(), pad);
}

TEST(ResetMeasurement, MerkleZeroesWalksAndKeepsTreeNodes)
{
    MemTopology topo({});
    MerkleConfig cfg;
    cfg.protectedBytes = 28 * TiB;
    MerkleTreeEngine m(topo, cfg);
    m.onRead(blk(123456, 0)); // cold: fetches every level
    EXPECT_EQ(m.walks(), 1u);
    EXPECT_DOUBLE_EQ(m.avgExtraAccessesPerRead(), m.numLevels());

    m.resetMeasurement();
    EXPECT_EQ(m.walks(), 0u);
    EXPECT_DOUBLE_EQ(m.avgExtraAccessesPerRead(), 0.0);

    EXPECT_EQ(m.onRead(blk(123456, 1)).metaBytes, 0u); // leaf cached
    EXPECT_EQ(m.walks(), 1u);
    EXPECT_DOUBLE_EQ(m.avgExtraAccessesPerRead(), 0.0);
}
