/**
 * @file
 * Tests for the ToleoDevice: request handling, space management
 * (Section 4.4), and the Figure 11 usage-normalization math.
 */

#include <gtest/gtest.h>

#include "toleo/device.hh"

using namespace toleo;

namespace {

BlockNum
blk(PageNum pg, unsigned idx)
{
    return (pg << (pageBits - blockBits)) | idx;
}

ToleoDeviceConfig
smallConfig()
{
    ToleoDeviceConfig cfg;
    cfg.capacityBytes = 1000000; // 1 MB device
    cfg.protectedBytes = 64ULL * MiB;
    cfg.trip.resetLog2 = 63;
    return cfg;
}

} // namespace

TEST(Device, FlatArraySizedForProtectedMemory)
{
    auto cfg = smallConfig();
    ToleoDevice dev(cfg);
    EXPECT_EQ(dev.flatArrayBytes(),
              cfg.protectedBytes / pageSize * flatEntryBytes);
    EXPECT_EQ(dev.dynamicCapacityBytes(),
              cfg.capacityBytes - dev.flatArrayBytes());
}

TEST(Device, PaperScaleFlatArrayIs74GB)
{
    // Section 4.4: the flat array for 24.8 TB occupies 74.6 GB.
    ToleoDeviceConfig cfg; // paper defaults
    ToleoDevice dev(cfg);
    const double gb = static_cast<double>(dev.flatArrayBytes()) / GiB;
    EXPECT_NEAR(gb, 74.6, 1.0);
}

TEST(Device, OversizedProtectedMemoryIsFatal)
{
    ToleoDeviceConfig cfg;
    cfg.capacityBytes = 1 * MiB;
    cfg.protectedBytes = 1 * TiB; // needs 3 GB of flat entries
    EXPECT_DEATH({ ToleoDevice dev(cfg); }, "flat array");
}

TEST(Device, UpdateIncrementsVersion)
{
    ToleoDevice dev(smallConfig());
    const auto v0 = dev.fullVersion(blk(1, 0));
    auto res = dev.update(blk(1, 0));
    EXPECT_EQ(res.version, dev.fullVersion(blk(1, 0)));
    EXPECT_NE(res.version, v0);
}

TEST(Device, ReadReturnsStealthOnly)
{
    auto cfg = smallConfig();
    ToleoDevice dev(cfg);
    dev.update(blk(1, 0));
    const auto stealth = dev.read(blk(1, 0));
    EXPECT_LT(stealth, 1ULL << cfg.trip.stealthBits);
    EXPECT_EQ(stealth,
              dev.fullVersion(blk(1, 0)) &
                  ((1ULL << cfg.trip.stealthBits) - 1));
}

TEST(Device, ResetRequestDowngradesPage)
{
    ToleoDevice dev(smallConfig());
    dev.update(blk(2, 5));
    dev.update(blk(2, 5)); // uneven
    ASSERT_EQ(dev.formatOf(2), TripFormat::Uneven);
    dev.reset(2);
    EXPECT_EQ(dev.formatOf(2), TripFormat::Flat);
    EXPECT_EQ(dev.resetRequests(), 1u);
}

TEST(Device, UsageGrowsWithTouchedPagesAndEntries)
{
    ToleoDevice dev(smallConfig());
    EXPECT_EQ(dev.usageBytes(), 0u);
    dev.update(blk(1, 0));
    EXPECT_EQ(dev.usageBytes(), flatEntryBytes);
    dev.update(blk(1, 0)); // uneven entry allocated
    EXPECT_EQ(dev.usageBytes(), flatEntryBytes + unevenEntryBytes);
}

TEST(Device, SpaceExhaustionDetected)
{
    ToleoDeviceConfig cfg = smallConfig();
    // Flat array for 64 MiB = 16384 pages x 12 B = 196608 B; leave
    // room for exactly one uneven entry.
    cfg.capacityBytes = 196608 + unevenEntryBytes;
    ToleoDevice dev(cfg);
    EXPECT_FALSE(dev.spaceExhausted());
    dev.update(blk(1, 0));
    dev.update(blk(1, 0)); // first uneven entry: fills dynamic space
    EXPECT_TRUE(dev.spaceExhausted());
    // Host downgrade frees the space.
    dev.reset(1);
    EXPECT_FALSE(dev.spaceExhausted());
}

TEST(Device, StatCountersTrackRequests)
{
    ToleoDevice dev(smallConfig());
    dev.read(blk(1, 0));
    dev.update(blk(1, 0));
    dev.update(blk(1, 0));
    EXPECT_EQ(dev.readRequests(), 1u);
    EXPECT_EQ(dev.updateRequests(), 2u);
    EXPECT_EQ(dev.store().upgradesToUneven() +
                  dev.store().upgradesToFull(),
              1u);
}

TEST(DeviceInitiators, AddressSpacesArePartitioned)
{
    // Two rack nodes updating the "same" local block must land on
    // disjoint shared-store entries.
    ToleoDevice dev(smallConfig());
    const unsigned other = dev.addInitiator();
    ASSERT_EQ(other, 1u);

    const BlockNum b = blk(5, 3);
    dev.setActiveInitiator(0);
    dev.update(b);
    dev.update(b);
    const std::uint64_t v0 = dev.fullVersion(b);

    dev.setActiveInitiator(other);
    // Initiator 1 never touched its slice: versions independent.
    const std::uint64_t v1_before = dev.fullVersion(b);
    dev.update(b);
    const std::uint64_t v1_after = dev.fullVersion(b);
    EXPECT_NE(v1_before, v1_after);

    dev.setActiveInitiator(0);
    EXPECT_EQ(dev.fullVersion(b), v0);

    // Both slices landed as distinct pages in the one shared store.
    EXPECT_EQ(dev.store().touchedPages(), 2u);
}

TEST(DeviceInitiators, EpochRequestAccounting)
{
    ToleoDevice dev(smallConfig());
    dev.addInitiator();

    dev.setActiveInitiator(0);
    dev.update(blk(1, 0));
    dev.read(blk(1, 0));
    dev.setActiveInitiator(1);
    dev.reset(7);

    EXPECT_EQ(dev.epochRequests(0), 2u);
    EXPECT_EQ(dev.epochRequests(1), 1u);

    dev.beginInitiatorEpoch();
    EXPECT_EQ(dev.epochRequests(0), 0u);
    EXPECT_EQ(dev.epochRequests(1), 0u);
    // Lifetime counts survive the epoch reset.
    EXPECT_EQ(dev.totalRequests(0), 2u);
    EXPECT_EQ(dev.totalRequests(1), 1u);

    // The classic single-initiator device still counts as id 0.
    ToleoDevice solo(smallConfig());
    solo.update(blk(2, 0));
    EXPECT_EQ(solo.totalRequests(0), 1u);
}
