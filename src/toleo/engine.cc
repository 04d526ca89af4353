#include "toleo/engine.hh"

#include <algorithm>

namespace toleo {

namespace {

/** CXL.mem request flit bytes on the IDE link. */
constexpr std::uint64_t requestBytes = 16;
/** Response flit bytes (one Trip entry fits in a 64 B flit). */
constexpr std::uint64_t responseBytes = 64;
/**
 * A version UPDATE whose entry is not cached is a compact command +
 * short response (the device increments locally and returns just the
 * new 27-bit stealth), not a full entry fetch.
 */
constexpr std::uint64_t updateRequestBytes = 16;
constexpr std::uint64_t updateResponseBytes = 16;

} // namespace

ToleoEngine::ToleoEngine(MemTopology &topo, ToleoDevice &device,
                         const CiConfig &ci,
                         const StealthCacheConfig &stealth)
    : CiEngine(topo, ci, true, "Toleo"), device_(device), scache_(stealth)
{}

void
ToleoEngine::resetMeasurement()
{
    CiEngine::resetMeasurement();
    scache_.resetStats();
    pageReencryptions_ = 0;
}

double
ToleoEngine::fetchFromToleo(BlockNum blk, bool on_read)
{
    const std::uint64_t bytes =
        on_read ? requestBytes + responseBytes
                : updateRequestBytes + updateResponseBytes;
    topo_.addToleoTraffic(bytes);
    device_.read(blk);

    if (!on_read)
        return 0.0;

    // The version fetch is issued in parallel with the data fetch;
    // only the excess of the Toleo round trip over the data access
    // lands on the read critical path.
    const PageNum page = pageOfBlock(blk);
    const double data_lat = topo_.dataLatencyNs(page);
    return std::max(0.0, topo_.toleoLatencyNs() - data_lat);
}

MetaCost
ToleoEngine::onRead(BlockNum blk)
{
    MetaCost cost = CiEngine::onRead(blk);

    const TripFormat fmt = device_.formatOf(pageOfBlock(blk));
    auto look = scache_.access(blk, fmt, false);
    if (look.writebackBytes) {
        // Dirty version entries flushed back to the device.
        topo_.addToleoTraffic(look.writebackBytes);
    }
    if (!look.hit)
        cost.latencyNs += fetchFromToleo(blk, true);
    return cost;
}

MetaCost
ToleoEngine::onWriteback(BlockNum blk)
{
    MetaCost cost = CiEngine::onWriteback(blk);

    // Functional version increment (UPDATE request semantics); the
    // stealth caches are write-back, so a cached entry defers the
    // link transfer to eviction.
    auto res = device_.update(blk);

    auto look = scache_.access(blk, res.fmtAfter, true);
    if (look.writebackBytes)
        topo_.addToleoTraffic(look.writebackBytes);
    if (!look.hit)
        fetchFromToleo(blk, false);

    if (res.upgraded || res.reset) {
        // Format changes drop stale overflow entries.
        scache_.invalidatePage(pageOfBlock(blk));
    }

    if (res.reset) {
        // UV_UPDATE: the host re-encrypts the page with the new
        // version (Section 4.3) -- 64 blocks read and rewritten.
        // Rare (p = 2^-20 per leading increment), so the cost is
        // amortized to nothing; we still account the traffic.
        const PageNum page = pageOfBlock(blk);
        const std::uint64_t bytes = 2ULL * blocksPerPage * blockSize;
        cost.metaBytes += bytes;
        topo_.addDataTraffic(page, bytes);
        ++pageReencryptions_;
    }
    return cost;
}

} // namespace toleo
