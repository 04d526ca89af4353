#include "secmem/ci.hh"

#include "crypto/timing.hh"

namespace toleo {

namespace {

/**
 * Fraction of the memory channel latency that a parallel MAC fetch
 * adds to the read critical path (the MAC block queues behind the
 * data transfer on the same channel, and the MAC check gates data
 * release; the rest overlaps under MLP).
 */
constexpr double macFetchSerialization = 0.45;

} // namespace

CiEngine::CiEngine(MemTopology &topo, const CiConfig &cfg,
                   bool integrity, std::string name)
    : ProtectionEngine(
          name.empty() ? (integrity ? "CI" : "C") : std::move(name), topo),
      integrity_(integrity),
      macCache_(SetAssocCache::fromCapacity(cfg.macCacheBytes, blockSize,
                                            cfg.macCacheAssoc))
{}

double
CiEngine::macAccess(BlockNum blk, bool is_write, MetaCost &cost)
{
    const std::uint64_t mac_blk = macBlockOf(blk);
    const PageNum page = pageOfBlock(blk);

    auto res = macCache_.access(mac_blk, is_write);
    double latency = 0.0;

    if (!res.hit) {
        // Fetch the 64 B MAC block from the data's home memory.  The
        // fetch overlaps the data transfer, but the integrity check
        // gates data release, so part of the channel latency lands on
        // the critical path.
        cost.metaBytes += blockSize;
        const MemTopology::Route route = topo_.routeFor(page);
        topo_.addTraffic(route, blockSize);
        latency += macFetchSerialization * topo_.latencyNs(route);
    }
    if (res.writebackTag) {
        // Dirty MAC block evicted: write it back.  Use the victim's
        // own page for channel selection.
        const PageNum victim_page =
            pageOfBlock(*res.writebackTag * 8);
        cost.metaBytes += blockSize;
        topo_.addDataTraffic(victim_page, blockSize);
    }
    return latency;
}

MetaCost
CiEngine::onRead(BlockNum blk)
{
    MetaCost cost;

    // Decrypt on the way in; the 40-cycle AES engine is pipelined so
    // only its latency (not throughput) shows on the critical path.
    cost.latencyNs += cyclesToNs(aesLatency);

    if (integrity_) {
        cost.latencyNs += macAccess(blk, false, cost);
        // MAC verification itself overlaps decryption on a hit; on a
        // miss its latency is folded into the serialization factor.
    }
    return cost;
}

MetaCost
CiEngine::onWriteback(BlockNum blk)
{
    MetaCost cost;

    // Encryption of an evicted block is off the read critical path.
    if (integrity_) {
        // Read-modify-write of the MAC block (write allocate).
        macAccess(blk, true, cost);
    }
    return cost;
}

} // namespace toleo
