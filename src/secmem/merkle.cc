#include "secmem/merkle.hh"

#include "crypto/timing.hh"

namespace toleo {

namespace {

/** Children per tree node. */
constexpr unsigned arity = 8;
/** Data blocks covered per 64 B leaf node. */
constexpr unsigned blocksPerLeaf = 8;
/** Associativity of the version/tree-node cache. */
constexpr unsigned versionCacheAssoc = 16;
/**
 * Serialized fraction of channel latency per missing tree level
 * (dependent walk: near 1.0).
 */
constexpr double levelSerialization = 0.9;

} // namespace

MerkleTreeEngine::MerkleTreeEngine(MemTopology &topo,
                                   const MerkleConfig &cfg)
    : ProtectionEngine("Merkle", topo), cfg_(cfg),
      cache_(SetAssocCache::fromCapacity(cfg.versionCacheBytes, blockSize,
                                         versionCacheAssoc))
{
    std::uint64_t nodes = cfg.protectedBytes / blockSize / blocksPerLeaf;
    numLevels_ = 1;
    while (nodes > 1) {
        nodes = (nodes + arity - 1) / arity;
        ++numLevels_;
    }
}

std::uint64_t
MerkleTreeEngine::nodeKey(unsigned level, std::uint64_t index) const
{
    return (static_cast<std::uint64_t>(level) << 56) | index;
}

MetaCost
MerkleTreeEngine::walk(BlockNum blk, bool is_write)
{
    MetaCost cost;
    const PageNum page = pageOfBlock(blk);
    std::uint64_t index = blk / blocksPerLeaf;
    ++walks_;

    for (unsigned level = 0; level < numLevels_; ++level) {
        auto res = cache_.access(nodeKey(level, index), is_write);
        if (res.writebackTag) {
            cost.metaBytes += blockSize;
            topo_.addDataTraffic(page, blockSize);
        }
        if (res.hit) {
            // Everything above this node is already verified.
            break;
        }
        // Fetch the missing node: a dependent access in the chain.
        cost.metaBytes += blockSize;
        topo_.addDataTraffic(page, blockSize);
        cost.latencyNs += levelSerialization * topo_.dataLatencyNs(page);
        index /= arity;
    }
    return cost;
}

MetaCost
MerkleTreeEngine::onRead(BlockNum blk)
{
    MetaCost cost = walk(blk, false);
    // Decrypt + leaf MAC verify.
    cost.latencyNs += cyclesToNs(aesLatency) + cyclesToNs(macLatency);
    return cost;
}

MetaCost
MerkleTreeEngine::onWriteback(BlockNum blk)
{
    // A write increments the leaf counter and dirties every ancestor
    // (they will be written back on cache eviction).
    return walk(blk, true);
}

double
MerkleTreeEngine::avgExtraAccessesPerRead() const
{
    return walks_ ? static_cast<double>(cache_.misses()) / walks_ : 0.0;
}

} // namespace toleo
