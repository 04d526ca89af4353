/**
 * @file
 * Merkle-tree (counter-tree) freshness engine -- the client-SGX-style
 * baseline that Toleo replaces (Sections 1-2).
 *
 * A counter tree covers the protected region: each 64 B tree node
 * authenticates eight children; leaves hold per-block version
 * counters.  The root stays on-chip.  A read must verify every node
 * from the leaf up to the first version-cache hit (or the root); the
 * walk is a dependent chain, so every missing level adds a full
 * memory round trip.  A write updates the leaf and dirties the path.
 *
 * Leaf layouts parameterize Table 4: SGX packs 8x56-bit counters per
 * block (64 B of data per 7 B counter), VAULT fits 16-64 counters,
 * MorphCtr-128 reaches 128 per block.
 */

#ifndef TOLEO_SECMEM_MERKLE_HH
#define TOLEO_SECMEM_MERKLE_HH

#include <vector>

#include "cache/set_assoc.hh"
#include "secmem/engine.hh"

namespace toleo {

struct MerkleConfig
{
    /** Memory the tree protects; sets the number of levels. */
    std::uint64_t protectedBytes = 28 * TiB;
    /** On-chip version/tree-node cache (32 KB per core in [63]). */
    std::uint64_t versionCacheBytes = 1 * MiB;
};

class MerkleTreeEngine : public ProtectionEngine
{
  public:
    MerkleTreeEngine(MemTopology &topo, const MerkleConfig &cfg);

    MetaCost onRead(BlockNum blk) override;
    MetaCost onWriteback(BlockNum blk) override;

    bool confidentiality() const override { return true; }
    bool integrity() const override { return true; }
    bool freshness() const override { return true; }
    /** A Merkle tree cannot feasibly cover tera-scale memory. */
    bool fullMemory() const override
    {
        return cfg_.protectedBytes <= 64 * GiB;
    }

    /** Zeroes the node cache's counters and the walk count; cached
     *  tree nodes stay. */
    void
    resetMeasurement() override
    {
        cache_.resetStats();
        walks_ = 0;
    }

    unsigned numLevels() const { return numLevels_; }
    /** Tree walks, one per read or writeback. */
    std::uint64_t walks() const { return walks_; }
    /** Node fetches (node-cache misses) per walk. */
    double avgExtraAccessesPerRead() const;

  private:
    MerkleConfig cfg_;
    SetAssocCache cache_;
    unsigned numLevels_;
    std::uint64_t walks_ = 0;

    /** Walk leaf->root until a cached level; returns cost. */
    MetaCost walk(BlockNum blk, bool is_write);

    std::uint64_t nodeKey(unsigned level, std::uint64_t index) const;
};

} // namespace toleo

#endif // TOLEO_SECMEM_MERKLE_HH
