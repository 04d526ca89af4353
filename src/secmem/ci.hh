/**
 * @file
 * Confidentiality (+ optionally Integrity) engine.
 *
 * Models scalable SGX-style protection (Section 2.2 / 7):
 *  - C: AES-XTS encryption/decryption on every off-chip transfer
 *    (40-cycle engine, Table 3);
 *  - I: a 56-bit MAC per cache block; eight MACs pack into one 64 B
 *    MAC block stored alongside data (Figure 4) and cached in a 1 MB,
 *    16-way MAC cache (32 KB/core, Table 3).
 *
 * Without integrity this is the "C" configuration of Figure 9; with
 * it, "CI" (scalable SGX TME + integrity).  The engine kind decides
 * which: the System builds C without it, and CI and Toleo (which
 * composes on top of this class) with it.
 */

#ifndef TOLEO_SECMEM_CI_HH
#define TOLEO_SECMEM_CI_HH

#include "cache/set_assoc.hh"
#include "secmem/engine.hh"

namespace toleo {

struct CiConfig
{
    std::uint64_t macCacheBytes = 1 * MiB;
    unsigned macCacheAssoc = 16;
};

class CiEngine : public ProtectionEngine
{
  public:
    /** C without @p integrity, CI with it; a composing engine passes
     *  its own @p name. */
    CiEngine(MemTopology &topo, const CiConfig &cfg, bool integrity,
             std::string name = "");

    MetaCost onRead(BlockNum blk) override;
    MetaCost onWriteback(BlockNum blk) override;

    bool confidentiality() const override { return true; }
    bool integrity() const override { return integrity_; }
    bool freshness() const override { return false; }
    bool fullMemory() const override { return true; }

    /** Zeroes the MAC cache's counters; its contents stay. */
    void resetMeasurement() override { macCache_.resetStats(); }

    double macCacheHitRate() const { return macCache_.hitRate(); }
    const SetAssocCache &macCache() const { return macCache_; }

  protected:
    bool integrity_;
    /** Keyed by MAC-block number: eight data blocks per MAC block. */
    SetAssocCache macCache_;

    /** MAC block holding the MAC of a data block. */
    static std::uint64_t macBlockOf(BlockNum blk) { return blk / 8; }

    /**
     * Run one MAC-cache access for a data block; accounts fetch and
     * writeback traffic and returns the added read-path latency.
     */
    double macAccess(BlockNum blk, bool is_write, MetaCost &cost);
};

} // namespace toleo

#endif // TOLEO_SECMEM_CI_HH
