/**
 * @file
 * The Toleo protection engine: CI plus CXL/PIM-backed freshness.
 *
 * Composes on top of CiEngine (AES-XTS + MAC): every LLC fill needs
 * the block's version to decrypt and verify; every dirty eviction
 * increments it.  Versions come from the on-chip stealth caches when
 * possible; misses fetch from the Toleo device over the IDE link.
 * The shared UV travels in the MAC block (Figure 4), so it costs no
 * extra access.  Stealth resets surface as UV_UPDATEs that re-encrypt
 * the page (64 blocks read+written, amortized over ~2^20 writes).
 */

#ifndef TOLEO_TOLEO_ENGINE_HH
#define TOLEO_TOLEO_ENGINE_HH

#include "secmem/ci.hh"
#include "toleo/device.hh"
#include "toleo/stealth_cache.hh"

namespace toleo {

class ToleoEngine : public CiEngine
{
  public:
    ToleoEngine(MemTopology &topo, ToleoDevice &device,
                const CiConfig &ci, const StealthCacheConfig &stealth);

    MetaCost onRead(BlockNum blk) override;
    MetaCost onWriteback(BlockNum blk) override;

    bool freshness() const override { return true; }

    /** Zeroes the MAC and stealth caches' counters and the
     *  re-encryption count; cached MACs and versions stay (the
     *  stealth cache drops only its combine buffer, see
     *  StealthCache::resetStats). */
    void resetMeasurement() override;

    const StealthCache &stealthCache() const { return scache_; }

    /** UV_UPDATE page re-encryptions since the last reset. */
    std::uint64_t pageReencryptions() const { return pageReencryptions_; }

  private:
    ToleoDevice &device_;
    StealthCache scache_;
    std::uint64_t pageReencryptions_ = 0;

    /** Charge one miss-path fetch from the Toleo device. */
    double fetchFromToleo(BlockNum blk, bool on_read);
};

} // namespace toleo

#endif // TOLEO_TOLEO_ENGINE_HH
