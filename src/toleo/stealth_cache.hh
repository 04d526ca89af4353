/**
 * @file
 * On-chip stealth-version caches (Section 4.4, Figure 5).
 *
 * Flat entries (12 B) ride in an extension of the shared 256-entry
 * last-level TLB: the tag array is untouched, so flat-entry residency
 * tracks TLB residency exactly.  Uneven and full entries live in a
 * 28 KB, 16-way *stealth overflow buffer* with 56 B blocks; a full
 * entry spans four blocks, addressed by VPN ‖ 2-bit list offset.
 * Both caches are checked in parallel on every LLC miss.
 *
 * The TLB extension and the update write-combining buffer are
 * exact-LRU FullyAssocCache tables: as one-set SetAssocCaches they
 * cost a 256-way tag scan (and, on a fill, a 256-way LRU argmin) per
 * LLC miss.  Same model, same victims, O(1) per probe.
 */

#ifndef TOLEO_TOLEO_STEALTH_CACHE_HH
#define TOLEO_TOLEO_STEALTH_CACHE_HH

#include "cache/fully_assoc.hh"
#include "cache/set_assoc.hh"
#include "common/types.hh"
#include "toleo/version.hh"

namespace toleo {

struct StealthCacheConfig
{
    unsigned tlbEntries = 256;
    std::uint64_t overflowBytes = 28 * KiB;
};

/** Outcome of one stealth-cache lookup. */
struct StealthLookup
{
    /** All entries needed for this block's version were on chip. */
    bool hit = false;
    /** A dirty entry was evicted and must be flushed to Toleo. */
    std::uint64_t writebackBytes = 0;
};

class StealthCache
{
  public:
    /** Flat-entry extension per TLB entry, bytes. */
    static constexpr unsigned tlbExtBytes = 12;
    static constexpr unsigned overflowAssoc = 16;
    static constexpr unsigned overflowBlockBytes = 56;

    explicit StealthCache(const StealthCacheConfig &cfg);

    /**
     * Look up the version entries needed for a block access.
     * @param blk The data block being filled or written back.
     * @param fmt The page's current Trip format.
     * @param is_update Version update (marks entries dirty).
     *
     * The stealth caches sit beside the (shared) LLC and are probed
     * per miss during the global-order replay.
     */
    StealthLookup access(BlockNum blk, TripFormat fmt, bool is_update);

    /** Drop a page's overflow entries (downgrade/reset/free). */
    void invalidatePage(PageNum page);

    /** Read-path (LLC-miss) hits: what Figure 7 reports. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    double hitRate() const;

    /** Writeback-path (version update) statistics. */
    std::uint64_t updateHits() const { return updateHits_; }
    std::uint64_t updateMisses() const { return updateMisses_; }

    /** Total on-chip SRAM the stealth caches add, bytes (Sec 7.3). */
    std::uint64_t sramBytes() const;

    void resetStats();

  private:
    /**
     * Write-combining buffer for version updates: bursts of
     * writebacks to the same page (a KV value spanning several
     * blocks, a page's eviction wave) coalesce into one device
     * UPDATE instead of one per block.
     */
    static constexpr unsigned updateCombineEntries = 16;

    StealthCacheConfig cfg_;
    /** Fully associative TLB extension, keyed by page number. */
    FullyAssocCache tlb_;
    /** Overflow buffer keyed by (page << 2) | 56B-chunk index. */
    SetAssocCache overflow_;
    /** Update write-combining buffer (page-granular, LRU). */
    FullyAssocCache combine_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t updateHits_ = 0;
    std::uint64_t updateMisses_ = 0;

    std::uint64_t overflowKey(PageNum page, unsigned chunk) const;
};

} // namespace toleo

#endif // TOLEO_TOLEO_STEALTH_CACHE_HH
