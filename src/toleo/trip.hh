/**
 * @file
 * TripStore: the tri-level page-granularity stealth-version store
 * (Section 4.3) that runs inside the Toleo device.
 *
 * Every protected page is statically mapped to a 12 B *flat* entry:
 * a shared 27-bit stealth base plus a 64-bit dirty bit-vector.  Pages
 * whose blocks drift apart by more than one version upgrade to an
 * *uneven* entry (64 x 7-bit private offsets, MIN/MAX tracked in the
 * flat entry); offsets drifting past 2^7 upgrade to a *full* entry
 * (64 x 27-bit).  Version resets (probability 2^-20 per leading
 * increment) and OS page frees downgrade back to flat.
 *
 * The store is fully functional: it really tracks versions, so the
 * security properties (non-repetition of the full version, scramble
 * on free) are testable, and the same state drives the timing model's
 * space/caching statistics.
 *
 * Touched pages live in one dense vector, in first-touch order,
 * indexed by an insert-only open-addressing table (linear probing
 * over a Fibonacci hash of the page number) that starts at 16 slots
 * and doubles at 50% load.  Pages are never erased -- a free resets
 * the page in place -- so the table needs no tombstones and every
 * walk over the pages is a walk over the vector.  A PageState& stays
 * valid only until the next insert, which may reallocate the vector.
 */

#ifndef TOLEO_TOLEO_TRIP_HH
#define TOLEO_TOLEO_TRIP_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "toleo/version.hh"

namespace toleo {

/** What happened inside the store on one version update. */
struct TripUpdateResult
{
    TripFormat fmtBefore = TripFormat::Flat;
    TripFormat fmtAfter = TripFormat::Flat;
    /** Stealth reset fired: UV incremented, page must re-encrypt. */
    bool reset = false;
    /** Flat->Uneven or Uneven->Full transition happened. */
    bool upgraded = false;
    /** Uneven offsets were renormalized (MIN folded into base). */
    bool normalized = false;
    /** New full version of the updated block. */
    std::uint64_t version = 0;
};

class TripStore
{
  public:
    explicit TripStore(const TripConfig &cfg);

    /**
     * Record a write(back) to a cache block: increments its stealth
     * version, applying format transitions and the probabilistic
     * reset policy.
     */
    TripUpdateResult update(BlockNum blk);

    /** Current 64-bit full version of a block (UV ‖ stealth). */
    std::uint64_t fullVersion(BlockNum blk) const;

    /** Current 27-bit stealth version of a block. */
    std::uint64_t stealth(BlockNum blk) const;

    /** Current shared UV of a page. */
    std::uint64_t upperVersion(PageNum page) const;

    /** Current Trip format of a page (Flat if never touched). */
    TripFormat formatOf(PageNum page) const;

    /**
     * OS downgrade on page free/remap (Section 4.3): reset the
     * stealth version and bump UV *without* re-encrypting, which
     * scrambles the old contents.
     */
    void freePage(PageNum page);

    /** Number of pages ever touched (drives flat-array accounting). */
    std::uint64_t touchedPages() const { return pages_.size(); }
    std::uint64_t unevenCount() const { return unevenCount_; }
    std::uint64_t fullCount() const { return fullCount_; }

    /** Dynamically allocated entry bytes (uneven + full). */
    std::uint64_t dynamicBytes() const;

    /**
     * Device bytes a resident set of @p rssPages costs: a statically
     * mapped 12 B flat entry per page plus every dynamic entry
     * allocated so far.  Figure 12 samples this over the run.
     */
    std::uint64_t
    usageBytes(std::uint64_t rssPages) const
    {
        return rssPages * flatEntryBytes + dynamicBytes();
    }

    /**
     * The Trip usage of one resident set (Figs 10-12, Table 4),
     * priced from the store's format counts.  The two byte figures
     * differ on purpose: a full entry is 216 B of versions (Table 4,
     * the paper's 18:1) held in four 56 B overflow blocks, 224 B of
     * device memory (Figs 11-12).
     */
    struct Usage
    {
        /** Pages with a flat entry: flat entries are mapped for the
         *  OS-reported RSS, cold pages included (Section 7.2). */
        std::uint64_t rssPages = 0;
        /** RSS pages by format (Figure 10).  flat = rss - uneven -
         *  full, clamped at 0: a rack's shared store counts every
         *  node's dynamic entries against one node's RSS. */
        std::uint64_t flatPages = 0;
        std::uint64_t unevenPages = 0;
        std::uint64_t fullPages = 0;
        /** Device bytes, usageBytes(rssPages); full at 224 B. */
        std::uint64_t bytes = 0;
        /** Table 4 average entry bytes per page; full at 216 B. */
        double avgEntryBytesPerPage = 0.0;
        /** Figure 11, GB of device per TB protected: every page's
         *  12 B, plus 56 B and 224 B times the uneven and full
         *  shares of the RSS. */
        double flatGbPerTb = 0.0;
        double unevenGbPerTb = 0.0;
        double fullGbPerTb = 0.0;

        double
        totalGbPerTb() const
        {
            return flatGbPerTb + unevenGbPerTb + fullGbPerTb;
        }

        /** Share of the RSS that @p pages make up (0 if empty). */
        double
        share(std::uint64_t pages) const
        {
            return rssPages ? static_cast<double>(pages) / rssPages
                            : 0.0;
        }
    };

    /**
     * Price a resident set of max(@p touchedPages, @p declaredPages)
     * pages.  An empty set averages 12 B and splits nothing.
     */
    Usage usage(std::uint64_t touchedPages,
                std::uint64_t declaredPages) const;

    std::uint64_t resets() const { return resets_; }
    std::uint64_t upgradesToUneven() const { return upToUneven_; }
    std::uint64_t upgradesToFull() const { return upToFull_; }
    std::uint64_t normalizations() const { return normalizations_; }
    std::uint64_t frees() const { return frees_; }
    std::uint64_t updates() const { return updates_; }

    const TripConfig &config() const { return cfg_; }

  private:
    struct FullEntry
    {
        /** Modular 27-bit stealth per block. */
        std::array<std::uint32_t, blocksPerPage> ver;
        /** Non-modular increment count (leading-version tracking). */
        std::array<std::uint64_t, blocksPerPage> vcnt;
    };

    struct UnevenEntry
    {
        std::array<std::uint8_t, blocksPerPage> off;
    };

    struct PageState
    {
        /** The page this state belongs to (the index's key). */
        PageNum page = 0;
        TripFormat fmt = TripFormat::Flat;
        /** Max/min uneven offsets (packed in flat entry, Sec 4.3). */
        std::uint8_t maxOff = 0;
        std::uint8_t minOff = 0;
        /** Shared 27-bit stealth base (random-initialized). */
        std::uint32_t base = 0;
        /** Non-modular count of base increments since last reset. */
        std::uint64_t vbase = 0;
        /** Flat dirty bit-vector. */
        std::uint64_t bitvec = 0;
        /** Shared 37-bit upper version. */
        std::uint64_t uv = 0;
        /** Virtual leading version (max increments since reset). */
        std::uint64_t vlead = 0;
        std::unique_ptr<UnevenEntry> uneven;
        std::unique_ptr<FullEntry> full;
    };

    TripConfig cfg_;
    std::uint32_t stealthMask_;
    std::uint64_t uvMask_;
    mutable Rng rng_;
    /** Touched pages in first-touch order. */
    std::vector<PageState> pages_;
    /** Power-of-two index: pages_ position + 1, or 0 for empty. */
    std::vector<std::uint32_t> slots_;
    unsigned slotShift_;

    std::uint64_t unevenCount_ = 0;
    std::uint64_t fullCount_ = 0;
    std::uint64_t resets_ = 0;
    std::uint64_t upToUneven_ = 0;
    std::uint64_t upToFull_ = 0;
    std::uint64_t normalizations_ = 0;
    std::uint64_t frees_ = 0;
    std::uint64_t updates_ = 0;

    /** The page's state, inserted (at its initial flat state) on
     *  first touch. */
    PageState &page(PageNum pg);
    const PageState *findPage(PageNum pg) const;

    /** Home slot of @p pg in the index. */
    std::size_t
    slotOf(PageNum pg) const
    {
        return static_cast<std::size_t>(
            (pg * 0x9e3779b97f4a7c15ULL) >> slotShift_);
    }

    /** Index slot holding @p pg, or the empty slot ending its run. */
    std::size_t findSlot(PageNum pg) const;

    /** Double the index and re-insert every page. */
    void growIndex();

    /**
     * Deterministic random-looking initial stealth base of a page's
     * statically mapped flat entry (what the device's TRNG wrote at
     * provisioning time).
     */
    std::uint32_t initialBase(PageNum pg) const;

    std::uint32_t randomStealth();
    std::uint32_t incStealth(std::uint32_t v) const;

    /** Apply a stealth reset: UV++, re-randomize, downgrade flat. */
    void resetPage(PageState &ps);

    void releaseEntries(PageState &ps);

    /** Modular stealth of a block given page state. */
    std::uint32_t stealthOf(const PageState &ps, unsigned idx) const;
};

} // namespace toleo

#endif // TOLEO_TOLEO_TRIP_HH
