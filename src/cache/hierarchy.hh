/**
 * @file
 * Three-level data-cache hierarchy matching the simulated node
 * (Table 3): per-core 32 KB L1-D and 1 MB L2, and a 16 MB L3 slice
 * shared by every 8 cores.  The hierarchy consumes block-level
 * references from the cores and emits LLC misses and dirty writebacks
 * to the memory system / protection engine.
 */

#ifndef TOLEO_CACHE_HIERARCHY_HH
#define TOLEO_CACHE_HIERARCHY_HH

#include <cstdint>
#include <vector>

#include "cache/set_assoc.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace toleo {

/**
 * Configuration of the data hierarchy: geometry only.  Table 3's
 * L1/L2/L3 hit latencies are printed by printConfig but not charged
 * by the timing model: cores retire at the base IPC, and only LLC
 * misses stall.
 */
struct CacheHierarchyConfig
{
    unsigned numCores = 32;
    unsigned coresPerL3Slice = 8;
    std::uint64_t l1Bytes = 32 * KiB;
    unsigned l1Assoc = 8;
    std::uint64_t l2Bytes = 1 * MiB;
    unsigned l2Assoc = 16;
    std::uint64_t l3SliceBytes = 16 * MiB;
    unsigned l3Assoc = 16;
};

/**
 * Dirty blocks leaving the chip on one access.  One access can spill
 * at most one victim per cache level (L1, L2, L3), so a fixed inline
 * array suffices -- a std::vector here would allocate on every miss
 * path, which is most of the simulator's heap traffic.
 */
class WritebackList
{
  public:
    void
    push_back(BlockNum blk)
    {
        if (count_ >= maxWritebacks)
            panic("WritebackList: more than %u victims in one access",
                  maxWritebacks);
        blocks_[count_++] = blk;
    }

    const BlockNum *begin() const { return blocks_; }
    const BlockNum *end() const { return blocks_ + count_; }
    unsigned size() const { return count_; }
    bool empty() const { return count_ == 0; }

  private:
    /** One potential victim per level: L1, L2, L3. */
    static constexpr unsigned maxWritebacks = 3;

    /** Only entries below count_ are ever read: no zero-init. */
    BlockNum blocks_[maxWritebacks];
    unsigned count_ = 0;
};

/** What the shared level asks the memory system to do for one
 *  access. */
struct HierarchyResult
{
    /** LLC miss: a block must be fetched from memory. */
    bool llcMiss = false;
    /**
     * Dirty blocks leaving the chip this access: the LLC victim,
     * and/or dirty upper-level victims spilling past a
     * non-inclusive lower level straight to memory.
     */
    WritebackList memWritebacks;
};

/**
 * Outcome of the core-private (L1 + L2) part of one access.
 *
 * The hierarchy splits into a private half and a shared half so the
 * simulation driver can run each core's references in a batch
 * (L1/L2 state is per-core, so batching cannot reorder anything
 * observable) and then replay the shared-L3/memory work in the
 * original global reference order.
 */
struct PrivateAccessResult
{
    /** Dirty victims that missed the private levels: L3 must be
     *  probed, and on a probe miss they leave the chip. */
    BlockNum spills[2];
    std::uint8_t numSpills = 0;
    /** Served by L1: no private spill, no shared work. */
    bool l1Hit = false;
    /** Missed L2 as well: the shared L3 slice must be accessed. */
    bool l2Miss = false;

    bool needsShared() const { return numSpills > 0 || l2Miss; }
};

/**
 * One core's private levels: its L1-D and L2.  Every operation
 * touches only this core's two caches, so different cores'
 * instances may be driven from different threads.
 */
class PrivateCaches
{
  public:
    explicit PrivateCaches(const CacheHierarchyConfig &cfg);

    /**
     * L1 access, dirty-victim merge into L2, and the L2 access on an
     * L1 miss.  Victims that miss L2 and the L3 access an L2 miss
     * needs are left to CacheHierarchy::accessShared().
     */
    PrivateAccessResult
    access(BlockNum blk, bool is_write)
    {
        PrivateAccessResult out;

        auto r1 = l1_.access(blk, is_write);
        if (r1.hit) {
            out.l1Hit = true;
            return out;
        }
        // A dirty L1 victim merges into L2 if resident there,
        // otherwise (non-inclusive hierarchy) it heads for L3 or
        // memory -- shared state, deferred to accessShared().
        if (r1.writebackTag) {
            if (!l2_.markDirtyIfPresent(*r1.writebackTag))
                out.spills[out.numSpills++] = *r1.writebackTag;
        }

        // Lower levels fill *clean*: the dirty bit lives in L1 and
        // travels down on eviction, so each store produces exactly
        // one eventual memory writeback.
        auto r2 = l2_.access(blk, false);
        if (r2.hit)
            return out;
        if (r2.writebackTag)
            out.spills[out.numSpills++] = *r2.writebackTag;
        out.l2Miss = true;
        return out;
    }

    /**
     * Prefetch hint for an upcoming access(blk, ...): pulls the L1
     * and L2 set blocks for @p blk toward the calling thread's
     * caches.  No architectural state changes, so a batching driver
     * can issue it a few references ahead.
     */
    void
    prefetch(BlockNum blk) const
    {
        l1_.prefetchSet(blk);
        l2_.prefetchSet(blk);
    }

    void resetStats();

  private:
    SetAssocCache l1_;
    SetAssocCache l2_;
};

class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const CacheHierarchyConfig &cfg);

    /** Private half: @p core's L1 and L2 (PrivateCaches::access). */
    PrivateAccessResult
    accessPrivate(unsigned core, BlockNum blk, bool is_write)
    {
        return private_[core].access(blk, is_write);
    }

    /**
     * Shared half: L3 probes for spilled victims and the L3 access
     * for an L2 miss of @p core's private half.  Must run in global
     * reference order; fills res.memWritebacks and res.llcMiss.
     */
    void
    accessShared(unsigned core, BlockNum blk,
                 const PrivateAccessResult &priv, HierarchyResult &res)
    {
        SetAssocCache &l3 = l3SliceFor(core);
        for (unsigned s = 0; s < priv.numSpills; ++s) {
            if (!l3.markDirtyIfPresent(priv.spills[s]))
                res.memWritebacks.push_back(priv.spills[s]);
        }
        if (!priv.l2Miss)
            return;
        auto r3 = l3.access(blk, false);
        if (r3.hit)
            return;
        res.llcMiss = true;
        if (r3.writebackTag)
            res.memWritebacks.push_back(*r3.writebackTag);
    }

    /** @p core's private levels, for a driver that batches them
     *  apart from the shared L3 (sim/front_end.hh). */
    PrivateCaches &privateCaches(unsigned core) { return private_[core]; }

    std::uint64_t llcMisses() const;

    /** Zero the L3 slices' counters; each core's L1/L2 counters are
     *  PrivateCaches::resetStats()'s. */
    void resetLlcStats();

  private:
    std::vector<PrivateCaches> private_;
    /** L3 slices are shared across the cores of a slice: only the
     *  global-order shared replay may touch them. */
    std::vector<SetAssocCache> l3_;
    /** Per-core slice index: avoids a runtime division per lookup. */
    std::vector<unsigned> l3SliceOf_;

    SetAssocCache &l3SliceFor(unsigned core);
};

} // namespace toleo

#endif // TOLEO_CACHE_HIERARCHY_HH
