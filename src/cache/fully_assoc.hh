/**
 * @file
 * Fully associative cache with exact LRU replacement and O(1)
 * lookups, for the stealth caches' 256-entry TLB extension and their
 * update write-combining buffer.
 *
 * A SetAssocCache with one N-way set models the same thing, but every
 * probe past its MRU shortcut scans N keys and every fill takes an
 * argmin over N LRU words: 256 of each per LLC miss for the TLB.
 * Here an open-addressed index (linear probing, backward-shift
 * deletion, at most 25% load) maps a key to its entry, the entries
 * form a doubly linked recency list (MRU at the front), and unused
 * entries wait on a free list.  Exact LRU depends only on the access
 * sequence, so hits, victims and counters match SetAssocCache(1, N)
 * operation for operation (tests/test_cache.cc drives both).
 */

#ifndef TOLEO_CACHE_FULLY_ASSOC_HH
#define TOLEO_CACHE_FULLY_ASSOC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/set_assoc.hh"

namespace toleo {

class FullyAssocCache
{
  public:
    /** @param entries Capacity (1 <= entries < 2^31). */
    explicit FullyAssocCache(unsigned entries);

    /**
     * Access a key; allocates on miss (a free entry first, else the
     * LRU one), promotes on hit.  @p is_write marks the line dirty.
     */
    CacheAccessResult
    access(std::uint64_t key, bool is_write)
    {
        const std::uint32_t e = lookup(key);
        if (e == kNone)
            return fill(key, is_write);
        ++hits_;
        entries_[e].dirty |= is_write;
        CacheAccessResult res;
        res.hit = true;
        return res;
    }

    /**
     * Non-allocating access: on a hit, promote (and optionally mark
     * dirty); on a miss, count it and do nothing else.
     */
    bool
    touch(std::uint64_t key, bool mark_dirty)
    {
        const std::uint32_t e = lookup(key);
        if (e == kNone) {
            ++misses_;
            return false;
        }
        ++hits_;
        entries_[e].dirty |= mark_dirty;
        return true;
    }

    /** Probe without modifying state. */
    bool contains(std::uint64_t key) const { return find(key) != kNone; }

    /** Invalidate a key if present; returns true if it was dirty.
     *  Counts nothing. */
    bool invalidate(std::uint64_t key);

    /** Invalidate every line; statistics are left untouched. */
    void invalidateAll();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    std::uint64_t accesses() const { return hits_ + misses_; }
    double hitRate() const;
    void resetStats();

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /** One line.  prev/next link the recency list when the line is
     *  live; next links the free list when it is not. */
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint32_t prev = 0;
        std::uint32_t next = 0;
        bool dirty = false;
    };

    /** Index slot: the key and its entry, or entry == kNone. */
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t entry = kNone;
    };

    /** Lines 0..N-1, then the recency list's sentinel at N: its next
     *  is the MRU line and its prev the LRU line. */
    std::vector<Entry> entries_;
    std::uint32_t sentinel_;
    /** Head of the free list threaded through Entry::next. */
    std::uint32_t free_ = kNone;

    /** Power-of-two slot table, at least 4 slots per line. */
    std::vector<Slot> slots_;
    std::size_t slotMask_ = 0;
    unsigned slotShift_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;

    /** Home slot: Fibonacci hashing, so sequential page numbers
     *  spread evenly over the table. */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> slotShift_);
    }

    /** Slot holding @p key, or the empty slot ending its probe run
     *  (where an insert of @p key goes). */
    std::size_t
    findSlot(std::uint64_t key) const
    {
        std::size_t i = home(key);
        while (slots_[i].entry != kNone && slots_[i].key != key)
            i = (i + 1) & slotMask_;
        return i;
    }

    /** Entry holding @p key, or kNone. */
    std::uint32_t
    find(std::uint64_t key) const
    {
        return slots_[findSlot(key)].entry;
    }

    /** find() plus promotion to MRU; the MRU line itself (the usual
     *  repeated-page case) needs no hashing. */
    std::uint32_t
    lookup(std::uint64_t key)
    {
        const std::uint32_t mru = entries_[sentinel_].next;
        if (mru != sentinel_ && entries_[mru].key == key)
            return mru;
        const std::uint32_t e = find(key);
        if (e != kNone) {
            unlink(e);
            pushFront(e);
        }
        return e;
    }

    void
    unlink(std::uint32_t e)
    {
        Entry &x = entries_[e];
        entries_[x.prev].next = x.next;
        entries_[x.next].prev = x.prev;
    }

    void
    pushFront(std::uint32_t e)
    {
        Entry &s = entries_[sentinel_];
        entries_[e].prev = sentinel_;
        entries_[e].next = s.next;
        entries_[s.next].prev = e;
        s.next = e;
    }

    /** Miss path of access(): allocate, evicting LRU when full. */
    CacheAccessResult fill(std::uint64_t key, bool is_write);

    /** Empty slot @p i of the index, keeping every probe run whole. */
    void eraseSlot(std::size_t i);
};

} // namespace toleo

#endif // TOLEO_CACHE_FULLY_ASSOC_HH
