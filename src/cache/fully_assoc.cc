#include "cache/fully_assoc.hh"

#include "common/logging.hh"

namespace toleo {

FullyAssocCache::FullyAssocCache(unsigned entries)
    : entries_(std::size_t{entries} + 1), sentinel_(entries)
{
    if (entries == 0 || entries >= (1u << 31))
        panic("FullyAssocCache: %u entries out of range", entries);
    unsigned bits = 2;
    while ((std::size_t{1} << bits) < std::size_t{4} * entries)
        ++bits;
    slots_.resize(std::size_t{1} << bits);
    slotMask_ = slots_.size() - 1;
    slotShift_ = 64 - bits;
    invalidateAll();
}

CacheAccessResult
FullyAssocCache::fill(std::uint64_t key, bool is_write)
{
    CacheAccessResult res;
    ++misses_;

    std::uint32_t e = free_;
    if (e != kNone) {
        free_ = entries_[e].next;
    } else {
        e = entries_[sentinel_].prev;
        const Entry &victim = entries_[e];
        if (victim.dirty) {
            ++writebacks_;
            res.writebackTag = victim.key;
        } else {
            res.evictedTag = victim.key;
        }
        eraseSlot(findSlot(victim.key));
        unlink(e);
    }

    entries_[e].key = key;
    entries_[e].dirty = is_write;
    Slot &slot = slots_[findSlot(key)];
    slot.key = key;
    slot.entry = e;
    pushFront(e);
    return res;
}

bool
FullyAssocCache::invalidate(std::uint64_t key)
{
    const std::size_t i = findSlot(key);
    const std::uint32_t e = slots_[i].entry;
    if (e == kNone)
        return false;
    eraseSlot(i);
    unlink(e);
    entries_[e].next = free_;
    free_ = e;
    return entries_[e].dirty;
}

void
FullyAssocCache::invalidateAll()
{
    for (Slot &s : slots_)
        s.entry = kNone;
    entries_[sentinel_].prev = entries_[sentinel_].next = sentinel_;
    // Thread the free list in index order; which free line a fill
    // takes is unobservable.
    for (std::uint32_t e = 0; e < sentinel_; ++e)
        entries_[e].next = e + 1 < sentinel_ ? e + 1 : kNone;
    free_ = 0;
}

void
FullyAssocCache::eraseSlot(std::size_t i)
{
    // Backward-shift deletion: pull each later member of the probe
    // run into the hole unless its home lies cyclically in (hole, j],
    // so no lookup ever stops early at a stale empty slot.
    for (std::size_t j = (i + 1) & slotMask_; slots_[j].entry != kNone;
         j = (j + 1) & slotMask_) {
        const std::size_t h = home(slots_[j].key);
        if (((j - h) & slotMask_) >= ((j - i) & slotMask_)) {
            slots_[i] = slots_[j];
            i = j;
        }
    }
    slots_[i].entry = kNone;
}

double
FullyAssocCache::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / total : 0.0;
}

void
FullyAssocCache::resetStats()
{
    hits_ = misses_ = writebacks_ = 0;
}

} // namespace toleo
