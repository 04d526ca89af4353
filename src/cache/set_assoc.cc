#include "cache/set_assoc.hh"

#include <algorithm>

namespace toleo {

SetAssocCache::SetAssocCache(std::uint64_t num_sets, unsigned assoc)
    : numSets_(num_sets), assoc_(assoc), stride_(2 * assoc),
      setMask_((num_sets & (num_sets - 1)) == 0 ? num_sets - 1 : 0),
      slab_(num_sets * 2 * assoc, 0)
{
    if (num_sets == 0 || assoc == 0)
        panic("SetAssocCache: zero sets or ways");
}

SetAssocCache
SetAssocCache::fromCapacity(std::uint64_t bytes, std::uint64_t line_size,
                            unsigned assoc)
{
    if (bytes % (line_size * assoc) != 0)
        panic("SetAssocCache: capacity %llu not divisible by way size",
              static_cast<unsigned long long>(bytes));
    return SetAssocCache(bytes / (line_size * assoc), assoc);
}

CacheAccessResult
SetAssocCache::accessFull(std::uint64_t key, bool is_write)
{
    ++useClock_;
    const std::size_t base = setBase(key);

    const unsigned w = findInSet(base, key);
    if (w != wayNone) {
        ++hits_;
        std::uint64_t &meta = slab_[base + assoc_ + w];
        meta = (useClock_ << 2) | (meta & kDirty) |
               (is_write ? kDirty : 0) | kValid;
        moveToFront(base, w);
        mruKey_ = key;
        mruBase_ = base;
        mruValid_ = true;
        CacheAccessResult res;
        res.hit = true;
        return res;
    }
    return accessMiss(base, key, is_write);
}

bool
SetAssocCache::touchFull(std::uint64_t key, bool mark_dirty)
{
    ++useClock_;
    const std::size_t base = setBase(key);
    const unsigned w = findInSet(base, key);
    if (w != wayNone) {
        ++hits_;
        std::uint64_t &meta = slab_[base + assoc_ + w];
        meta = (useClock_ << 2) | (meta & kDirty) |
               (mark_dirty ? kDirty : 0) | kValid;
        moveToFront(base, w);
        mruKey_ = key;
        mruBase_ = base;
        mruValid_ = true;
        return true;
    }
    ++misses_;
    return false;
}

CacheAccessResult
SetAssocCache::accessMiss(std::size_t base, std::uint64_t key,
                          bool is_write)
{
    CacheAccessResult res;
    ++misses_;

    // LRU victim = argmin over the metadata words.  An invalid
    // line's word is 0, below every valid word, so this picks the
    // first invalid way if any exists (matching the historical
    // first-free scan) and the unique least-recently-used way
    // otherwise (timestamps are unique by construction).
    unsigned victim = 0;
    std::uint64_t best = slab_[base + assoc_];
    for (unsigned w = 1; w < assoc_; ++w) {
        const std::uint64_t m = slab_[base + assoc_ + w];
        if (m < best) {
            best = m;
            victim = w;
        }
    }

    if (best & kValid) {
        if (best & kDirty) {
            ++writebacks_;
            res.writebackTag = slab_[base + victim];
        } else {
            res.evictedTag = slab_[base + victim];
        }
    }

    slab_[base + victim] = key;
    slab_[base + assoc_ + victim] =
        (useClock_ << 2) | (is_write ? kDirty : 0) | kValid;
    moveToFront(base, victim);
    mruKey_ = key;
    mruBase_ = base;
    mruValid_ = true;
    return res;
}

bool
SetAssocCache::invalidate(std::uint64_t key)
{
    const std::size_t base = setBase(key);
    const unsigned w = findInSet(base, key);
    if (w == wayNone)
        return false;
    std::uint64_t &meta = slab_[base + assoc_ + w];
    const bool was_dirty = (meta & kDirty) != 0;
    meta = 0;
    if (mruValid_ && key == mruKey_)
        mruValid_ = false;
    return was_dirty;
}

void
SetAssocCache::invalidateAll()
{
    for (std::uint64_t s = 0; s < numSets_; ++s) {
        const std::size_t meta = s * stride_ + assoc_;
        std::fill_n(slab_.begin() + meta, assoc_, std::uint64_t{0});
    }
    mruValid_ = false;
}

double
SetAssocCache::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / total : 0.0;
}

void
SetAssocCache::resetStats()
{
    hits_ = misses_ = writebacks_ = 0;
}

} // namespace toleo
