#include "cache/hierarchy.hh"

namespace toleo {

PrivateCaches::PrivateCaches(const CacheHierarchyConfig &cfg)
    : l1_(SetAssocCache::fromCapacity(cfg.l1Bytes, blockSize,
                                      cfg.l1Assoc)),
      l2_(SetAssocCache::fromCapacity(cfg.l2Bytes, blockSize,
                                      cfg.l2Assoc))
{
}

void
PrivateCaches::resetStats()
{
    l1_.resetStats();
    l2_.resetStats();
}

CacheHierarchy::CacheHierarchy(const CacheHierarchyConfig &cfg)
{
    if (cfg.numCores == 0)
        panic("CacheHierarchy: zero cores");
    for (unsigned c = 0; c < cfg.numCores; ++c)
        private_.emplace_back(cfg);
    const unsigned slices =
        (cfg.numCores + cfg.coresPerL3Slice - 1) / cfg.coresPerL3Slice;
    for (unsigned s = 0; s < slices; ++s)
        l3_.push_back(SetAssocCache::fromCapacity(cfg.l3SliceBytes,
                                                  blockSize, cfg.l3Assoc));
    for (unsigned c = 0; c < cfg.numCores; ++c)
        l3SliceOf_.push_back(c / cfg.coresPerL3Slice);
}

SetAssocCache &
CacheHierarchy::l3SliceFor(unsigned core)
{
    return l3_[l3SliceOf_[core]];
}

std::uint64_t
CacheHierarchy::llcMisses() const
{
    std::uint64_t n = 0;
    for (const auto &slice : l3_)
        n += slice.misses();
    return n;
}

void
CacheHierarchy::resetLlcStats()
{
    for (auto &c : l3_)
        c.resetStats();
}

} // namespace toleo
