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
    : cfg_(cfg)
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

const SetAssocCache &
CacheHierarchy::l3SliceFor(unsigned core) const
{
    return l3_[l3SliceOf_[core]];
}

HierarchyResult
CacheHierarchy::access(unsigned core, BlockNum blk, bool is_write)
{
    if (core >= cfg_.numCores)
        panic("CacheHierarchy: core %u out of range", core);

    HierarchyResult res;
    const PrivateAccessResult priv = accessPrivate(core, blk, is_write);
    accessShared(core, blk, priv, res);

    if (priv.l1Hit) {
        res.servedBy = 1;
        res.onChipLatency = cfg_.l1Latency;
    } else if (!priv.l2Miss) {
        res.servedBy = 2;
        res.onChipLatency = cfg_.l1Latency + cfg_.l2Latency;
    } else {
        res.servedBy = res.llcMiss ? 4 : 3;
        res.onChipLatency =
            cfg_.l1Latency + cfg_.l2Latency + cfg_.l3Latency;
    }
    return res;
}

std::uint64_t
CacheHierarchy::llcHits() const
{
    std::uint64_t n = 0;
    for (const auto &slice : l3_)
        n += slice.hits();
    return n;
}

std::uint64_t
CacheHierarchy::llcMisses() const
{
    std::uint64_t n = 0;
    for (const auto &slice : l3_)
        n += slice.misses();
    return n;
}

std::uint64_t
CacheHierarchy::llcAccesses() const
{
    return llcHits() + llcMisses();
}

double
CacheHierarchy::llcMissRate() const
{
    const auto total = llcAccesses();
    return total ? static_cast<double>(llcMisses()) / total : 0.0;
}

std::uint64_t
CacheHierarchy::llcWritebacks() const
{
    std::uint64_t n = 0;
    for (const auto &slice : l3_)
        n += slice.writebacks();
    return n;
}

void
CacheHierarchy::resetStats()
{
    for (auto &p : private_)
        p.resetStats();
    resetLlcStats();
}

void
CacheHierarchy::resetLlcStats()
{
    for (auto &c : l3_)
        c.resetStats();
}

} // namespace toleo
