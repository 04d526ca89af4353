#include "mem/topology.hh"

#include <algorithm>

#include "common/logging.hh"

namespace toleo {

namespace {

std::uint64_t
hashPage(PageNum page)
{
    std::uint64_t x = page;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

} // namespace

MemTopology::MemTopology(const MemTopologyConfig &cfg)
    : cfg_(cfg),
      cxlPool_(cfg.cxlPoolBandwidthGBps, ddrLatencyNs + cxlPoolLatencyNs),
      toleoLink_(cfg.toleoLinkBandwidthGBps,
                 toleoLinkLatencyNs + toleoDramLatencyNs)
{
    if (cfg.ddrChannels == 0)
        panic("MemTopology: at least one DDR channel required");
    for (unsigned c = 0; c < cfg.ddrChannels; ++c)
        ddr_.emplace_back(cfg.ddrBandwidthGBps, ddrLatencyNs);

    const double ddr_bw = cfg.ddrChannels * cfg.ddrBandwidthGBps;
    poolFraction_ =
        cfg.cxlPoolBandwidthGBps / (ddr_bw + cfg.cxlPoolBandwidthGBps);
}

MemTarget
MemTopology::targetFor(PageNum page) const
{
    // Deterministic bandwidth-proportional split on a page hash.
    const double frac =
        static_cast<double>(hashPage(page) >> 11) * 0x1.0p-53;
    return frac < poolFraction_ ? MemTarget::CxlPool
                                : MemTarget::LocalDram;
}

unsigned
MemTopology::ddrChannelFor(PageNum page) const
{
    return static_cast<unsigned>(hashPage(page ^ 0x5bd1e995) %
                                 ddr_.size());
}

MemTopology::Route
MemTopology::routeFor(PageNum page) const
{
    if (targetFor(page) == MemTarget::CxlPool)
        return poolRoute;
    return ddrChannelFor(page);
}

void
MemTopology::addDataTraffic(PageNum page, std::uint64_t bytes)
{
    addTraffic(routeFor(page), bytes);
}

void
MemTopology::addToleoTraffic(std::uint64_t bytes)
{
    toleoLink_.addTraffic(bytes);
}

double
MemTopology::dataLatencyNs(PageNum page) const
{
    return latencyNs(routeFor(page));
}

double
MemTopology::toleoLatencyNs() const
{
    double lat = toleoLink_.latencyNs();
    if (!cfg_.ideSkidMode)
        lat += ideNonSkidPenaltyNs;
    return lat;
}

double
MemTopology::requiredEpochNs() const
{
    double req = 0.0;
    for (const auto &ch : ddr_)
        req = std::max(req, ch.requiredNs());
    req = std::max(req, cxlPool_.requiredNs());
    req = std::max(req, toleoLink_.requiredNs());
    return req;
}

void
MemTopology::endEpoch(double epoch_ns)
{
    for (auto &ch : ddr_)
        ch.endEpoch(epoch_ns);
    cxlPool_.endEpoch(epoch_ns);
    toleoLink_.endEpoch(epoch_ns);
}

std::uint64_t
MemTopology::totalDataBytes() const
{
    std::uint64_t n = cxlPool_.totalBytes();
    for (const auto &ch : ddr_)
        n += ch.totalBytes();
    return n;
}

void
MemTopology::resetStats()
{
    for (auto &ch : ddr_)
        ch.resetStats();
    cxlPool_.resetStats();
    toleoLink_.resetStats();
}

} // namespace toleo
