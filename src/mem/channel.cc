#include "mem/channel.hh"

#include <algorithm>

#include "common/logging.hh"

namespace toleo {

Channel::Channel(double bandwidth_gbps, double base_latency_ns)
    : bandwidthGBps_(bandwidth_gbps), baseLatencyNs_(base_latency_ns)
{
    if (bandwidth_gbps <= 0.0)
        panic("Channel: non-positive bandwidth");
}

void
Channel::addTraffic(std::uint64_t bytes)
{
    epochBytes_ += bytes;
    totalBytes_ += bytes;
}

void
Channel::endEpoch(double epoch_ns)
{
    if (epoch_ns <= 0.0)
        panic("Channel: non-positive epoch");

    // bandwidth GB/s == bytes/ns.
    const double capacity = bandwidthGBps_ * epoch_ns;
    double u = static_cast<double>(epochBytes_) / capacity;
    // Cap utilization just below 1: a saturated channel stretches the
    // epoch in reality; the cap keeps the M/D/1 term finite while
    // still producing a large penalty.
    u = std::min(u, 0.95);
    lastUtilization_ = u;

    // M/D/1 mean queueing delay: Wq = rho / (2 (1 - rho)) * service.
    const double service_ns =
        static_cast<double>(blockSize) / bandwidthGBps_;
    queueDelayNs_ = service_ns * u / (2.0 * (1.0 - u)) +
                    // A second, steeper term as the channel approaches
                    // saturation (bank conflicts, scheduler pressure).
                    service_ns * 8.0 * u * u * u * u;

    epochBytes_ = 0;
}

void
Channel::resetStats()
{
    epochBytes_ = 0;
    totalBytes_ = 0;
    lastUtilization_ = 0.0;
    queueDelayNs_ = 0.0;
}

} // namespace toleo
