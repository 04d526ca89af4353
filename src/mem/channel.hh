/**
 * @file
 * Bandwidth-and-latency channel model used for DDR channels and CXL
 * links.
 *
 * The simulation is epoch-based: traffic is accumulated per channel,
 * and at each epoch boundary the channel computes its utilization and
 * derives a queueing delay (M/D/1-style) that inflates the latency of
 * accesses in the next epoch.  This captures the first-order effect
 * the paper's Figures 6/8/9 depend on: metadata traffic (MACs, dummy
 * packets) saturates bandwidth and inflates memory latency for
 * bandwidth-bound workloads.
 */

#ifndef TOLEO_MEM_CHANNEL_HH
#define TOLEO_MEM_CHANNEL_HH

#include <cstdint>

#include "common/types.hh"

namespace toleo {

class Channel
{
  public:
    /**
     * @param bandwidth_gbps Peak bandwidth in GB/s.
     * @param base_latency_ns Unloaded (zero-load) access latency.
     */
    Channel(double bandwidth_gbps, double base_latency_ns);

    /** Account bytes transferred in the current epoch. */
    void addTraffic(std::uint64_t bytes);

    /**
     * Current effective access latency in ns (zero-load latency plus
     * the queueing delay derived from last epoch's utilization).
     */
    double latencyNs() const { return baseLatencyNs_ + queueDelayNs_; }

    /**
     * Close the current epoch of given wall-clock length and update
     * the queueing delay used in the next epoch.
     */
    void endEpoch(double epoch_ns);

    /**
     * Minimum wall-clock time (ns) this channel needs to drain the
     * traffic accumulated in the current epoch.  The system uses the
     * max over channels as a throughput floor on simulated time --
     * this is what makes bandwidth-bound workloads' execution time
     * scale with (data + metadata + dummy) traffic.
     */
    double requiredNs() const
    {
        return static_cast<double>(epochBytes_) / bandwidthGBps_;
    }

    /** Bytes accumulated in the not-yet-closed epoch. */
    std::uint64_t pendingBytes() const { return epochBytes_; }

    /** Utilization observed in the last completed epoch, [0, 1]. */
    double utilization() const { return lastUtilization_; }

    std::uint64_t totalBytes() const { return totalBytes_; }
    void resetStats();

  private:
    double bandwidthGBps_;
    double baseLatencyNs_;

    std::uint64_t epochBytes_ = 0;
    std::uint64_t totalBytes_ = 0;
    double lastUtilization_ = 0.0;
    double queueDelayNs_ = 0.0;
};

} // namespace toleo

#endif // TOLEO_MEM_CHANNEL_HH
