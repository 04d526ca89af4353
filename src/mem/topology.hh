/**
 * @file
 * Rack memory topology (Figure 1 / Table 3).
 *
 * One simulated compute node sees:
 *  - local DDR4-3200 DRAM, 3 channels;
 *  - a shared CXL 2.0 memory pool over a PCIe5 x8 link with retimer
 *    (12.7 GB/s, 95 ns added link latency);
 *  - the Toleo device over a dedicated IDE-enabled CXL 2.0 PCIe5 x2
 *    link (3.32 GB/s, 95 ns), with HMC2 DRAM behind it (15 ns).
 *
 * Virtual pages are mapped to local vs. pooled memory randomly in
 * proportion to channel bandwidth (Section 7), which we reproduce with
 * a page-hash split.
 */

#ifndef TOLEO_MEM_TOPOLOGY_HH
#define TOLEO_MEM_TOPOLOGY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/channel.hh"

namespace toleo {

/** Where a physical page lives. */
enum class MemTarget { LocalDram, CxlPool };

constexpr double ddrLatencyNs = 60.0;       ///< zero-load DRAM access
constexpr double cxlPoolLatencyNs = 95.0;   ///< link+retimer, added to DRAM
constexpr double toleoLinkLatencyNs = 95.0;
constexpr double toleoDramLatencyNs = 15.0; ///< HMC2 access behind the link
/** Toleo-link latency IDE adds outside skid mode (ideSkidMode). */
constexpr double ideNonSkidPenaltyNs = 25.0;

struct MemTopologyConfig
{
    unsigned ddrChannels = 3;
    double ddrBandwidthGBps = 25.6;   ///< per DDR4-3200 channel
    double cxlPoolBandwidthGBps = 12.7;
    double toleoLinkBandwidthGBps = 3.32;
    /**
     * CXL IDE in skid mode releases data before the integrity check
     * completes, so IDE adds (near) zero latency; non-skid serializes
     * the MAC check (Section 3.1 / 4.1).
     */
    bool ideSkidMode = true;
};

class MemTopology
{
  public:
    explicit MemTopology(const MemTopologyConfig &cfg);

    /** Map a page to local DRAM or the CXL pool (bandwidth-propor.). */
    MemTarget targetFor(PageNum page) const;

    /**
     * A page's resolved home channel: a DDR channel index, or
     * poolRoute for the CXL pool.  Resolving the route once and
     * reusing it saves the page-hash computations that addDataTraffic
     * and dataLatencyNs would each redo on the miss path.
     */
    using Route = std::uint32_t;
    static constexpr Route poolRoute = ~Route{0};

    Route routeFor(PageNum page) const;

    /** Account a transfer on a resolved route. */
    void
    addTraffic(Route route, std::uint64_t bytes)
    {
        if (route == poolRoute)
            cxlPool_.addTraffic(bytes);
        else
            ddr_[route].addTraffic(bytes);
    }

    /** Effective access latency of a resolved route, ns. */
    double
    latencyNs(Route route) const
    {
        if (route == poolRoute)
            return cxlPool_.latencyNs();
        return ddr_[route].latencyNs();
    }

    /** Account a data/metadata transfer to/from a page's home. */
    void addDataTraffic(PageNum page, std::uint64_t bytes);

    /** Account a transfer on the Toleo CXL IDE link. */
    void addToleoTraffic(std::uint64_t bytes);

    /** Effective latency of a block access to a page's home, ns. */
    double dataLatencyNs(PageNum page) const;

    /** Effective round-trip latency of a Toleo version access, ns. */
    double toleoLatencyNs() const;

    /** Close a traffic epoch on all channels. */
    void endEpoch(double epoch_ns);

    /** Max over channels of the time needed to drain this epoch. */
    double requiredEpochNs() const;

    const Channel &cxlPool() const { return cxlPool_; }
    const Channel &toleoLink() const { return toleoLink_; }
    unsigned numDdrChannels() const { return ddr_.size(); }

    std::uint64_t totalDataBytes() const;
    std::uint64_t toleoBytes() const { return toleoLink_.totalBytes(); }

    /** Fraction of pages that map to the CXL pool. */
    double poolFraction() const { return poolFraction_; }

    const MemTopologyConfig &config() const { return cfg_; }
    void resetStats();

  private:
    MemTopologyConfig cfg_;
    std::vector<Channel> ddr_;
    Channel cxlPool_;
    Channel toleoLink_;
    double poolFraction_;

    unsigned ddrChannelFor(PageNum page) const;
};

} // namespace toleo

#endif // TOLEO_MEM_TOPOLOGY_HH
