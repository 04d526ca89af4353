/**
 * @file
 * Domain example: one Toleo device serving a whole rack (Figure 1).
 *
 * Two questions an operator asks before deploying the paper's
 * headline configuration (one 168 GB device, four compute nodes,
 * 28 TB of pooled memory):
 *
 *  1. *Does the device fit?*  Capacity planning from each tenant
 *     workload's Trip-format profile (the Figure 10/11 math),
 *     memoized so duplicate tenants in the mix are profiled once.
 *
 *  2. *What does sharing cost?*  A real multi-node simulation
 *     (sim/rack.hh): four nodes step in deterministic round-robin
 *     epochs against a single shared device, whose version-store
 *     service bandwidth is arbitrated max-min fairly -- so the
 *     answer includes the device-side contention a summed
 *     single-node analysis cannot see: queueing, per-node stall
 *     time, and forced-downgrade pressure on the shared store.
 *
 *     ./build/examples/rack_scale
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/rack.hh"
#include "sim/trip_analysis.hh"

using namespace toleo;

namespace {

struct Tenant
{
    const char *workload;
    double memoryTb; ///< protected footprint in the rack
};

} // namespace

int
main()
{
    std::printf("Rack planning: 168 GB Toleo device, 4 nodes\n");
    std::printf("===========================================\n\n");

    // A plausible multi-tenant rack: genomics + LLM serving +
    // caches.  Workloads repeat across tenants (two Redis pools,
    // two bsw cohorts) -- each workload is profiled once.
    const std::vector<Tenant> tenants = {
        {"llama2-gen", 10.0}, {"bsw", 4.0},       {"redis", 3.0},
        {"bsw", 2.0},         {"memcached", 4.0}, {"redis", 1.0},
    };

    // --- 1. Capacity planning (Figure 10/11 methodology) ----------
    // A profile depends only on the workload here, so it is keyed
    // by the workload name.
    std::map<std::string, TripStore::Usage> profiles;
    TripAnalysisConfig prof_cfg;
    prof_cfg.refsPerCore = 1'000'000;

    const double capacity_gb = 168.0;
    double flat_gb = 0.0, dyn_gb = 0.0, total_tb = 0.0;

    std::printf("%-12s %8s %12s %12s\n", "tenant", "TB", "GB/TB",
                "GB needed");
    for (const auto &t : tenants) {
        auto it = profiles.find(t.workload);
        if (it == profiles.end()) {
            prof_cfg.workload = t.workload;
            it = profiles
                     .emplace(t.workload,
                              runTripAnalysis(prof_cfg).usage)
                     .first;
        }
        const TripStore::Usage &u = it->second;
        const double dyn_per_tb = u.unevenGbPerTb + u.fullGbPerTb;
        const double per_tb = u.flatGbPerTb + dyn_per_tb;
        std::printf("%-12s %8.1f %12.2f %12.2f\n", t.workload,
                    t.memoryTb, per_tb, per_tb * t.memoryTb);
        flat_gb += u.flatGbPerTb * t.memoryTb;
        dyn_gb += dyn_per_tb * t.memoryTb;
        total_tb += t.memoryTb;
    }
    std::printf("(%zu tenants, %zu distinct profiles simulated, "
                "%zu served from cache)\n",
                tenants.size(), profiles.size(),
                tenants.size() - profiles.size());

    const double used = flat_gb + dyn_gb;
    std::printf("\nprotected memory: %.1f TB\n", total_tb);
    std::printf("device usage:     %.1f GB of %.0f GB "
                "(%.1f flat + %.1f dynamic)\n",
                used, capacity_gb, flat_gb, dyn_gb);
    std::printf("verdict:          %s\n",
                used <= capacity_gb ? "fits -- no forced downgrades"
                                    : "OVERSUBSCRIBED -- host OS must "
                                      "downgrade inactive pages");
    const double gb_per_tb = used / total_tb;
    std::printf("headroom:         one device could protect "
                "~%.0f TB of this mix\n", capacity_gb / gb_per_tb);
    std::printf("(paper: 4.27 GB/TB average; 168 GB protects up to "
                "~37 TB without downgrades)\n");

    // --- 2. Shared-device contention (the real simulation) --------
    std::printf("\nSimulating the shared device: 4 nodes, "
                "round-robin epochs, arbitrated version store\n");
    std::printf("--------------------------------------------"
                "-----------------------------------------\n");

    // The version-traffic-heavy slice of the tenant mix: these are
    // the nodes whose UPDATE streams actually fight for the device.
    RackConfig rc;
    const char *node_workloads[] = {"memcached", "redis", "bfs",
                                    "memcached"};
    for (unsigned i = 0; i < 4; ++i) {
        SystemConfig sc = makeScaledConfig(node_workloads[i],
                                           EngineKind::Toleo, 4);
        sc.seed = 42 + i;
        rc.nodes.push_back(sc);
    }
    rc.device = rc.nodes[0].device;
    // Provision the device's version-store pipeline at exactly the
    // fastest node link's bandwidth: enough that any node alone is
    // never throttled, so everything below is pure sharing cost.
    for (const SystemConfig &sc : rc.nodes)
        rc.deviceServiceGBps = std::max(rc.deviceServiceGBps,
                                        sc.mem.toleoLinkBandwidthGBps);
    rc.warmupRefs = 20000;
    rc.measureRefs = 40000;

    const RackStats rack = runRack(rc);

    std::printf("%-12s %10s %12s %12s %10s\n", "node", "ipc",
                "stall (us)", "backlog (B)", "dev reqs");
    for (std::size_t i = 0; i < rack.nodes.size(); ++i) {
        const RackNodeStats &node = rack.nodes[i];
        std::printf("%-12s %10.3f %12.1f %12llu %10llu\n",
                    node.sim.workload.c_str(), node.sim.ipc,
                    node.contentionStallNs * 1e-3,
                    static_cast<unsigned long long>(
                        node.peakBacklogBytes),
                    static_cast<unsigned long long>(
                        node.deviceRequests));
    }

    std::printf("\ndevice service:   %.3f GB/s shared across %zu "
                "links\n", rack.deviceServiceGBps, rack.nodes.size());
    std::printf("epochs:           %llu total, %llu saturated "
                "(offered > service)\n",
                static_cast<unsigned long long>(rack.epochs),
                static_cast<unsigned long long>(rack.saturatedEpochs));
    std::printf("peak backlog:     %llu B queued at the device\n",
                static_cast<unsigned long long>(
                    rack.devicePeakBacklogBytes));
    std::printf("shared store:     %llu pages touched, %llu B "
                "dynamic peak\n",
                static_cast<unsigned long long>(
                    rack.sharedTouchedPages),
                static_cast<unsigned long long>(
                    rack.sharedDynamicPeakBytes));
    std::printf("downgrade pressure: %.2e of dynamic capacity"
                "%s\n", rack.downgradePressure,
                rack.spaceRejections
                    ? " -- REJECTIONS, host OS must downgrade"
                    : "");
    std::printf("\n(a 1-node rack reproduces the single-node "
                "simulation bit-for-bit; contention above is what "
                "sharing adds)\n");
    return 0;
}
