#include "sim/rack.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "sim/intra_pool.hh"
#include "toleo/ide_channel.hh"

namespace toleo {

namespace {

/** The auto service bandwidth in fastest-node links: at least one,
 *  so a lone node never backlogs, and under two, so two nodes
 *  bursting at once contend. */
constexpr double autoServiceFactor = 1.5;

} // namespace

RackConfig
makeRackConfig(unsigned nodes, const SystemConfig &base)
{
    RackConfig rc;
    rc.device = base.device;
    rc.nodes.reserve(nodes);
    for (unsigned i = 0; i < nodes; ++i) {
        SystemConfig sc = base;
        sc.seed = base.seed + i;
        rc.nodes.push_back(std::move(sc));
    }
    return rc;
}

RackStats
runRack(const RackConfig &cfg)
{
    const unsigned n = static_cast<unsigned>(cfg.nodes.size());
    if (n == 0)
        throw std::invalid_argument("runRack: rack has no nodes");

    double maxLinkGBps = 0.0;
    for (const SystemConfig &sc : cfg.nodes)
        maxLinkGBps =
            std::max(maxLinkGBps, sc.mem.toleoLinkBandwidthGBps);
    const double service = cfg.deviceServiceGBps > 0.0
                               ? cfg.deviceServiceGBps
                               : autoServiceFactor * maxLinkGBps;
    // Every node's own epoch already stretches to drain its link
    // (System's bandwidth floor), so epoch traffic never exceeds
    // linkGBps * epochNs.  Service >= the fastest link therefore
    // guarantees a lone node never backlogs -- the 1-node
    // bit-identity invariant.  A slower device would stall even an
    // uncontended node, which is a misconfiguration, not contention.
    if (service < maxLinkGBps)
        throw std::invalid_argument(
            "runRack: deviceServiceGBps below the fastest node's "
            "Toleo link bandwidth");

    // The rack-wide serving aggregate (counts summed, percentiles
    // from merged histograms) only has one meaning when every node
    // runs the same arrival model against the same SLO: a rack mixing
    // open and closed nodes, or poisson and burst nodes, or different
    // SLO thresholds, has no single "rack SLO attainment".  Reject
    // such configs up front instead of silently reporting whichever
    // node happened to be aggregated last.  Per-node *rates* may
    // differ: they sum into the rack-wide offered rate.
    const ArrivalConfig &a0 = cfg.nodes[0].arrival;
    for (unsigned i = 1; i < n; ++i) {
        const ArrivalConfig &ai = cfg.nodes[i].arrival;
        if (ai.kind != a0.kind)
            throw std::invalid_argument(
                "runRack: mixed per-node arrival models (node 0 is " +
                std::string(arrivalKindName(a0.kind)) + ", node " +
                std::to_string(i) + " is " +
                std::string(arrivalKindName(ai.kind)) +
                "); a rack-wide serving aggregate requires one model");
        if (a0.open() && ai.sloUs != a0.sloUs)
            throw std::invalid_argument(
                "runRack: mixed per-node SLO thresholds (node 0 has " +
                std::to_string(a0.sloUs) + " us, node " +
                std::to_string(i) + " has " +
                std::to_string(ai.sloUs) +
                " us); rack SLO attainment requires one threshold");
    }

    ToleoDevice device(cfg.device);
    for (unsigned i = 1; i < n; ++i)
        device.addInitiator();

    std::vector<std::unique_ptr<System>> systems;
    systems.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        SystemConfig sc = cfg.nodes[i];
        sc.sharedDevice = &device;
        systems.push_back(std::make_unique<System>(sc));
    }

    RackStats out;
    out.nodes.resize(n);
    out.deviceServiceGBps = service;

    IdeLinkArbiter arbiter(n);
    for (unsigned i = 0; i < n; ++i)
        systems[i]->beginRun(cfg.warmupRefs, cfg.measureRefs);

    // Node pool for the private epoch halves.  rackThreads == 1 (the
    // default) calls stepEpoch() below -- not a pool of one -- which
    // stages one batch at a time instead of a whole epoch per node.
    const unsigned rackThreads =
        std::min(std::max(1u, cfg.rackThreads), n);
    std::unique_ptr<IntraPool> rackPool;
    if (rackThreads > 1)
        rackPool = std::make_unique<IntraPool>(rackThreads);

    // Plain byte flags, not std::vector<bool>: the pool writes
    // stepped[] from different threads, and vector<bool>'s packed
    // bits would race even though the nodes are disjoint.
    std::vector<unsigned char> alive(n, 1);
    std::vector<unsigned char> stepped(n, 0);
    for (bool anyAlive = true; anyAlive;) {
        anyAlive = false;

        // Step every live node one traffic epoch, strictly in node
        // order: the shared store (and its reset RNG) sees one
        // deterministic global operation sequence.  With a rack pool,
        // the node-private halves run concurrently first; each is its
        // node's FrontEnd, which cannot reach the device.  The
        // device/arbiter-visible replay below still runs serially in
        // node order either way, so the device observes the identical
        // operation sequence for any rackThreads value.
        device.beginInitiatorEpoch();
        if (rackPool) {
            rackPool->run(n, [&](unsigned i) {
                if (alive[i])
                    stepped[i] = systems[i]->stepEpochPrivate() ? 1 : 0;
            });
        }
        double epochNs = 0.0;
        std::uint64_t offered = 0;
        for (unsigned i = 0; i < n; ++i) {
            if (!alive[i])
                continue;
            device.setActiveInitiator(i);
            bool more;
            if (rackPool) {
                systems[i]->replayEpochShared();
                more = stepped[i] != 0;
            } else {
                more = systems[i]->stepEpoch();
            }
            // The step that retires a node still closed its final
            // epoch; its traffic competes like any other.
            const std::uint64_t bytes =
                systems[i]->lastEpochToleoBytes();
            arbiter.enqueue(i, bytes);
            offered += bytes;
            RackNodeStats &ns = out.nodes[i];
            ns.toleoLinkBytes += bytes;
            ns.peakEpochRequests = std::max(
                ns.peakEpochRequests, device.epochRequests(i));
            epochNs = std::max(epochNs, systems[i]->lastEpochWallNs());
            alive[i] = more;
            anyAlive = anyAlive || more;
        }

        // Epoch barrier: the device drains at its service bandwidth
        // for the slowest node's epoch.  ceil keeps the capacity an
        // upper bound of service * epochNs so float truncation can
        // never manufacture a 1-byte backlog for a lone node.
        const std::uint64_t capacity = static_cast<std::uint64_t>(
            std::max(0.0, std::ceil(service * epochNs)));
        arbiter.serveEpoch(capacity);
        // Saturation is an offered-vs-service statement about *this*
        // epoch's traffic; backlog draining from an earlier burst
        // shows up in the stall/backlog stats, not here.
        if (offered > capacity)
            ++out.saturatedEpochs;

        // Bill each node's unserved backlog as core stall: the node
        // cannot retire version traffic faster than the device
        // drains its queue.  Retired nodes keep their queue (it
        // still competes) but their report is already final.
        for (unsigned i = 0; i < n; ++i) {
            const std::uint64_t backlog = arbiter.pendingBytes(i);
            if (backlog == 0)
                continue;
            RackNodeStats &ns = out.nodes[i];
            ns.peakBacklogBytes =
                std::max(ns.peakBacklogBytes, backlog);
            ++ns.stalledEpochs;
            if (alive[i]) {
                const double stallNs =
                    static_cast<double>(backlog) / service;
                systems[i]->addRackStallNs(stallNs);
                ns.contentionStallNs += stallNs;
            }
        }

        out.sharedDynamicPeakBytes = std::max(
            out.sharedDynamicPeakBytes, device.dynamicBytesUsed());
        ++out.epochs;
    }

    for (unsigned i = 0; i < n; ++i) {
        device.setActiveInitiator(i);
        out.nodes[i].sim = systems[i]->finishRun();
        out.nodes[i].deviceRequests = device.totalRequests(i);
    }

    // Rack-wide serving aggregate: counts and rates sum over nodes,
    // percentiles are recomputed from the merged histograms (exact,
    // not an average of per-node percentiles), and the span is the
    // slowest node's.  Per-request means are request-weighted.  The
    // up-front validation guarantees every node ran the same arrival
    // model and SLO, so the scalars identifying the aggregate are set
    // once from node 0 instead of being overwritten per node; only
    // the rates differ per node, and those sum into the rack-wide
    // offered rate by definition.
    if (a0.open()) {
        ServingStats &rs = out.serving;
        rs.arrival = out.nodes[0].sim.serving.arrival;
        rs.sloUs = a0.sloUs;
        double servLatW = 0.0, servQueueW = 0.0, servSvcW = 0.0;
        for (unsigned i = 0; i < n; ++i) {
            const ServingStats &ns = out.nodes[i].sim.serving;
            rs.offeredRatePerSec += ns.offeredRatePerSec;
            rs.requests += ns.requests;
            rs.sloMet += ns.sloMet;
            rs.spanSeconds = std::max(rs.spanSeconds, ns.spanSeconds);
            rs.offeredRps += ns.offeredRps;
            rs.completedRps += ns.completedRps;
            rs.goodputRps += ns.goodputRps;
            // A node that completed zero requests (window too short
            // for its rate) reports zero means; weight 0 keeps it out
            // of the rack means without poisoning them with NaNs.
            const double w = static_cast<double>(ns.requests);
            servLatW += ns.meanLatencyUs * w;
            servQueueW += ns.meanQueueUs * w;
            servSvcW += ns.meanServiceUs * w;
            rs.latency.merge(ns.latency);
        }
        // With zero requests rack-wide, every mean/attainment/
        // percentile field keeps its zero default -- defined output,
        // no 0/0.
        if (rs.requests > 0) {
            const double total = static_cast<double>(rs.requests);
            rs.sloAttainment = static_cast<double>(rs.sloMet) / total;
            rs.meanLatencyUs = servLatW / total;
            rs.meanQueueUs = servQueueW / total;
            rs.meanServiceUs = servSvcW / total;
            rs.p50LatencyUs = rs.latency.percentileNs(0.50) * 1e-3;
            rs.p99LatencyUs = rs.latency.percentileNs(0.99) * 1e-3;
            rs.p999LatencyUs = rs.latency.percentileNs(0.999) * 1e-3;
            rs.maxLatencyUs = rs.latency.maxNs() * 1e-3;
        }
    }

    out.deviceGrantedBytes = arbiter.totalGrantedBytes();
    out.devicePeakBacklogBytes = arbiter.peakBacklogBytes();
    out.sharedTouchedPages = device.store().touchedPages();
    out.spaceRejections = device.spaceRejections();
    const std::uint64_t dynCap = device.dynamicCapacityBytes();
    out.downgradePressure =
        dynCap > 0 ? static_cast<double>(out.sharedDynamicPeakBytes) /
                         static_cast<double>(dynCap)
                   : 0.0;
    return out;
}

Json
rackStatsToJson(const RackStats &stats)
{
    Json j = Json::object();
    Json nodes = Json::array();
    for (const RackNodeStats &ns : stats.nodes) {
        Json node = Json::object();
        node["sim"] = statsToJson(ns.sim);
        node["deviceRequests"] = ns.deviceRequests;
        node["toleoLinkBytes"] = ns.toleoLinkBytes;
        node["contentionStallNs"] = ns.contentionStallNs;
        node["peakBacklogBytes"] = ns.peakBacklogBytes;
        node["stalledEpochs"] = ns.stalledEpochs;
        node["peakEpochRequests"] = ns.peakEpochRequests;
        nodes.push_back(std::move(node));
    }
    j["nodes"] = std::move(nodes);
    j["epochs"] = stats.epochs;
    j["saturatedEpochs"] = stats.saturatedEpochs;
    j["deviceServiceGBps"] = stats.deviceServiceGBps;
    j["deviceGrantedBytes"] = stats.deviceGrantedBytes;
    j["devicePeakBacklogBytes"] = stats.devicePeakBacklogBytes;
    j["downgradePressure"] = stats.downgradePressure;
    j["spaceRejections"] = stats.spaceRejections;
    j["sharedTouchedPages"] = stats.sharedTouchedPages;
    j["sharedDynamicPeakBytes"] = stats.sharedDynamicPeakBytes;
    // Emitted only for open-loop runs, so closed-model rack output
    // (and the golden fixture) stays byte-identical.
    if (!stats.serving.arrival.empty())
        j["serving"] = servingStatsToJson(stats.serving);
    return j;
}

std::string
rackCsvHeader()
{
    return "node," + statsCsvHeader() +
           ",deviceRequests,toleoLinkBytes,contentionStallNs,"
           "peakBacklogBytes,stalledEpochs,peakEpochRequests,"
           "epochs,saturatedEpochs,deviceServiceGBps,"
           "deviceGrantedBytes,devicePeakBacklogBytes,"
           "downgradePressure,spaceRejections,sharedTouchedPages,"
           "sharedDynamicPeakBytes";
}

std::string
rackCsvRow(const RackStats &stats, std::size_t node)
{
    const RackNodeStats &ns = stats.nodes.at(node);
    std::ostringstream os;
    os << node << ',' << statsCsvRow(ns.sim) << ','
       << ns.deviceRequests << ',' << ns.toleoLinkBytes << ','
       << ns.contentionStallNs << ',' << ns.peakBacklogBytes << ','
       << ns.stalledEpochs << ',' << ns.peakEpochRequests << ','
       << stats.epochs << ',' << stats.saturatedEpochs << ','
       << stats.deviceServiceGBps << ',' << stats.deviceGrantedBytes
       << ',' << stats.devicePeakBacklogBytes << ','
       << stats.downgradePressure << ',' << stats.spaceRejections
       << ',' << stats.sharedTouchedPages << ','
       << stats.sharedDynamicPeakBytes;
    return os.str();
}

} // namespace toleo
