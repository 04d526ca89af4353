/**
 * @file
 * First-class multi-node rack simulation (Figure 1 / Section 2).
 *
 * The paper's headline deployment is one 168 GB Toleo device serving
 * a whole rack: several compute nodes share 28 TB of pooled memory,
 * and every node's version traffic lands on the *same* device.  A
 * single toleo::System cannot see the consequences -- device-side
 * queueing when nodes burst together, and space pressure when their
 * combined uneven/full entries fill the shared store.
 *
 * runRack() simulates exactly that: N full Systems (one per node)
 * advance in deterministic round-robin traffic epochs against one
 * shared ToleoDevice.  At every epoch barrier an IdeLinkArbiter
 * divides the device's version-store service bandwidth across the
 * node ports max-min fairly; traffic the device could not serve
 * carries over as per-node backlog, and each backlogged node's cores
 * stall for the time the device needs to drain that backlog -- the
 * feedback loop that makes contention cost execution time.
 *
 * Determinism contract (pinned by tests/test_rack.cc):
 *  - a 1-node rack is bit-identical (statsToJson) to running the
 *    same SystemConfig through System::run() -- the shared device
 *    with a single initiator, the epoch-stepped loop, and a zero
 *    contention stall are all exact no-ops;
 *  - rack runs are byte-identical across repeated runs, across
 *    sweep worker counts, and across RackConfig::rackThreads values
 *    (integer-only arbitration, fixed node order; the node-private
 *    epoch halves touch disjoint state and all shared-device work
 *    replays serially in node order).
 */

#ifndef TOLEO_SIM_RACK_HH
#define TOLEO_SIM_RACK_HH

#include <cstdint>
#include <vector>

#include "sim/system.hh"

namespace toleo {

struct RackConfig
{
    /** One full node config per compute node (workload, engine,
     *  cores, seed...).  Node order is the deterministic round-robin
     *  step order. */
    std::vector<SystemConfig> nodes;

    /** The single shared Toleo device all Toleo-engine nodes use. */
    ToleoDeviceConfig device;

    /**
     * Version-store service bandwidth of the shared device (its
     * controller + HMC2 DRAM draining the per-node IDE links),
     * GB/s.  0 selects auto: 1.5x the fastest node link, so a lone
     * node can never out-run the device (the 1-node bit-identity
     * invariant) while N bursting nodes contend.
     */
    double deviceServiceGBps = 0.0;

    /** Per-core warmup / measured references, as in System::run. */
    std::uint64_t warmupRefs = 30000;
    std::uint64_t measureRefs = 60000;

    /**
     * Worker threads for the node-private half of each rack epoch
     * (`--rack-threads`).  Each epoch splits per node into a private
     * sub-phase (generator draws, L1/L2, staging: the node's
     * FrontEnd, which holds no handle to the device;
     * System::stepEpochPrivate) that the pool runs for all live nodes
     * concurrently, and a shared sub-phase (device/arbiter replay;
     * System::replayEpochShared) that always runs serially in strict
     * node order.  1 (the default) calls stepEpoch() per node
     * instead, which runs the same halves item by item and so stages
     * one batch, not a whole epoch; any value yields bit-identical
     * rackStatsToJson output.  Clamped to the node count.
     */
    unsigned rackThreads = 1;
};

/**
 * Clone @p base into an @p nodes -node rack: node i runs base with
 * seed base.seed + i (node 0 keeps the seed unchanged, which is what
 * makes the 1-node invariant exact), and the shared device takes
 * base's device config.
 */
RackConfig makeRackConfig(unsigned nodes, const SystemConfig &base);

/** Per-node view of one rack run. */
struct RackNodeStats
{
    SimStats sim;

    /** Version-store requests (READ+UPDATE+RESET) this node issued
     *  to the shared device over the whole run (warmup included). */
    std::uint64_t deviceRequests = 0;
    /** Toleo IDE-link bytes this node offered (whole run). */
    std::uint64_t toleoLinkBytes = 0;
    /** Core-stall ns injected by device contention (whole run). */
    double contentionStallNs = 0.0;
    /** High-water mark of this node's unserved device backlog. */
    std::uint64_t peakBacklogBytes = 0;
    /** Epochs this node ended with backlog still queued. */
    std::uint64_t stalledEpochs = 0;
    /** Most requests this node issued within one epoch (burstiness:
     *  how hard the node can hit the device at once). */
    std::uint64_t peakEpochRequests = 0;
};

/** Device-side contention report of one rack run. */
struct RackStats
{
    std::vector<RackNodeStats> nodes;

    /** Round-robin epoch barriers executed. */
    std::uint64_t epochs = 0;
    /** Barriers where offered traffic exceeded device service. */
    std::uint64_t saturatedEpochs = 0;

    /** Resolved service bandwidth (after auto selection), GB/s. */
    double deviceServiceGBps = 0.0;
    std::uint64_t deviceGrantedBytes = 0;
    /** High-water mark of total unserved backlog across nodes. */
    std::uint64_t devicePeakBacklogBytes = 0;

    /**
     * Forced-downgrade pressure: peak dynamic (uneven+full) bytes of
     * the shared store over the run, as a fraction of the device's
     * dynamic capacity.  >= 1.0 means the host OS must downgrade
     * inactive pages (Section 4.4); spaceRejections counts upgrades
     * that landed while the store was already exhausted.
     */
    double downgradePressure = 0.0;
    std::uint64_t spaceRejections = 0;

    /** Shared-store aggregates across all nodes. */
    std::uint64_t sharedTouchedPages = 0;
    std::uint64_t sharedDynamicPeakBytes = 0;

    /**
     * Rack-wide open-loop serving aggregate: request counts and rates
     * summed over the nodes, latency percentiles recomputed from the
     * merged per-node histograms, spanSeconds = the slowest node.
     * Empty (arrival == "") when the rack ran the closed model.
     */
    ServingStats serving;
};

/**
 * Run the rack.  Throws std::invalid_argument on an empty node list
 * or a service bandwidth below the fastest node link (which would
 * stall even an uncontended node and break the 1-node invariant).
 */
RackStats runRack(const RackConfig &cfg);

/**
 * Serialize a RackStats record: per-node SimStats go through the
 * existing statsToJson path, wrapped with the per-node and
 * device-side contention fields.
 */
Json rackStatsToJson(const RackStats &stats);

/**
 * Flat CSV view of a rack run, one row per node: the node index, the
 * node's full single-sim CSV columns (statsCsvHeader order), its
 * device-contention counters, and the rack-level device/store scalars
 * (identical on every row of one record, so a concatenated multi-cell
 * sweep still selects/aggregates with plain column filters).  The
 * rack-level serving aggregate stays JSON-only: its percentiles come
 * from merged histograms and have no per-node row to live on.
 */
std::string rackCsvHeader();

/** One CSV row for stats.nodes[node]; no trailing newline. */
std::string rackCsvRow(const RackStats &stats, std::size_t node);

} // namespace toleo

#endif // TOLEO_SIM_RACK_HH
