/**
 * @file
 * Top-level trace-driven system model (Section 7 / Table 3).
 *
 * Wires per-core workload generators through a three-level cache
 * hierarchy into the memory topology and the configured protection
 * engine.  Produces the statistics every table and figure of the
 * paper's evaluation is built from: execution time, LLC MPKI,
 * metadata cache hit rates, per-category memory traffic, read-latency
 * breakdown, and Trip-format page classification and space usage.
 * Fig 12's usage over time comes from the cache-only analysis
 * (sim/trip_analysis.hh), as in the paper.
 *
 * Timing model: cores retire instructions at a base IPC; each LLC
 * miss stalls its core for (memory latency + metadata latency) / MLP,
 * where the workload's MLP factor models overlapped misses.  Channel
 * queueing (driven by total traffic, including metadata and dummy
 * packets) feeds back into miss latency each epoch, which is what
 * makes bandwidth-bound workloads suffer more from metadata traffic
 * -- the first-order effect behind Figures 6, 8, and 9.
 */

#ifndef TOLEO_SIM_SYSTEM_HH
#define TOLEO_SIM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/json.hh"
#include "common/stats.hh"
#include "mem/topology.hh"
#include "secmem/ci.hh"
#include "secmem/engine.hh"
#include "secmem/invisimem.hh"
#include "secmem/merkle.hh"
#include "sim/front_end.hh"
#include "sim/page_footprint.hh"
#include "toleo/device.hh"
#include "toleo/engine.hh"
#include "workload/request.hh"
#include "workload/workload.hh"

namespace toleo {

class TraceFile;

/** The protection configurations evaluated in Section 7. */
enum class EngineKind
{
    NoProtect,  ///< baseline, no protection
    C,          ///< AES-XTS confidentiality only
    CI,         ///< + MAC integrity (scalable-SGX TME + integrity)
    Toleo,      ///< + CXL/PIM freshness (this paper)
    InvisiMem,  ///< all-smart-memory CIF + side-channel defense
    Merkle,     ///< client-SGX-style counter tree (ablation)
};

const char *engineKindName(EngineKind kind);

struct SystemConfig
{
    std::string workload = "bsw";
    EngineKind engine = EngineKind::Toleo;
    unsigned numCores = 32;
    CacheHierarchyConfig caches;
    MemTopologyConfig mem;
    CiConfig ci;
    StealthCacheConfig stealth;
    ToleoDeviceConfig device;
    MerkleConfig merkle;
    std::uint64_t seed = 42;
    /**
     * Borrowed Toleo device shared with other Systems (rack mode,
     * see sim/rack.hh); when null a Toleo-engine System owns a
     * private device built from @ref device.  The rack driver is
     * responsible for selecting the device's active initiator before
     * stepping this node.
     */
    ToleoDevice *sharedDevice = nullptr;
    /** Global references per traffic epoch. */
    std::uint64_t epochRefs = 16384;
    /**
     * Replay per-core reference streams from this loaded trace (see
     * workload/trace_file.hh; TraceFile::open reads and validates a
     * file) instead of synthesizing them; the workload name still
     * selects the Table-2 metadata (footprint, MLP) the timing model
     * uses.  Read-only, so every cell of a sweep shares one instance.
     */
    std::shared_ptr<const TraceFile> trace;
    /**
     * Worker threads for the core-private phase of each epoch batch
     * (the calling thread counts, so 1 = single-threaded).  Any
     * value produces bit-identical statistics: the per-core private
     * bodies touch disjoint state, and the shared phase replays the
     * exact global order single-threaded either way.
     * Clamped to numCores.  The sweep and toleo_sim leave it at 1;
     * perfbench sets it to measure what the tier buys.
     */
    unsigned intraThreads = 1;
    /**
     * Accumulate the per-phase wall-time breakdown (phaseTimes()).
     * Off by default: the clock calls are pure measurement overhead,
     * and the numbers are a side channel for perfbench's traced run
     * -- they are deliberately NOT part of SimStats/statsToJson, whose
     * fixed-seed output is byte-pinned by goldens.
     */
    bool phaseTimers = false;
    /**
     * Request arrival model (workload/request.hh).  The default
     * (closed) is the historical closed-loop replay with no serving
     * layer at all; open-loop models (poisson/burst) wrap every
     * generator in a RequestSource and report per-request latency and
     * SLO statistics in SimStats::serving.  The arrival overlay never
     * feeds back into simulated state, so all non-serving statistics
     * are bit-identical to the closed run of the same config.  A rate
     * so low that a core's arrival clock reaches 2^53 ns stops the
     * run with a std::range_error.
     */
    ArrivalConfig arrival;
};

/**
 * Wall-time breakdown of a run by phase, in nanoseconds of host time.
 * Collected only when SystemConfig::phaseTimers is set, and read only
 * by perfbench's traced run -- never reported through statsToJson, so
 * the determinism goldens stay byte-identical.
 */
struct PhaseTimes
{
    double privateNs = 0.0; ///< generator draws + L1/L2 (threadable)
    double sharedNs = 0.0;  ///< L3 + topology + engine replay
    double epochNs = 0.0;   ///< epoch boundaries (padding, queueing)
};

/** Everything a bench needs to print one row of any paper table. */
struct SimStats
{
    std::string workload;
    std::string engine;

    std::uint64_t instructions = 0;
    std::uint64_t refs = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t llcWritebacks = 0;
    double execSeconds = 0.0;
    double ipc = 0.0;
    double llcMpki = 0.0;

    /** Average LLC-miss read latency and its parts, ns (Fig 9). */
    double avgReadLatencyNs = 0.0;
    double avgDramLatencyNs = 0.0;
    double avgMetaLatencyNs = 0.0;

    /** Bytes per instruction by category (Fig 8). */
    double dataBpi = 0.0;
    double macBpi = 0.0;
    double stealthBpi = 0.0;
    /** InvisiMem's dummy padding over the measured references. */
    double dummyBpi = 0.0;

    /** Fig 7's hit rates, over the measured references. */
    double macCacheHitRate = 0.0;
    double stealthCacheHitRate = 0.0;

    /**
     * Toleo only: the store's usage over the run's RSS (Figs 10-12,
     * Table 4).  `usage.bytes`, the end-of-run device bytes, is
     * serialized as `toleoPeakUsageBytes`.  A shared rack store
     * counts every node's dynamic entries.
     */
    TripStore::Usage usage;

    std::uint64_t toleoResets = 0;
    std::uint64_t toleoUpgrades = 0;

    /**
     * Open-loop serving statistics; `serving.arrival` is empty for
     * closed-loop runs and every serializer keys off that, so the
     * closed-mode JSON/CSV output stays byte-identical.
     */
    ServingStats serving;
};

/**
 * Per-reference read-latency bookkeeping, kept as one plain struct
 * updated inline: the three averages (total / DRAM / metadata) are
 * always sampled together on an LLC miss, so one sample counter and
 * three running sums hold them.
 */
struct ReadLatencyStats
{
    std::uint64_t samples = 0;
    double totalNs = 0.0;
    double dramNs = 0.0;
    double metaNs = 0.0;

    void
    sample(double total, double dram, double meta)
    {
        ++samples;
        totalNs += total;
        dramNs += dram;
        metaNs += meta;
    }

    double meanTotal() const { return samples ? totalNs / samples : 0.0; }
    double meanDram() const { return samples ? dramNs / samples : 0.0; }
    double meanMeta() const { return samples ? metaNs / samples : 0.0; }

    void reset() { *this = ReadLatencyStats{}; }
};

class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    /**
     * Run the workload.
     * @param warmup_refs Per-core references before stats reset.
     * @param measure_refs Per-core references measured.
     */
    SimStats run(std::uint64_t warmup_refs, std::uint64_t measure_refs);

    /**
     * Epoch-steppable run API: run() is exactly
     *
     *   beginRun(w, m); while (stepEpoch()) {} return finishRun();
     *
     * and a driver may interleave several Systems by calling their
     * stepEpoch()s round-robin (see sim/rack.hh, which arbitrates
     * the shared Toleo device at each epoch barrier).
     */
    void beginRun(std::uint64_t warmup_refs,
                  std::uint64_t measure_refs);
    /**
     * Advance until the next traffic-epoch boundary has been closed
     * (or the measurement window is exhausted, which closes the
     * final boundary).  Runs each planned item's private half and
     * then its shared half, so the staged log never holds more than
     * one batch.  @return true while more work remains.
     */
    bool stepEpoch();
    /** Collect the report; call once after stepEpoch() returns false. */
    SimStats finishRun();

    /**
     * Rack-parallel split of stepEpoch(): the same per-item private
     * and shared halves, run in a different order.
     * stepEpochPrivate() runs the private half of every item of one
     * epoch -- generator draws, L1/L2 accesses, and staging each
     * batch's L3/memory/engine events and the request ends its
     * references flag into the staged log -- and leaves the rest of
     * the shared work (the measurement reset, the epoch boundary, and
     * every serving-overlay update) to the items' shared halves.
     * replayEpochShared() then runs every item's shared half
     * single-threaded, touching the shared device in the same order
     * stepEpoch() does.
     *
     *   stepEpochPrivate(); replayEpochShared();
     *
     * is bit-identical to stepEpoch() for any config, which is what
     * lets a rack driver run the private halves of all nodes
     * concurrently (one thread per node) and serialize only the
     * replays in strict node order (sim/rack.cc).  The private half
     * is the FrontEnd's (sim/front_end.hh), which can reach no shared
     * state.  The staged log holds a whole epoch, so a serial driver
     * should call stepEpoch() instead.
     *
     * @return true while more work remains (same as stepEpoch()).
     * Each stepEpochPrivate() must be followed by exactly one
     * replayEpochShared() before any further stepping.
     */
    bool stepEpochPrivate() { return front_.stageEpoch(); }
    /** Replay the staged shared half of the last stepEpochPrivate(). */
    void replayEpochShared();

    /**
     * External stall injection (rack mode): charge every core @p ns
     * of stall, modelling backpressure from a contended shared
     * device.  A non-positive @p ns is a strict no-op, so an
     * uncontended node's timing is bit-identical to a standalone
     * run.
     */
    void addRackStallNs(double ns);

    /** Toleo IDE-link bytes of the most recently closed epoch. */
    std::uint64_t lastEpochToleoBytes() const
    {
        return epochToleoBytes_;
    }
    /** Wall-clock length (ns) of the most recently closed epoch. */
    double lastEpochWallNs() const { return epochWallNs_; }
    /** Traffic epochs closed since beginRun(). */
    std::uint64_t epochsCompleted() const { return epochsCompleted_; }
    /** True once warmup finished and measurement began. */
    bool measuring() const { return front_.measuring(); }

    /** Phase breakdown so far; zeros unless cfg.phaseTimers. */
    PhaseTimes
    phaseTimes() const
    {
        PhaseTimes t = phases_;
        t.privateNs = front_.privateNs();
        return t;
    }

    const SystemConfig &config() const { return cfg_; }
    ProtectionEngine &engine() { return *engine_; }
    ToleoDevice *device() { return devp_; }

  private:
    /** The shared replay's state: everything below the private
     *  levels (L3, topology, engine, device), the stall clocks, the
     *  footprint, the serving overlay and the stats.  The per-core
     *  state is front_'s. */
    SystemConfig cfg_;
    MemTopology topo_;
    /** The L3 slices; each core's L1/L2 is driven by front_. */
    CacheHierarchy hierarchy_;
    std::unique_ptr<ToleoDevice> device_; ///< owned (single-node)
    ToleoDevice *devp_ = nullptr; ///< owned or cfg_.sharedDevice
    std::unique_ptr<ProtectionEngine> engine_;
    InvisiMemEngine *invisimem_ = nullptr; ///< borrowed, epoch hook
    ToleoEngine *toleoEngine_ = nullptr;   ///< borrowed, stats
    WorkloadInfo winfo_;

    /** The private phase: generators, L1/L2, instruction clocks, the
     *  epoch planner and the staged log. */
    FrontEnd front_;

    /** Stall clocks are charged only by the shared replay (and rack
     *  backpressure), never by the private phase. */
    std::vector<double> coreStallNs_;

    /** Pages touched by any reference (the simulated RSS), inserted
     *  on LLC misses by the shared replay: a page's first reference
     *  always misses every level. */
    PageFootprint footprint_;
    std::uint64_t writebacks_ = 0;
    std::uint64_t metaBytes_ = 0;

    ReadLatencyStats readLat_;

    /** Shared and epoch wall-time accumulators (cfg_.phaseTimers
     *  only); the private share is front_'s. */
    PhaseTimes phases_;

    /**
     * Per-core open-loop serving state, written only by the shared
     * replay (completeRequest) and the measurement reset.  Service
     * times come from the closed-loop execution (core-time delta
     * between request ends); arrivals come from a dedicated seeded
     * Rng; latency follows the Lindley recursion
     * start = max(arrival, prevDone).
     */
    struct ServingCore
    {
        Rng rng{0};              ///< arrival-process draws
        double lastMarkNs = 0.0; ///< core time at the last request end
        double arrivalNs = 0.0;  ///< arrival time of the latest request
        double lastDoneNs = 0.0; ///< completion of the latest request
        bool primed = false;     ///< first post-reset request end seen
    };

    /** Open-loop overlay active (cfg_.arrival.open()). */
    bool serving_ = false;
    double sloNs_ = 0.0;
    double perCoreRate_ = 0.0;
    std::vector<ServingCore> servCores_;
    LatencyHistogram servLatency_;
    double servLatSumNs_ = 0.0;
    double servQueueSumNs_ = 0.0;
    double servSvcSumNs_ = 0.0;
    std::uint64_t servRequests_ = 0;
    std::uint64_t servSloMet_ = 0;

    /** Core time at the last epoch boundary of the in-flight run. */
    double runLastEpochNs_ = 0.0;

    /** Per-epoch observables for the rack arbiter. */
    std::uint64_t epochToleoBytes_ = 0;
    double epochWallNs_ = 0.0;
    std::uint64_t epochsCompleted_ = 0;

    /** Shared half of one plan item, read from what its private half
     *  recorded.  It alone decides which staged request ends count:
     *  those of a serving run's measured batches. */
    void runItemShared(const EpochPlanItem &item);

    /** Shared-state part of one reference: L3, memory, engine, and
     *  the footprint insert on an LLC miss. */
    void stepShared(unsigned core, Addr addr,
                    const PrivateAccessResult &priv);
    /** Simulated time of @p core once it has retired @p insts
     *  instructions: base retire time plus the core's stalls. */
    double coreTimeNs(unsigned core, std::uint64_t insts) const;
    double maxCoreTimeNs() const;
    /** Lindley-recursion completion of one measured request on
     *  @p core. */
    void completeRequest(unsigned core, std::uint64_t instsAtDone);
    /** Zero the serving accumulators and per-core overlay state. */
    void resetServing();
    /** The measurement reset's shared half (L3, topology, engine,
     *  serving accumulators, stall clocks); the front end resets
     *  L1/L2 and the instruction clocks in its own pass. */
    void resetMeasurementShared();
    /** Close the current traffic epoch (padding, bandwidth floor). */
    void epochBoundary();
};

/**
 * Pretty-print the Table 3 configuration.  The L1/L2/L3 hit latencies
 * it prints are Table 3 values the timing model does not charge:
 * cores retire at the base IPC, and only LLC misses stall.
 */
void printConfig(const SystemConfig &cfg, std::ostream &os);

/**
 * Serialize the full SimStats record to JSON, including the Trip
 * breakdown and per-TB usage — the machine-readable substrate for
 * sweep drivers and perf tracking.
 */
Json statsToJson(const SimStats &stats);

/**
 * Serialize an open-loop serving record (rates, SLO attainment, the
 * percentile table, and a latency-distribution summary).  Emitted by
 * statsToJson / rackStatsToJson only when the record is non-empty.
 */
Json servingStatsToJson(const ServingStats &stats);

/** Column names of the flat (scalar-only) CSV stats record. */
std::string statsCsvHeader();

/** One CSV row matching statsCsvHeader(); no trailing newline. */
std::string statsCsvRow(const SimStats &stats);

/**
 * Build a scaled simulation node.
 *
 * The paper itself evaluates a 1/4-scale 32-core node (Table 3); we
 * scale once more so that the simulation window (10^5-10^6 references
 * per core) exercises cache evictions the way the paper's 10^8-
 * instruction windows exercise its full-size caches.  Caches,
 * channel bandwidth, and the Toleo link scale with the core count;
 * latencies, the stealth caches (the design under study), and all
 * protocol parameters stay at paper values.  All reported quantities
 * are intensive (rates and ratios), so the shapes are preserved.
 */
SystemConfig makeScaledConfig(const std::string &workload,
                              EngineKind kind, unsigned cores);

} // namespace toleo

#endif // TOLEO_SIM_SYSTEM_HH
