/**
 * @file
 * Top-level trace-driven system model (Section 7 / Table 3).
 *
 * Wires per-core workload generators through a three-level cache
 * hierarchy into the memory topology and the configured protection
 * engine.  Produces the statistics every table and figure of the
 * paper's evaluation is built from: execution time, LLC MPKI,
 * metadata cache hit rates, per-category memory traffic, read-latency
 * breakdown, Trip-format page classification, and Toleo space usage
 * over time.
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
#include "toleo/device.hh"
#include "toleo/engine.hh"
#include "workload/request.hh"
#include "workload/workload.hh"

namespace toleo {

class IntraPool;
class TraceFile;
class TraceWriter;

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
    double clockGhz = 2.25;
    /** Base retire rate with a perfect memory system (the paper's
     *  data-intensive workloads run near CPI 1 on the 6-wide core). */
    double baseIpc = 1.25;
    CacheHierarchyConfig caches;
    MemTopologyConfig mem;
    CiConfig ci;
    ToleoEngineConfig toleo;
    ToleoDeviceConfig device;
    InvisiMemConfig invisimem;
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
    /** Timeline samples to keep (Figure 12). */
    unsigned timelinePoints = 64;
    /**
     * Replay per-core reference streams from this trace file (see
     * workload/trace_file.hh) instead of synthesizing them; the
     * workload name still selects the Table-2 metadata (footprint,
     * MLP) the timing model uses.
     */
    std::string tracePath;
    /**
     * Already-loaded trace to replay; takes precedence over
     * tracePath so sweep drivers can validate/decode once and share
     * the read-only instance across cells.
     */
    std::shared_ptr<const TraceFile> trace;
    /** Record every core's generated stream to this trace file. */
    std::string recordTracePath;
    /**
     * Worker threads for the core-private phase of each epoch batch
     * (the calling thread counts, so 1 = single-threaded).  Any
     * value produces bit-identical statistics: the per-core private
     * bodies touch disjoint state, and the shared phase replays the
     * exact global order single-threaded either way.
     * Clamped to numCores; composes with cross-cell sweep jobs (the
     * drivers budget jobs x intraThreads against the host).
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
     * are bit-identical to the closed run of the same config.
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
    double dummyBpi = 0.0;

    double macCacheHitRate = 0.0;     ///< Fig 7
    double stealthCacheHitRate = 0.0; ///< Fig 7

    TripStore::Breakdown trip;            ///< Fig 10
    std::uint64_t toleoPeakUsageBytes = 0; ///< Fig 12 peak
    ToleoDevice::UsagePerTb usagePerTb;    ///< Fig 11
    double avgEntryBytesPerPage = 0.0;     ///< Table 4

    /** (instructions, usage bytes) samples over time (Fig 12). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> usageTimeline;

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
 * Dense two-level page bitmap tracking the set of pages ever touched
 * (the simulated RSS).  Replaces a std::unordered_set<PageNum> on the
 * per-reference hot path: membership insert is a directory index, a
 * bit test, and a branch-free count update -- no hashing, no node
 * allocation.  Leaves cover 32 K pages (128 MiB of address space)
 * and are allocated once on first touch, so the steady-state insert
 * is allocation-free.
 */
class PageFootprint
{
  public:
    void
    insert(PageNum page)
    {
        const std::uint64_t leaf = page >> leafBits;
        if (leaf >= dir_.size() || !dir_[leaf])
            addLeaf(leaf);
        std::uint64_t &word =
            dir_[leaf][(page & leafMask) >> wordBits];
        const std::uint64_t bit =
            std::uint64_t{1} << (page & (wordSize - 1));
        count_ += (word & bit) == 0;
        word |= bit;
    }

    /** Number of distinct pages inserted, O(1). */
    std::uint64_t size() const { return count_; }

  private:
    /** log2(pages per leaf): 32 K pages = 128 MiB of address space. */
    static constexpr unsigned leafBits = 15;
    static constexpr std::uint64_t leafMask =
        (std::uint64_t{1} << leafBits) - 1;
    static constexpr unsigned wordBits = 6;
    static constexpr unsigned wordSize = 64;
    static constexpr std::size_t wordsPerLeaf =
        (std::size_t{1} << leafBits) / wordSize;

    void
    addLeaf(std::uint64_t leaf)
    {
        if (leaf >= dir_.size())
            dir_.resize(leaf + 1);
        if (!dir_[leaf]) {
            // make_unique value-initializes: the leaf starts all-zero.
            dir_[leaf] =
                std::make_unique<std::uint64_t[]>(wordsPerLeaf);
        }
    }

    std::vector<std::unique_ptr<std::uint64_t[]>> dir_;
    std::uint64_t count_ = 0;
};

/**
 * Per-reference read-latency bookkeeping, kept as one plain struct
 * updated inline: the three averages (total / DRAM / metadata) are
 * always sampled together on an LLC miss, so a single counter and
 * three running sums replace three Accumulator calls.
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
     * epoch -- generator draws, L1/L2 accesses, footprint and
     * serving-boundary staging -- and stages the shared work
     * (L3/topology/engine/device events, the measurement reset, the
     * epoch boundary, and timeline samples) as an ordered log.
     * replayEpochShared() then runs every item's shared half over
     * that log single-threaded, touching the shared device in the
     * same order stepEpoch() does.
     *
     *   stepEpochPrivate(); replayEpochShared();
     *
     * is bit-identical to stepEpoch() for any config, which is what
     * lets a rack driver run the private halves of all nodes
     * concurrently (one thread per node) and serialize only the
     * replays in strict node order (sim/rack.cc).  The private half
     * touches no state(shared) structure other than this node's own
     * footprint set (node-local; see the allow() grants), so the
     * phase-safety lint proves the decomposition statically.  The
     * staged log holds a whole epoch, so a serial driver should call
     * stepEpoch() instead.
     *
     * @return true while more work remains (same as stepEpoch()).
     * Each stepEpochPrivate() must be followed by exactly one
     * replayEpochShared() before any further stepping.
     */
    // toleo: phase(private)
    bool stepEpochPrivate();
    /** Replay the staged shared half of the last stepEpochPrivate(). */
    // toleo: phase(shared)
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
    bool measuring() const { return runMeasuring_; }

    /** Phase breakdown so far; zeros unless cfg.phaseTimers. */
    PhaseTimes phaseTimes() const { return phases_; }

    const SystemConfig &config() const { return cfg_; }
    ProtectionEngine &engine() { return *engine_; }
    ToleoDevice *device() { return devp_; }

  private:
    // Phase-safety annotations (checked by toleo_lint's phase-safety
    // pass, tools/toleo_lint/phase_safety.hh): state(shared) members
    // may only be mutated by the single-threaded shared replay;
    // state(per-core) members are indexed/partitioned by core id and
    // safe for the concurrent private phase.  hierarchy_ carries its
    // discipline internally (CacheHierarchy splits l1_/l2_ from l3_).
    SystemConfig cfg_;
    // toleo: state(shared)
    MemTopology topo_;
    CacheHierarchy hierarchy_;
    std::unique_ptr<ToleoDevice> device_; ///< owned (single-node)
    // toleo: state(shared)
    ToleoDevice *devp_ = nullptr; ///< owned or cfg_.sharedDevice
    // toleo: state(shared)
    std::unique_ptr<ProtectionEngine> engine_;
    InvisiMemEngine *invisimem_ = nullptr; ///< borrowed, epoch hook
    ToleoEngine *toleoEngine_ = nullptr;   ///< borrowed, stats
    // toleo: state(per-core)
    std::vector<std::unique_ptr<TraceGen>> gens_;
    WorkloadInfo winfo_;

    /** Backing trace when cfg_.tracePath is set (shared, read-only). */
    std::shared_ptr<const TraceFile> trace_;
    /** Capture sink when cfg_.recordTracePath is set; flushed by run(). */
    std::unique_ptr<TraceWriter> traceWriter_;

    /** Per-core progress. */
    // toleo: state(per-core)
    std::vector<std::uint64_t> coreInsts_;
    /** Stall clocks are charged only by the shared replay (and rack
     *  backpressure), never by the private phase. */
    // toleo: state(shared)
    std::vector<double> coreStallNs_;

    /** Pages touched by any reference (the simulated RSS). */
    // toleo: state(shared)
    PageFootprint footprint_;
    // toleo: state(shared)
    std::uint64_t writebacks_ = 0;
    // toleo: state(shared)
    std::uint64_t metaBytes_ = 0;

    // toleo: state(shared)
    ReadLatencyStats readLat_;

    /** Per-core reference batches for stageRounds (generation phase
     *  and simulation phase run over this, not through per-ref
     *  virtual calls). */
    // toleo: state(per-core)
    std::vector<MemRef> refBuf_;

    /** One queued piece of shared work (L3/memory/engine). */
    struct SharedEvent
    {
        std::uint32_t round;
        PrivateAccessResult priv;
    };
    /** Per-core queues of shared events, in increasing round order;
     *  most references are served privately and queue nothing. */
    // toleo: state(per-core)
    std::vector<SharedEvent> evBuf_;
    // toleo: state(per-core)
    std::vector<std::uint32_t> evCount_;
    // toleo: state(per-core)
    std::vector<std::uint32_t> evPos_;

    /** Rounds of references buffered per core in one sub-batch. */
    static constexpr std::uint64_t batchRounds = 256;

    /**
     * Worker pool for the private phase; null when cfg_.intraThreads
     * (clamped to numCores) is 1, keeping the single-threaded path
     * free of any synchronization.
     */
    std::unique_ptr<IntraPool> intraPool_;
    /**
     * Per-core staging for footprint_ inserts: the one shared touch
     * in the private loop.  Each core appends its pages here (its own
     * vector, no sharing), and stageRounds merges them into
     * footprint_ serially in core order -- set insertion is
     * order-insensitive, so the merged footprint is identical to
     * inline inserts for any thread count.
     */
    // toleo: state(per-core)
    std::vector<std::vector<PageNum>> footprintStage_;

    /** Phase wall-time accumulators (cfg_.phaseTimers only). */
    PhaseTimes phases_;

    /** One request completion staged by privateCore for one batch. */
    struct RequestBoundary
    {
        std::uint32_t round; ///< batch-relative round index
        std::uint64_t insts; ///< absolute retired insts at completion
    };
    /**
     * Per-core open-loop serving state.  Service times come from the
     * closed-loop execution (core-time delta between request
     * boundaries); arrivals come from a dedicated seeded Rng; latency
     * follows the Lindley recursion start = max(arrival, prevDone).
     */
    struct ServingCore
    {
        Rng rng{0};              ///< arrival-process draws
        double lastMarkNs = 0.0; ///< core time at the last boundary
        double arrivalNs = 0.0;  ///< arrival time of the latest request
        double lastDoneNs = 0.0; ///< completion of the latest request
        bool primed = false;     ///< first post-reset boundary seen
        std::vector<RequestBoundary> boundaries; ///< staged this batch
        std::uint32_t pos = 0;   ///< finalize cursor into boundaries
    };

    /** Open-loop overlay active (cfg_.arrival.open()). */
    bool serving_ = false;
    double sloNs_ = 0.0;
    double perCoreRate_ = 0.0;
    // toleo: state(per-core)
    std::vector<RequestSource *> reqSrcs_; ///< borrowed views of gens_
    // toleo: state(per-core)
    std::vector<ServingCore> servCores_;
    // toleo: state(shared)
    LatencyHistogram servLatency_;
    // toleo: state(shared)
    double servLatSumNs_ = 0.0;
    // toleo: state(shared)
    double servQueueSumNs_ = 0.0;
    // toleo: state(shared)
    double servSvcSumNs_ = 0.0;
    // toleo: state(shared)
    std::uint64_t servRequests_ = 0;
    // toleo: state(shared)
    std::uint64_t servSloMet_ = 0;

    /** State of the in-flight epoch-steppable run (see beginRun). */
    std::uint64_t runWarmupRefs_ = 0;
    std::uint64_t runMeasureRefs_ = 0;
    std::uint64_t runGlobalRefs_ = 0;
    std::uint64_t runEpochMark_ = 0;
    double runLastEpochNs_ = 0.0;
    /** Rounds completed within the current phase (warmup/measure). */
    std::uint64_t runPhaseRefs_ = 0;
    std::uint64_t runSampleEvery_ = 1;
    bool runMeasuring_ = false;
    bool runActive_ = false;
    // toleo: state(shared)
    SimStats runStats_;

    /** Per-epoch observables for the rack arbiter. */
    // toleo: state(shared)
    std::uint64_t epochToleoBytes_ = 0;
    // toleo: state(shared)
    double epochWallNs_ = 0.0;
    // toleo: state(shared)
    std::uint64_t epochsCompleted_ = 0;

    /**
     * One unit of epoch execution, planned ahead.  The epoch control
     * flow (batch sizing, the warmup->measure transition,
     * epoch-boundary detection, timeline-sample scheduling) depends
     * only on the run-driver counters below -- never on simulated
     * state -- so planEpoch() advances those counters and emits the
     * ordered item list.  Every item has a private half
     * (runItemPrivate) and a shared half (runItemShared); stepEpoch()
     * runs them item by item, the staged path runs all private
     * halves (stepEpochPrivate) before all shared halves
     * (replayEpochShared).
     */
    struct EpochPlanItem
    {
        enum class Kind : std::uint8_t
        {
            Run,      ///< one batch: stageRounds(rounds) + its replay
            Reset,    ///< measurement reset (warmup -> measure)
            Boundary, ///< epochBoundary()
            Sample,   ///< record one usage-timeline point
        };
        Kind kind = Kind::Run;
        /** Run only: was the run measuring during this batch?  The
         *  planner pre-advances runMeasuring_, so executors must use
         *  this snapshot, not the live flag. */
        bool measuring = false;
        /** Run only: rounds in the batch, at most batchRounds. */
        std::uint64_t rounds = 0;
    };
    /** Plan the next epoch into plan_; @return stepEpoch()'s value. */
    bool planEpoch();
    std::vector<EpochPlanItem> plan_;
    /** A staged epoch is awaiting replayEpochShared(). */
    bool pendingReplay_ = false;

    /** One flattened shared-phase event: the (round, core)-ordered
     *  stream runItemShared() feeds to stepShared, round-numbered
     *  globally across the staged batches. */
    struct StagedSharedEvent
    {
        std::uint64_t round;
        std::uint32_t core;
        Addr addr;
        PrivateAccessResult priv;
    };
    /** One staged request completion ((round, core)-ordered). */
    struct StagedRequestBoundary
    {
        std::uint64_t round;
        std::uint32_t core;
        std::uint64_t insts;
    };
    /** Stage-time half of one timeline sample; the device-side
     *  dynamicBytes() is read by the shared half, when the shared
     *  store has seen every earlier item's shared work. */
    struct StagedSample
    {
        std::uint64_t insts;
        std::uint64_t footprintPages;
    };
    std::vector<StagedSharedEvent> stagedEvents_;
    std::vector<StagedRequestBoundary> stagedBoundaries_;
    std::vector<StagedSample> stagedSamples_;
    /** Global round counter across the staged batches. */
    std::uint64_t stageRoundBase_ = 0;
    /** Where the next shared half reads the staged logs. */
    struct ReplayCursor
    {
        std::size_t event = 0;
        std::size_t boundary = 0;
        std::size_t sample = 0;
        std::uint64_t round = 0; ///< first round of the next Run item
    };
    ReplayCursor replay_;
    /** Empty the staged logs and rewind both cursors. */
    void clearStaged();
    /** Private half of one item: stage its shared work. */
    // toleo: phase(private)
    void runItemPrivate(const EpochPlanItem &item);
    /** Shared half of one item, read from the staged logs. */
    // toleo: phase(shared)
    void runItemShared(const EpochPlanItem &item);

    /** Shared-state part of one reference: L3, memory, engine. */
    // toleo: phase(shared)
    void stepShared(unsigned core, Addr addr,
                    const PrivateAccessResult &priv);
    /**
     * Run one batch of @p rounds (<= batchRounds) rounds of one
     * reference per core: the core-private work (generator draws and
     * L1/L2) per core, then flatten the per-core event queues (and,
     * when measuring, the request boundaries) into the
     * (round, core)-ordered logs above, in the round-robin global
     * order of a one-reference-at-a-time loop.  The planner sizes
     * @p rounds so no epoch boundary or timeline sample falls inside
     * a batch.  @p measuring is its snapshot of the measurement flag.
     */
    // toleo: phase(private)
    void stageRounds(std::uint64_t rounds, bool measuring);
    /**
     * Core-private body of one batch for one core: generator draw,
     * L1/L2 accesses, shared-event queueing, and footprint staging.
     * Touches only core-indexed state, so stageRounds may run it for
     * different cores concurrently.
     */
    // toleo: phase(private)
    void privateCore(unsigned core, std::uint64_t rounds);
    double coreTimeNs(unsigned core) const;
    double maxCoreTimeNs() const;
    /** Lindley-recursion completion of one measured request on
     *  @p core. */
    // toleo: phase(shared)
    void completeRequest(unsigned core, std::uint64_t instsAtDone);
    /** Zero the serving accumulators and per-core overlay state. */
    void resetServing();
    /** The measurement reset, split like every plan item: the
     *  per-core half (L1/L2 counters, instruction clocks) runs in
     *  the private pass, the shared half (L3, topology, engine,
     *  serving accumulators, stall clocks) in the replay. */
    // toleo: phase(private)
    void resetMeasurementPrivate();
    // toleo: phase(shared)
    void resetMeasurementShared();
    /** Append one usage-timeline point (Fig 12); reads the shared
     *  store's dynamic bytes live, so the shared half calls it with
     *  stage-captured insts/footprint. */
    // toleo: phase(shared)
    void recordTimelineSample(std::uint64_t insts,
                              std::uint64_t footprintPages);
    /** Close the current traffic epoch (padding, bandwidth floor). */
    // toleo: phase(shared)
    void epochBoundary();
    /** Rounds until the next epoch boundary is due. */
    std::uint64_t roundsToEpoch() const;
};

/** Pretty-print the Table 3 configuration. */
void printConfig(const SystemConfig &cfg, std::ostream &os);

/**
 * Serialize the full SimStats record to JSON, including the Trip
 * breakdown, per-TB usage, and the usage timeline — the
 * machine-readable substrate for sweep drivers and perf tracking.
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
