/**
 * @file
 * The private phase of a System's epoch: everything that depends on
 * per-core state only.
 *
 * A FrontEnd owns one CoreFront per core (its generator, L1/L2,
 * instruction clock and batch buffers), the epoch planner and the
 * staged log.  It holds no reference to the L3, the topology, the
 * engine, the device, the serving overlay or the stats, and neither
 * this file nor front_end.cc includes anything from mem/, secmem/ or
 * toleo/, so whatever runs it concurrently (the intra pool, one
 * CoreFront per body; the rack pool, one FrontEnd per body) cannot
 * write shared state.  It takes no engine or arrival input either:
 * its plan and its staged log are functions of the streams, the
 * window and the epoch size alone, so every engine's System stages
 * the same log.  The System constructor is the one place that hands
 * a front end anything: its hierarchy's per-core caches, and the
 * generators it builds (a synthetic or replay generator, optionally
 * wrapped in a RequestSource), each of which writes only its own
 * state.  A capture draws the generators outside any System
 * (captureTrace in workload/trace_file.hh), so no front end writes a
 * file.
 */

#ifndef TOLEO_SIM_FRONT_END_HH
#define TOLEO_SIM_FRONT_END_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "workload/workload.hh"

namespace toleo {

class IntraPool;

/** Host wall clock (ns) for PhaseTimes; 0 without a clock call
 *  unless @p enabled.  Never feeds simulated state. */
double phaseClockNs(bool enabled);

/** Rounds of references buffered per core in one batch. */
constexpr std::uint64_t batchRounds = 256;

/**
 * One unit of epoch execution.  The epoch control flow (batch
 * sizing, the warmup->measure transition, epoch boundaries) depends
 * only on the planner's run counters, never on simulated state, so
 * FrontEnd::planEpoch() emits an epoch's items ahead.  Each item has
 * a private half (the FrontEnd's) and a shared half (the System's
 * replay).
 */
struct EpochPlanItem
{
    enum class Kind : std::uint8_t
    {
        Run,      ///< one batch: staged rounds + their replay
        Reset,    ///< measurement reset (warmup -> measure)
        Boundary, ///< close the traffic epoch
    };
    Kind kind = Kind::Run;
    /** Run only: the planner's measuring flag for this batch (the
     *  live flag runs ahead); the System counts request ends only in
     *  measured batches. */
    bool measuring = false;
    /** Run only: rounds in the batch, at most batchRounds. */
    std::uint64_t rounds = 0;
    /** Run only, set by the private half: the batch's slice
     *  [begin, end) of the staged log. */
    std::size_t begin = 0;
    std::size_t end = 0;
};

/** One (round, core) step of the staged log: that core's shared
 *  event (L3/memory/engine, when priv.needsShared()), its request
 *  end (doneInsts != 0), or both. */
struct StagedStep
{
    std::uint32_t core;
    Addr addr;
    PrivateAccessResult priv;
    /** Retired insts at the request end, or 0 for none (a request
     *  end retires at least its own reference). */
    std::uint64_t doneInsts;
};

/** One core's private phase. */
class CoreFront
{
  public:
    /** Owns @p gen; drives @p caches, which outlive this core. */
    CoreFront(std::unique_ptr<TraceGen> gen, PrivateCaches &caches);

    /**
     * One batch of @p rounds (<= batchRounds) references: the
     * generator draw and the L1/L2 accesses, queueing each
     * reference's shared work and the retired instructions at every
     * MemRef::endsRequest.
     */
    void stage(std::uint64_t rounds);

    /** Move the queued step of round @p k, if any, to @p log. */
    void
    takeStep(std::uint32_t k, std::uint32_t core,
             std::vector<StagedStep> &log)
    {
        if (next_ == queued_ || queue_[next_].round != k)
            return;
        const QueuedStep &q = queue_[next_++];
        log.push_back({core, refs_[k].addr, q.priv, q.doneInsts});
    }

    /** Zero the L1/L2 counters and the instruction clock. */
    void resetMeasurement();

    std::uint64_t insts() const { return insts_; }

  private:
    struct QueuedStep
    {
        std::uint32_t round;
        PrivateAccessResult priv;
        std::uint64_t doneInsts;
    };

    std::unique_ptr<TraceGen> gen_;
    PrivateCaches *caches_;
    std::uint64_t insts_ = 0;
    /** This batch's draws and its round-ordered queued steps. */
    std::vector<MemRef> refs_;
    std::vector<QueuedStep> queue_;
    std::uint32_t queued_ = 0;
    std::uint32_t next_ = 0;
};

/** The run scalars a FrontEnd reads, copied out of the config. */
struct FrontEndParams
{
    std::uint64_t epochRefs = 16384; ///< global refs per epoch
    unsigned intraThreads = 1;       ///< caller included
    bool phaseTimers = false;        ///< accumulate privateNs()
};

/**
 * One System's private phase.  An epoch runs as planEpoch() and a
 * stageItem() per item (the log holds one item), or as stageEpoch()
 * and takeStagedEpoch() (the log holds the whole epoch).
 */
class FrontEnd
{
  public:
    FrontEnd(std::vector<CoreFront> cores, const FrontEndParams &params);
    ~FrontEnd();

    /** Start a run of @p warmupRefs then @p measureRefs references
     *  per core; drops any staged epoch. */
    void beginRun(std::uint64_t warmupRefs, std::uint64_t measureRefs);

    /** The run has epochs left to plan. */
    bool active() const { return runActive_; }
    /** Warmup is over, as far as the planner has got. */
    bool measuring() const { return runMeasuring_; }
    std::uint64_t measureRefs() const { return runMeasureRefs_; }

    /** Plan the next epoch into plan(); @return whether more remain.
     *  std::logic_error while a staged epoch awaits its take. */
    bool planEpoch();
    const std::vector<EpochPlanItem> &plan() const { return plan_; }
    /** Run plan item @p i's private half into an emptied log. */
    const EpochPlanItem &stageItem(std::size_t i);

    /** Plan the next epoch and run every item's private half;
     *  @return false, staging nothing, once the run is over. */
    bool stageEpoch();
    /** The epoch stageEpoch() staged, once; std::logic_error if
     *  none is. */
    const std::vector<EpochPlanItem> &takeStagedEpoch();

    /** Staged steps in (round, core) order. */
    const std::vector<StagedStep> &staged() const { return staged_; }

    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }
    std::uint64_t coreInsts(unsigned core) const
    {
        return cores_[core].insts();
    }
    std::uint64_t insts() const;

    /** Host ns spent staging rounds (params.phaseTimers only). */
    double privateNs() const { return privateNs_; }

  private:
    std::vector<CoreFront> cores_;
    FrontEndParams params_;
    /** Null for one thread: the serial path never synchronizes. */
    std::unique_ptr<IntraPool> pool_;

    /** Planner state of the run (see beginRun). */
    std::uint64_t runWarmupRefs_ = 0;
    std::uint64_t runMeasureRefs_ = 0;
    std::uint64_t runGlobalRefs_ = 0;
    std::uint64_t runEpochMark_ = 0;
    /** Rounds completed within the current phase (warmup/measure). */
    std::uint64_t runPhaseRefs_ = 0;
    bool runMeasuring_ = false;
    bool runActive_ = false;

    std::vector<EpochPlanItem> plan_;
    std::vector<StagedStep> staged_;
    /** A staged epoch awaits takeStagedEpoch(). */
    bool pendingReplay_ = false;

    double privateNs_ = 0.0;

    std::uint64_t roundsToEpoch() const;
    /** Stage one item into staged_, recording a Run item's slice. */
    void runItemPrivate(EpochPlanItem &item);
    /**
     * One batch of @p rounds rounds: every core's stage(), then a
     * merge of the per-core queues into staged_ in the round-robin
     * order of a one-reference-at-a-time loop.  The planner sizes
     * @p rounds so no boundary falls inside.
     */
    void stageRounds(std::uint64_t rounds);
};

} // namespace toleo

#endif // TOLEO_SIM_FRONT_END_HH
