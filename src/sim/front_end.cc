#include "sim/front_end.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "sim/intra_pool.hh"

namespace toleo {

double
phaseClockNs(bool enabled)
{
    if (!enabled)
        return 0.0;
    return std::chrono::duration<double, std::nano>(
               // toleo-lint: allow(nondeterminism)
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

CoreFront::CoreFront(std::unique_ptr<TraceGen> gen, PrivateCaches &caches)
    : gen_(std::move(gen)), caches_(&caches), refs_(batchRounds),
      queue_(batchRounds)
{
}

void
CoreFront::stage(std::uint64_t rounds)
{
    // Pull the probed L1/L2 set blocks a few references ahead of the
    // access loop; the draws below give the addresses up front.
    constexpr std::uint64_t prefetchDist = 8;

    MemRef *refs = refs_.data();
    QueuedStep *queue = queue_.data();
    gen_->nextBatch(refs, rounds);
    std::uint32_t n = 0;
    std::uint64_t insts = insts_;
    for (std::uint64_t k = 0; k < rounds; ++k) {
        const MemRef &ref = refs[k];
        insts += ref.instGap + 1;
        if (k + prefetchDist < rounds)
            caches_->prefetch(blockOf(refs[k + prefetchDist].addr));
        const PrivateAccessResult priv =
            caches_->access(blockOf(ref.addr), ref.isWrite);
        // A request ends after its last reference retires.
        const std::uint64_t done = ref.endsRequest ? insts : 0;
        if (priv.needsShared() || done) {
            queue[n].round = static_cast<std::uint32_t>(k);
            queue[n].priv = priv;
            queue[n].doneInsts = done;
            ++n;
        }
    }
    queued_ = n;
    next_ = 0;
    insts_ = insts;
}

void
CoreFront::resetMeasurement()
{
    caches_->resetStats();
    insts_ = 0;
}

FrontEnd::FrontEnd(std::vector<CoreFront> cores,
                   const FrontEndParams &params)
    : cores_(std::move(cores)), params_(params)
{
    // More threads than cores can never help: the unit of work is
    // one core's batch.
    const unsigned threads = std::min<unsigned>(
        std::max(params.intraThreads, 1u), numCores());
    if (threads > 1)
        pool_ = std::make_unique<IntraPool>(threads);
}

FrontEnd::~FrontEnd() = default;

std::uint64_t
FrontEnd::insts() const
{
    std::uint64_t n = 0;
    for (const CoreFront &core : cores_)
        n += core.insts();
    return n;
}

void
FrontEnd::beginRun(std::uint64_t warmupRefs, std::uint64_t measureRefs)
{
    runWarmupRefs_ = warmupRefs;
    runMeasureRefs_ = measureRefs;
    runGlobalRefs_ = 0;
    runEpochMark_ = 0;
    runPhaseRefs_ = 0;
    runMeasuring_ = false;
    runActive_ = true;
    plan_.clear();
    pendingReplay_ = false;
}

// Rounds (one reference per core) until the next epoch boundary
// fires.  Every round adds numCores references, so a per-round epoch
// check reduces to a ceiling division, letting stageRounds() run a
// check-free inner loop.
std::uint64_t
FrontEnd::roundsToEpoch() const
{
    const std::uint64_t since = runGlobalRefs_ - runEpochMark_;
    const std::uint64_t remaining =
        params_.epochRefs > since ? params_.epochRefs - since : 0;
    return remaining == 0 ? 1 : (remaining + numCores() - 1) / numCores();
}

bool
FrontEnd::planEpoch()
{
    if (pendingReplay_)
        throw std::logic_error(
            "FrontEnd: a staged epoch awaits replayEpochShared()");
    plan_.clear();

    // Warmup: fill caches and version state, then reset stats.  The
    // phase transition is not an epoch boundary; when warmup ends
    // mid-epoch, measurement continues the same epoch.
    while (!runMeasuring_) {
        if (runPhaseRefs_ >= runWarmupRefs_) {
            plan_.push_back({EpochPlanItem::Kind::Reset, false, 0});
            runMeasuring_ = true;
            runPhaseRefs_ = 0;
            break;
        }
        const std::uint64_t chunk = std::min(
            {runWarmupRefs_ - runPhaseRefs_, roundsToEpoch(),
             batchRounds});
        plan_.push_back({EpochPlanItem::Kind::Run, false, chunk});
        runGlobalRefs_ += chunk * numCores();
        runPhaseRefs_ += chunk;
        if (runGlobalRefs_ - runEpochMark_ >= params_.epochRefs) {
            plan_.push_back({EpochPlanItem::Kind::Boundary, false, 0});
            runEpochMark_ = runGlobalRefs_;
            return true;
        }
    }

    // Measurement phase: batches run until the earlier of the next
    // epoch boundary and one full batch, so the boundary is not
    // tested inside the per-reference loop.
    while (runPhaseRefs_ < runMeasureRefs_) {
        const std::uint64_t chunk =
            std::min({runMeasureRefs_ - runPhaseRefs_, roundsToEpoch(),
                      batchRounds});
        plan_.push_back({EpochPlanItem::Kind::Run, true, chunk});
        runGlobalRefs_ += chunk * numCores();
        runPhaseRefs_ += chunk;
        if (runGlobalRefs_ - runEpochMark_ >= params_.epochRefs) {
            plan_.push_back({EpochPlanItem::Kind::Boundary, false, 0});
            runEpochMark_ = runGlobalRefs_;
            return true;
        }
    }

    // Window exhausted: close the final (possibly partial) epoch and
    // report completion.
    plan_.push_back({EpochPlanItem::Kind::Boundary, false, 0});
    runActive_ = false;
    return false;
}

const EpochPlanItem &
FrontEnd::stageItem(std::size_t i)
{
    staged_.clear();
    runItemPrivate(plan_[i]);
    return plan_[i];
}

bool
FrontEnd::stageEpoch()
{
    if (!runActive_)
        return false;
    const bool more = planEpoch();
    staged_.clear();
    for (EpochPlanItem &item : plan_)
        runItemPrivate(item);
    pendingReplay_ = true;
    return more;
}

const std::vector<EpochPlanItem> &
FrontEnd::takeStagedEpoch()
{
    if (!pendingReplay_)
        throw std::logic_error(
            "FrontEnd: no staged epoch (call stepEpochPrivate first)");
    pendingReplay_ = false;
    return plan_;
}

void
FrontEnd::runItemPrivate(EpochPlanItem &item)
{
    switch (item.kind) {
      case EpochPlanItem::Kind::Run:
        item.begin = staged_.size();
        stageRounds(item.rounds);
        item.end = staged_.size();
        break;
      case EpochPlanItem::Kind::Reset:
        // The per-core half, at the reset's position in the private
        // pass: the instruction clocks feed request-end staging.
        for (CoreFront &core : cores_)
            core.resetMeasurement();
        break;
      case EpochPlanItem::Kind::Boundary:
        // Entirely shared work.
        break;
    }
}

void
FrontEnd::stageRounds(std::uint64_t rounds)
{
    const unsigned n = numCores();
    const double t0 = phaseClockNs(params_.phaseTimers);

    // Per-generator draw order and per-cache operation sequences are
    // those of a one-reference-at-a-time loop, and a CoreFront
    // reaches no other core's state, so running cores concurrently
    // cannot reorder anything observable.
    if (pool_) {
        pool_->run(n, [this, rounds](unsigned c) {
            cores_[c].stage(rounds);
        });
    } else {
        for (CoreFront &core : cores_)
            core.stage(rounds);
    }

    // An n-way merge on the round index of the round-ordered queues,
    // so the replay feeds every shared structure the operation
    // sequence of the one-reference-at-a-time loop.
    for (std::uint32_t k = 0; k < rounds; ++k) {
        for (std::uint32_t c = 0; c < n; ++c)
            cores_[c].takeStep(k, c, staged_);
    }

    if (params_.phaseTimers)
        privateNs_ += phaseClockNs(true) - t0;
}

} // namespace toleo
