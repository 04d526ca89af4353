#include "sim/system.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "secmem/noprotect.hh"
#include "sim/intra_pool.hh"
#include "workload/trace_file.hh"

namespace toleo {

namespace {

/**
 * Host wall clock for the phase breakdown (PhaseTimes).  Gated so the
 * default path performs no clock calls; the value never feeds
 * simulated state, only perfbench's traced run.
 */
double
benchNowNs(bool enabled)
{
    if (!enabled)
        return 0.0;
    return std::chrono::duration<double, std::nano>(
               // toleo-lint: allow(nondeterminism)
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::NoProtect: return "NoProtect";
      case EngineKind::C: return "C";
      case EngineKind::CI: return "CI";
      case EngineKind::Toleo: return "Toleo";
      case EngineKind::InvisiMem: return "InvisiMem";
      case EngineKind::Merkle: return "Merkle";
    }
    return "?";
}

System::System(const SystemConfig &cfg)
    : cfg_(cfg), topo_(cfg.mem),
      hierarchy_([&] {
          CacheHierarchyConfig c = cfg.caches;
          c.numCores = cfg.numCores;
          return c;
      }()),
      winfo_(workloadInfo(cfg.workload))
{
    switch (cfg.engine) {
      case EngineKind::NoProtect:
        engine_ = std::make_unique<NoProtectEngine>(topo_);
        break;
      case EngineKind::C: {
        CiConfig c = cfg.ci;
        c.integrity = false;
        engine_ = std::make_unique<CiEngine>(topo_, c);
        break;
      }
      case EngineKind::CI:
        engine_ = std::make_unique<CiEngine>(topo_, cfg.ci);
        break;
      case EngineKind::Toleo: {
        // Rack mode borrows one device shared across nodes; the
        // single-node path owns a private one.  Either way the
        // engine and the stats collection go through devp_.
        if (cfg.sharedDevice) {
            devp_ = cfg.sharedDevice;
        } else {
            device_ = std::make_unique<ToleoDevice>(cfg.device);
            devp_ = device_.get();
        }
        auto eng = std::make_unique<ToleoEngine>(topo_, *devp_,
                                                 cfg.toleo);
        toleoEngine_ = eng.get();
        engine_ = std::move(eng);
        break;
      }
      case EngineKind::InvisiMem: {
        auto eng = std::make_unique<InvisiMemEngine>(topo_,
                                                     cfg.invisimem);
        invisimem_ = eng.get();
        engine_ = std::move(eng);
        break;
      }
      case EngineKind::Merkle:
        engine_ = std::make_unique<MerkleTreeEngine>(topo_, cfg.merkle);
        break;
    }

    const bool replaying = cfg.trace || !cfg.tracePath.empty();
    // TraceError, not fatal(): every trace defect throws (see
    // trace_file.hh) so library callers can catch it.
    if (replaying && !cfg.recordTracePath.empty())
        throw TraceError(
            "a System cannot replay and record a trace at once");
    if (replaying) {
        trace_ = cfg.trace ? cfg.trace : TraceFile::open(cfg.tracePath);
        if (trace_->workload() != cfg.workload) {
            warn("trace '%s' was captured from workload '%s' but is "
                 "replayed under '%s' metadata",
                 cfg.tracePath.empty() ? "<preloaded>"
                                       : cfg.tracePath.c_str(),
                 trace_->workload().c_str(), cfg.workload.c_str());
        }
        for (unsigned c = 0; c < cfg.numCores; ++c)
            gens_.push_back(
                std::make_unique<TraceReplayGen>(winfo_, trace_, c));
    } else {
        for (unsigned c = 0; c < cfg.numCores; ++c)
            gens_.push_back(makeWorkload(cfg.workload, c, cfg.seed));
        if (!cfg.recordTracePath.empty()) {
            traceWriter_ = std::make_unique<TraceWriter>(
                cfg.numCores, cfg.workload, cfg.seed);
            for (unsigned c = 0; c < cfg.numCores; ++c)
                gens_[c] = std::make_unique<RecordingTraceGen>(
                    std::move(gens_[c]), *traceWriter_, c);
        }
    }

    // Open-loop serving overlay: wrap every generator in a
    // RequestSource that tracks request boundaries.  The wrapper
    // forwards draws unchanged and the arrival process never feeds
    // back into simulated state, so every non-serving statistic is
    // bit-identical to the closed-loop run of the same config.
    serving_ = cfg.arrival.open();
    if (serving_) {
        if (!std::isfinite(cfg.arrival.ratePerSec) ||
            cfg.arrival.ratePerSec <= 0.0)
            throw std::invalid_argument(
                "System: open-loop arrival needs a positive finite "
                "ratePerSec");
        if (!std::isfinite(cfg.arrival.sloUs) ||
            cfg.arrival.sloUs <= 0.0)
            throw std::invalid_argument(
                "System: open-loop arrival needs a positive finite "
                "sloUs");
        if (cfg.arrival.requestRefs == 0)
            throw std::invalid_argument(
                "System: arrival.requestRefs must be >= 1");
        if (!cfg.recordTracePath.empty())
            throw std::invalid_argument(
                "System: record the trace under the closed arrival "
                "model and replay it open-loop instead");
        sloNs_ = cfg.arrival.sloUs * 1000.0;
        perCoreRate_ = cfg.arrival.ratePerSec / cfg.numCores;
        reqSrcs_.resize(cfg.numCores);
        servCores_.resize(cfg.numCores);
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            auto src = std::make_unique<RequestSource>(
                std::move(gens_[c]), cfg.arrival.requestRefs);
            reqSrcs_[c] = src.get();
            gens_[c] = std::move(src);
            // Dedicated stream, decorrelated from the workload draws:
            // the arrival process must not mirror or perturb them.
            servCores_[c].rng =
                Rng(cfg.seed ^ 0x517cc1b727220a95ULL ^
                    (static_cast<std::uint64_t>(c) *
                     0x9e3779b97f4a7c15ULL));
        }
    }

    coreInsts_.assign(cfg.numCores, 0);
    coreStallNs_.assign(cfg.numCores, 0.0);
    refBuf_.resize(static_cast<std::size_t>(cfg.numCores) *
                   batchRounds);
    evBuf_.resize(refBuf_.size());
    evCount_.assign(cfg.numCores, 0);
    evPos_.assign(cfg.numCores, 0);

    // Private-phase worker pool.  More threads than cores can never
    // help (the unit of work is one core's batch), and intraThreads
    // == 1 keeps the single-threaded path with no pool, no footprint
    // staging, and no synchronization at all.
    const unsigned intra =
        std::min(std::max(cfg.intraThreads, 1u), cfg.numCores);
    if (intra > 1) {
        intraPool_ = std::make_unique<IntraPool>(intra);
        footprintStage_.resize(cfg.numCores);
        for (auto &stage : footprintStage_)
            stage.reserve(batchRounds);
    }
}

System::~System() = default;

double
System::coreTimeNs(unsigned core) const
{
    const double inst_ns = static_cast<double>(coreInsts_[core]) /
                           (cfg_.baseIpc * cfg_.clockGhz);
    return inst_ns + coreStallNs_[core];
}

double
System::maxCoreTimeNs() const
{
    double m = 0.0;
    for (unsigned c = 0; c < cfg_.numCores; ++c)
        m = std::max(m, coreTimeNs(c));
    return m;
}

void
System::stepShared(unsigned core, Addr addr,
                   const PrivateAccessResult &priv)
{
    HierarchyResult res;
    hierarchy_.accessShared(core, blockOf(addr), priv, res);

    // Dirty victims leaving the chip: off the read critical path but
    // they generate data + metadata traffic and version updates.
    for (BlockNum victim : res.memWritebacks) {
        const PageNum vpage = pageOfBlock(victim);
        topo_.addDataTraffic(vpage, blockSize);
        MetaCost wc = engine_->onWriteback(victim);
        metaBytes_ += wc.metaBytes;
        ++writebacks_;
    }

    if (!res.llcMiss)
        return;

    const PageNum page = pageOf(addr);

    // Data fill.  Resolve the page's home channel once for both the
    // traffic accounting and the latency lookup.
    const MemTopology::Route route = topo_.routeFor(page);
    topo_.addTraffic(route, blockSize);
    MetaCost mc = engine_->onRead(blockOf(addr));
    metaBytes_ += mc.metaBytes;
    const double dram_ns = topo_.latencyNs(route);
    const double total_ns = dram_ns + mc.latencyNs;

    readLat_.sample(total_ns, dram_ns, mc.latencyNs);

    coreStallNs_[core] += total_ns / winfo_.mlp;
}

void
System::privateCore(unsigned core, std::uint64_t rounds)
{
    // Pull the probed L1/L2 set blocks a few references ahead of the
    // access loop; the draws below give the addresses up front.
    constexpr std::uint64_t prefetchDist = 8;

    MemRef *refs = &refBuf_[core * batchRounds];
    SharedEvent *evs = &evBuf_[core * batchRounds];
    gens_[core]->nextBatch(refs, rounds);
    std::vector<PageNum> *stage =
        intraPool_ ? &footprintStage_[core] : nullptr;
    std::uint32_t nev = 0;
    std::uint64_t insts = 0;
    for (std::uint64_t k = 0; k < rounds; ++k) {
        const MemRef &ref = refs[k];
        insts += ref.instGap + 1;
        if (k + prefetchDist < rounds) {
            hierarchy_.prefetchPrivate(
                core, blockOf(refs[k + prefetchDist].addr));
        }
        const PrivateAccessResult priv = hierarchy_.accessPrivate(
            core, blockOf(ref.addr), ref.isWrite);
        // RSS tracking off the L1-hit path: a page's very first
        // reference always misses L1 (an untouched block cannot be
        // resident), so recording pages on L1 misses only yields the
        // same footprint set.  Under the pool the insert is staged
        // per core -- footprint_ is the single structure the private
        // phase would otherwise share -- and merged by stageRounds.
        if (!priv.l1Hit) {
            const PageNum page = pageOf(ref.addr);
            if (stage)
                stage->push_back(page);
            else
                // Justified shared touch: this branch only runs when
                // intraPool_ is null, i.e. the private phase is
                // single-threaded, so the direct insert cannot race.
                // The pooled path stages per core (above) and merges
                // in stageRounds.
                footprint_.insert(page); // toleo-lint: allow(phase-safety)
        }
        if (priv.needsShared()) {
            evs[nev].round = static_cast<std::uint32_t>(k);
            evs[nev].priv = priv;
            ++nev;
        }
    }
    evCount_[core] = nev;
    evPos_[core] = 0;
    if (serving_) {
        // Stage this batch's request boundaries (round index plus the
        // absolute retired-instruction count at completion) for the
        // shared phase to time-stamp.  A post-loop pass over the
        // already-drawn refs keeps the hot loop above untouched; the
        // state is all core-local, so the intra pool needs no
        // synchronization.
        auto &sv = servCores_[core];
        sv.boundaries.clear();
        sv.pos = 0;
        const auto &marks = reqSrcs_[core]->batchBoundaries();
        if (!marks.empty()) {
            std::uint64_t cum = coreInsts_[core];
            std::uint64_t next = 0;
            for (const std::uint32_t m : marks) {
                for (; next <= m; ++next)
                    cum += refs[next].instGap + 1;
                sv.boundaries.push_back({m, cum});
            }
        }
    }
    coreInsts_[core] += insts;
}

void
System::stageRounds(std::uint64_t rounds, bool measuring)
{
    const unsigned cores = cfg_.numCores;
    const double t0 = benchNowNs(cfg_.phaseTimers);

    // Private phase: generator draws and each core's own L1/L2.
    // Per-generator draw order and per-cache operation sequences
    // are exactly those of a one-reference-at-a-time loop; the
    // cores' structures are mutually disjoint, so running them
    // concurrently (static striping, pure function of core id and
    // thread count) cannot reorder anything observable.
    if (intraPool_) {
        intraPool_->run(cores, [this, rounds](unsigned c) {
            privateCore(c, rounds);
        });
        // Merge the staged footprint inserts serially, in core
        // order.  The footprint is a set and its final contents are
        // all that is ever read (size()), so the merge is
        // bit-identical to inline insertion for any thread count.
        for (unsigned c = 0; c < cores; ++c) {
            for (PageNum page : footprintStage_[c])
                // Node-local serialization: footprint_ belongs to
                // this System alone and the rack pool runs one
                // thread per System, so this merge -- like the
                // direct insert in privateCore -- cannot race
                // across nodes.
                footprint_.insert(page); // toleo-lint: allow(phase-safety)
            footprintStage_[c].clear();
        }
    } else {
        for (unsigned c = 0; c < cores; ++c)
            privateCore(c, rounds);
    }

    // Flatten the per-core queues into the staged log in round-robin
    // global order: every round's shared work (L3 slices, memory
    // topology, protection engine) in core order, so the replay
    // feeds each shared structure the exact operation sequence of
    // the one-reference-at-a-time loop.  Each core's queue is
    // already round-ordered, so this is an n-way merge on the round
    // index.  Rounds are numbered globally across the staged batches
    // so a replay of several items is one linear scan.
    for (std::uint64_t k = 0; k < rounds; ++k) {
        for (unsigned c = 0; c < cores; ++c) {
            const std::uint32_t pos = evPos_[c];
            if (pos >= evCount_[c])
                continue;
            const SharedEvent &ev = evBuf_[c * batchRounds + pos];
            if (ev.round != k)
                continue;
            stagedEvents_.push_back(
                {stageRoundBase_ + k, c,
                 refBuf_[c * batchRounds + k].addr, ev.priv});
            evPos_[c] = pos + 1;
        }
        if (serving_ && measuring) {
            // Warmup boundaries are not staged: warmup requests are
            // ignored, so the replay stream carries only live
            // completions.
            for (unsigned c = 0; c < cores; ++c) {
                auto &sv = servCores_[c];
                while (sv.pos < sv.boundaries.size() &&
                       sv.boundaries[sv.pos].round == k) {
                    stagedBoundaries_.push_back(
                        {stageRoundBase_ + k, c,
                         sv.boundaries[sv.pos].insts});
                    ++sv.pos;
                }
            }
        }
    }
    stageRoundBase_ += rounds;

    if (cfg_.phaseTimers)
        phases_.privateNs += benchNowNs(true) - t0;
}

void
System::completeRequest(unsigned core, std::uint64_t instsAtDone)
{
    // Only measured boundaries reach here (stageRounds drops warmup
    // ones); the first after the stats reset only primes the
    // service-time mark (the request it closes spans the reset, so
    // its duration is not a full request's).
    auto &sv = servCores_[core];
    const double now = static_cast<double>(instsAtDone) /
                           (cfg_.baseIpc * cfg_.clockGhz) +
                       coreStallNs_[core];
    if (!sv.primed) {
        sv.primed = true;
        sv.lastMarkNs = now;
        return;
    }
    const double service = std::max(0.0, now - sv.lastMarkNs);
    sv.lastMarkNs = now;

    // Open-loop overlay (Lindley recursion): the closed-loop replay
    // supplies the per-request service time (memory stalls and rack
    // contention included), the seeded arrival process supplies the
    // arrival time, and queueing delay emerges whenever arrivals
    // outpace service.  None of this feeds back into simulated state.
    sv.arrivalNs +=
        drawInterarrivalNs(cfg_.arrival, perCoreRate_, sv.rng);
    const double start = std::max(sv.arrivalNs, sv.lastDoneNs);
    const double done = start + service;
    sv.lastDoneNs = done;
    const double latency = done - sv.arrivalNs;
    const double queue = start - sv.arrivalNs;

    ++servRequests_;
    if (latency <= sloNs_)
        ++servSloMet_;
    servLatSumNs_ += latency;
    servQueueSumNs_ += queue;
    servSvcSumNs_ += service;
    servLatency_.sample(latency);
}

void
System::resetServing()
{
    servLatency_.reset();
    servLatSumNs_ = servQueueSumNs_ = servSvcSumNs_ = 0.0;
    servRequests_ = servSloMet_ = 0;
    for (auto &sv : servCores_) {
        sv.lastMarkNs = sv.arrivalNs = sv.lastDoneNs = 0.0;
        sv.primed = false;
    }
}

void
System::resetMeasurementPrivate()
{
    // Per-core half only: the instruction clocks feed the private
    // phase's serving-boundary staging, so they must be zeroed at the
    // reset's position in the *private* pass.  Everything the shared
    // replay owns resets in resetMeasurementShared().
    hierarchy_.resetStatsPrivate();
    std::fill(coreInsts_.begin(), coreInsts_.end(), 0);
}

void
System::resetMeasurementShared()
{
    // The serving overlay resets here as a whole: its per-core
    // Lindley state (arrival/done clocks, priming) is mutated only by
    // completeRequest, i.e. by the shared replay.
    if (serving_)
        resetServing();
    hierarchy_.resetStatsShared();
    topo_.resetStats();
    engine_->stats().reset();
    if (toleoEngine_)
        toleoEngine_->stealthCache().resetStats();
    readLat_.reset();
    writebacks_ = 0;
    metaBytes_ = 0;
    // The footprint is intentionally *not* reset: it models the RSS,
    // which accumulates from process start (Section 7.2).
    std::fill(coreStallNs_.begin(), coreStallNs_.end(), 0.0);
}

void
System::epochBoundary()
{
    const double t0 = benchNowNs(cfg_.phaseTimers);
    double delta = maxCoreTimeNs() - runLastEpochNs_;
    if (delta <= 0.0)
        delta = 1.0;
    if (invisimem_)
        invisimem_->padEpoch(delta);
    // Throughput floor: if any channel needs longer than the
    // cores' latency-derived time to drain this epoch's traffic,
    // the whole node is bandwidth-bound and time stretches.
    const double required = topo_.requiredEpochNs();
    if (required > delta) {
        const double deficit = required - delta;
        for (auto &stall : coreStallNs_)
            stall += deficit;
        delta = required;
    }
    // Record the epoch observables the rack arbiter consumes before
    // endEpoch() zeroes the per-epoch channel accumulators.  The
    // bandwidth floor above guarantees epochToleoBytes_ <=
    // linkGBps * delta, which is what lets an uncontended shared
    // device always keep up (see runRack()).
    epochToleoBytes_ = topo_.toleoLink().pendingBytes();
    topo_.endEpoch(delta);
    epochWallNs_ = delta;
    ++epochsCompleted_;
    runLastEpochNs_ = maxCoreTimeNs();
    if (cfg_.phaseTimers)
        phases_.epochNs += benchNowNs(true) - t0;
}

// Rounds (one reference per core) until the next epoch boundary
// fires.  Every round adds numCores references, so a per-round epoch
// check reduces to a ceiling division, letting stageRounds() run a
// check-free inner loop.
std::uint64_t
System::roundsToEpoch() const
{
    const std::uint64_t since = runGlobalRefs_ - runEpochMark_;
    const std::uint64_t remaining =
        cfg_.epochRefs > since ? cfg_.epochRefs - since : 0;
    return remaining == 0
               ? 1
               : (remaining + cfg_.numCores - 1) / cfg_.numCores;
}

void
System::beginRun(std::uint64_t warmup_refs, std::uint64_t measure_refs)
{
    runWarmupRefs_ = warmup_refs;
    runMeasureRefs_ = measure_refs;
    runGlobalRefs_ = 0;
    runEpochMark_ = 0;
    runLastEpochNs_ = 0.0;
    runPhaseRefs_ = 0;
    runSampleEvery_ = std::max<std::uint64_t>(
        1, measure_refs / cfg_.timelinePoints);
    runMeasuring_ = false;
    runActive_ = true;
    plan_.clear();
    pendingReplay_ = false;
    runStats_ = SimStats{};
    if (serving_)
        resetServing();
    epochToleoBytes_ = 0;
    epochWallNs_ = 0.0;
    epochsCompleted_ = 0;
}

bool
System::planEpoch()
{
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
        runGlobalRefs_ += chunk * cfg_.numCores;
        runPhaseRefs_ += chunk;
        if (runGlobalRefs_ - runEpochMark_ >= cfg_.epochRefs) {
            plan_.push_back({EpochPlanItem::Kind::Boundary, false, 0});
            runEpochMark_ = runGlobalRefs_;
            return true;
        }
    }

    // Measurement phase: batches run until the earliest of the next
    // epoch boundary, the next timeline-sample round, and one full
    // batch, so neither condition is tested inside the per-reference
    // loop.
    while (runPhaseRefs_ < runMeasureRefs_) {
        std::uint64_t chunk =
            std::min({runMeasureRefs_ - runPhaseRefs_, roundsToEpoch(),
                      batchRounds});
        bool sample_due = false;
        if (devp_) {
            // Next round index ending in a timeline sample.
            const std::uint64_t next_sample =
                (runPhaseRefs_ + runSampleEvery_ - 1) /
                runSampleEvery_ * runSampleEvery_;
            if (next_sample < runMeasureRefs_ &&
                next_sample - runPhaseRefs_ + 1 <= chunk) {
                chunk = next_sample - runPhaseRefs_ + 1;
                sample_due = true;
            }
        }
        plan_.push_back({EpochPlanItem::Kind::Run, true, chunk});
        runGlobalRefs_ += chunk * cfg_.numCores;
        runPhaseRefs_ += chunk;
        bool fired = false;
        if (runGlobalRefs_ - runEpochMark_ >= cfg_.epochRefs) {
            plan_.push_back({EpochPlanItem::Kind::Boundary, false, 0});
            runEpochMark_ = runGlobalRefs_;
            fired = true;
        }
        // Order matters: a sample due on a boundary round records
        // *after* the boundary.
        if (sample_due)
            plan_.push_back({EpochPlanItem::Kind::Sample, false, 0});
        if (fired)
            return true;
    }

    // Window exhausted: close the final (possibly partial) epoch and
    // report completion.
    plan_.push_back({EpochPlanItem::Kind::Boundary, false, 0});
    runActive_ = false;
    return false;
}

void
System::recordTimelineSample(std::uint64_t insts,
                             std::uint64_t footprintPages)
{
    // Usage = statically mapped flat entries for the RSS (the
    // touched footprint) + dynamic entries (Fig 12).
    const std::uint64_t usage = footprintPages * flatEntryBytes +
                                devp_->store().dynamicBytes();
    runStats_.usageTimeline.emplace_back(insts, usage);
}

void
System::clearStaged()
{
    stagedEvents_.clear();
    stagedBoundaries_.clear();
    stagedSamples_.clear();
    stageRoundBase_ = 0;
    replay_ = ReplayCursor{};
}

void
System::runItemPrivate(const EpochPlanItem &item)
{
    switch (item.kind) {
      case EpochPlanItem::Kind::Run:
        stageRounds(item.rounds, item.measuring);
        break;
      case EpochPlanItem::Kind::Reset:
        resetMeasurementPrivate();
        break;
      case EpochPlanItem::Kind::Boundary:
        // Entirely shared work.
        break;
      case EpochPlanItem::Kind::Sample: {
        // Capture the private-side observables now; the shared half
        // pairs them with the store's live dynamicBytes().
        std::uint64_t insts = 0;
        for (unsigned c = 0; c < cfg_.numCores; ++c)
            insts += coreInsts_[c];
        stagedSamples_.push_back({insts, footprint_.size()});
        break;
      }
    }
}

void
System::runItemShared(const EpochPlanItem &item)
{
    switch (item.kind) {
      case EpochPlanItem::Kind::Run: {
        const double t0 = benchNowNs(cfg_.phaseTimers);
        // Linear scan over this item's slice of the staged logs.
        // Both are (round, core)-ordered; within a round every shared
        // event replays before any completion, so each boundary
        // core's stall clock is final for that point in time.
        const std::uint64_t end = replay_.round + item.rounds;
        std::size_t ev = replay_.event;
        std::size_t bd = replay_.boundary;
        while (true) {
            const bool haveEv = ev < stagedEvents_.size() &&
                                stagedEvents_[ev].round < end;
            const bool haveBd = bd < stagedBoundaries_.size() &&
                                stagedBoundaries_[bd].round < end;
            if (!haveEv && !haveBd)
                break;
            if (haveEv && (!haveBd || stagedEvents_[ev].round <=
                                          stagedBoundaries_[bd].round)) {
                const StagedSharedEvent &e = stagedEvents_[ev];
                stepShared(e.core, e.addr, e.priv);
                ++ev;
            } else {
                const StagedRequestBoundary &b = stagedBoundaries_[bd];
                completeRequest(b.core, b.insts);
                ++bd;
            }
        }
        replay_.round = end;
        replay_.event = ev;
        replay_.boundary = bd;
        if (cfg_.phaseTimers)
            phases_.sharedNs += benchNowNs(true) - t0;
        break;
      }
      case EpochPlanItem::Kind::Reset:
        resetMeasurementShared();
        runLastEpochNs_ = 0.0;
        break;
      case EpochPlanItem::Kind::Boundary:
        epochBoundary();
        break;
      case EpochPlanItem::Kind::Sample: {
        const StagedSample &s = stagedSamples_[replay_.sample++];
        recordTimelineSample(s.insts, s.footprintPages);
        break;
      }
    }
}

bool
System::stepEpoch()
{
    if (!runActive_)
        return false;
    if (pendingReplay_)
        throw std::logic_error(
            "System::stepEpoch: a staged epoch awaits "
            "replayEpochShared()");

    // Each item's shared half right after its private half: the
    // staged log never holds more than one batch.
    const bool more = planEpoch();
    for (const EpochPlanItem &item : plan_) {
        clearStaged();
        runItemPrivate(item);
        runItemShared(item);
    }
    return more;
}

bool
System::stepEpochPrivate()
{
    if (!runActive_)
        return false;
    if (pendingReplay_)
        throw std::logic_error(
            "System::stepEpochPrivate: a staged epoch awaits "
            "replayEpochShared()");

    const bool more = planEpoch();
    clearStaged();
    for (const EpochPlanItem &item : plan_)
        runItemPrivate(item);
    pendingReplay_ = true;
    return more;
}

void
System::replayEpochShared()
{
    if (!pendingReplay_)
        throw std::logic_error(
            "System::replayEpochShared: no staged epoch (call "
            "stepEpochPrivate first)");
    pendingReplay_ = false;
    for (const EpochPlanItem &item : plan_)
        runItemShared(item);
}

SimStats
System::run(std::uint64_t warmup_refs, std::uint64_t measure_refs)
{
    beginRun(warmup_refs, measure_refs);
    while (stepEpoch()) {
    }
    return finishRun();
}

void
System::addRackStallNs(double ns)
{
    // Strict no-op for ns <= 0 so an uncontended rack node stays
    // bit-identical to a standalone run.
    if (ns <= 0.0)
        return;
    for (auto &stall : coreStallNs_)
        stall += ns;
}

SimStats
System::finishRun()
{
    // Collect the report.
    SimStats out = std::move(runStats_);
    out.workload = cfg_.workload;
    out.engine = engine_->name();
    for (unsigned c = 0; c < cfg_.numCores; ++c)
        out.instructions += coreInsts_[c];
    out.refs = runMeasureRefs_ * cfg_.numCores;
    out.llcMisses = hierarchy_.llcMisses();
    out.llcWritebacks = writebacks_;
    out.execSeconds = maxCoreTimeNs() * 1e-9;
    out.ipc = static_cast<double>(out.instructions) /
              (maxCoreTimeNs() * cfg_.clockGhz) / cfg_.numCores;
    out.llcMpki = 1000.0 * static_cast<double>(out.llcMisses) /
                  static_cast<double>(out.instructions);

    out.avgReadLatencyNs = readLat_.meanTotal();
    out.avgDramLatencyNs = readLat_.meanDram();
    out.avgMetaLatencyNs = readLat_.meanMeta();

    const double insts = static_cast<double>(out.instructions);
    const std::uint64_t data_bytes =
        (out.llcMisses + out.llcWritebacks) * blockSize;
    if (auto *ci = dynamic_cast<CiEngine *>(engine_.get()))
        out.macCacheHitRate = ci->macCacheHitRate();
    if (toleoEngine_)
        out.stealthCacheHitRate =
            toleoEngine_->stealthCache().hitRate();
    out.dataBpi = static_cast<double>(data_bytes) / insts;
    out.macBpi = static_cast<double>(metaBytes_) / insts;
    out.stealthBpi = static_cast<double>(topo_.toleoBytes()) / insts;
    out.dummyBpi =
        invisimem_
            ? static_cast<double>(invisimem_->dummyBytes()) / insts
            : 0.0;

    if (devp_) {
        // Page classification over the *RSS*: read-only and resident-
        // but-cold pages never leave flat (their statically mapped
        // entry), exactly as the paper derives flat usage from the
        // OS-reported RSS (Section 7.2).  With a shared rack device
        // the store-side counts aggregate every node (one version
        // store really does hold the whole rack); per-node splits
        // live in RackStats.
        const auto b = devp_->store().breakdown();
        const std::uint64_t fp = std::max<std::uint64_t>(
            footprint_.size(),
            winfo_.simFootprintBytes / pageSize * cfg_.numCores);
        out.trip.uneven = b.uneven;
        out.trip.full = b.full;
        out.trip.flat = fp >= b.uneven + b.full
                            ? fp - b.uneven - b.full
                            : 0;

        const std::uint64_t usage =
            fp * flatEntryBytes + devp_->store().dynamicBytes();
        out.toleoPeakUsageBytes = usage;

        const double pages_per_tb = 1e12 / pageSize;
        if (fp > 0) {
            out.usagePerTb.flatGb =
                pages_per_tb * flatEntryBytes / 1e9;
            out.usagePerTb.unevenGb =
                pages_per_tb *
                (static_cast<double>(b.uneven) / fp) *
                unevenEntryBytes / 1e9;
            out.usagePerTb.fullGb =
                pages_per_tb * (static_cast<double>(b.full) / fp) *
                fullEntryAllocBytes / 1e9;
        }
        out.avgEntryBytesPerPage =
            fp > 0 ? static_cast<double>(usage) / fp
                   : static_cast<double>(flatEntryBytes);
        out.toleoResets = devp_->store().resets();
        out.toleoUpgrades = devp_->store().upgradesToUneven() +
                            devp_->store().upgradesToFull();
    }

    if (serving_) {
        ServingStats &sv = out.serving;
        sv.arrival = arrivalKindName(cfg_.arrival.kind);
        sv.offeredRatePerSec = cfg_.arrival.ratePerSec;
        sv.sloUs = cfg_.arrival.sloUs;
        sv.requests = servRequests_;
        sv.sloMet = servSloMet_;
        double done_span = 0.0;
        double arrival_span = 0.0;
        for (const auto &core : servCores_) {
            done_span = std::max(done_span, core.lastDoneNs);
            arrival_span = std::max(arrival_span, core.arrivalNs);
        }
        const double req = static_cast<double>(servRequests_);
        sv.spanSeconds = done_span * 1e-9;
        sv.offeredRps =
            arrival_span > 0.0 ? req / (arrival_span * 1e-9) : 0.0;
        sv.completedRps =
            done_span > 0.0 ? req / (done_span * 1e-9) : 0.0;
        sv.goodputRps = done_span > 0.0
                            ? static_cast<double>(servSloMet_) /
                                  (done_span * 1e-9)
                            : 0.0;
        sv.sloAttainment =
            servRequests_
                ? static_cast<double>(servSloMet_) / req
                : 0.0;
        sv.meanLatencyUs =
            servRequests_ ? servLatSumNs_ / req * 1e-3 : 0.0;
        sv.meanQueueUs =
            servRequests_ ? servQueueSumNs_ / req * 1e-3 : 0.0;
        sv.meanServiceUs =
            servRequests_ ? servSvcSumNs_ / req * 1e-3 : 0.0;
        sv.p50LatencyUs = servLatency_.percentileNs(0.50) * 1e-3;
        sv.p99LatencyUs = servLatency_.percentileNs(0.99) * 1e-3;
        sv.p999LatencyUs = servLatency_.percentileNs(0.999) * 1e-3;
        sv.maxLatencyUs = servLatency_.maxNs() * 1e-3;
        sv.latency = servLatency_;
    }

    // Flush the capture (warmup + measurement) so a replay of the
    // same window consumes exactly the recorded stream.
    if (traceWriter_)
        traceWriter_->writeTo(cfg_.recordTracePath);
    return out;
}

SystemConfig
makeScaledConfig(const std::string &workload, EngineKind kind,
                 unsigned cores)
{
    SystemConfig cfg;
    cfg.workload = workload;
    cfg.engine = kind;
    cfg.numCores = cores;

    // Caches scale so the 10^5-ref windows reach eviction steady
    // state; associativities and latencies stay at paper values.
    cfg.caches.l1Bytes = 16 * KiB;
    cfg.caches.l1Assoc = 8;
    cfg.caches.l2Bytes = 64 * KiB;
    cfg.caches.l2Assoc = 16;
    cfg.caches.l3SliceBytes = 1 * MiB;
    cfg.caches.l3Assoc = 16;

    // MAC cache scales like the paper's 32 KB/core.
    cfg.ci.macCacheBytes = std::max<std::uint64_t>(
        8 * KiB, cores * 4 * KiB);
    cfg.toleo.ci = cfg.ci;

    // Channel bandwidth scales with the core count (the paper's
    // 32-core node has 3 DDR channels + one x8 CXL pool link).
    const double scale = static_cast<double>(cores) / 32.0;
    cfg.mem.ddrChannels =
        std::max(1u, static_cast<unsigned>(3 * scale + 0.5));
    cfg.mem.ddrBandwidthGBps =
        25.6 * (3.0 * scale) / cfg.mem.ddrChannels;
    cfg.mem.cxlPoolBandwidthGBps = 12.7 * scale;
    // Keep the paper's Toleo-link : data-bandwidth ratio (3.32 of
    // 89.5 GB/s = 3.7%), which is what determines whether the
    // version link ever becomes the bottleneck.
    cfg.mem.toleoLinkBandwidthGBps =
        0.037 * (cfg.mem.ddrChannels * cfg.mem.ddrBandwidthGBps +
                 cfg.mem.cxlPoolBandwidthGBps);

    return cfg;
}

Json
statsToJson(const SimStats &stats)
{
    Json j = Json::object();
    j["workload"] = stats.workload;
    j["engine"] = stats.engine;
    j["instructions"] = stats.instructions;
    j["refs"] = stats.refs;
    j["llcMisses"] = stats.llcMisses;
    j["llcWritebacks"] = stats.llcWritebacks;
    j["execSeconds"] = stats.execSeconds;
    j["ipc"] = stats.ipc;
    j["llcMpki"] = stats.llcMpki;
    j["avgReadLatencyNs"] = stats.avgReadLatencyNs;
    j["avgDramLatencyNs"] = stats.avgDramLatencyNs;
    j["avgMetaLatencyNs"] = stats.avgMetaLatencyNs;
    j["dataBpi"] = stats.dataBpi;
    j["macBpi"] = stats.macBpi;
    j["stealthBpi"] = stats.stealthBpi;
    j["dummyBpi"] = stats.dummyBpi;
    j["macCacheHitRate"] = stats.macCacheHitRate;
    j["stealthCacheHitRate"] = stats.stealthCacheHitRate;

    Json trip = Json::object();
    trip["flatPages"] = stats.trip.flat;
    trip["unevenPages"] = stats.trip.uneven;
    trip["fullPages"] = stats.trip.full;
    j["trip"] = std::move(trip);

    Json usage = Json::object();
    usage["flatGbPerTb"] = stats.usagePerTb.flatGb;
    usage["unevenGbPerTb"] = stats.usagePerTb.unevenGb;
    usage["fullGbPerTb"] = stats.usagePerTb.fullGb;
    usage["totalGbPerTb"] = stats.usagePerTb.totalGb();
    j["usagePerTb"] = std::move(usage);

    j["toleoPeakUsageBytes"] = stats.toleoPeakUsageBytes;
    j["avgEntryBytesPerPage"] = stats.avgEntryBytesPerPage;
    j["toleoResets"] = stats.toleoResets;
    j["toleoUpgrades"] = stats.toleoUpgrades;

    Json timeline = Json::array();
    for (const auto &sample : stats.usageTimeline) {
        Json point = Json::array();
        point.push_back(sample.first);
        point.push_back(sample.second);
        timeline.push_back(std::move(point));
    }
    j["usageTimeline"] = std::move(timeline);
    // Open-loop serving block: only present when the run actually
    // served, so closed-mode output stays byte-identical to the
    // goldens and the committed bench records.
    if (!stats.serving.arrival.empty())
        j["serving"] = servingStatsToJson(stats.serving);
    return j;
}

Json
servingStatsToJson(const ServingStats &stats)
{
    Json j = Json::object();
    j["arrival"] = stats.arrival;
    j["offeredRatePerSec"] = stats.offeredRatePerSec;
    j["sloUs"] = stats.sloUs;
    j["requests"] = stats.requests;
    j["sloMet"] = stats.sloMet;
    j["spanSeconds"] = stats.spanSeconds;
    j["offeredRps"] = stats.offeredRps;
    j["completedRps"] = stats.completedRps;
    j["goodputRps"] = stats.goodputRps;
    j["sloAttainment"] = stats.sloAttainment;
    j["meanLatencyUs"] = stats.meanLatencyUs;
    j["meanQueueUs"] = stats.meanQueueUs;
    j["meanServiceUs"] = stats.meanServiceUs;

    Json pct = Json::object();
    pct["p50Us"] = stats.p50LatencyUs;
    pct["p99Us"] = stats.p99LatencyUs;
    pct["p999Us"] = stats.p999LatencyUs;
    pct["maxUs"] = stats.maxLatencyUs;
    j["latencyPercentilesUs"] = std::move(pct);

    // Summary of the mergeable distribution itself (the full bucket
    // array stays in-memory only; rack aggregation merges it before
    // serializing, so rack percentiles cover all nodes' requests).
    Json lat = Json::object();
    lat["count"] = stats.latency.count();
    lat["minUs"] = stats.latency.minNs() * 1e-3;
    lat["maxUs"] = stats.latency.maxNs() * 1e-3;
    lat["meanUs"] = stats.latency.meanNs() * 1e-3;
    lat["p90Us"] = stats.latency.percentileNs(0.90) * 1e-3;
    j["latencyHistogram"] = std::move(lat);
    return j;
}

std::string
statsCsvHeader()
{
    return "workload,engine,instructions,refs,llcMisses,"
           "llcWritebacks,execSeconds,ipc,llcMpki,avgReadLatencyNs,"
           "avgDramLatencyNs,avgMetaLatencyNs,dataBpi,macBpi,"
           "stealthBpi,dummyBpi,macCacheHitRate,stealthCacheHitRate,"
           "tripFlatPages,tripUnevenPages,tripFullPages,"
           "toleoPeakUsageBytes,avgEntryBytesPerPage,toleoResets,"
           "toleoUpgrades,arrival,offeredRatePerSec,sloUs,"
           "servedRequests,sloMet,spanSeconds,offeredRps,"
           "completedRps,goodputRps,sloAttainment,meanLatencyUs,"
           "meanQueueUs,meanServiceUs,p50LatencyUs,p99LatencyUs,"
           "p999LatencyUs,maxLatencyUs";
}

std::string
statsCsvRow(const SimStats &stats)
{
    std::ostringstream os;
    os << stats.workload << ',' << stats.engine << ','
       << stats.instructions << ',' << stats.refs << ','
       << stats.llcMisses << ',' << stats.llcWritebacks << ','
       << stats.execSeconds << ',' << stats.ipc << ','
       << stats.llcMpki << ',' << stats.avgReadLatencyNs << ','
       << stats.avgDramLatencyNs << ',' << stats.avgMetaLatencyNs
       << ',' << stats.dataBpi << ',' << stats.macBpi << ','
       << stats.stealthBpi << ',' << stats.dummyBpi << ','
       << stats.macCacheHitRate << ',' << stats.stealthCacheHitRate
       << ',' << stats.trip.flat << ',' << stats.trip.uneven << ','
       << stats.trip.full << ',' << stats.toleoPeakUsageBytes << ','
       << stats.avgEntryBytesPerPage << ',' << stats.toleoResets
       << ',' << stats.toleoUpgrades << ','
       << (stats.serving.arrival.empty() ? "closed"
                                         : stats.serving.arrival)
       << ',' << stats.serving.offeredRatePerSec << ','
       << stats.serving.sloUs << ',' << stats.serving.requests << ','
       << stats.serving.sloMet << ',' << stats.serving.spanSeconds
       << ',' << stats.serving.offeredRps << ','
       << stats.serving.completedRps << ','
       << stats.serving.goodputRps << ','
       << stats.serving.sloAttainment << ','
       << stats.serving.meanLatencyUs << ','
       << stats.serving.meanQueueUs << ','
       << stats.serving.meanServiceUs << ','
       << stats.serving.p50LatencyUs << ','
       << stats.serving.p99LatencyUs << ','
       << stats.serving.p999LatencyUs << ','
       << stats.serving.maxLatencyUs;
    return os.str();
}

void
printConfig(const SystemConfig &cfg, std::ostream &os)
{
    const auto &cc = cfg.caches;
    const auto &mm = cfg.mem;
    os << "Processor        " << cfg.clockGhz << " GHz, "
       << cfg.numCores << " cores (base IPC " << cfg.baseIpc << ")\n"
       << "L1-I/D cache     " << cc.l1Bytes / KiB << " KB per core, "
       << cc.l1Assoc << "-way, " << cc.l1Latency << " cycles, LRU\n"
       << "L2 cache         " << cc.l2Bytes / MiB << " MB per core, "
       << cc.l2Assoc << "-way, " << cc.l2Latency << " cycles, LRU\n"
       << "L3 cache         " << cc.l3SliceBytes / MiB
       << " MB shared by every " << cc.coresPerL3Slice << " cores, "
       << cc.l3Assoc << "-way, " << cc.l3Latency << " cycles, LRU\n"
       << "DRAM             DDR4-3200, " << mm.ddrChannels
       << " channels x " << mm.ddrBandwidthGBps << " GB/s, "
       << mm.ddrLatencyNs << " ns\n"
       << "CXL mem pool     PCIe5 x8 " << mm.cxlPoolBandwidthGBps
       << " GB/s, +" << mm.cxlPoolLatencyNs << " ns (retimer)\n"
       << "Toleo link       CXL2.0 IDE PCIe5 x2 "
       << mm.toleoLinkBandwidthGBps << " GB/s, +"
       << mm.toleoLinkLatencyNs << " ns; HMC2 "
       << mm.toleoDramLatencyNs << " ns"
       << (mm.ideSkidMode ? " (skid mode)" : "") << "\n"
       << "AES engine       " << cfg.ci.crypto.aesLatency
       << " cycles latency, 1/cycle throughput\n"
       << "MAC cache        " << cfg.ci.macCacheBytes / KiB << " KB, "
       << cfg.ci.macCacheAssoc << "-way, LRU\n"
       << "L2 TLB ext.      " << cfg.toleo.stealth.tlbEntries
       << " entries, fully assoc, +" << cfg.toleo.stealth.tlbExtBytes
       << " B/entry\n"
       << "Stealth buf.     " << cfg.toleo.stealth.overflowBytes / KiB
       << " KB, " << cfg.toleo.stealth.overflowAssoc << "-way, "
       << cfg.toleo.stealth.overflowBlockBytes << " B blocks\n"
       << "Toleo device     "
       << cfg.device.capacityBytes / 1000000000 << " GB capacity, "
       << "protects " << cfg.device.protectedBytes / 1000000000000.0
       << " TB\n";
}

} // namespace toleo
