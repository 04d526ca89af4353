#include "sim/system.hh"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "crypto/timing.hh"
#include "secmem/noprotect.hh"
#include "workload/trace_file.hh"

namespace toleo {

namespace {

/** Base retire rate with a perfect memory system (the paper's
 *  data-intensive workloads run near CPI 1 on the 6-wide core). */
constexpr double baseIpc = 1.25;

/** @p cfg, once every setting a System cannot run with is rejected
 *  by a std::invalid_argument that names the field. */
const SystemConfig &
checked(const SystemConfig &cfg)
{
    if (cfg.caches.numCores != cfg.numCores)
        throw std::invalid_argument(
            "System: caches.numCores differs from numCores");
    if (cfg.arrival.open()) {
        if (!std::isfinite(cfg.arrival.ratePerSec) ||
            cfg.arrival.ratePerSec <= 0.0)
            throw std::invalid_argument(
                "System: open-loop arrival needs a positive finite "
                "ratePerSec");
        if (!std::isfinite(cfg.arrival.sloUs) || cfg.arrival.sloUs <= 0.0)
            throw std::invalid_argument(
                "System: open-loop arrival needs a positive finite "
                "sloUs");
        if (cfg.arrival.requestRefs == 0)
            throw std::invalid_argument(
                "System: arrival.requestRefs must be >= 1");
        // The draws drawInterarrivalNs makes: a rate too small for
        // the per-core mean, or a CV too large for the lognormal's
        // variance, overflows to inf and every latency clamps.
        if (!std::isfinite(1e9 / (cfg.arrival.ratePerSec / cfg.numCores)))
            throw std::invalid_argument(
                "System: arrival.ratePerSec gives a non-finite "
                "per-core mean interarrival");
        if (cfg.arrival.kind == ArrivalKind::Burst &&
            !std::isfinite(std::log1p(cfg.arrival.cv * cfg.arrival.cv)))
            throw std::invalid_argument(
                "System: arrival.cv gives a non-finite lognormal "
                "variance");
    }
    return cfg;
}

/**
 * Every core's private phase: its generator and its L1/L2.  These
 * are all a front end is handed, and each generator writes only its
 * own state.
 */
std::vector<CoreFront>
coreFronts(const SystemConfig &cfg, const WorkloadInfo &winfo,
           CacheHierarchy &caches)
{
    std::vector<CoreFront> cores;
    cores.reserve(cfg.numCores);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        std::unique_ptr<TraceGen> gen =
            cfg.trace
                ? std::make_unique<TraceReplayGen>(winfo, cfg.trace, c)
                : makeWorkload(cfg.workload, c, cfg.seed);
        // Open-loop serving overlay: the RequestSource wrapper makes
        // the stream carry request ends.  It forwards draws unchanged
        // and the arrival process never feeds back into simulated
        // state, so every non-serving statistic is bit-identical to
        // the closed-loop run of the same config.
        if (cfg.arrival.open())
            gen = std::make_unique<RequestSource>(
                std::move(gen), cfg.arrival.requestRefs);
        cores.emplace_back(std::move(gen), caches.privateCaches(c));
    }
    return cores;
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
    : cfg_(checked(cfg)), topo_(cfg.mem), hierarchy_(cfg.caches),
      winfo_(workloadInfo(cfg.workload)),
      front_(coreFronts(cfg, winfo_, hierarchy_),
             {cfg.epochRefs, cfg.intraThreads, cfg.phaseTimers})
{
    switch (cfg.engine) {
      case EngineKind::NoProtect:
        engine_ = std::make_unique<NoProtectEngine>(topo_);
        break;
      case EngineKind::C:
        engine_ = std::make_unique<CiEngine>(topo_, cfg.ci, false);
        break;
      case EngineKind::CI:
        engine_ = std::make_unique<CiEngine>(topo_, cfg.ci, true);
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
        auto eng = std::make_unique<ToleoEngine>(topo_, *devp_, cfg.ci,
                                                 cfg.stealth);
        toleoEngine_ = eng.get();
        engine_ = std::move(eng);
        break;
      }
      case EngineKind::InvisiMem: {
        auto eng = std::make_unique<InvisiMemEngine>(topo_);
        invisimem_ = eng.get();
        engine_ = std::move(eng);
        break;
      }
      case EngineKind::Merkle:
        engine_ = std::make_unique<MerkleTreeEngine>(topo_, cfg.merkle);
        break;
    }

    if (cfg.trace && cfg.trace->workload() != cfg.workload)
        warn("the trace was captured from workload '%s' but is "
             "replayed under '%s' metadata",
             cfg.trace->workload().c_str(), cfg.workload.c_str());

    serving_ = cfg.arrival.open();
    if (serving_) {
        sloNs_ = cfg.arrival.sloUs * 1000.0;
        perCoreRate_ = cfg.arrival.ratePerSec / cfg.numCores;
        servCores_.resize(cfg.numCores);
        // Dedicated streams, decorrelated from the workload draws:
        // the arrival process must not mirror or perturb them.
        for (unsigned c = 0; c < cfg.numCores; ++c)
            servCores_[c].rng =
                Rng(cfg.seed ^ 0x517cc1b727220a95ULL ^
                    (static_cast<std::uint64_t>(c) *
                     0x9e3779b97f4a7c15ULL));
    }

    coreStallNs_.assign(cfg.numCores, 0.0);
}

System::~System() = default;

double
System::coreTimeNs(unsigned core, std::uint64_t insts) const
{
    return static_cast<double>(insts) / (baseIpc * coreClockGhz) +
           coreStallNs_[core];
}

double
System::maxCoreTimeNs() const
{
    double m = 0.0;
    for (unsigned c = 0; c < cfg_.numCores; ++c)
        m = std::max(m, coreTimeNs(c, front_.coreInsts(c)));
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

    // RSS tracking: lines fill only on demand references and dirty
    // spills only mark lines already present, so no block of an
    // untouched page is resident anywhere and a page's first
    // reference always lands here.
    const PageNum page = pageOf(addr);
    footprint_.insert(page);

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
System::completeRequest(unsigned core, std::uint64_t instsAtDone)
{
    // Only a serving run's measured request ends reach here (see
    // runItemShared); the first after the stats reset only primes the
    // service-time mark (the request it closes spans the reset, so
    // its duration is not a full request's).
    auto &sv = servCores_[core];
    const double now = coreTimeNs(core, instsAtDone);
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
    // Past 2^53 ns a double no longer resolves 1 ns (every latency
    // rounds to 0), and near the top of the range the clock
    // overflows to inf.
    if (!(sv.arrivalNs < 0x1p53))
        throw std::range_error(
            "System: a core's arrival clock passed 2^53 ns; "
            "arrival.ratePerSec is too low for the window");
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
System::resetMeasurementShared()
{
    // The serving overlay resets here as a whole: its per-core
    // Lindley state (arrival/done clocks, priming) is mutated only by
    // completeRequest, i.e. by the shared replay.
    if (serving_)
        resetServing();
    hierarchy_.resetLlcStats();
    topo_.resetStats();
    engine_->resetMeasurement();
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
    const double t0 = phaseClockNs(cfg_.phaseTimers);
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
        phases_.epochNs += phaseClockNs(true) - t0;
}

void
System::beginRun(std::uint64_t warmup_refs, std::uint64_t measure_refs)
{
    front_.beginRun(warmup_refs, measure_refs);
    runLastEpochNs_ = 0.0;
    if (serving_)
        resetServing();
    epochToleoBytes_ = 0;
    epochWallNs_ = 0.0;
    epochsCompleted_ = 0;
}

void
System::runItemShared(const EpochPlanItem &item)
{
    switch (item.kind) {
      case EpochPlanItem::Kind::Run: {
        const double t0 = phaseClockNs(cfg_.phaseTimers);
        // One pass over this batch's slice, in (round, core) order.
        // A step's request end follows its own event, so that core's
        // stall clock is final for that point in time; completeRequest
        // reads no other core's clock and stepShared no serving state,
        // so every shared structure and every serving sum sees the
        // order of the one-reference-at-a-time loop.  The front end
        // stages every request end; only a serving run's measured
        // ones count (warmup requests are ignored).
        const bool completions = serving_ && item.measuring;
        const std::vector<StagedStep> &staged = front_.staged();
        for (std::size_t i = item.begin; i < item.end; ++i) {
            const StagedStep &step = staged[i];
            if (step.priv.needsShared())
                stepShared(step.core, step.addr, step.priv);
            if (completions && step.doneInsts)
                completeRequest(step.core, step.doneInsts);
        }
        if (cfg_.phaseTimers)
            phases_.sharedNs += phaseClockNs(true) - t0;
        break;
      }
      case EpochPlanItem::Kind::Reset:
        resetMeasurementShared();
        runLastEpochNs_ = 0.0;
        break;
      case EpochPlanItem::Kind::Boundary:
        epochBoundary();
        break;
    }
}

bool
System::stepEpoch()
{
    if (!front_.active())
        return false;
    // Each item's shared half right after its private half: the
    // staged log never holds more than one batch.
    const bool more = front_.planEpoch();
    for (std::size_t i = 0; i < front_.plan().size(); ++i)
        runItemShared(front_.stageItem(i));
    return more;
}

void
System::replayEpochShared()
{
    for (const EpochPlanItem &item : front_.takeStagedEpoch())
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
    SimStats out;
    out.workload = cfg_.workload;
    out.engine = engine_->name();
    out.instructions = front_.insts();
    out.refs = front_.measureRefs() * cfg_.numCores;
    out.llcMisses = hierarchy_.llcMisses();
    out.llcWritebacks = writebacks_;
    out.execSeconds = maxCoreTimeNs() * 1e-9;
    out.ipc = static_cast<double>(out.instructions) /
              (maxCoreTimeNs() * coreClockGhz) / cfg_.numCores;
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
        // Flat entries are mapped for the OS-reported RSS (Section
        // 7.2): the touched footprint, or the workload's declared
        // footprint where the window leaves resident pages cold.
        out.usage = devp_->store().usage(
            footprint_.size(),
            winfo_.simFootprintBytes / pageSize * cfg_.numCores);
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
    cfg.caches.numCores = cores;

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

    const TripStore::Usage &u = stats.usage;
    Json trip = Json::object();
    trip["flatPages"] = u.flatPages;
    trip["unevenPages"] = u.unevenPages;
    trip["fullPages"] = u.fullPages;
    j["trip"] = std::move(trip);

    Json perTb = Json::object();
    perTb["flatGbPerTb"] = u.flatGbPerTb;
    perTb["unevenGbPerTb"] = u.unevenGbPerTb;
    perTb["fullGbPerTb"] = u.fullGbPerTb;
    perTb["totalGbPerTb"] = u.totalGbPerTb();
    j["usagePerTb"] = std::move(perTb);

    j["toleoPeakUsageBytes"] = u.bytes;
    j["avgEntryBytesPerPage"] = u.avgEntryBytesPerPage;
    j["toleoResets"] = stats.toleoResets;
    j["toleoUpgrades"] = stats.toleoUpgrades;
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
       << ',' << stats.usage.flatPages << ','
       << stats.usage.unevenPages << ',' << stats.usage.fullPages
       << ',' << stats.usage.bytes << ','
       << stats.usage.avgEntryBytesPerPage << ',' << stats.toleoResets
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
    // Table 3's L1/L2/L3 hit latencies, in cycles.
    constexpr Cycles l1Latency = 4;
    constexpr Cycles l2Latency = 14;
    constexpr Cycles l3Latency = 49;

    // MB when the size is a whole number of MiB (Table 3's node),
    // KB otherwise (a scaled node's 64 KB L2).
    const auto mbOrKb = [](std::uint64_t bytes) {
        return bytes % MiB == 0 ? std::to_string(bytes / MiB) + " MB"
                                : std::to_string(bytes / KiB) + " KB";
    };

    const auto &cc = cfg.caches;
    const auto &mm = cfg.mem;
    os << "Processor        " << coreClockGhz << " GHz, "
       << cfg.numCores << " cores (base IPC " << baseIpc << ")\n"
       << "L1-I/D cache     " << cc.l1Bytes / KiB << " KB per core, "
       << cc.l1Assoc << "-way, " << l1Latency << " cycles, LRU\n"
       << "L2 cache         " << mbOrKb(cc.l2Bytes) << " per core, "
       << cc.l2Assoc << "-way, " << l2Latency << " cycles, LRU\n"
       << "L3 cache         " << mbOrKb(cc.l3SliceBytes)
       << " shared by every " << cc.coresPerL3Slice << " cores, "
       << cc.l3Assoc << "-way, " << l3Latency << " cycles, LRU\n"
       << "DRAM             DDR4-3200, " << mm.ddrChannels
       << " channels x " << mm.ddrBandwidthGBps << " GB/s, "
       << ddrLatencyNs << " ns\n"
       << "CXL mem pool     PCIe5 x8 " << mm.cxlPoolBandwidthGBps
       << " GB/s, +" << cxlPoolLatencyNs << " ns (retimer)\n"
       << "Toleo link       CXL2.0 IDE PCIe5 x2 "
       << mm.toleoLinkBandwidthGBps << " GB/s, +" << toleoLinkLatencyNs
       << " ns; HMC2 " << toleoDramLatencyNs << " ns"
       << (mm.ideSkidMode ? " (skid mode)" : "") << "\n"
       << "AES engine       " << aesLatency
       << " cycles latency, 1/cycle throughput\n"
       << "MAC cache        " << cfg.ci.macCacheBytes / KiB << " KB, "
       << cfg.ci.macCacheAssoc << "-way, LRU\n"
       << "L2 TLB ext.      " << cfg.stealth.tlbEntries
       << " entries, fully assoc, +" << StealthCache::tlbExtBytes
       << " B/entry\n"
       << "Stealth buf.     " << cfg.stealth.overflowBytes / KiB
       << " KB, " << StealthCache::overflowAssoc << "-way, "
       << StealthCache::overflowBlockBytes << " B blocks\n"
       << "Toleo device     "
       << cfg.device.capacityBytes / 1000000000 << " GB capacity, "
       << "protects " << cfg.device.protectedBytes / 1000000000000.0
       << " TB\n";
}

} // namespace toleo
