/**
 * @file
 * perfbench_driver: runs one benchmark workload against toleo_core's
 * public API and writes the raw measurements as JSON for run.py to
 * reduce.
 *
 *   perfbench_driver --workload paper-grid|rack4|serve64 --seed N
 *                    --seconds S --trace 0|1 --out FILE
 *                    [--spans FILE] [--smoke]
 *
 * Every operation is one simulation -- a grid cell, a System, or a
 * rack -- run closed-loop: the next starts when the last returns.
 * Each records host times (set-up, run, report), the digest of its
 * statsToJson/rackStatsToJson bytes, the statistics run.py's
 * correctness gate checks, and the host's speed just after it: the
 * time of a fixed kernel that shares no code with toleo_core.
 *
 * --trace 1 adds the per-layer measurements, all taken from outside
 * the library: a span around every public call (kept in memory and
 * written to --spans at exit), System::phaseTimes() deltas after each
 * stepEpoch, isolated probes of the generators and of
 * CacheHierarchy::accessPrivate, engine and arrival twins, and the
 * thread sweeps of both pools.  --smoke shrinks every window so the
 * benchmark's own tests finish in seconds.
 */

#include <malloc.h>
#include <sched.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/json.hh"
#include "sim/rack.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "workload/request.hh"
#include "workload/workload.hh"

namespace {

using namespace toleo;

double
nowNs()
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** FNV-1a 64 of @p bytes, as 16 hex digits. */
std::string
digestOf(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ---------------------------------------------------------------- spans

/** One traced public call: [startNs, endNs] on the steady clock. */
struct Span
{
    std::int64_t parent = -1;
    int op = -1;                 ///< operation (cell) id
    const char *name = "";
    double startNs = 0.0;
    double endNs = 0.0;
    /** stepEpoch spans only: System::phaseTimes() deltas. */
    bool hasPhases = false;
    PhaseTimes phases;
};

/**
 * In-memory span recorder.  Spans nest by call order (a stack of open
 * spans supplies the parent) and are written out once, at exit.
 */
class Tracer
{
  public:
    std::int64_t
    begin(const char *name, int op)
    {
        Span s;
        s.parent = open_.empty() ? -1 : open_.back();
        s.op = op;
        s.name = name;
        spans_.push_back(s);
        const auto id = static_cast<std::int64_t>(spans_.size() - 1);
        open_.push_back(id);
        spans_[id].startNs = nowNs();
        return id;
    }

    Span &
    end(std::int64_t id)
    {
        const double t = nowNs();
        open_.pop_back();
        spans_[id].endNs = t;
        return spans_[id];
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<std::int64_t> open_;
};

/** RAII span; a null tracer records nothing (untraced legs). */
class Scope
{
  public:
    Scope(Tracer *tr, const char *name, int op)
        : tr_(tr), id_(tr ? tr->begin(name, op) : -1)
    {
    }
    ~Scope()
    {
        if (tr_)
            tr_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tr_;
    std::int64_t id_;
};

// ------------------------------------------------------------ op records

/** What one simulated cell runs. */
struct CellSpec
{
    std::string workload;
    EngineKind engine = EngineKind::Toleo;
    unsigned cores = 8;
    std::uint64_t seed = 1;
    ArrivalConfig arrival;
    unsigned intraThreads = 1;
    /** The open-loop rate is meant to sit below the node's knee, so
     *  the gate requires every request to meet its SLO. */
    bool belowKnee = false;
};

/** One operation: a System run or a runRack call. */
struct Op
{
    int id = 0;
    std::string leg;   ///< measurement the op belongs to
    std::string key;   ///< ops with one key must give one digest
    std::string twin;  ///< key up to its '|': ops with one twin key
                       ///< must agree outside the serving block
    std::string label; ///< cell name for reports
    bool traced = false;
    bool open = false;
    bool belowKnee = false;
    unsigned cores = 0;
    unsigned nodes = 1;
    std::string threadKind = "intra";
    unsigned threadsRequested = 1;
    unsigned threads = 1;
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;

    double setupS = 0.0;
    double runS = 0.0;
    double reportS = 0.0;
    bool hasPhases = false;
    PhaseTimes phases;

    /** Host-side reference count: (warmup + measure) x cores x nodes,
     *  taken from the window; the gate checks the window against the
     *  epochs the program reports. */
    std::uint64_t refs = 0;
    /** Per-core rounds in one traffic epoch: ceil(epochRefs / cores). */
    std::uint64_t epochRounds = 0;
    /** Traced System ops: stepEpoch calls after which measuring() was
     *  still false; -1 where not observed. */
    std::int64_t warmupEpochs = -1;
    /** SimStats::refs summed over nodes (measured window only). */
    std::uint64_t simRefs = 0;
    std::uint64_t instructions = 0;
    std::uint64_t llcMisses = 0;
    double ipcMin = 0.0;
    double llcMpki = 0.0;
    double paperMpki = 0.0;
    double macHitRate = 0.0;
    double stealthHitRate = 0.0;
    /** Peak resident memory from set-up to report, SpeedKernel's
     *  tables included. */
    double peakRssMb = 0.0;
    /** Mean SpeedKernel::chunkNs() over the chunks run right after
     *  the op. */
    double kernelNs = 0.0;
    std::uint64_t deviceRequests = 0;
    std::uint64_t epochs = 0;
    std::uint64_t saturatedEpochs = 0;
    std::uint64_t requests = 0;
    double sloAttainment = 0.0;
    double p99LatencyUs = 0.0;

    std::string digest;
    std::string coreDigest; ///< digest with every serving block cleared
    std::string error;
};

/** Isolated probe of the generators and the private cache levels. */
struct Probe
{
    std::string label;
    std::uint64_t refs = 0;
    double makeWorkloadS = 0.0; ///< makeWorkload x cores
    double drawS = 0.0;         ///< TraceGen::nextBatch over the stream
    double accessS = 0.0;       ///< accessPrivate over the same stream
    std::uint64_t l1Hits = 0;
};

Json
opToJson(const Op &op)
{
    Json j = Json::object();
    j["id"] = op.id;
    j["leg"] = op.leg;
    j["key"] = op.key;
    j["twin"] = op.twin;
    j["label"] = op.label;
    j["traced"] = op.traced;
    j["open"] = op.open;
    j["below_knee"] = op.belowKnee;
    j["cores"] = op.cores;
    j["nodes"] = op.nodes;
    j["thread_kind"] = op.threadKind;
    j["threads_requested"] = op.threadsRequested;
    j["threads"] = op.threads;
    j["warmup"] = op.warmup;
    j["measure"] = op.measure;
    j["setup_s"] = op.setupS;
    j["run_s"] = op.runS;
    j["report_s"] = op.reportS;
    if (op.hasPhases) {
        j["private_ns"] = op.phases.privateNs;
        j["shared_ns"] = op.phases.sharedNs;
        j["boundary_ns"] = op.phases.epochNs;
    }
    j["refs"] = op.refs;
    j["epoch_rounds"] = op.epochRounds;
    j["warmup_epochs"] = op.warmupEpochs;
    j["sim_refs"] = op.simRefs;
    j["instructions"] = op.instructions;
    j["llc_misses"] = op.llcMisses;
    j["ipc_min"] = op.ipcMin;
    j["llc_mpki"] = op.llcMpki;
    j["paper_mpki"] = op.paperMpki;
    j["mac_hit_rate"] = op.macHitRate;
    j["stealth_hit_rate"] = op.stealthHitRate;
    j["peak_rss_mb"] = op.peakRssMb;
    j["kernel_ns"] = op.kernelNs;
    j["device_requests"] = op.deviceRequests;
    j["epochs"] = op.epochs;
    j["saturated_epochs"] = op.saturatedEpochs;
    j["requests"] = op.requests;
    j["slo_attainment"] = op.sloAttainment;
    j["p99_latency_us"] = op.p99LatencyUs;
    j["digest"] = op.digest;
    j["core_digest"] = op.coreDigest;
    j["error"] = op.error;
    return j;
}

// ------------------------------------------------------------- provenance

unsigned
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid(0x80000000u, &a, &b, &c, &d) && a >= 0x80000004u) {
        char brand[49] = {};
        for (unsigned leaf = 0; leaf < 3; ++leaf) {
            __get_cpuid(0x80000002u + leaf, &a, &b, &c, &d);
            const unsigned regs[4] = {a, b, c, d};
            std::memcpy(brand + 16 * leaf, regs, sizeof regs);
        }
        std::string s(brand);
        const auto first = s.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : s.substr(first);
    }
#endif
    return "unknown";
}

/**
 * Start a fresh resident-memory peak: hand the heap's free pages back
 * to the kernel and reset VmHWM to the current RSS.  False when the
 * kernel refuses the reset.
 */
bool
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.close();
    return static_cast<bool>(clear);
}

/** Peak resident memory since the last resetPeakRss(), from VmHWM. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0.0;
}

// ----------------------------------------------------------- host speed

/**
 * A fixed amount of work shaped like the simulator's hot path -- xorshift
 * draws from a skewed address stream, 8-way set-associative tag lookups
 * with LRU replacement, and read-modify-writes scattered over a metadata
 * table on misses -- that shares no code with toleo_core.  Timed right
 * after every operation, it reads the host's speed at that moment, so
 * run.py can put each operation's host time at one reference speed.
 */
class SpeedKernel
{
  public:
    static constexpr std::size_t ways = 8;
    static constexpr std::size_t sets = 4096;
    static constexpr int iterations = 20000;
    static constexpr std::size_t tableBytes = std::size_t{8} << 20;
    static constexpr std::size_t tagBytes = sets * ways * 8;

    SpeedKernel() : tags_(sets * ways, 0), table_(tableBytes / 8, 1) {}

    /** Host ns of one chunk: the same work on every call. */
    double
    chunkNs()
    {
        const double t0 = nowNs();
        std::uint64_t x = rng_, acc = 0;
        for (int i = 0; i < iterations; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Three draws in four hit a 16k-line hot set.
            const std::uint64_t line =
                (x & 3) ? (x >> 40) & 0x3fff : x >> 20;
            std::uint64_t *set =
                &tags_[((line * 0x9e3779b97f4a7c15ULL) >> 52) * ways];
            std::size_t w = 0;
            while (w < ways && set[w] != line)
                ++w;
            if (w == ways) {
                std::memmove(set + 1, set, (ways - 1) * sizeof *set);
                set[0] = line;
                table_[((line * 0xff51afd7ed558ccdULL) >> 11) &
                       (table_.size() - 1)] += x;
            }
            acc += set[0];
        }
        rng_ = x;
        sink_ += acc;
        return nowNs() - t0;
    }

  private:
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> table_;
    std::uint64_t rng_ = 88172645463325252ULL;
    /** Keeps the loop's result live. */
    std::uint64_t sink_ = 0;
};

// ------------------------------------------------------------- the bench

struct Window
{
    std::uint64_t warmup;
    std::uint64_t measure;
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string out;
    std::string spans;
};

class Bench
{
  public:
    explicit Bench(const Args &args)
        : args_(args), nproc_(affinityCpus()),
          deadlineNs_(nowNs() + args.seconds * 1e9)
    {
    }

    bool pastDeadline() const { return nowNs() >= deadlineNs_; }

    /** Share of each op's host time spent on the speed kernel after it. */
    static constexpr double kernelShare = 0.1;

    /** Time whole SpeedKernel chunks for kernelShare of @p op's host
     *  time, at least one. */
    void
    readHostSpeed(Op &op)
    {
        const double budgetNs =
            kernelShare * (op.setupS + op.runS + op.reportS) * 1e9;
        double total = 0.0;
        int n = 0;
        do {
            total += kernel_.chunkNs();
            ++n;
        } while (total < budgetNs);
        op.kernelNs = total / n;
    }

    /** Thread count actually used: capped at nproc and @p limit. */
    unsigned
    capThreads(unsigned requested, unsigned limit) const
    {
        return std::max(1u, std::min({requested, nproc_, limit}));
    }

    /** Build, run and report one System, stepping it under spans when
     *  @p traced. */
    void
    systemOp(const std::string &leg, const std::string &key,
             const CellSpec &cell, const Window &win, bool traced,
             unsigned threadsRequested)
    {
        Op op = newOp(leg, key, cell, win, traced);
        op.threadsRequested = threadsRequested;
        op.threads = cell.intraThreads;
        Tracer *tr = traced ? &tracer_ : nullptr;
        resetPeakRss(); // main() checked that the kernel allows it
        try {
            std::unique_ptr<System> sys;
            SimStats stats;
            std::string json;
            {
                Scope opSpan(tr, "op", op.id);
                const double t0 = nowNs();
                {
                    Scope s(tr, "System::System", op.id);
                    SystemConfig cfg = makeScaledConfig(
                        cell.workload, cell.engine, cell.cores);
                    cfg.seed = cell.seed;
                    cfg.arrival = cell.arrival;
                    cfg.intraThreads = cell.intraThreads;
                    cfg.phaseTimers = traced;
                    sys = std::make_unique<System>(cfg);
                }
                const double t1 = nowNs();
                if (traced) {
                    {
                        Scope s(tr, "System::beginRun", op.id);
                        sys->beginRun(win.warmup, win.measure);
                    }
                    op.warmupEpochs = 0;
                    for (bool more = true; more;) {
                        const PhaseTimes before = sys->phaseTimes();
                        const auto id =
                            tracer_.begin("System::stepEpoch", op.id);
                        more = sys->stepEpoch();
                        Span &sp = tracer_.end(id);
                        const PhaseTimes after = sys->phaseTimes();
                        sp.hasPhases = true;
                        sp.phases.privateNs =
                            after.privateNs - before.privateNs;
                        sp.phases.sharedNs =
                            after.sharedNs - before.sharedNs;
                        sp.phases.epochNs = after.epochNs - before.epochNs;
                        op.warmupEpochs += !sys->measuring();
                    }
                } else {
                    stats = sys->run(win.warmup, win.measure);
                }
                const double t2 = nowNs();
                if (traced) {
                    Scope s(tr, "System::finishRun", op.id);
                    stats = sys->finishRun();
                }
                {
                    Scope s(tr, "statsToJson", op.id);
                    json = statsToJson(stats).dump();
                }
                const double t3 = nowNs();
                op.setupS = (t1 - t0) * 1e-9;
                op.runS = (t2 - t1) * 1e-9;
                op.reportS = (t3 - t2) * 1e-9;
            }
            if (traced) {
                op.hasPhases = true;
                op.phases = sys->phaseTimes();
            }
            if (sys->device())
                op.deviceRequests = sys->device()->totalRequests(0);
            op.epochs = sys->epochsCompleted();
            op.epochRounds = epochRounds(sys->config());
            fillFromStats(op, stats);
            op.ipcMin = stats.ipc;
            op.requests = stats.serving.requests;
            op.sloAttainment = stats.serving.sloAttainment;
            op.p99LatencyUs = stats.serving.p99LatencyUs;
            op.digest = digestOf(json);
            stats.serving = ServingStats{};
            op.coreDigest = digestOf(statsToJson(stats).dump());
        } catch (const std::exception &e) {
            op.error = e.what();
        }
        op.peakRssMb = peakRssMb();
        readHostSpeed(op);
        ops_.push_back(std::move(op));
    }

    /** One runRack call.  With @p measureSetup, first time the build
     *  of the same device and node Systems through their public
     *  constructors.  runRack builds its own internally, so that time
     *  is subtracted from the runRack call's to approximate its run
     *  time with set-up excluded. */
    void
    rackOp(const std::string &leg, const std::string &key,
           const CellSpec &node, unsigned nodes, unsigned threadsRequested,
           const Window &win, bool traced, bool measureSetup)
    {
        Op op = newOp(leg, key, node, win, traced);
        op.label = "rack4 " + op.label;
        op.nodes = nodes;
        op.refs *= nodes;
        op.threadKind = "rack";
        op.threadsRequested = threadsRequested;
        op.threads = capThreads(threadsRequested, nodes);
        Tracer *tr = traced ? &tracer_ : nullptr;
        resetPeakRss(); // main() checked that the kernel allows it
        try {
            if (measureSetup)
                op.setupS = rackSetupSeconds(node, nodes);
            SystemConfig base =
                makeScaledConfig(node.workload, node.engine, node.cores);
            base.seed = node.seed;
            base.arrival = node.arrival;
            base.phaseTimers = traced;
            RackConfig rc = makeRackConfig(nodes, base);
            rc.warmupRefs = win.warmup;
            rc.measureRefs = win.measure;
            rc.rackThreads = op.threads;

            RackStats stats;
            std::string json;
            {
                Scope opSpan(tr, "op", op.id);
                const double t0 = nowNs();
                {
                    Scope s(tr, "runRack", op.id);
                    stats = runRack(rc);
                }
                const double t1 = nowNs();
                {
                    Scope s(tr, "rackStatsToJson", op.id);
                    json = rackStatsToJson(stats).dump();
                }
                const double t2 = nowNs();
                op.runS = (t1 - t0) * 1e-9 - op.setupS;
                op.reportS = (t2 - t1) * 1e-9;
            }
            op.epochRounds = epochRounds(rc.nodes.front());
            op.ipcMin = INFINITY;
            double mac = 0.0, stealth = 0.0, mpki = 0.0;
            for (const RackNodeStats &ns : stats.nodes) {
                fillFromStats(op, ns.sim, /*accumulate=*/true);
                op.ipcMin = std::min(op.ipcMin, ns.sim.ipc);
                op.deviceRequests += ns.deviceRequests;
                mac += ns.sim.macCacheHitRate;
                stealth += ns.sim.stealthCacheHitRate;
                mpki += ns.sim.llcMpki;
            }
            const double n = static_cast<double>(stats.nodes.size());
            op.macHitRate = mac / n;
            op.stealthHitRate = stealth / n;
            op.llcMpki = mpki / n;
            op.epochs = stats.epochs;
            op.saturatedEpochs = stats.saturatedEpochs;
            op.requests = stats.serving.requests;
            op.sloAttainment = stats.serving.sloAttainment;
            op.p99LatencyUs = stats.serving.p99LatencyUs;
            op.digest = digestOf(json);
            for (RackNodeStats &ns : stats.nodes)
                ns.sim.serving = ServingStats{};
            stats.serving = ServingStats{};
            op.coreDigest = digestOf(rackStatsToJson(stats).dump());
        } catch (const std::exception &e) {
            op.error = e.what();
        }
        op.peakRssMb = peakRssMb();
        readHostSpeed(op);
        ops_.push_back(std::move(op));
    }

    /**
     * Draw the cell's reference stream with its own generators, seed
     * and count, then feed it through a fresh CacheHierarchy's
     * private levels.  Both passes interleave cores in 256-round
     * chunks, as System's private phase does.
     */
    void
    probe(const CellSpec &cell, const Window &win)
    {
        Probe p;
        p.label = cell.workload + "/seed" + std::to_string(cell.seed);
        const int id = newId("probe");
        Tracer *tr = &tracer_;
        Scope probeSpan(tr, "probe", id);
        const std::uint64_t perCore = win.warmup + win.measure;
        const unsigned cores = cell.cores;
        p.refs = perCore * cores;

        std::vector<std::unique_ptr<TraceGen>> gens;
        double t0 = nowNs();
        {
            Scope s(tr, "makeWorkload", id);
            for (unsigned c = 0; c < cores; ++c) {
                auto g = makeWorkload(cell.workload, c, cell.seed);
                if (cell.arrival.open())
                    g = std::make_unique<RequestSource>(
                        std::move(g), cell.arrival.requestRefs);
                gens.push_back(std::move(g));
            }
        }
        p.makeWorkloadS = (nowNs() - t0) * 1e-9;

        constexpr std::uint64_t chunk = 256;
        std::vector<MemRef> refs(p.refs);
        t0 = nowNs();
        {
            Scope s(tr, "TraceGen::nextBatch", id);
            for (std::uint64_t pos = 0; pos < perCore; pos += chunk) {
                const std::uint64_t n = std::min(chunk, perCore - pos);
                for (unsigned c = 0; c < cores; ++c)
                    gens[c]->nextBatch(&refs[c * perCore + pos], n);
            }
        }
        p.drawS = (nowNs() - t0) * 1e-9;

        CacheHierarchyConfig hc =
            makeScaledConfig(cell.workload, cell.engine, cores).caches;
        hc.numCores = cores;
        CacheHierarchy caches(hc);
        t0 = nowNs();
        {
            Scope s(tr, "CacheHierarchy::accessPrivate", id);
            for (std::uint64_t pos = 0; pos < perCore; pos += chunk) {
                const std::uint64_t n = std::min(chunk, perCore - pos);
                for (unsigned c = 0; c < cores; ++c) {
                    const MemRef *r = &refs[c * perCore + pos];
                    for (std::uint64_t k = 0; k < n; ++k)
                        p.l1Hits += caches
                                        .accessPrivate(c, blockOf(r[k].addr),
                                                       r[k].isWrite)
                                        .l1Hit;
                }
            }
        }
        p.accessS = (nowNs() - t0) * 1e-9;
        probes_.push_back(p);
    }

    /** Epoch spans recorded so far on @p leg. */
    std::size_t
    epochSamples(const std::string &leg) const
    {
        std::size_t n = 0;
        for (const Span &s : tracer_.spans())
            n += s.hasPhases && legOfId_[s.op] == leg;
        return n;
    }

    Json
    toJson() const
    {
        Json doc = Json::object();
        Json prov = Json::object();
        prov["workload"] = args_.workload;
        prov["seed"] = args_.seed;
        prov["seconds"] = args_.seconds;
        prov["trace"] = args_.trace;
        prov["smoke"] = args_.smoke;
        prov["nproc"] = nproc_;
        prov["cpu_model"] = cpuModel();
        prov["compiler"] = PERFBENCH_COMPILER;
        prov["build_type"] = PERFBENCH_BUILD_TYPE;
        prov["cxx_flags"] = PERFBENCH_CXX_FLAGS;
        doc["provenance"] = prov;
        doc["kernel_mb"] =
            static_cast<double>(SpeedKernel::tableBytes +
                                SpeedKernel::tagBytes) /
            (1 << 20);
        Json ops = Json::array();
        for (const Op &op : ops_)
            ops.push_back(opToJson(op));
        doc["ops"] = ops;
        Json probes = Json::array();
        for (const Probe &p : probes_) {
            Json j = Json::object();
            j["label"] = p.label;
            j["refs"] = p.refs;
            j["make_workload_s"] = p.makeWorkloadS;
            j["draw_s"] = p.drawS;
            j["access_s"] = p.accessS;
            j["l1_hits"] = p.l1Hits;
            probes.push_back(j);
        }
        doc["probes"] = probes;
        return doc;
    }

    /** Spans as one JSON array, one span per line. */
    void
    writeSpans(std::ostream &os) const
    {
        const auto &spans = tracer_.spans();
        os << "[\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            Json j = Json::object();
            j["id"] = static_cast<std::uint64_t>(i);
            j["parent"] = s.parent;
            j["op"] = s.op;
            j["name"] = s.name;
            j["start_ns"] = s.startNs;
            j["end_ns"] = s.endNs;
            if (s.hasPhases) {
                j["private_ns"] = s.phases.privateNs;
                j["shared_ns"] = s.phases.sharedNs;
                j["boundary_ns"] = s.phases.epochNs;
            }
            os << j.dump() << (i + 1 < spans.size() ? ",\n" : "\n");
        }
        os << "]\n";
    }

  private:
    Op
    newOp(const std::string &leg, const std::string &key,
          const CellSpec &cell, const Window &win, bool traced)
    {
        Op op;
        op.id = newId(leg);
        op.leg = leg;
        op.key = key;
        op.twin = key.substr(0, key.rfind('|'));
        op.label = cell.workload + "/" + engineKindName(cell.engine);
        op.traced = traced;
        op.open = cell.arrival.open();
        op.belowKnee = cell.belowKnee;
        op.cores = cell.cores;
        op.warmup = win.warmup;
        op.measure = win.measure;
        op.refs = (win.warmup + win.measure) * cell.cores;
        op.paperMpki = workloadInfo(cell.workload).paperLlcMpki;
        return op;
    }

    /** Ops and probes share one id space, the spans' "op" field. */
    int
    newId(const std::string &leg)
    {
        legOfId_.push_back(leg);
        return static_cast<int>(legOfId_.size() - 1);
    }

    static std::uint64_t
    epochRounds(const SystemConfig &cfg)
    {
        return (cfg.epochRefs + cfg.numCores - 1) / cfg.numCores;
    }

    static void
    fillFromStats(Op &op, const SimStats &s, bool accumulate = false)
    {
        op.simRefs += s.refs;
        op.instructions += s.instructions;
        op.llcMisses += s.llcMisses;
        if (!accumulate) {
            op.llcMpki = s.llcMpki;
            op.macHitRate = s.macCacheHitRate;
            op.stealthHitRate = s.stealthCacheHitRate;
        }
    }

    double
    rackSetupSeconds(const CellSpec &node, unsigned nodes)
    {
        std::vector<std::unique_ptr<System>> systems;
        std::unique_ptr<ToleoDevice> device;
        const double t0 = nowNs();
        SystemConfig base =
            makeScaledConfig(node.workload, node.engine, node.cores);
        base.seed = node.seed;
        base.arrival = node.arrival;
        RackConfig rc = makeRackConfig(nodes, base);
        device = std::make_unique<ToleoDevice>(rc.device);
        for (unsigned i = 1; i < nodes; ++i)
            device->addInitiator();
        for (SystemConfig &sc : rc.nodes) {
            sc.sharedDevice = device.get();
            systems.push_back(std::make_unique<System>(sc));
        }
        const double t1 = nowNs();
        systems.clear(); // torn down outside the timed region
        return (t1 - t0) * 1e-9;
    }

    Args args_;
    unsigned nproc_;
    double deadlineNs_;
    std::vector<std::string> legOfId_;
    std::vector<Op> ops_;
    std::vector<Probe> probes_;
    Tracer tracer_;
    SpeedKernel kernel_;
};

// ------------------------------------------------------------- workloads

ArrivalConfig
arrival(const std::string &spec)
{
    ArrivalConfig a;
    std::string err;
    if (!parseArrivalSpec(spec, a, err))
        throw std::invalid_argument("bad arrival spec: " + err);
    return a;
}

/**
 * Round-robin over legs, one repetition each per round, until every
 * leg reports done: interleaving spreads host noise evenly over the
 * legs that are later compared with each other.
 */
void
interleave(const std::vector<std::function<bool()>> &legs)
{
    std::vector<bool> done(legs.size(), false);
    for (bool any = true; any;) {
        any = false;
        for (std::size_t i = 0; i < legs.size(); ++i) {
            if (done[i])
                continue;
            done[i] = legs[i]();
            any = any || !done[i];
        }
    }
}

/** Minimum stepEpoch samples, so the p99 has >= 10 samples beyond it. */
constexpr std::size_t minEpochSamples = 1000;

/**
 * One leg for interleave(): each call runs @p once; the leg is done
 * after @p reps calls and, when @p epochLeg is non-empty, once that
 * leg has recorded minEpochSamples stepEpoch spans.
 */
std::function<bool()>
repeatLeg(Bench &b, int reps, std::string epochLeg,
          std::function<void()> once)
{
    return [&b, reps, epochLeg = std::move(epochLeg),
            once = std::move(once), count = 0]() mutable {
        once();
        return ++count >= reps &&
               (epochLeg.empty() ||
                b.epochSamples(epochLeg) >= minEpochSamples);
    };
}

std::string
cellKey(const CellSpec &c)
{
    return c.workload + "/" + engineKindName(c.engine);
}

void
runPaperGrid(Bench &b, const Args &a, const Window &win)
{
    std::vector<CellSpec> grid;
    for (const std::string &w : paperWorkloads()) {
        for (EngineKind e : allEngineKinds()) {
            CellSpec c;
            c.workload = w;
            c.engine = e;
            c.seed = a.seed;
            grid.push_back(c);
        }
    }
    if (!a.trace) {
        // Past the deadline the run stops at the next cell, but only
        // after one whole pass, so every cell has a sample.
        for (std::size_t i = 0;; ++i) {
            const CellSpec &c = grid[i % grid.size()];
            b.systemOp("main", cellKey(c), c, win, false, 1);
            if (i + 1 >= grid.size() && b.pastDeadline())
                break;
        }
        return;
    }
    do {
        for (const CellSpec &c : grid)
            b.systemOp("untraced", cellKey(c), c, win, false, 1);
        for (const CellSpec &c : grid)
            b.systemOp("traced", cellKey(c), c, win, true, 1);
    } while (!b.pastDeadline());
    for (const std::string &w : paperWorkloads()) {
        CellSpec c;
        c.workload = w;
        c.seed = a.seed;
        b.probe(c, win);
    }
}

void
runServe64(Bench &b, const Args &a, const Window &win)
{
    CellSpec cell;
    cell.workload = "kvs";
    cell.engine = EngineKind::Toleo;
    cell.cores = 64;
    cell.seed = a.seed;
    cell.arrival = arrival("poisson:1e7");
    cell.belowKnee = true;
    const std::string key = "kvs/Toleo/64|open";
    if (!a.trace) {
        do {
            b.systemOp("main", key, cell, win, false, 1);
        } while (!b.pastDeadline());
        return;
    }
    CellSpec np = cell;
    np.engine = EngineKind::NoProtect;
    CellSpec closed = cell;
    closed.arrival = ArrivalConfig{};
    const int reps = a.smoke ? 1 : 3;
    auto leg = [&](const std::string &name, const std::string &k,
                   const CellSpec &c, bool traced, unsigned requested,
                   bool needEpochs) {
        return repeatLeg(b, reps, needEpochs && !a.smoke ? name : "",
                         [&b, &win, name, k, c, traced, requested] {
                             b.systemOp(name, k, c, win, traced,
                                        requested);
                         });
    };
    std::vector<std::function<bool()>> legs = {
        leg("untraced", key, cell, false, 1, false),
        leg("traced", key, cell, true, 1, true),
        leg("noprotect", "kvs/NoProtect/64|open", np, true, 1, false),
        leg("closed", "kvs/Toleo/64|closed", closed, true, 1, false),
    };
    for (unsigned t : {2u, 4u}) {
        CellSpec c = cell;
        c.intraThreads = b.capThreads(t, c.cores);
        legs.push_back(
            leg("intra" + std::to_string(t), key, c, true, t, false));
    }
    interleave(legs);
    b.probe(cell, win);
}

void
runRack4(Bench &b, const Args &a, const Window &win)
{
    constexpr unsigned nodes = 4;
    CellSpec node;
    node.workload = "memcached";
    node.engine = EngineKind::Toleo;
    node.cores = 8;
    node.seed = a.seed;
    node.arrival = arrival("burst:5e5,2.0");
    const std::string key = "rack4|open";
    if (!a.trace) {
        do {
            b.rackOp("main", key, node, nodes, 1, win, false, true);
        } while (!b.pastDeadline());
        return;
    }
    CellSpec closed = node;
    closed.arrival = ArrivalConfig{};
    const int reps = a.smoke ? 1 : 5;
    auto rackLeg = [&](const std::string &name, const std::string &k,
                       const CellSpec &c, unsigned threads, bool traced) {
        return repeatLeg(b, reps, "",
                         [&b, &win, name, k, c, threads, traced] {
                             b.rackOp(name, k, c, nodes, threads, win,
                                      traced, false);
                         });
    };
    // The rack's nodes one by one on their own devices: node i runs
    // seed + i, exactly as makeRackConfig clones them.
    auto standaloneLeg = [&](const std::string &name, EngineKind engine,
                             bool needEpochs) {
        return repeatLeg(
            b, reps, needEpochs && !a.smoke ? name : "",
            [&b, &win, name, node, engine] {
                for (unsigned i = 0; i < nodes; ++i) {
                    CellSpec c = node;
                    c.engine = engine;
                    c.seed = node.seed + i;
                    b.systemOp(name,
                               cellKey(c) + "/node" + std::to_string(i) +
                                   "|open",
                               c, win, true, 1);
                }
            });
    };
    interleave({
        rackLeg("untraced", key, node, 1, false),
        rackLeg("traced", key, node, 1, true),
        rackLeg("closed", "rack4|closed", closed, 1, true),
        rackLeg("rack2", key, node, 2, true),
        rackLeg("rack4", key, node, 4, true),
        standaloneLeg("standalone", EngineKind::Toleo, true),
        standaloneLeg("standalone_np", EngineKind::NoProtect, false),
    });
    for (unsigned i = 0; i < nodes; ++i) {
        CellSpec c = node;
        c.seed = node.seed + i;
        b.probe(c, win);
    }
}

/**
 * Accuracy reference for workloads without their own Table 2 cells:
 * the 12 paper workloads under NoProtect (LLC MPKI is identical under
 * every engine) at the paper-grid shape, run after the timed loop.
 */
void
runMpkiReference(Bench &b, const Args &a, const Window &win)
{
    for (const std::string &w : paperWorkloads()) {
        CellSpec c;
        c.workload = w;
        c.engine = EngineKind::NoProtect;
        c.seed = a.seed;
        b.systemOp("reference", cellKey(c), c, win, false, 1);
    }
}

[[noreturn]] void
usage(const char *msg)
{
    std::cerr << "perfbench_driver: " << msg
              << "\nusage: perfbench_driver --workload "
                 "paper-grid|rack4|serve64 --seed N --seconds S "
                 "--trace 0|1 --out FILE [--spans FILE] [--smoke]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        try {
            if (k == "--workload")
                a.workload = val();
            else if (k == "--seed")
                a.seed = std::stoull(val());
            else if (k == "--seconds")
                a.seconds = std::stod(val());
            else if (k == "--trace")
                a.trace = std::stoi(val()) != 0;
            else if (k == "--out")
                a.out = val();
            else if (k == "--spans")
                a.spans = val();
            else if (k == "--smoke")
                a.smoke = true;
            else
                usage(("unknown argument " + k).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + k).c_str());
        }
    }
    if (a.workload != "paper-grid" && a.workload != "rack4" &&
        a.workload != "serve64")
        usage("unknown workload");
    if (a.out.empty())
        usage("--out is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    if (!resetPeakRss()) {
        std::cerr << "perfbench_driver: cannot reset VmHWM through "
                     "/proc/self/clear_refs\n";
        return 1;
    }
    Bench b(a);

    // The smoke windows keep every code path but finish in seconds.
    const Window grid = a.smoke ? Window{500, 1000} : Window{30000, 60000};
    const Window big = a.smoke ? Window{500, 1000} : Window{10000, 20000};

    if (a.workload == "paper-grid")
        runPaperGrid(b, a, grid);
    else if (a.workload == "rack4")
        runRack4(b, a, grid);
    else
        runServe64(b, a, big);

    if (!a.trace && a.workload != "paper-grid")
        runMpkiReference(b, a, grid);

    std::ofstream out(a.out);
    out << b.toJson().dump() << "\n";
    if (!out) {
        std::cerr << "perfbench_driver: cannot write " << a.out << "\n";
        return 1;
    }
    if (a.trace && !a.spans.empty()) {
        std::ofstream spans(a.spans);
        b.writeSpans(spans);
        if (!spans) {
            std::cerr << "perfbench_driver: cannot write " << a.spans
                      << "\n";
            return 1;
        }
    }
    return 0;
}
