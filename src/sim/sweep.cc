#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/logging.hh"
#include "workload/trace_file.hh"

namespace toleo {

SimStats
runSweepCell(const SweepCell &cell, const SweepOptions &opts)
{
    SystemConfig cfg =
        makeScaledConfig(cell.workload, cell.engine, opts.cores);
    cfg.seed = opts.seed;
    cfg.trace = opts.trace;
    cfg.tracePath = opts.tracePath;
    cfg.recordTracePath = opts.recordTracePath;
    cfg.intraThreads = opts.intraThreads;
    cfg.arrival = opts.arrival;
    System sys(cfg);
    return sys.run(opts.warmupRefs, opts.measureRefs);
}

std::vector<SweepCell>
makeSweepGrid(const std::vector<std::string> &workloads,
              const std::vector<EngineKind> &engines)
{
    std::vector<SweepCell> cells;
    cells.reserve(workloads.size() * engines.size());
    for (const auto &w : workloads)
        for (const auto e : engines)
            cells.push_back({w, e});
    return cells;
}

namespace {

/**
 * Worker-pool core shared by runSweep and runRackSweep: run
 * work(i) for i in [0, n) on up to @p jobsOpt threads.  An exception
 * anywhere inside a cell must not escape a worker thread (that would
 * std::terminate the whole sweep with no diagnostics): the first one
 * is captured, no new cells are handed out, and it is rethrown once
 * every worker has joined.  onDone(i, completed) runs under a lock
 * after each successful cell, so progress callbacks need not be
 * thread-safe.
 */
template <typename Work, typename Done>
void
runCellPool(std::size_t n, unsigned jobsOpt, const Work &work,
            const Done &onDone)
{
    if (n == 0)
        return;
    const unsigned jobs =
        std::max(1u, std::min<unsigned>(jobsOpt, n));

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::mutex progressMutex;
    std::exception_ptr firstError;

    auto worker = [&] {
        for (;;) {
            if (failed.load(std::memory_order_relaxed))
                return;
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                work(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(progressMutex);
                if (!firstError)
                    firstError = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
            const std::size_t d = done.fetch_add(1) + 1;
            {
                std::lock_guard<std::mutex> lock(progressMutex);
                onDone(i, d);
            }
        }
    };

    if (jobs == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned j = 0; j < jobs; ++j)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }

    if (firstError)
        std::rethrow_exception(firstError);
}

/**
 * Honor the load-once contract (see SweepOptions::trace) for every
 * caller, not just the toleo_sim CLI: open and validate a
 * path-specified trace once so cells share one read-only instance
 * instead of re-decoding the file per cell.  Returns the effective
 * options, using @p shared as backing storage when a copy is needed.
 */
const SweepOptions &
withPreloadedTrace(const SweepOptions &opts, SweepOptions &shared)
{
    if (opts.tracePath.empty() || opts.trace)
        return opts;
    shared = opts;
    shared.trace = TraceFile::open(opts.tracePath);
    return shared;
}

} // namespace

std::vector<SimStats>
runSweep(const std::vector<SweepCell> &cells,
         const SweepOptions &opts, const SweepProgressFn &progress,
         const SweepCellFn &cellFn)
{
    // Recording writes one trace file per run(), so a multi-cell
    // grid would have every cell truncate and rewrite the same path
    // (concurrently under jobs>1).  Enforce the invariant here, not
    // just in the toleo_sim CLI, so library callers hit a clean
    // error instead of a corrupt capture.
    if (!opts.recordTracePath.empty() && cells.size() > 1)
        throw TraceError(
            "recordTracePath captures a single cell; got " +
            std::to_string(cells.size()) + " cells");

    SweepOptions shared;
    const SweepOptions &effOpts = withPreloadedTrace(opts, shared);

    std::vector<SimStats> results(cells.size());
    runCellPool(
        cells.size(), opts.jobs,
        [&](std::size_t i) {
            results[i] = cellFn ? cellFn(cells[i], effOpts)
                                : runSweepCell(cells[i], effOpts);
        },
        [&](std::size_t i, std::size_t d) {
            if (progress)
                progress(results[i], d, cells.size());
        });
    return results;
}

RackStats
runRackSweepCell(const SweepCell &cell, const SweepOptions &opts)
{
    SystemConfig base =
        makeScaledConfig(cell.workload, cell.engine, opts.cores);
    base.seed = opts.seed;
    base.trace = opts.trace;
    base.tracePath = opts.tracePath;
    // makeRackConfig clones the base config per node, so every
    // node's private phase gets the same intra-cell pool size; the
    // nodes' shared-device work still replays serially in node order
    // even when rackThreads overlaps their private halves
    // (determinism).
    base.intraThreads = opts.intraThreads;
    base.arrival = opts.arrival;
    RackConfig rc = makeRackConfig(opts.rackNodes, base);
    rc.deviceServiceGBps = opts.rackServiceGBps;
    rc.rackThreads = opts.rackThreads;
    rc.warmupRefs = opts.warmupRefs;
    rc.measureRefs = opts.measureRefs;
    return runRack(rc);
}

std::vector<RackStats>
runRackSweep(const std::vector<SweepCell> &cells,
             const SweepOptions &opts,
             const RackSweepProgressFn &progress)
{
    if (opts.rackNodes == 0)
        throw std::invalid_argument(
            "runRackSweep: rackNodes must be positive");
    // Rack cells run N Systems; recording would have every node
    // truncate and rewrite one capture path.
    if (!opts.recordTracePath.empty())
        throw TraceError(
            "recordTracePath is not supported in rack mode");

    SweepOptions shared;
    const SweepOptions &effOpts = withPreloadedTrace(opts, shared);

    std::vector<RackStats> results(cells.size());
    runCellPool(
        cells.size(), opts.jobs,
        [&](std::size_t i) {
            results[i] = runRackSweepCell(cells[i], effOpts);
        },
        [&](std::size_t i, std::size_t d) {
            if (progress)
                progress(results[i], d, cells.size());
        });
    return results;
}

bool
parseEngineKind(const std::string &name, EngineKind &out)
{
    for (const EngineKind kind : allEngineKinds()) {
        if (name == engineKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

const std::vector<EngineKind> &
allEngineKinds()
{
    static const std::vector<EngineKind> kinds = {
        EngineKind::NoProtect, EngineKind::C,         EngineKind::CI,
        EngineKind::Toleo,     EngineKind::InvisiMem, EngineKind::Merkle,
    };
    return kinds;
}

namespace {

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? csv.size() : comma;
        if (end > start)
            parts.push_back(csv.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return parts;
}

} // namespace

std::vector<EngineKind>
parseEngineList(const std::string &csv)
{
    if (csv == "all")
        return allEngineKinds();
    std::vector<EngineKind> engines;
    for (const auto &name : splitCsv(csv)) {
        EngineKind kind;
        if (!parseEngineKind(name, kind))
            fatal("unknown engine '%s' (expected one of NoProtect, "
                  "C, CI, Toleo, InvisiMem, Merkle)",
                  name.c_str());
        engines.push_back(kind);
    }
    if (engines.empty())
        fatal("empty engine list");
    return engines;
}

std::vector<std::string>
parseWorkloadList(const std::string &csv)
{
    if (csv == "all")
        return paperWorkloads();
    std::vector<std::string> workloads = splitCsv(csv);
    if (workloads.empty())
        fatal("empty workload list");
    for (const auto &name : workloads)
        workloadInfo(name); // fatal() on unknown name
    return workloads;
}

} // namespace toleo
