#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>

#include "common/logging.hh"
#include "sim/intra_pool.hh"

namespace toleo {

SimStats
runSweepCell(const SweepCell &cell, const SweepOptions &opts)
{
    SystemConfig cfg =
        makeScaledConfig(cell.workload, cell.engine, opts.cores);
    cfg.seed = opts.seed;
    cfg.trace = opts.trace;
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
 * Pool core shared by runSweep and runRackSweep: run work(i) for
 * every cell on an IntraPool of min(jobs, n) threads, the caller
 * included.  Each thread claims the next unclaimed cell from one
 * counter, so cells of unequal cost balance.  An exception inside a
 * cell must not tear down the sweep: after the first one no new cell
 * starts, in-flight cells finish, and the pool rethrows it after its
 * barrier.  onDone(i, completed) runs under a lock after each
 * successful cell, so progress callbacks need not be thread-safe.
 */
template <typename Work, typename Done>
void
runCellPool(std::size_t n, unsigned jobs, const Work &work,
            const Done &onDone)
{
    const unsigned threads = std::max(1u, std::min<unsigned>(jobs, n));
    IntraPool pool(threads);
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex progressMutex;
    std::size_t done = 0; // guarded by progressMutex
    pool.run(threads, [&](unsigned) {
        while (!failed.load()) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                work(i);
            } catch (...) {
                failed.store(true);
                throw;
            }
            std::lock_guard<std::mutex> lock(progressMutex);
            onDone(i, ++done);
        }
    });
}

} // namespace

std::vector<SimStats>
runSweep(const std::vector<SweepCell> &cells,
         const SweepOptions &opts, const SweepProgressFn &progress,
         const SweepCellFn &cellFn)
{
    std::vector<SimStats> results(cells.size());
    runCellPool(
        cells.size(), opts.jobs,
        [&](std::size_t i) {
            results[i] = cellFn ? cellFn(cells[i], opts)
                                : runSweepCell(cells[i], opts);
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
    base.arrival = opts.arrival;
    RackConfig rc = makeRackConfig(opts.rackNodes, base);
    rc.deviceServiceGBps = opts.rackServiceGBps;
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

    std::vector<RackStats> results(cells.size());
    runCellPool(
        cells.size(), opts.jobs,
        [&](std::size_t i) {
            results[i] = runRackSweepCell(cells[i], opts);
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
