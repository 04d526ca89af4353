/**
 * @file
 * Shared (workload x engine) sweep runner.
 *
 * The paper record (bench/) and the toleo_sim CLI evaluate a grid
 * of cells, where each cell builds one self-contained
 * toleo::System and runs it for a warmup + measurement window.  Cells
 * share no mutable state, so the grid is embarrassingly parallel:
 * runSweep() fans cells out over an IntraPool (sim/intra_pool.hh)
 * and returns results in deterministic row-major (workload-major)
 * order regardless of completion order.  A cell writes no file:
 * capturing a workload's streams needs no System and is
 * captureTrace()'s job (workload/trace_file.hh).
 */

#ifndef TOLEO_SIM_SWEEP_HH
#define TOLEO_SIM_SWEEP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/rack.hh"
#include "sim/system.hh"

namespace toleo {

/** One grid cell: a workload evaluated under one engine. */
struct SweepCell
{
    std::string workload;
    EngineKind engine = EngineKind::Toleo;
};

struct SweepOptions
{
    unsigned cores = 8;
    std::uint64_t warmupRefs = 30000;
    std::uint64_t measureRefs = 60000;
    std::uint64_t seed = 42;
    /** Pool threads, the caller included; cells run serially when 1. */
    unsigned jobs = 1;
    /**
     * Private-phase threads *inside* each cell's System(s)
     * (SystemConfig::intraThreads).  Composes multiplicatively with
     * jobs: a sweep can run up to jobs x intraThreads threads at
     * once, so callers should budget the product against the host
     * (the toleo_sim CLI enforces this).  Statistics are
     * bit-identical for any value.
     */
    unsigned intraThreads = 1;
    /**
     * Replay every cell from this loaded trace instead of
     * synthesizing (SystemConfig::trace).  Cells share the instance
     * read-only, so a sweep decodes the file once, not once per cell.
     */
    std::shared_ptr<const TraceFile> trace;
    /**
     * Rack mode (runRackSweep): simulate each cell as this many
     * compute nodes sharing one Toleo device (node i seeds with
     * seed + i).  1 = the classic single-node cell.
     */
    unsigned rackNodes = 1;
    /** Shared-device service bandwidth, GB/s; 0 = auto (rack.hh). */
    double rackServiceGBps = 0.0;
    /**
     * Rack mode only: worker threads for the node-private epoch
     * halves inside each rack cell (RackConfig::rackThreads).  A
     * third multiplicative tier between jobs and intraThreads: a rack
     * sweep can run up to jobs x rackThreads x intraThreads threads
     * at once, and the CLI budgets that product against the host.
     * Statistics are bit-identical for any value.
     */
    unsigned rackThreads = 1;
    /**
     * Request arrival model (SystemConfig::arrival), applied to every
     * cell.  The default closed model reproduces the classic replay
     * byte-for-byte; open models add ServingStats on top.
     */
    ArrivalConfig arrival;
};

/** Build and run the System for one cell. */
SimStats runSweepCell(const SweepCell &cell, const SweepOptions &opts);

/**
 * Called as each cell finishes (from the worker that ran it, under a
 * lock, so implementations need not be thread-safe).
 */
using SweepProgressFn = std::function<void(
    const SimStats &stats, std::size_t done, std::size_t total)>;

/** Replacement cell runner (tests, instrumentation). */
using SweepCellFn =
    std::function<SimStats(const SweepCell &, const SweepOptions &)>;

/** Cross product in row-major order: workload-major, engine-minor. */
std::vector<SweepCell> makeSweepGrid(
    const std::vector<std::string> &workloads,
    const std::vector<EngineKind> &engines);

/**
 * Run every cell on a pool of opts.jobs threads, the caller included.
 *
 * A cell that throws does not tear down the process: the first
 * exception is captured, no further cell starts, in-flight cells
 * finish, and the exception is rethrown on the calling thread after
 * the pool's barrier.
 *
 * @param cellFn Cell runner override; defaults to runSweepCell.
 * @return One SimStats per cell, in the order of @p cells.
 */
std::vector<SimStats> runSweep(const std::vector<SweepCell> &cells,
                               const SweepOptions &opts,
                               const SweepProgressFn &progress = {},
                               const SweepCellFn &cellFn = {});

/** Build and run one cell as an opts.rackNodes-node rack. */
RackStats runRackSweepCell(const SweepCell &cell,
                           const SweepOptions &opts);

/** Per-cell completion callback of a rack sweep (locked, like
 *  SweepProgressFn). */
using RackSweepProgressFn = std::function<void(
    const RackStats &stats, std::size_t done, std::size_t total)>;

/**
 * Rack-mode grid runner: every cell becomes an opts.rackNodes-node
 * rack simulation (runRack).  Same worker-pool, ordering, and
 * error-surfacing contract as runSweep; cells share a preloaded
 * trace the same way.
 */
std::vector<RackStats> runRackSweep(
    const std::vector<SweepCell> &cells, const SweepOptions &opts,
    const RackSweepProgressFn &progress = {});

/**
 * Parse an engine name as printed by engineKindName().
 * @return false if @p name is not a known engine.
 */
bool parseEngineKind(const std::string &name, EngineKind &out);

/** All six evaluated engine configurations, Table 1 order. */
const std::vector<EngineKind> &allEngineKinds();

/**
 * Parse a comma-separated engine list ("all" = every engine);
 * fatal() on an unknown name.
 */
std::vector<EngineKind> parseEngineList(const std::string &csv);

/**
 * Parse a comma-separated workload list ("all" = the 12 paper
 * workloads); fatal() on an unknown name.
 */
std::vector<std::string> parseWorkloadList(const std::string &csv);

} // namespace toleo

#endif // TOLEO_SIM_SWEEP_HH
