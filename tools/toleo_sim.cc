/**
 * @file
 * toleo_sim: the parallel sweep driver.
 *
 * The raw numbers behind bench/paper's figures: evaluates a
 * (workload x engine) grid, fanning the cells out to worker threads
 * (each cell's toleo::System is self-contained), and emits the full
 * SimStats record for every cell as JSON or CSV.  Typical use:
 *
 *   toleo_sim --workloads bsw,dbg --engines NoProtect,Toleo --jobs 4
 *   toleo_sim --workloads all --engines all --jobs 8 --format csv
 *
 * Host-speed measurement lives in perfbench/ (run.py, ab.py), not
 * here.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/sweep.hh"
#include "workload/request_apps.hh"
#include "workload/trace_file.hh"

using namespace toleo;

namespace {

/**
 * One validated run: parseArgs has already checked every cross-flag
 * rule and resolved --jobs, so main only captures, loads, runs and
 * emits.
 */
struct RunSpec
{
    std::vector<SweepCell> cells;
    SweepOptions sweep;
    std::string format = "json";
    std::string outPath; ///< empty = stdout
    std::string tracePath; ///< --trace; loaded into sweep.trace
    std::string capturePath; ///< --record-trace; see captureTrace
    bool progress = true;

    bool rack() const { return sweep.rackNodes > 1; }
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Run a (workload x engine) sweep of the Toleo model and emit\n"
        "one SimStats record per cell.\n"
        "\n"
        "options:\n"
        "  --workloads LIST  comma-separated workload names, or 'all'\n"
        "                    for the 12 paper workloads (default: bsw)\n"
        "  --engines LIST    comma-separated engines out of NoProtect,\n"
        "                    C, CI, Toleo, InvisiMem, Merkle, or 'all'\n"
        "                    (default: all)\n"
        "  --cores N         simulated cores per cell (default: 8)\n"
        "  --warmup N        warmup references per core (default: 30000)\n"
        "  --measure N       measured references per core (default: 60000)\n"
        "  --jobs N          cross-cell worker threads; 0 (and the\n"
        "                    default) = auto-detect: hardware threads\n"
        "                    divided by --rack-threads x\n"
        "                    --threads-per-cell\n"
        "  --threads-per-cell N\n"
        "                    private-phase threads inside every cell's\n"
        "                    System(s) (default: 1); statistics are\n"
        "                    bit-identical for any value.  Composes\n"
        "                    multiplicatively with --jobs, and the\n"
        "                    product is checked against the host's\n"
        "                    hardware threads\n"
        "  --allow-oversubscribe\n"
        "                    run anyway when an explicit --jobs x\n"
        "                    --rack-threads x --threads-per-cell\n"
        "                    oversubscribes the host\n"
        "  --seed N          simulation seed (default: 42)\n"
        "  --rack N          simulate every cell as an N-node rack\n"
        "                    sharing one Toleo device (node i seeds\n"
        "                    with seed+i); emits one RackStats record\n"
        "                    per cell with device-side contention\n"
        "                    (JSON, or one CSV row per node with\n"
        "                    --format csv; default: 1 = single node)\n"
        "  --rack-service G  shared-device service bandwidth in GB/s\n"
        "                    (default: 0 = auto, 1.5x the node link;\n"
        "                    needs --rack N > 1)\n"
        "  --rack-threads N  worker threads for the node-private half\n"
        "                    of each rack epoch (default: 1 = the\n"
        "                    serial node loop; needs --rack N > 1);\n"
        "                    the device/arbiter replay stays serial in\n"
        "                    node order, so statistics are\n"
        "                    bit-identical for any value.  Composes\n"
        "                    multiplicatively with --jobs and\n"
        "                    --threads-per-cell under the same\n"
        "                    host-thread budget check\n"
        "  --arrival SPEC    request arrival model: 'closed' (the\n"
        "                    classic replay, default), 'poisson:RATE'\n"
        "                    or 'burst:RATE,CV' with RATE in requests\n"
        "                    per second per node.  Open models add a\n"
        "                    per-request latency/SLO 'serving' block\n"
        "                    to every cell without changing any other\n"
        "                    statistic\n"
        "  --slo-us X        latency SLO threshold in microseconds for\n"
        "                    the serving block's attainment stat\n"
        "                    (default: 100; needs an open --arrival)\n"
        "  --format FMT      json or csv (default: json)\n"
        "  --out FILE        write results to FILE instead of stdout\n"
        "  --trace FILE      replay every cell's reference streams\n"
        "                    from a recorded trace instead of the\n"
        "                    synthetic generators (looped when the\n"
        "                    window outruns the capture)\n"
        "  --record-trace F  before the sweep, write the workload's\n"
        "                    synthetic streams (warmup + measure\n"
        "                    references per core) to F, replayable\n"
        "                    with --trace; needs one workload on one\n"
        "                    node, and works with any --engines and\n"
        "                    --arrival\n"
        "  --quiet           suppress per-cell progress on stderr\n"
        "  --list            list known workloads and engines, then exit\n"
        "  --help            this message\n",
        argv0);
}

std::uint64_t
parseUint(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    // strtoull silently wraps "-1" to a huge value; reject it here.
    if (end == text || *end != '\0' ||
        std::strchr(text, '-') != nullptr)
        fatal("%s: expected a non-negative integer, got '%s'", flag,
              text);
    // ...and clamps anything past 64 bits to ULLONG_MAX.
    if (errno == ERANGE)
        fatal("%s: '%s' is out of range", flag, text);
    return v;
}

/** parseUint for the unsigned-typed flags: a value above UINT_MAX
 *  is rejected by name instead of wrapping modulo 2^32. */
unsigned
parseUnsigned(const char *flag, const char *text)
{
    const std::uint64_t v = parseUint(flag, text);
    if (v > std::numeric_limits<unsigned>::max())
        fatal("%s: '%s' is out of range (at most %u)", flag, text,
              std::numeric_limits<unsigned>::max());
    return static_cast<unsigned>(v);
}

const char *
nextArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        fatal("%s requires an argument", argv[i]);
    return argv[++i];
}

/**
 * Parse the command line into one RunSpec.  The flag loop checks
 * each value on its own; the cross-flag rules follow it, each stated
 * exactly once.
 */
RunSpec
parseArgs(int argc, char **argv)
{
    RunSpec spec;
    SweepOptions &sweep = spec.sweep;
    sweep.jobs = 0; // auto-detect unless --jobs N > 0
    std::string workloads = "bsw";
    std::string engines = "all";
    bool sloSet = false;
    bool allowOversubscribe = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--workloads")) {
            workloads = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--engines")) {
            engines = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--cores")) {
            sweep.cores = parseUnsigned(arg, nextArg(argc, argv, i));
            if (sweep.cores == 0)
                fatal("--cores must be positive");
        } else if (!std::strcmp(arg, "--warmup")) {
            sweep.warmupRefs = parseUint(arg, nextArg(argc, argv, i));
        } else if (!std::strcmp(arg, "--measure")) {
            sweep.measureRefs = parseUint(arg, nextArg(argc, argv, i));
            if (sweep.measureRefs == 0)
                fatal("--measure must be positive");
        } else if (!std::strcmp(arg, "--jobs")) {
            sweep.jobs = parseUnsigned(arg, nextArg(argc, argv, i));
        } else if (!std::strcmp(arg, "--threads-per-cell")) {
            sweep.intraThreads =
                parseUnsigned(arg, nextArg(argc, argv, i));
            if (sweep.intraThreads == 0)
                fatal("--threads-per-cell must be positive");
        } else if (!std::strcmp(arg, "--allow-oversubscribe")) {
            allowOversubscribe = true;
        } else if (!std::strcmp(arg, "--seed")) {
            sweep.seed = parseUint(arg, nextArg(argc, argv, i));
        } else if (!std::strcmp(arg, "--rack")) {
            sweep.rackNodes = parseUnsigned(arg, nextArg(argc, argv, i));
            if (sweep.rackNodes == 0)
                fatal("--rack must be positive");
        } else if (!std::strcmp(arg, "--rack-threads")) {
            sweep.rackThreads =
                parseUnsigned(arg, nextArg(argc, argv, i));
            if (sweep.rackThreads == 0)
                fatal("--rack-threads must be positive");
        } else if (!std::strcmp(arg, "--rack-service")) {
            const char *text = nextArg(argc, argv, i);
            char *end = nullptr;
            sweep.rackServiceGBps = std::strtod(text, &end);
            // >= 0.0 rejects NaN; isfinite rejects "inf", which
            // strtod happily parses and runRack would otherwise only
            // reject deep inside the sweep.
            if (end == text || *end != '\0' ||
                !std::isfinite(sweep.rackServiceGBps) ||
                !(sweep.rackServiceGBps >= 0.0))
                fatal("--rack-service: expected a finite non-negative "
                      "bandwidth in GB/s, got '%s'", text);
        } else if (!std::strcmp(arg, "--arrival")) {
            const char *text = nextArg(argc, argv, i);
            std::string err;
            if (!parseArrivalSpec(text, sweep.arrival, err))
                fatal("--arrival: %s", err.c_str());
        } else if (!std::strcmp(arg, "--slo-us")) {
            const char *text = nextArg(argc, argv, i);
            char *end = nullptr;
            sweep.arrival.sloUs = std::strtod(text, &end);
            if (end == text || *end != '\0' ||
                !std::isfinite(sweep.arrival.sloUs) ||
                !(sweep.arrival.sloUs > 0.0))
                fatal("--slo-us: expected a positive latency in "
                      "microseconds, got '%s'", text);
            sloSet = true;
        } else if (!std::strcmp(arg, "--format")) {
            spec.format = nextArg(argc, argv, i);
            if (spec.format != "json" && spec.format != "csv")
                fatal("--format must be json or csv");
        } else if (!std::strcmp(arg, "--out")) {
            spec.outPath = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--trace")) {
            spec.tracePath = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--record-trace")) {
            spec.capturePath = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--quiet")) {
            spec.progress = false;
        } else if (!std::strcmp(arg, "--list")) {
            std::printf("workloads:");
            for (const auto &w : paperWorkloads())
                std::printf(" %s", w.c_str());
            std::printf("\nrequest apps:");
            for (const auto &w : requestAppWorkloads())
                std::printf(" %s", w.c_str());
            std::printf("\nengines:  ");
            for (const EngineKind e : allEngineKinds())
                std::printf(" %s", engineKindName(e));
            std::printf("\n");
            std::exit(0);
        } else if (!std::strcmp(arg, "--help") ||
                   !std::strcmp(arg, "-h")) {
            usage(argv[0]);
            std::exit(0);
        } else {
            usage(argv[0]);
            fatal("unknown option '%s'", arg);
        }
    }
    const std::vector<std::string> workloadList =
        parseWorkloadList(workloads);
    spec.cells = makeSweepGrid(workloadList, parseEngineList(engines));

    // The rack knobs mean nothing for a single node; a silent no-op
    // would report single-node numbers as if they were the rack's.
    const bool rack = spec.rack();
    if (!rack && (sweep.rackThreads > 1 || sweep.rackServiceGBps > 0.0))
        fatal("%s configures a rack cell; it requires --rack N with "
              "N > 1",
              sweep.rackThreads > 1 ? "--rack-threads"
                                    : "--rack-service");

    // Fail an under-provisioned explicit service bandwidth here, in
    // milliseconds, instead of letting every cell throw the same
    // std::invalid_argument deep inside runRack.  The node link
    // bandwidth is a function of --cores only (the memory topology
    // scales with the node), so one representative config answers
    // for the whole grid.
    if (sweep.rackServiceGBps > 0.0) {
        const double link =
            makeScaledConfig("bsw", EngineKind::Toleo, sweep.cores)
                .mem.toleoLinkBandwidthGBps;
        if (sweep.rackServiceGBps < link)
            fatal("--rack-service %.3f GB/s is below the %.3f GB/s "
                  "Toleo link of a %u-core node; even an uncontended "
                  "node would stall (pass 0 for auto)",
                  sweep.rackServiceGBps, link, sweep.cores);
    }

    // The SLO only grades open-loop requests; under the closed model
    // no serving block is emitted, so the threshold would be ignored.
    if (sloSet && !sweep.arrival.open())
        fatal("--slo-us sets the open-loop SLO threshold; it requires "
              "--arrival poisson:<rate> or burst:<rate>,<cv>");

    // Thread budget, in 64 bits: each rack worker drives one node's
    // private phase and each node's System may itself pool, so a
    // cell runs up to rackThreads x intraThreads threads.  Auto
    // --jobs divides the host's hardware threads across them, so the
    // default never oversubscribes.  hardware_concurrency() may
    // return 0 (unknown); treat that as 1 and skip the guard.
    const unsigned hw = std::thread::hardware_concurrency();
    const std::uint64_t perCell =
        std::uint64_t{sweep.rackThreads} * sweep.intraThreads;
    if (sweep.jobs == 0) {
        sweep.jobs = static_cast<unsigned>(
            std::max<std::uint64_t>(1, (hw ? hw : 1) / perCell));
    } else if (perCell > 1 && hw != 0 && sweep.jobs > hw / perCell &&
               !allowOversubscribe) {
        // jobs > hw / perCell is jobs x perCell > hw without the
        // product, which can overflow even 64 bits.  An explicit
        // combination that oversubscribes the host thrashes silently
        // (every pool thinks it owns the machine).  Plain --jobs N >
        // hw stays legal: the check guards the multiplicative knobs.
        fatal("--jobs %u x --rack-threads %u x --threads-per-cell %u "
              "oversubscribes this host's %u hardware threads; lower "
              "one, let --jobs auto-detect (omit it or pass 0), or "
              "pass --allow-oversubscribe",
              sweep.jobs, sweep.rackThreads, sweep.intraThreads, hw);
    }

    // A capture holds one workload's synthetic streams on one node;
    // every engine of that workload draws the same streams.
    if (!spec.capturePath.empty()) {
        const char *conflict =
            rack ? "--rack"
            : !spec.tracePath.empty() ? "--trace"
            : workloadList.size() != 1 ? "more than one workload"
                                       : nullptr;
        if (conflict)
            fatal("--record-trace captures one workload's synthetic "
                  "streams on one node; it cannot be combined with %s",
                  conflict);
    }
    return spec;
}

void
emitJson(const RunSpec &spec, const std::vector<SimStats> &results,
         double wall_seconds, std::ostream &os)
{
    Json doc = Json::object();
    doc["tool"] = "toleo_sim";

    Json cfg = Json::object();
    cfg["cores"] = spec.sweep.cores;
    cfg["warmupRefs"] = spec.sweep.warmupRefs;
    cfg["measureRefs"] = spec.sweep.measureRefs;
    cfg["seed"] = spec.sweep.seed;
    cfg["jobs"] = spec.sweep.jobs;
    cfg["threadsPerCell"] = spec.sweep.intraThreads;
    cfg["cells"] = static_cast<std::uint64_t>(spec.cells.size());
    doc["config"] = std::move(cfg);

    Json arr = Json::array();
    for (const auto &stats : results)
        arr.push_back(statsToJson(stats));
    doc["results"] = std::move(arr);
    doc["wallSeconds"] = wall_seconds;

    doc.dump(os, 2);
    os << "\n";
}

void
emitRackJson(const RunSpec &spec, const std::vector<RackStats> &results,
             double wall_seconds, std::ostream &os)
{
    Json doc = Json::object();
    doc["tool"] = "toleo_sim";
    doc["mode"] = "rack";

    Json cfg = Json::object();
    cfg["rackNodes"] = spec.sweep.rackNodes;
    cfg["rackThreads"] = spec.sweep.rackThreads;
    cfg["cores"] = spec.sweep.cores;
    cfg["warmupRefs"] = spec.sweep.warmupRefs;
    cfg["measureRefs"] = spec.sweep.measureRefs;
    cfg["seed"] = spec.sweep.seed;
    cfg["jobs"] = spec.sweep.jobs;
    cfg["threadsPerCell"] = spec.sweep.intraThreads;
    cfg["cells"] = static_cast<std::uint64_t>(spec.cells.size());
    doc["config"] = std::move(cfg);

    Json arr = Json::array();
    for (std::size_t i = 0; i < results.size(); ++i) {
        Json cell = rackStatsToJson(results[i]);
        cell["workload"] = spec.cells[i].workload;
        cell["engine"] = engineKindName(spec.cells[i].engine);
        arr.push_back(std::move(cell));
    }
    doc["results"] = std::move(arr);
    doc["wallSeconds"] = wall_seconds;

    doc.dump(os, 2);
    os << "\n";
}

void
emitCsv(const std::vector<SimStats> &results, std::ostream &os)
{
    os << statsCsvHeader() << "\n";
    for (const auto &stats : results)
        os << statsCsvRow(stats) << "\n";
}

/** One row per (cell, node); rack-level scalars are denormalized
 *  onto every node row (see rackCsvHeader in sim/rack.hh). */
void
emitRackCsv(const std::vector<RackStats> &results, std::ostream &os)
{
    os << rackCsvHeader() << "\n";
    for (const auto &stats : results)
        for (std::size_t n = 0; n < stats.nodes.size(); ++n)
            os << rackCsvRow(stats, n) << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    RunSpec spec = parseArgs(argc, argv);
    SweepOptions &sweep = spec.sweep;
    const bool rack = spec.rack();

    if (!spec.capturePath.empty()) {
        // The draws alone make the capture, so it is written before
        // the sweep: a bad path fails before any simulation.
        try {
            captureTrace(spec.capturePath, spec.cells[0].workload,
                         sweep.cores, sweep.seed,
                         sweep.warmupRefs + sweep.measureRefs);
        } catch (const TraceError &e) {
            fatal("%s", e.what());
        }
    }
    if (!spec.tracePath.empty()) {
        // Open (and fully validate) the trace up front so a bad path
        // or corrupt file fails in milliseconds, not mid-sweep -- and
        // share the one read-only instance across every cell instead
        // of re-decoding the file per cell.
        try {
            sweep.trace = TraceFile::open(spec.tracePath);
        } catch (const TraceError &e) {
            fatal("%s", e.what());
        }
        if (spec.progress) {
            // Streams can be unequal (e.g. trace_convert's
            // round-robin remainder), so report the total.
            std::uint64_t records = 0;
            const unsigned nstreams = sweep.trace->streamCount();
            for (unsigned s = 0; s < nstreams; ++s)
                records += sweep.trace->recordCount(s);
            std::fprintf(stderr,
                         "trace '%s': workload %s, %u streams, "
                         "%llu records\n",
                         spec.tracePath.c_str(),
                         sweep.trace->workload().c_str(), nstreams,
                         static_cast<unsigned long long>(records));
        }
    }

    SweepProgressFn progress;
    RackSweepProgressFn rackProgress;
    if (spec.progress && !rack) {
        progress = [](const SimStats &stats, std::size_t done,
                      std::size_t total) {
            std::fprintf(stderr,
                         "[%zu/%zu] %s/%s: ipc %.3f, mpki %.1f\n",
                         done, total, stats.workload.c_str(),
                         stats.engine.c_str(), stats.ipc,
                         stats.llcMpki);
        };
    } else if (spec.progress) {
        rackProgress = [](const RackStats &stats, std::size_t done,
                          std::size_t total) {
            double stall_ms = 0.0;
            for (const auto &node : stats.nodes)
                stall_ms += node.contentionStallNs * 1e-6;
            std::fprintf(stderr,
                         "[%zu/%zu] %s/%s: %zu nodes, %llu/%llu "
                         "epochs saturated, %.2f ms contention "
                         "stall\n",
                         done, total,
                         stats.nodes[0].sim.workload.c_str(),
                         stats.nodes[0].sim.engine.c_str(),
                         stats.nodes.size(),
                         static_cast<unsigned long long>(
                             stats.saturatedEpochs),
                         static_cast<unsigned long long>(
                             stats.epochs),
                         stall_ms);
        };
    }

    // Open the output before the sweep so a bad path fails in
    // milliseconds, not after minutes of simulation.
    std::ofstream file;
    if (!spec.outPath.empty()) {
        file.open(spec.outPath);
        if (!file)
            fatal("cannot open output file '%s'",
                  spec.outPath.c_str());
    }
    std::ostream &os = spec.outPath.empty() ? std::cout : file;

    // Whole-sweep wall clock, reported as wallSeconds; never a
    // simulation input.
    // toleo-lint: allow(nondeterminism)
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<SimStats> results;
    std::vector<RackStats> rackResults;
    try {
        if (rack)
            rackResults = runRackSweep(spec.cells, sweep, rackProgress);
        else
            results = runSweep(spec.cells, sweep, progress);
    } catch (const std::exception &e) {
        fatal("sweep failed: %s", e.what());
    }
    const double wall_seconds =
        std::chrono::duration<double>(
            // toleo-lint: allow(nondeterminism)
            std::chrono::steady_clock::now() - t0)
            .count();

    const bool csv = spec.format == "csv";
    if (rack && csv)
        emitRackCsv(rackResults, os);
    else if (rack)
        emitRackJson(spec, rackResults, wall_seconds, os);
    else if (csv)
        emitCsv(results, os);
    else
        emitJson(spec, results, wall_seconds, os);
    os.flush();
    if (!os)
        fatal("error writing results%s%s",
              spec.outPath.empty() ? "" : " to ",
              spec.outPath.c_str());

    if (spec.progress)
        std::fprintf(stderr,
                     "%zu cells, %u jobs, %.2fs wall clock\n",
                     spec.cells.size(), sweep.jobs, wall_seconds);
    return 0;
}
