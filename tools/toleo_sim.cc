/**
 * @file
 * toleo_sim: the parallel sweep driver.
 *
 * Replaces serially running the 20 bench/ figure binaries when all
 * you want is the raw numbers: evaluates a (workload x engine) grid,
 * fanning the cells out to worker threads (each cell's toleo::System
 * is self-contained), and emits the full SimStats record for every
 * cell as JSON or CSV.  Typical use:
 *
 *   toleo_sim --workloads bsw,dbg --engines NoProtect,Toleo --jobs 4
 *   toleo_sim --workloads all --engines all --jobs 8 --format csv
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
#include <sstream>
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

struct CliOptions
{
    std::string workloads = "bsw";
    std::string engines = "all";
    bool workloadsSet = false;
    SweepOptions sweep;
    std::string format = "json";
    std::string outPath; ///< empty = stdout (bench: BENCH_sweep.json)
    bool progress = true;
    /** Perf-tracking mode: full grid, BENCH_sweep.json output. */
    bool bench = false;
    /** Previous BENCH_sweep.json to embed for before/after deltas. */
    std::string benchPrevPath;
    /** Free-text host/context note embedded in the bench record. */
    std::string benchNote;
    /** Big-cell microbench thread counts (--bench-big 1,2,8);
     *  empty = skip. */
    std::vector<unsigned> benchBig;
    /** --slo-us was given (it only means something open-loop). */
    bool sloSet = false;
    /** --jobs was given explicitly (0 = auto-detect). */
    bool jobsSet = false;
    /** Run even when jobs x threads-per-cell exceeds the host. */
    bool allowOversubscribe = false;
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
        "                    divided by --threads-per-cell\n"
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
        "                    (default: 0 = auto, 1.5x the node link)\n"
        "  --rack-threads N  worker threads for the node-private half\n"
        "                    of each rack epoch (default: 1 = the\n"
        "                    serial node loop); the device/arbiter\n"
        "                    replay stays serial in node order, so\n"
        "                    statistics are bit-identical for any\n"
        "                    value.  Composes multiplicatively with\n"
        "                    --jobs and --threads-per-cell under the\n"
        "                    same host-thread budget check\n"
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
        "  --record-trace F  capture the generator streams of a\n"
        "                    single (workload x engine) cell to F,\n"
        "                    replayable with --trace\n"
        "  --quiet           suppress per-cell progress on stderr\n"
        "  --list            list known workloads and engines, then exit\n"
        "  --bench           perf-tracking mode: run the grid (default\n"
        "                    the full 12x6 paper grid), measure wall\n"
        "                    time and refs/sec per cell, and write a\n"
        "                    BENCH_sweep.json record (see --out)\n"
        "  --bench-prev F    embed the wallSeconds/refsPerSec of a\n"
        "                    previous BENCH_sweep.json as 'previous'\n"
        "                    and report the speedup against it\n"
        "  --bench-note TEXT embed TEXT as 'note' in the bench record\n"
        "                    (host description, context)\n"
        "  --bench-big LIST  with --bench: also run the 64-core\n"
        "                    big-cell microbench once per\n"
        "                    threads-per-cell count in the comma-\n"
        "                    separated LIST, recording wall time,\n"
        "                    refs/sec, speedup, the per-phase\n"
        "                    breakdown, and stats bit-identity\n"
        "                    across thread counts; the same LIST\n"
        "                    then drives --rack-threads over a\n"
        "                    4-node rack cell (bit-identity gated\n"
        "                    the same way)\n"
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

/** The --bench-big thread-count list, validated up front. */
std::vector<unsigned>
parseThreadList(const char *text)
{
    std::vector<unsigned> counts;
    std::stringstream ss(text);
    std::string part;
    while (std::getline(ss, part, ',')) {
        if (part.empty())
            continue;
        const unsigned t = parseUnsigned("--bench-big", part.c_str());
        if (t == 0)
            fatal("--bench-big: thread counts must be positive");
        counts.push_back(t);
    }
    if (counts.empty())
        fatal("--bench-big: expected a comma-separated list of "
              "thread counts, got '%s'", text);
    return counts;
}

const char *
nextArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        fatal("%s requires an argument", argv[i]);
    return argv[++i];
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--workloads")) {
            opts.workloads = nextArg(argc, argv, i);
            opts.workloadsSet = true;
        } else if (!std::strcmp(arg, "--bench")) {
            opts.bench = true;
        } else if (!std::strcmp(arg, "--bench-prev")) {
            opts.benchPrevPath = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--bench-note")) {
            opts.benchNote = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--bench-big")) {
            opts.benchBig = parseThreadList(nextArg(argc, argv, i));
        } else if (!std::strcmp(arg, "--engines")) {
            opts.engines = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--cores")) {
            opts.sweep.cores = parseUnsigned(arg, nextArg(argc, argv, i));
            if (opts.sweep.cores == 0)
                fatal("--cores must be positive");
        } else if (!std::strcmp(arg, "--warmup")) {
            opts.sweep.warmupRefs =
                parseUint(arg, nextArg(argc, argv, i));
        } else if (!std::strcmp(arg, "--measure")) {
            opts.sweep.measureRefs =
                parseUint(arg, nextArg(argc, argv, i));
            if (opts.sweep.measureRefs == 0)
                fatal("--measure must be positive");
        } else if (!std::strcmp(arg, "--jobs")) {
            // 0 = auto-detect, resolved below once every flag
            // (notably --threads-per-cell) has been parsed.
            opts.sweep.jobs = parseUnsigned(arg, nextArg(argc, argv, i));
            opts.jobsSet = opts.sweep.jobs != 0;
        } else if (!std::strcmp(arg, "--threads-per-cell")) {
            opts.sweep.intraThreads =
                parseUnsigned(arg, nextArg(argc, argv, i));
            if (opts.sweep.intraThreads == 0)
                fatal("--threads-per-cell must be positive");
        } else if (!std::strcmp(arg, "--allow-oversubscribe")) {
            opts.allowOversubscribe = true;
        } else if (!std::strcmp(arg, "--seed")) {
            opts.sweep.seed = parseUint(arg, nextArg(argc, argv, i));
        } else if (!std::strcmp(arg, "--rack")) {
            opts.sweep.rackNodes =
                parseUnsigned(arg, nextArg(argc, argv, i));
            if (opts.sweep.rackNodes == 0)
                fatal("--rack must be positive");
        } else if (!std::strcmp(arg, "--rack-threads")) {
            opts.sweep.rackThreads =
                parseUnsigned(arg, nextArg(argc, argv, i));
            if (opts.sweep.rackThreads == 0)
                fatal("--rack-threads must be positive");
        } else if (!std::strcmp(arg, "--rack-service")) {
            const char *text = nextArg(argc, argv, i);
            char *end = nullptr;
            opts.sweep.rackServiceGBps = std::strtod(text, &end);
            // >= 0.0 rejects NaN; isfinite rejects "inf", which
            // strtod happily parses and runRack would otherwise only
            // reject deep inside the sweep.
            if (end == text || *end != '\0' ||
                !std::isfinite(opts.sweep.rackServiceGBps) ||
                !(opts.sweep.rackServiceGBps >= 0.0))
                fatal("--rack-service: expected a finite non-negative "
                      "bandwidth in GB/s, got '%s'", text);
        } else if (!std::strcmp(arg, "--arrival")) {
            const char *text = nextArg(argc, argv, i);
            std::string err;
            if (!parseArrivalSpec(text, opts.sweep.arrival, err))
                fatal("--arrival: %s", err.c_str());
        } else if (!std::strcmp(arg, "--slo-us")) {
            const char *text = nextArg(argc, argv, i);
            char *end = nullptr;
            opts.sweep.arrival.sloUs = std::strtod(text, &end);
            if (end == text || *end != '\0' ||
                !std::isfinite(opts.sweep.arrival.sloUs) ||
                !(opts.sweep.arrival.sloUs > 0.0))
                fatal("--slo-us: expected a positive latency in "
                      "microseconds, got '%s'", text);
            opts.sloSet = true;
        } else if (!std::strcmp(arg, "--format")) {
            opts.format = nextArg(argc, argv, i);
            if (opts.format != "json" && opts.format != "csv")
                fatal("--format must be json or csv");
        } else if (!std::strcmp(arg, "--out")) {
            opts.outPath = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--trace")) {
            opts.sweep.tracePath = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--record-trace")) {
            opts.sweep.recordTracePath = nextArg(argc, argv, i);
        } else if (!std::strcmp(arg, "--quiet")) {
            opts.progress = false;
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

    // Thread budget.  Unset or explicit-zero --jobs auto-detects:
    // the host's hardware threads divided across the per-cell pools,
    // so the default never oversubscribes whatever
    // --threads-per-cell was chosen.  hardware_concurrency() may
    // return 0 (unknown); treat that as 1 and skip the guard.
    const unsigned hw = std::thread::hardware_concurrency();
    // Per-cell threads: the rack tier multiplies in between jobs and
    // threads-per-cell (each rack worker drives one node's private
    // phase, and each node's System may itself pool).
    const unsigned perCell =
        opts.sweep.rackThreads * opts.sweep.intraThreads;
    if (!opts.jobsSet)
        opts.sweep.jobs = std::max(1u, (hw ? hw : 1) / perCell);

    // An explicit combination that oversubscribes the host thrashes
    // silently (every pool thinks it owns the machine); reject it
    // with the budget spelled out.  Plain --jobs N > hw stays legal
    // as it always was -- the check guards the new multiplicative
    // knobs.
    if (perCell > 1 && opts.jobsSet && hw != 0 &&
        opts.sweep.jobs * perCell > hw && !opts.allowOversubscribe)
        fatal("--jobs %u x --rack-threads %u x --threads-per-cell %u "
              "= %u threads oversubscribes this host's %u hardware "
              "threads; lower one, let --jobs auto-detect (omit it "
              "or pass 0), or pass --allow-oversubscribe",
              opts.sweep.jobs, opts.sweep.rackThreads,
              opts.sweep.intraThreads, opts.sweep.jobs * perCell, hw);
    return opts;
}

void
emitJson(const CliOptions &opts, const std::vector<SweepCell> &cells,
         const std::vector<SimStats> &results, double wall_seconds,
         std::ostream &os)
{
    Json doc = Json::object();
    doc["tool"] = "toleo_sim";

    Json cfg = Json::object();
    cfg["cores"] = opts.sweep.cores;
    cfg["warmupRefs"] = opts.sweep.warmupRefs;
    cfg["measureRefs"] = opts.sweep.measureRefs;
    cfg["seed"] = opts.sweep.seed;
    cfg["jobs"] = opts.sweep.jobs;
    cfg["threadsPerCell"] = opts.sweep.intraThreads;
    cfg["cells"] = static_cast<std::uint64_t>(cells.size());
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
emitRackJson(const CliOptions &opts,
             const std::vector<SweepCell> &cells,
             const std::vector<RackStats> &results,
             double wall_seconds, std::ostream &os)
{
    Json doc = Json::object();
    doc["tool"] = "toleo_sim";
    doc["mode"] = "rack";

    Json cfg = Json::object();
    cfg["rackNodes"] = opts.sweep.rackNodes;
    cfg["rackThreads"] = opts.sweep.rackThreads;
    cfg["cores"] = opts.sweep.cores;
    cfg["warmupRefs"] = opts.sweep.warmupRefs;
    cfg["measureRefs"] = opts.sweep.measureRefs;
    cfg["seed"] = opts.sweep.seed;
    cfg["jobs"] = opts.sweep.jobs;
    cfg["threadsPerCell"] = opts.sweep.intraThreads;
    cfg["cells"] = static_cast<std::uint64_t>(cells.size());
    doc["config"] = std::move(cfg);

    Json arr = Json::array();
    for (std::size_t i = 0; i < results.size(); ++i) {
        Json cell = rackStatsToJson(results[i]);
        cell["workload"] = cells[i].workload;
        cell["engine"] = engineKindName(cells[i].engine);
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

/** Simulated references per cell: warmup + measurement, all cores. */
std::uint64_t
cellRefs(const SweepOptions &opts)
{
    return (opts.warmupRefs + opts.measureRefs) * opts.cores;
}

/** PhaseTimes (ns accumulators) as a JSON object in seconds. */
Json
phasesToJson(const PhaseTimes &ph)
{
    Json j = Json::object();
    j["privateSeconds"] = ph.privateNs * 1e-9;
    j["sharedSeconds"] = ph.sharedNs * 1e-9;
    j["epochSeconds"] = ph.epochNs * 1e-9;
    return j;
}

/**
 * The big-cell microbench: one 64-core memcached/Toleo cell -- the
 * one-hot-node shape the rack economics care about, where cross-cell
 * --jobs cannot help -- run once per requested threads-per-cell
 * count.  Records wall time, refs/sec, the per-phase breakdown, the
 * speedup over the first run, and whether statsToJson stayed
 * bit-identical across every thread count.
 */
Json
runBenchBig(const CliOptions &opts)
{
    const std::vector<unsigned> &counts = opts.benchBig;
    const SweepCell cell{"memcached", EngineKind::Toleo};
    SweepOptions bo;
    bo.cores = 64;
    bo.warmupRefs = 30000;
    bo.measureRefs = 60000;
    bo.seed = opts.sweep.seed;
    bo.jobs = 1;

    Json big = Json::object();
    big["workload"] = cell.workload;
    big["engine"] = engineKindName(cell.engine);
    big["cores"] = bo.cores;
    big["warmupRefs"] = bo.warmupRefs;
    big["measureRefs"] = bo.measureRefs;

    const unsigned hw = std::thread::hardware_concurrency();
    std::string firstDump;
    double firstSec = 0.0;
    bool identical = true;
    Json runs = Json::array();
    for (const unsigned t : counts) {
        if (hw != 0 && t > hw)
            warn("--bench-big: %u threads on a %u-thread host; the "
                 "timing of this run is not meaningful", t, hw);
        bo.intraThreads = t;
        PhaseTimes ph;
        // Microbench wall clock: perf telemetry only.
        // toleo-lint: allow(nondeterminism)
        const auto t0 = std::chrono::steady_clock::now();
        const SimStats stats = runSweepCell(cell, bo, &ph);
        const double sec =
            std::chrono::duration<double>(
                // toleo-lint: allow(nondeterminism)
                std::chrono::steady_clock::now() - t0)
                .count();

        std::ostringstream dump;
        statsToJson(stats).dump(dump, 2);
        if (firstDump.empty()) {
            firstDump = dump.str();
            firstSec = sec;
        } else if (dump.str() != firstDump) {
            identical = false;
        }

        Json run = Json::object();
        run["intraThreads"] = t;
        run["wallSeconds"] = sec;
        run["refsPerSec"] =
            sec > 0.0 ? static_cast<double>(cellRefs(bo)) / sec : 0.0;
        run["speedupVsFirst"] = sec > 0.0 ? firstSec / sec : 0.0;
        run["phases"] = phasesToJson(ph);
        runs.push_back(std::move(run));
        if (opts.progress)
            std::fprintf(stderr,
                         "[big-cell] %u thread%s: %.3fs\n", t,
                         t == 1 ? "" : "s", sec);
    }
    big["runs"] = std::move(runs);
    big["bitIdentical"] = identical;
    if (!identical)
        fatal("--bench-big: statsToJson differed across thread "
              "counts; the intra-cell pool broke determinism");

    // Rack-cell companion: the same thread-count list drives
    // --rack-threads over a 4-node rack (smaller nodes, so the
    // section stays a smoke-scale gate).  The record pins the
    // node-parallel epoch loop the same way the big cell pins the
    // intra-cell pool: refs/sec per thread count for the
    // trajectory, and a hard failure if rackStatsToJson is not
    // bit-identical across counts.
    {
        SweepOptions ro;
        ro.cores = 8;
        ro.warmupRefs = 10000;
        ro.measureRefs = 20000;
        ro.seed = opts.sweep.seed;
        ro.jobs = 1;
        ro.rackNodes = 4;

        Json rackCell = Json::object();
        rackCell["workload"] = cell.workload;
        rackCell["engine"] = engineKindName(cell.engine);
        rackCell["nodes"] = ro.rackNodes;
        rackCell["coresPerNode"] = ro.cores;
        rackCell["warmupRefs"] = ro.warmupRefs;
        rackCell["measureRefs"] = ro.measureRefs;

        std::string rackFirstDump;
        double rackFirstSec = 0.0;
        bool rackIdentical = true;
        Json rackRuns = Json::array();
        for (const unsigned t : counts) {
            ro.rackThreads = t;
            // toleo-lint: allow(nondeterminism)
            const auto t0 = std::chrono::steady_clock::now();
            const RackStats rstats = runRackSweepCell(cell, ro);
            const double sec =
                std::chrono::duration<double>(
                    // toleo-lint: allow(nondeterminism)
                    std::chrono::steady_clock::now() - t0)
                    .count();

            std::ostringstream dump;
            rackStatsToJson(rstats).dump(dump, 2);
            if (rackFirstDump.empty()) {
                rackFirstDump = dump.str();
                rackFirstSec = sec;
            } else if (dump.str() != rackFirstDump) {
                rackIdentical = false;
            }

            Json run = Json::object();
            run["rackThreads"] = t;
            run["wallSeconds"] = sec;
            run["refsPerSec"] =
                sec > 0.0 ? static_cast<double>(ro.rackNodes) *
                                static_cast<double>(cellRefs(ro)) / sec
                          : 0.0;
            run["speedupVsFirst"] =
                sec > 0.0 ? rackFirstSec / sec : 0.0;
            rackRuns.push_back(std::move(run));
            if (opts.progress)
                std::fprintf(stderr,
                             "[rack-cell] %u rack-thread%s: %.3fs\n",
                             t, t == 1 ? "" : "s", sec);
        }
        rackCell["runs"] = std::move(rackRuns);
        rackCell["bitIdentical"] = rackIdentical;
        if (!rackIdentical)
            fatal("--bench-big: rackStatsToJson differed across "
                  "--rack-threads counts; the node-parallel rack "
                  "loop broke determinism");
        big["rackCell"] = std::move(rackCell);
    }
    return big;
}

/**
 * The machine-readable perf record: wall seconds and refs/sec for
 * the grid and per cell, so every PR leaves a trajectory point to
 * compare against (BENCH_sweep.json).
 */
void
emitBench(const CliOptions &opts, const std::vector<SweepCell> &cells,
          const std::vector<SimStats> &results,
          const std::vector<double> &cell_seconds,
          const std::vector<PhaseTimes> &cell_phases,
          double wall_seconds, Json bigCell, std::ostream &os)
{
    Json doc = Json::object();
    doc["tool"] = "toleo_sim";
    doc["mode"] = "bench";
    if (!opts.benchNote.empty())
        doc["note"] = opts.benchNote;

    Json cfg = Json::object();
    cfg["cores"] = opts.sweep.cores;
    cfg["warmupRefs"] = opts.sweep.warmupRefs;
    cfg["measureRefs"] = opts.sweep.measureRefs;
    cfg["seed"] = opts.sweep.seed;
    cfg["jobs"] = opts.sweep.jobs;
    cfg["threadsPerCell"] = opts.sweep.intraThreads;
    cfg["cells"] = static_cast<std::uint64_t>(cells.size());
    doc["config"] = std::move(cfg);

    const std::uint64_t total_refs = cellRefs(opts.sweep) * cells.size();
    doc["wallSeconds"] = wall_seconds;
    doc["totalRefs"] = total_refs;
    doc["refsPerSec"] =
        wall_seconds > 0.0
            ? static_cast<double>(total_refs) / wall_seconds
            : 0.0;

    Json arr = Json::array();
    for (std::size_t i = 0; i < results.size(); ++i) {
        Json cell = Json::object();
        cell["workload"] = results[i].workload;
        cell["engine"] = results[i].engine;
        cell["wallSeconds"] = cell_seconds[i];
        cell["refsPerSec"] =
            cell_seconds[i] > 0.0
                ? static_cast<double>(cellRefs(opts.sweep)) /
                      cell_seconds[i]
                : 0.0;
        cell["ipc"] = results[i].ipc;
        cell["llcMpki"] = results[i].llcMpki;
        if (i < cell_phases.size())
            cell["phases"] = phasesToJson(cell_phases[i]);
        arr.push_back(std::move(cell));
    }
    doc["cells"] = std::move(arr);

    if (!bigCell.isNull())
        doc["bigCell"] = std::move(bigCell);

    if (!opts.benchPrevPath.empty()) {
        std::ifstream in(opts.benchPrevPath);
        if (!in)
            fatal("cannot open --bench-prev file '%s'",
                  opts.benchPrevPath.c_str());
        std::ostringstream text;
        text << in.rdbuf();
        std::string err;
        const Json prev_doc = Json::parse(text.str(), &err);
        if (!err.empty())
            fatal("--bench-prev '%s': %s", opts.benchPrevPath.c_str(),
                  err.c_str());
        Json prev = Json::object();
        if (const Json *w = prev_doc.get("wallSeconds"))
            prev["wallSeconds"] = w->asDouble();
        if (const Json *r = prev_doc.get("refsPerSec"))
            prev["refsPerSec"] = r->asDouble();
        if (const Json *n = prev_doc.get("note"))
            prev["note"] = n->asString();
        // A wall-clock ratio is only meaningful when both records
        // simulated the same amount of work with the same worker
        // count; otherwise just embed the previous numbers.
        const Json *pw = prev_doc.get("wallSeconds");
        const Json *pt = prev_doc.get("totalRefs");
        const Json *pcfg = prev_doc.get("config");
        const bool same_jobs =
            !pcfg || !pcfg->get("jobs") ||
            pcfg->get("jobs")->asUint() == opts.sweep.jobs;
        if (pw && pt && wall_seconds > 0.0 &&
            pt->asUint() == total_refs && same_jobs) {
            doc["speedupVsPrevious"] = pw->asDouble() / wall_seconds;
        } else if (pw) {
            warn("--bench-prev '%s' ran a different grid or job "
                 "count; omitting speedupVsPrevious",
                 opts.benchPrevPath.c_str());
        }
        doc["previous"] = std::move(prev);
    }

    doc.dump(os, 2);
    os << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    CliOptions opts = parseArgs(argc, argv);
    if (opts.bench) {
        // Perf tracking defaults: the full paper grid, written to
        // the trajectory file unless redirected.
        if (!opts.workloadsSet)
            opts.workloads = "all";
        if (opts.outPath.empty())
            opts.outPath = "BENCH_sweep.json";
        if (opts.format == "csv")
            fatal("--bench emits a JSON perf record; "
                  "--format csv is not supported in bench mode");
        // The trajectory tracks synthetic-generator speed; a replay
        // (or recording) run would write a bogus perf point and a
        // meaningless speedupVsPrevious against it.
        if (!opts.sweep.tracePath.empty() ||
            !opts.sweep.recordTracePath.empty())
            fatal("--bench measures the synthetic generators; "
                  "--trace/--record-trace are not supported in "
                  "bench mode");
    }
    if (!opts.benchBig.empty() && !opts.bench)
        fatal("--bench-big extends the --bench record; pass --bench");

    const bool rack = opts.sweep.rackNodes > 1;
    if (!rack && opts.sweep.rackThreads > 1)
        fatal("--rack-threads parallelizes the rack node loop; it "
              "requires --rack N with N > 1");
    if (rack) {
        if (opts.bench)
            fatal("--bench tracks the single-node grid; it is not "
                  "supported with --rack");
        if (!opts.sweep.recordTracePath.empty())
            fatal("--record-trace is not supported with --rack "
                  "(every node would clobber one capture)");
        // Fail an under-provisioned explicit service bandwidth here,
        // in milliseconds, instead of letting every cell throw the
        // same std::invalid_argument deep inside runRack.  The node
        // link bandwidth is a function of --cores only (the memory
        // topology scales with the node), so one representative
        // config answers for the whole grid.
        if (opts.sweep.rackServiceGBps > 0.0) {
            const double link =
                makeScaledConfig("bsw", EngineKind::Toleo,
                                 opts.sweep.cores)
                    .mem.toleoLinkBandwidthGBps;
            if (opts.sweep.rackServiceGBps < link)
                fatal("--rack-service %.3f GB/s is below the %.3f "
                      "GB/s Toleo link of a %u-core node; even an "
                      "uncontended node would stall (pass 0 for "
                      "auto)",
                      opts.sweep.rackServiceGBps, link,
                      opts.sweep.cores);
        }
    }

    // The SLO only grades open-loop requests; under the closed model
    // no serving block is emitted, so the threshold would be ignored.
    if (opts.sloSet && !opts.sweep.arrival.open())
        fatal("--slo-us sets the open-loop SLO threshold; it requires "
              "--arrival poisson:<rate> or burst:<rate>,<cv>");
    if (opts.sweep.arrival.open()) {
        // The serving overlay never perturbs execution, so perf
        // numbers would be valid -- but a bench record that differs
        // only in its serving block invites apples-to-oranges
        // speedup comparisons.  Keep the trajectory closed-loop.
        if (opts.bench)
            fatal("--bench tracks the closed-loop replay; "
                  "--arrival %s is not supported in bench mode",
                  arrivalKindName(opts.sweep.arrival.kind));
        // Recording taps the raw generators; the request-boundary
        // bookkeeping cannot see through the recording shim (and a
        // capture is arrival-model-independent anyway).
        if (!opts.sweep.recordTracePath.empty())
            fatal("--record-trace captures the raw reference stream; "
                  "record under the default closed arrival model and "
                  "replay the capture open-loop instead");
    }

    const auto workloads = parseWorkloadList(opts.workloads);
    const auto engines = parseEngineList(opts.engines);
    const auto cells = makeSweepGrid(workloads, engines);

    if (!opts.sweep.recordTracePath.empty()) {
        if (!opts.sweep.tracePath.empty())
            fatal("--record-trace cannot be combined with --trace");
        // Concurrent cells would clobber one file; with a fixed seed
        // every cell of a workload generates the same stream anyway.
        if (cells.size() != 1)
            fatal("--record-trace captures a single cell; got %zu "
                  "cells (pick one workload and one engine)",
                  cells.size());
        // Probe the output path now so a typo fails in milliseconds,
        // not after the whole capture window has been simulated.
        // Append mode: a writability check must not truncate an
        // existing capture that a failed run would then have
        // destroyed (the writer truncates when it flushes at end of
        // run).
        std::ofstream probe(opts.sweep.recordTracePath,
                            std::ios::binary | std::ios::app);
        if (!probe)
            fatal("cannot open trace file '%s' for writing",
                  opts.sweep.recordTracePath.c_str());
    }
    if (!opts.sweep.tracePath.empty()) {
        // Open (and fully validate) the trace up front so a bad path
        // or corrupt file fails in milliseconds, not mid-sweep -- and
        // share the one read-only instance across every cell instead
        // of re-decoding the file per cell.
        try {
            opts.sweep.trace = TraceFile::open(opts.sweep.tracePath);
        } catch (const TraceError &e) {
            fatal("%s", e.what());
        }
        if (opts.progress) {
            // Streams can be unequal (e.g. trace_convert's
            // round-robin remainder), so report the total.
            std::uint64_t records = 0;
            const unsigned nstreams =
                opts.sweep.trace->streamCount();
            for (unsigned s = 0; s < nstreams; ++s)
                records += opts.sweep.trace->recordCount(s);
            std::fprintf(stderr,
                         "trace '%s': workload %s, %u streams, "
                         "%llu records\n",
                         opts.sweep.tracePath.c_str(),
                         opts.sweep.trace->workload().c_str(),
                         nstreams,
                         static_cast<unsigned long long>(records));
        }
    }

    SweepProgressFn progress;
    RackSweepProgressFn rackProgress;
    if (opts.progress && !rack) {
        progress = [](const SimStats &stats, std::size_t done,
                      std::size_t total) {
            std::fprintf(stderr,
                         "[%zu/%zu] %s/%s: ipc %.3f, mpki %.1f\n",
                         done, total, stats.workload.c_str(),
                         stats.engine.c_str(), stats.ipc,
                         stats.llcMpki);
        };
    } else if (opts.progress) {
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
    if (!opts.outPath.empty()) {
        file.open(opts.outPath);
        if (!file)
            fatal("cannot open output file '%s'",
                  opts.outPath.c_str());
    }
    std::ostream &os = opts.outPath.empty() ? std::cout : file;

    // Whole-sweep wall clock: --bench perf-tracking output only.
    // toleo-lint: allow(nondeterminism)
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<double> cell_seconds;
    std::vector<PhaseTimes> cell_phases;
    std::vector<SimStats> results;
    std::vector<RackStats> rackResults;
    try {
        if (rack)
            rackResults = runRackSweep(cells, opts.sweep,
                                       rackProgress);
        else
            results = runSweep(cells, opts.sweep, progress,
                               opts.bench ? &cell_seconds : nullptr,
                               {},
                               opts.bench ? &cell_phases : nullptr);
    } catch (const std::exception &e) {
        fatal("sweep failed: %s", e.what());
    }
    const double wall_seconds =
        std::chrono::duration<double>(
            // toleo-lint: allow(nondeterminism)
            std::chrono::steady_clock::now() - t0)
            .count();

    // The big-cell microbench runs after (outside) the timed grid so
    // the grid's wallSeconds stays comparable across records.
    Json bigCell;
    if (!opts.benchBig.empty())
        bigCell = runBenchBig(opts);

    if (rack && opts.format == "csv")
        emitRackCsv(rackResults, os);
    else if (rack)
        emitRackJson(opts, cells, rackResults, wall_seconds, os);
    else if (opts.bench)
        emitBench(opts, cells, results, cell_seconds, cell_phases,
                  wall_seconds, std::move(bigCell), os);
    else if (opts.format == "csv")
        emitCsv(results, os);
    else
        emitJson(opts, cells, results, wall_seconds, os);
    os.flush();
    if (!os)
        fatal("error writing results%s%s",
              opts.outPath.empty() ? "" : " to ",
              opts.outPath.c_str());

    if (opts.progress)
        std::fprintf(stderr,
                     "%zu cells, %u jobs, %.2fs wall clock\n",
                     cells.size(), opts.sweep.jobs, wall_seconds);
    return 0;
}
