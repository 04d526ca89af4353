/**
 * @file
 * Trace capture and replay, end to end.
 *
 * 1. Captures a synthetic bsw cell's streams: captureTrace draws
 *    every core's generator for the cell's warmup + measure window,
 *    with no System, and writes a TOLEOTRC trace file.
 * 2. Runs the live cell, replays the file through a fresh System,
 *    and shows the stats are byte-identical -- the file-backed
 *    stream is a faithful stand-in for the generator.
 * 3. Replays the same capture under a different protection engine,
 *    the workflow real application traces enable: one capture,
 *    every engine of the grid.
 *
 *     ./build/examples/trace_replay [trace-path]
 */

#include <cstdio>
#include <string>

#include "sim/sweep.hh"
#include "sim/system.hh"
#include "workload/trace_file.hh"

using namespace toleo;

int
main(int argc, char **argv)
{
    const std::string path =
        argc > 1 ? argv[1] : "trace_replay_demo.trc";

    SweepOptions opts;
    opts.cores = 4;
    opts.warmupRefs = 5000;
    opts.measureRefs = 20000;

    // 1. Capture: the raw draws of the cell's generators.
    captureTrace(path, "bsw", opts.cores, opts.seed,
                 opts.warmupRefs + opts.measureRefs);

    const auto trace = TraceFile::open(path);
    std::printf("captured %s: %u streams x %llu records -> %s\n",
                trace->workload().c_str(), trace->streamCount(),
                static_cast<unsigned long long>(
                    trace->recordCount(0)),
                path.c_str());

    // 2. Run the live cell, replay the identical window, compare.
    const SimStats live =
        runSweepCell({"bsw", EngineKind::Toleo}, opts);
    opts.trace = trace;
    const SimStats replay =
        runSweepCell({"bsw", EngineKind::Toleo}, opts);

    const std::string a = statsToJson(live).dump(2);
    const std::string b = statsToJson(replay).dump(2);
    std::printf("live   ipc %.4f  mpki %.2f\n", live.ipc,
                live.llcMpki);
    std::printf("replay ipc %.4f  mpki %.2f\n", replay.ipc,
                replay.llcMpki);
    std::printf("statsToJson byte-identical: %s\n",
                a == b ? "yes" : "NO");

    // 3. One capture, any engine: the replayed stream feeds the
    //    Merkle ablation without re-deriving the workload.
    const SimStats merkle =
        runSweepCell({"bsw", EngineKind::Merkle}, opts);
    std::printf("same trace under Merkle: ipc %.4f (%.2fx slower "
                "than Toleo)\n",
                merkle.ipc, replay.ipc / merkle.ipc);

    return a == b ? 0 : 1;
}
