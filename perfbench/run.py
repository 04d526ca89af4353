#!/usr/bin/env python3
"""Benchmark entry point: build the driver, run one workload, reduce.

    python3 perfbench/run.py --workload paper-grid|rack4|serve64 \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  The first run configures and builds
perfbench/ (with toleo_core from src/) under $CARGO_TARGET_DIR, or
.bench_build when unset.  The last line of standard output is one JSON
object: correct, attempted, failed, and the metrics -- the end-to-end
ones of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1.  The lines before it print every metric with its unit and
base, the provenance of the measured build, and the run's digest.
Raw records, spans and the reduced result stay in
<build dir>/perfbench-results/.  See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402

DRIVER_TIMEOUT_S = 170
ENGINES = ("NoProtect", "C", "CI", "Toleo", "InvisiMem", "Merkle")
SECMEM_METRIC = {"C": "secmem.c_ns_per_ref", "CI": "secmem.ci_ns_per_ref",
                 "Merkle": "secmem.merkle_ns_per_ref",
                 "InvisiMem": "secmem.invisimem_ns_per_ref",
                 "Toleo": "toleo.engine_ns_per_ref"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_root():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") \
        .resolve()


def build(bdir):
    """Configure (a no-op when up to date) and build the driver; a lock
    serializes concurrent runs sharing one build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources at %s" % (ROOT / "src"))
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", str(HERE), "-B", str(bdir),
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", str(bdir), "--target",
                  "perfbench_driver", "-j", str(os.cpu_count() or 1)]]
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return bdir / "perfbench_driver"


# ---------------------------------------------------------------- reduce

def run_time(op):
    """Host seconds an operation costs a user, set-up excluded."""
    return op["run_s"] + op["report_s"]


def ref_run_time(op):
    """run_time at the reference host speed (see benchstats)."""
    return benchstats.at_reference_speed(run_time(op), op["kernel_ns"])


def ref_setup_time(op):
    return benchstats.at_reference_speed(op["setup_s"], op["kernel_ns"])


def per_key_sum(ops, f):
    """Sum over distinct cells of each cell's median: robust to a noise
    burst hitting one repetition, and fixed in cell mix."""
    by = {}
    for op in ops:
        by.setdefault(op["key"], []).append(f(op))
    return sum(benchstats.median(v) for v in by.values())


def refs_per_s(ops, time=run_time):
    return per_key_sum(ops, lambda o: o["refs"]) / per_key_sum(ops, time)


def engine_of(op):
    return op["label"].rsplit("/", 1)[1]


def workload_of(op):
    return op["label"].split(" ")[-1].split("/")[0]


def mpki_error(ops):
    """Mean over the paper workloads of |simulated / Table 2 LLC MPKI - 1|
    (one value per workload; every engine and repetition agrees)."""
    first = {}
    for op in ops:
        first.setdefault(workload_of(op), op)
    errs = [abs(o["llc_mpki"] / o["paper_mpki"] - 1.0)
            for o in first.values()]
    return sum(errs) / len(errs), len(errs)


def serving_note(ops):
    """Open-loop service of @p ops, for a metric's base."""
    opened = [o for o in ops if o["open"]]
    if not opened:
        return ""
    return "; open loop: sloAttainment min %.6g, p99 median %.4g us over " \
        "%d ops" % (min(o["slo_attainment"] for o in opened),
                    median_of(opened, lambda o: o["p99_latency_us"]),
                    len(opened))


def end_to_end(doc):
    ops = [o for o in doc["ops"] if not o["error"]]
    main = [o for o in ops if o["leg"] == "main"]
    ref = [o for o in ops if o["leg"] == ("main" if doc["provenance"][
        "workload"] == "paper-grid" else "reference")]
    reps = len(main) / len({o["key"] for o in main})
    err, n_ref = mpki_error(ref)
    speed = median_of(main, lambda o: benchstats.REF_KERNEL_NS
                      / o["kernel_ns"])
    at_ref = "at reference speed; host speed %.3f of it (median over " \
        "%d ops)" % (speed, len(main))
    return {
        "refs_per_s": (refs_per_s(main, ref_run_time),
                       "%d ops, %.3g refs per pass, %.1f reps per cell, "
                       "median per cell, %s; on the host clock %.4g%s"
                       % (len(main), per_key_sum(main, lambda o: o["refs"]),
                          reps, at_ref, refs_per_s(main),
                          serving_note(main))),
        "setup_s": (per_key_sum(main, ref_setup_time),
                    "median per cell, summed over %d cells, at reference "
                    "speed; on the host clock %.4g s"
                    % (len({o["key"] for o in main}),
                       per_key_sum(main, lambda o: o["setup_s"]))),
        "peak_rss_mb": peak_rss(main, doc["kernel_mb"]),
        "mpki_error": (err, "%d Table 2 workloads" % n_ref),
    }


def peak_rss(ops, kernel_mb):
    """The largest cell's median peak RSS per op, less the speed
    kernel's tables, with its base."""
    by = {}
    for op in ops:
        by.setdefault(op["label"], []).append(op["peak_rss_mb"])
    label, peak = max(((k, benchstats.median(v)) for k, v in by.items()),
                      key=lambda kv: kv[1])
    return (peak - kernel_mb,
            "VmHWM from set-up to report, reset before each op, median "
            "per cell; largest cell %s; less the speed kernel's %.2f MB"
            % (label, kernel_mb))


def legs(doc, *names):
    return [o for o in doc["ops"] if o["leg"] in names and not o["error"]]


def median_of(ops, f):
    return benchstats.median([f(o) for o in ops])


def ns_per_ref(ops, field):
    return per_key_sum(ops, lambda o: o[field]) / \
        per_key_sum(ops, lambda o: o["refs"])


def per_layer(doc, spans):
    """Per-layer metrics of a traced run, each as (value, base).
    Layers a workload does not run report their identity value (1 for
    speedups and ceilings, 0 otherwise) and are listed in the second
    return value."""
    wl = doc["provenance"]["workload"]
    m = {}
    not_run = []

    # The ops the benchmark steps itself, whose buckets it can resolve;
    # runRack builds its Systems internally, so rack4 uses its nodes
    # run standalone.
    bucket_leg = "standalone" if wl == "rack4" else "traced"
    bucket_ops = legs(doc, bucket_leg)

    probes = doc["probes"]
    prefs = sum(p["refs"] for p in probes)
    draw = sum(p["draw_s"] for p in probes) * 1e9 / prefs
    access = sum(p["access_s"] for p in probes) * 1e9 / prefs
    cells_per_probe = len(ENGINES) if wl == "paper-grid" else 1
    m["workload.draw_ns_per_ref"] = (
        draw, "%d probes, %d refs" % (len(probes), prefs))
    m["workload.setup_s"] = (
        cells_per_probe * sum(p["make_workload_s"] for p in probes),
        "makeWorkload x cores, per %s" % (
            "grid pass" if wl == "paper-grid" else "operation"))
    m["cache.private_ns_per_ref"] = (access, "%d refs" % prefs)
    m["cache.l1_hit_rate"] = (
        sum(p["l1_hits"] for p in probes) / prefs, "%d refs" % prefs)

    traced = legs(doc, "traced")
    insts = sum(o["instructions"] for o in traced)
    m["cache.llc_mpki"] = (
        1000.0 * sum(o["llc_misses"] for o in traced) / insts,
        "%d instructions" % insts)

    nrefs = per_key_sum(bucket_ops, lambda o: o["refs"])
    for k in ("private", "shared", "boundary"):
        m["sim.%s_ns_per_ref" % k] = (
            ns_per_ref(bucket_ops, k + "_ns"),
            "%s leg, %.3g refs" % (bucket_leg, nrefs))
    m["sim.glue_ns_per_ref"] = (
        ns_per_ref(bucket_ops, "private_ns") - draw - access,
        "private phase at 1 thread - draws - accessPrivate")
    m["sim.report_s"] = (per_key_sum(bucket_ops, lambda o: o["report_s"]),
                         "finishRun + statsToJson, median per cell")

    buckets = benchstats.op_buckets(spans)
    ids = {o["id"] for o in bucket_ops}
    mine = [b for i, b in buckets.items() if i in ids]
    wall = sum(b["wall"] for b in mine)
    m["sim.unattributed_frac"] = (
        sum(b["unattributed"] for b in mine) / wall,
        "%d ops, %.3f s traced wall" % (len(mine), wall * 1e-9))

    epochs = [(s["end_ns"] - s["start_ns"]) * 1e-6 for s in spans
              if s["name"] == "System::stepEpoch" and s["op"] in ids]
    pct, _, _, n = benchstats.tail_percentile(epochs)
    m["sim.epoch_ms_p50"] = (benchstats.median(epochs),
                             "%d stepEpoch calls" % n)
    p99, rank = benchstats.nearest_rank(sorted(epochs), 99.0)
    if pct is not None and pct >= 99.0:
        note = ""
    elif pct is None:
        note = "; too few samples for any percentile with 10 beyond"
    else:
        note = "; too few samples: p%g is the highest with 10 beyond" % pct
    m["sim.epoch_ms_p99"] = (
        p99, "%d stepEpoch calls, %d beyond p99%s" % (n, n - rank, note))
    m["sim.epoch_samples"] = (float(n), "%s leg" % bucket_leg)

    # Every workload's timed loop and traced repeat run one thread; the
    # pool sweeps add 2 and 4.
    if wl == "serve64":
        base = refs_per_s(traced)
        for t, leg in ((2, "intra2"), (4, "intra4")):
            ops = legs(doc, leg)
            m["sim.intra_speedup_%dt" % t] = (
                refs_per_s(ops) / base,
                "%d threads used / 1, refs/s %.4g / %.4g"
                % (ops[0]["threads"], refs_per_s(ops), base))
        share = median_of(traced, lambda o: o["private_ns"] * 1e-9) / \
            median_of(traced, run_time)
        m["sim.intra_ceiling"] = (1.0 / (1.0 - share),
                                  "private share %.3f at 1 thread" % share)
    else:
        not_run += ["sim.intra_speedup_2t", "sim.intra_speedup_4t",
                    "sim.intra_ceiling"]

    if wl == "rack4":
        base = refs_per_s(traced)
        for t, leg in ((2, "rack2"), (4, "rack4")):
            ops = legs(doc, leg)
            m["sim.rack_speedup_%dt" % t] = (
                refs_per_s(ops) / base,
                "%d threads used / 1, refs/s %.4g / %.4g"
                % (ops[0]["threads"], refs_per_s(ops), base))
        rack1 = median_of(traced, lambda o: o["run_s"])
        private = per_key_sum(bucket_ops, lambda o: o["private_ns"]) * 1e-9
        share = private / rack1
        m["sim.rack_ceiling"] = (1.0 / (1.0 - share),
                                 "node-private share %.3f of runRack at 1 "
                                 "thread" % share)
        alone = per_key_sum(bucket_ops, lambda o: o["setup_s"]
                            + o["run_s"] + o["report_s"])
        m["sim.rack_overhead_frac"] = (
            (rack1 - alone) / rack1,
            "runRack %.4f s vs nodes standalone %.4f s" % (rack1, alone))
        m["toleo.arbiter_saturated_frac"] = (
            sum(o["saturated_epochs"] for o in traced)
            / sum(o["epochs"] for o in traced),
            "%d epochs" % traced[0]["epochs"])
    else:
        not_run += ["sim.rack_speedup_2t", "sim.rack_speedup_4t",
                    "sim.rack_ceiling", "sim.rack_overhead_frac",
                    "toleo.arbiter_saturated_frac"]

    if wl == "paper-grid":
        not_run.append("sim.serving_overhead_frac")
    else:
        opened = median_of(traced, run_time)
        closed = median_of(legs(doc, "closed"), run_time)
        m["sim.serving_overhead_frac"] = (
            (opened - closed) / closed,
            "open %.4f s vs closed twin %.4f s%s"
            % (opened, closed, serving_note(traced)))

    # Engine differentials: no engine changes the reference stream or
    # the L3 outcome, so shared(engine) - shared(NoProtect) is the
    # engine's own replay time.
    if wl == "paper-grid":
        by_engine = {e: [o for o in traced if engine_of(o) == e]
                     for e in ENGINES}
    elif wl == "serve64":
        by_engine = {"NoProtect": legs(doc, "noprotect"),
                     "Toleo": traced}
    else:
        by_engine = {"NoProtect": legs(doc, "standalone_np"),
                     "Toleo": bucket_ops}
    base_ops = by_engine["NoProtect"]
    base_shared = per_key_sum(base_ops, lambda o: o["shared_ns"])
    m["mem.shared_base_ns_per_ref"] = (
        ns_per_ref(base_ops, "shared_ns"),
        "NoProtect shared phase, %d cells" % len({o["key"]
                                                   for o in base_ops}))
    for engine, name in SECMEM_METRIC.items():
        ops = by_engine.get(engine)
        if not ops:
            not_run.append(name)
            continue
        m[name] = ((per_key_sum(ops, lambda o: o["shared_ns"])
                    - base_shared) / per_key_sum(ops, lambda o: o["refs"]),
                   "shared(%s) - shared(NoProtect) over %d cells"
                   % (engine, len({o["key"] for o in ops})))

    mac = [o for o in traced if engine_of(o) in ("CI", "Toleo")]
    m["secmem.mac_hit_rate"] = (
        sum(o["mac_hit_rate"] for o in mac) / len(mac),
        "mean over %d CI/Toleo ops" % len(mac))
    toleo = [o for o in traced if engine_of(o) == "Toleo"]
    m["toleo.stealth_hit_rate"] = (
        sum(o["stealth_hit_rate"] for o in toleo) / len(toleo),
        "mean over %d Toleo ops" % len(toleo))
    m["toleo.device_requests_per_kref"] = (
        1000.0 * sum(o["device_requests"] for o in toleo)
        / sum(o["refs"] for o in toleo),
        "READ+UPDATE+RESET over warmup + measure refs")

    untraced = refs_per_s(legs(doc, "untraced"))
    tr = refs_per_s(traced)
    m["trace.overhead_frac"] = (
        1.0 - tr / untraced,
        "refs/s traced %.4g vs untraced %.4g" % (tr, untraced))

    for name in not_run:
        identity = 1.0 if "speedup" in name or "ceiling" in name else 0.0
        m[name] = (identity, "not run by this workload")
    return m, not_run


def bucket_failures(doc, spans):
    """Per traced System op, the stepEpoch phase deltas must add up to
    the op's phaseTimes() totals, and no bucket may overrun the op's
    wall time (a negative unattributed remainder)."""
    buckets = benchstats.op_buckets(spans)
    bad = {}
    for op in doc["ops"]:
        if op["error"] or "private_ns" not in op or op["id"] not in buckets:
            continue
        b = buckets[op["id"]]
        msgs = []
        for k in ("private", "shared", "boundary"):
            if abs(b[k] - op[k + "_ns"]) > 1e-6 * max(1.0, op[k + "_ns"]):
                msgs.append("stepEpoch %s deltas %.0f != phaseTimes %.0f"
                            % (k, b[k], op[k + "_ns"]))
        if b["unattributed"] < -1e3:
            msgs.append("buckets exceed wall by %.0f ns"
                        % -b["unattributed"])
        if msgs:
            bad[op["id"]] = msgs
    return bad


def run_digest(doc):
    """One digest over the workload's own cells (the main leg, or its
    traced repeat), so traced and untraced runs print the same value
    and two builds print the same value iff those cells' statistics
    are byte-identical.  Also returns every key's digest."""
    main = "traced" if doc["provenance"]["trace"] else "main"
    by, mine = {}, {}
    for op in doc["ops"]:
        if op["error"]:
            continue
        by.setdefault(op["key"], op["digest"])
        if op["leg"] == main:
            mine.setdefault(op["key"], op["digest"])
    text = "\n".join("%s=%s" % kv for kv in sorted(mine.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16], len(mine), by


def main():
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (spec_path, e))
    workloads = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny windows, for the benchmark's own tests")
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = build_root()
    driver = build(root / "perfbench")
    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                    "-smoke" if args.smoke else "")
    outdir = root / "perfbench-results"
    outdir.mkdir(parents=True, exist_ok=True)
    raw, spans_path = outdir / (tag + ".raw.json"), \
        outdir / (tag + ".spans.json")
    cmd = [str(driver), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           str(args.trace), "--out", str(raw), "--spans", str(spans_path)]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    if r.returncode != 0:
        fail("driver exited with %d" % r.returncode)
    elapsed = time.monotonic() - t0
    doc = json.loads(raw.read_text())

    attempted, failed, failures = benchstats.gate(doc["ops"])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}
    not_run = []
    if args.trace:
        spans = json.loads(spans_path.read_text())
        for i, msgs in bucket_failures(doc, spans).items():
            failures.setdefault(i, []).extend(msgs)
        failed = len(failures)
        metrics, not_run = per_layer(doc, spans)
    else:
        metrics = end_to_end(doc)
    if set(metrics) != set(units):
        fail("metric set differs from BENCHMARK.json: %s"
             % sorted(set(metrics) ^ set(units)))
    finite = all(math.isfinite(v) for v, _ in metrics.values())

    prov = doc["provenance"]
    threads = sorted({(o["leg"], o["thread_kind"], o["threads_requested"],
                       o["threads"]) for o in doc["ops"]})
    print("perfbench %s seed=%d trace=%d: %.1f s, %d ops"
          % (args.workload, args.seed, args.trace, elapsed, attempted))
    print("  host: nproc=%d cpu=%r" % (prov["nproc"], prov["cpu_model"]))
    print("  build: %s %s [%s]" % (prov["compiler"], prov["build_type"],
                                   prov["cxx_flags"].strip()))
    windows = sorted({(o["warmup"], o["measure"]) for o in doc["ops"]})
    print("  windows (warmup, measure refs per core): %s" % windows)
    for leg, kind, req, used in threads:
        flag = "  [requested %d > nproc %d]" % (req, prov["nproc"]) \
            if req > prov["nproc"] else ""
        print("  threads: leg %s %s %d used of %d requested%s"
              % (leg, kind, used, req, flag))
    for name in (d["name"] for d in declared):
        value, base = metrics[name]
        print("  %-34s %14.6g %-10s %s" % (name, value, units[name], base))
    if not_run:
        print("  not run by %s (identity values): %s"
              % (args.workload, ", ".join(not_run)))
    if args.trace:
        selfs = benchstats.self_times(spans)
        by_name = {}
        for s in spans:
            n, t = by_name.get(s["name"], (0, 0.0))
            by_name[s["name"]] = (n + 1, t + selfs[s["id"]])
        print("  span self time: " + ", ".join(
            "%s %.3f s (%d)" % (name, t * 1e-9, n) for name, (n, t)
            in sorted(by_name.items(), key=lambda kv: -kv[1][1])))
    for i, msgs in sorted(failures.items()):
        print("  FAILED op %d: %s" % (i, "; ".join(msgs)))
    digest, cells, per_key = run_digest(doc)
    print("digest %s seed=%d: %s (%d cells)"
          % (args.workload, args.seed, digest, cells))

    # A non-finite value is a broken reduction, not a measurement: it
    # fails the run and is printed as 0 so the line stays valid JSON.
    result = {"correct": failed == 0 and finite, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v if math.isfinite(v) else 0.0,
                              "unit": units[k]}
                          for k, (v, _) in metrics.items()}}
    (outdir / (tag + ".result.json")).write_text(json.dumps(
        {"result": result, "provenance": prov, "digest": digest,
         "cell_digests": per_key, "not_run": not_run,
         "failures": failures, "bases": {k: b for k, (_, b)
                                         in metrics.items()}},
        indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
