"""Arithmetic shared by the benchmark's reducer (run.py), its A/B
script (ab.py) and their tests: order statistics, span self time,
per-operation time buckets, the correctness gate and the A/B verdict.

Pure functions over plain lists and dicts; no I/O.
"""

import math
import re
import statistics


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them;
    a single sample is its own quartiles."""
    xs = list(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def relative_spread(xs):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else math.inf


# The host runs the same code at speeds up to 3x apart, from one
# minute to the next.  The driver times a fixed kernel (SpeedKernel in
# driver.cc) right after every operation; one chunk of it takes about
# REF_KERNEL_NS on the 4-vCPU development VM in its fast state.  The
# end-to-end host times are put at that reference speed.
REF_KERNEL_NS = 5e5


def at_reference_speed(seconds, kernel_ns):
    """@p seconds of host time, measured while a kernel chunk took
    @p kernel_ns, as it would read at the reference speed."""
    return seconds * REF_KERNEL_NS / kernel_ns


TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def nearest_rank(sorted_xs, pct):
    """Nearest-rank percentile of an ascending list, with its rank."""
    n = len(sorted_xs)
    # Rounded first so 99.9% of 20000 is rank 19980, not 19981.
    rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
    return sorted_xs[rank - 1], rank


def tail_percentile(xs, min_beyond=10):
    """The highest of TAIL_PERCENTILES with at least @p min_beyond
    samples ranked beyond it.

    Returns (pct, value, beyond, n); pct and value are None when even
    the median has fewer than min_beyond samples beyond it.
    """
    s = sorted(xs)
    n = len(s)
    for pct in TAIL_PERCENTILES:
        if not n:
            break
        value, rank = nearest_rank(s, pct)
        if n - rank >= min_beyond:
            return pct, value, n - rank, n
    return None, None, 0, n


def self_times(spans):
    """Self time of every span: its duration minus its direct
    children's.  The driver's spans nest strictly (one thread, a stack
    of open spans), so children are disjoint and inside their parent.
    @p spans are dicts with id, parent, start_ns and end_ns."""
    out = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] in out:
            out[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return out


# Where each public call's time lands, for spans directly under an op.
# stepEpoch spans split further by their phase deltas; every call not
# listed here (beginRun) and every gap between calls is unattributed.
BUCKET_OF_CALL = {
    "System::System": "setup",
    "System::finishRun": "report",
    "statsToJson": "report",
}
BUCKETS = ("setup", "private", "shared", "boundary", "report",
           "unattributed")


def op_buckets(spans):
    """Per operation, host nanoseconds by bucket plus the wall time of
    its "op" span: setup + private + shared + boundary + report +
    unattributed == wall, where unattributed is whatever the other
    buckets do not explain (it may come out negative only if a bucket
    overlaps another, which the gate treats as a failure)."""
    ops = {s["id"]: s for s in spans if s["name"] == "op"}
    out = {}
    for s in ops.values():
        out[s["op"]] = dict.fromkeys(BUCKETS, 0.0)
        out[s["op"]]["wall"] = s["end_ns"] - s["start_ns"]
    for s in spans:
        if s["parent"] not in ops:
            continue
        b = out[s["op"]]
        if s["name"] == "System::stepEpoch":
            for k in ("private", "shared", "boundary"):
                b[k] += s[k + "_ns"]
        elif s["name"] in BUCKET_OF_CALL:
            b[BUCKET_OF_CALL[s["name"]]] += s["end_ns"] - s["start_ns"]
    for b in out.values():
        b["unattributed"] = b["wall"] - sum(
            b[k] for k in BUCKETS if k != "unattributed")
    return out


# The digest line run.py prints before its result line.
DIGEST_LINE = re.compile(
    r"^digest (\S+) seed=(\d+): ([0-9a-f]{16}) \((\d+) cells\)$")


def digest_of_output(lines):
    """The run digest from run.py's output lines, or None."""
    for ln in lines:
        m = DIGEST_LINE.match(ln)
        if m:
            return m.group(3)
    return None


def _majority(values):
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    best = max(counts.values())
    return next(v for v in values if counts[v] == best)


def invariant_failures(op):
    """Broken invariants of one operation record, as messages."""
    bad = []
    if op["error"]:
        bad.append("threw: " + op["error"])
        return bad
    expect = op["measure"] * op["cores"] * op["nodes"]
    if op["sim_refs"] != expect:
        bad.append("refs %d != measure x cores x nodes = %d"
                   % (op["sim_refs"], expect))
    # SimStats counts the measured window only; the warmup shows in
    # the epochs the program reports.  An epoch closes every
    # epoch_rounds rounds, and the end of the window closes one more.
    epochs = (op["warmup"] + op["measure"]) // op["epoch_rounds"] + 1
    if op["epochs"] != epochs:
        bad.append("epochs %d != (warmup + measure) / epoch rounds + 1 "
                   "= %d" % (op["epochs"], epochs))
    warm = op["warmup"] // op["epoch_rounds"]
    if op["warmup_epochs"] >= 0 and op["warmup_epochs"] != warm:
        bad.append("measuring() false after %d epochs, expected %d"
                   % (op["warmup_epochs"], warm))
    ipc = op["ipc_min"]
    if not (isinstance(ipc, (int, float)) and math.isfinite(ipc)
            and ipc > 0):
        bad.append("ipc %r not finite and > 0" % (ipc,))
    if op["open"]:
        if op["requests"] <= 0:
            bad.append("open loop served no requests")
        if not 0.0 <= op["slo_attainment"] <= 1.0:
            bad.append("sloAttainment %r outside [0, 1]"
                       % (op["slo_attainment"],))
        elif op["below_knee"] and op["slo_attainment"] < 1.0:
            bad.append("sloAttainment %r < 1: the rate is past the "
                       "knee" % (op["slo_attainment"],))
    if op["saturated_epochs"] > op["epochs"]:
        bad.append("saturatedEpochs > epochs")
    return bad


def gate(ops):
    """Correctness gate over a run's operations.

    Ops sharing a "key" must produce one statsToJson digest (across
    repetitions, thread counts, and traced vs untraced legs); ops
    sharing a "twin" key must agree once the serving block is cleared
    (arrivals never perturb execution).  The majority digest is the
    reference.  Returns (attempted, failed, {op id: [reasons]}).
    """
    reasons = {op["id"]: invariant_failures(op) for op in ops}
    ok = [op for op in ops if not op["error"]]
    for field, group in (("digest", "key"), ("core_digest", "twin")):
        by = {}
        for op in ok:
            by.setdefault(op[group], []).append(op)
        for members in by.values():
            ref = _majority([m[field] for m in members])
            for m in members:
                if m[field] != ref:
                    reasons[m["id"]].append(
                        "%s %s != %s of %s %r"
                        % (field, m[field], ref, group, m[group]))
    failures = {i: r for i, r in reasons.items() if r}
    return len(ops), len(failures), failures


def verdict(parent, change, better, bound):
    """A/B verdict for one metric on one workload.

    @p parent and @p change are per-pair values (pair i ran seed i on
    both sides).  A gain needs the change to win at least 9 of 10
    pairs (ties count for neither) and the medians to differ by more
    than the parent's interquartile distance.  Otherwise the change is
    no worse when its median is within @p bound (a share of the
    parent's median) of the parent's; when the parent's own spread is
    wider than the bound the result is unresolved, unless every change
    run beats every parent run.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    win_frac = wins / len(parent)
    q1a, ma, q3a = quartiles(parent)
    _, mb, _ = quartiles(change)
    gain = sign * (mb - ma)
    if win_frac >= 0.9 and gain > (q3a - q1a) and gain > 0:
        return "improved", win_frac
    if relative_spread(parent) > bound:
        if sign * (min(change) if sign > 0 else max(change)) > \
                sign * (max(parent) if sign > 0 else min(parent)):
            return "no worse: every change run beats every parent run", \
                win_frac
        return "unresolved: parent spread exceeds the bound", win_frac
    if -gain <= bound * abs(ma):
        return "no worse within the bound", win_frac
    return "worse", win_frac
