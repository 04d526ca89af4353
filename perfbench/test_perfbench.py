"""Tests of the benchmark's own arithmetic, plus a smoke run of every
workload in both modes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke runs build the driver on first use (about 30 s on 4 CPUs).
"""

import json
import re
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402


class OrderStatistics(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, q2, q3 = benchstats.quartiles(xs)
        self.assertEqual([q1, q2, q3], statistics.quantiles(xs, n=4))
        self.assertEqual(q2, benchstats.median(xs))
        self.assertEqual(benchstats.quartiles([4.2]), (4.2, 4.2, 4.2))

    def test_relative_spread(self):
        xs = [9.0, 10.0, 10.0, 11.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(benchstats.relative_spread(xs),
                               (q3 - q1) / q2)


class ReferenceSpeed(unittest.TestCase):
    def test_host_speed_cancels(self):
        ref = benchstats.REF_KERNEL_NS
        self.assertEqual(benchstats.at_reference_speed(2.0, ref), 2.0)
        # Twice as slow a host: the op and the kernel both take twice
        # as long, and the op reads the same at the reference speed.
        self.assertEqual(benchstats.at_reference_speed(4.0, 2 * ref), 2.0)
        self.assertEqual(benchstats.at_reference_speed(1.0, ref / 2), 2.0)


class TailPercentile(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        pct, value, beyond, n = benchstats.tail_percentile(range(1, 1001))
        self.assertEqual((pct, value, beyond, n), (99.0, 990, 10, 1000))

    def test_falls_back_when_too_few_samples(self):
        pct, value, beyond, n = benchstats.tail_percentile(range(1, 1000))
        self.assertEqual((pct, value, beyond, n), (90.0, 900, 99, 999))
        pct, _, beyond, _ = benchstats.tail_percentile(range(20000))
        self.assertEqual((pct, beyond), (99.9, 20))
        self.assertEqual(benchstats.tail_percentile(range(20))[:3],
                         (50.0, 9, 10))

    def test_none_below_twenty_samples(self):
        self.assertEqual(benchstats.tail_percentile(range(19)),
                         (None, None, 0, 19))
        self.assertEqual(benchstats.tail_percentile([]),
                         (None, None, 0, 0))


def span(sid, parent, name, start, end, op=0, **phases):
    s = {"id": sid, "parent": parent, "op": op, "name": name,
         "start_ns": float(start), "end_ns": float(end)}
    s.update({k + "_ns": float(v) for k, v in phases.items()})
    return s


class Spans(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        spans = [span(0, -1, "op", 0, 100),
                 span(1, 0, "a", 10, 30),
                 span(2, 0, "b", 40, 70),
                 span(3, 1, "grandchild", 12, 28)]
        st = benchstats.self_times(spans)
        self.assertEqual(st[0], 100 - (20 + 30))
        self.assertEqual(st[1], 20 - 16)
        self.assertEqual(st[2], 30)
        self.assertEqual(st[3], 16)

    def test_buckets_sum_to_wall_with_explicit_remainder(self):
        spans = [span(0, -1, "op", 0, 1000, op=7),
                 span(1, 0, "System::System", 0, 100, op=7),
                 span(2, 0, "System::beginRun", 100, 110, op=7),
                 span(3, 0, "System::stepEpoch", 110, 500, op=7,
                      private=250, shared=100, boundary=10),
                 span(4, 0, "System::stepEpoch", 500, 900, op=7,
                      private=200, shared=150, boundary=20),
                 span(5, 0, "System::finishRun", 900, 950, op=7),
                 span(6, 0, "statsToJson", 950, 990, op=7)]
        b = benchstats.op_buckets(spans)[7]
        self.assertEqual(b["setup"], 100)
        self.assertEqual(b["private"], 450)
        self.assertEqual(b["shared"], 250)
        self.assertEqual(b["boundary"], 30)
        self.assertEqual(b["report"], 90)
        # beginRun, the epochs' unphased remainder and the gaps.
        self.assertEqual(b["unattributed"], 1000 - 920)
        self.assertEqual(sum(b[k] for k in benchstats.BUCKETS), b["wall"])


def op(i, key="cell", digest="d1", **over):
    # Epochs of 4 rounds: 30 rounds close 7 and the end of the window
    # one more; measuring() turns true in the third, which passes 10.
    o = {"id": i, "key": key, "twin": key.split("|")[0], "error": "",
         "digest": digest, "core_digest": "c1", "open": False,
         "below_knee": False, "warmup": 10, "measure": 20, "cores": 2,
         "nodes": 1, "refs": 60, "sim_refs": 40, "epoch_rounds": 4,
         "epochs": 8, "warmup_epochs": 2, "ipc_min": 1.2, "requests": 0,
         "slo_attainment": 0.0, "saturated_epochs": 0}
    o.update(over)
    return o


class Gate(unittest.TestCase):
    def test_clean_run_passes(self):
        self.assertEqual(benchstats.gate([op(0), op(1), op(2)])[:2],
                         (3, 0))

    def test_seeded_digest_mismatch_fails_that_op(self):
        attempted, failed, why = benchstats.gate(
            [op(0), op(1, digest="bad"), op(2)])
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("digest bad != d1", why[1][0])

    def test_twin_must_agree_outside_serving(self):
        ops = [op(0, key="c|open", open=True, requests=5,
                  slo_attainment=1.0),
               op(1, key="c|closed", digest="d2", core_digest="c2")]
        self.assertEqual(benchstats.gate(ops)[1], 1)

    def test_invariants(self):
        bad = [op(0, sim_refs=39), op(1, epochs=7), op(2, ipc_min=0.0),
               op(3, ipc_min=float("nan")),
               op(4, open=True, requests=0),
               op(5, open=True, requests=3, slo_attainment=1.5),
               op(6, saturated_epochs=9), op(7, error="boom"),
               op(8, warmup_epochs=3),
               op(9, open=True, below_knee=True, requests=3,
                  slo_attainment=0.99)]
        attempted, failed, why = benchstats.gate(bad)
        self.assertEqual((attempted, failed), (10, 10))
        self.assertIn("threw: boom", why[7])
        self.assertIn("past the knee", why[9][0])

    def test_epoch_count_follows_the_window(self):
        # An epoch ending exactly on the window's end is followed by the
        # final, empty one; warmup ending on an epoch keeps measuring()
        # false until the next.
        self.assertEqual(benchstats.invariant_failures(
            op(0, warmup=8, measure=24, refs=64, sim_refs=48, epochs=9,
               warmup_epochs=2)), [])
        # Untraced ops report no measuring() observations.
        self.assertEqual(benchstats.invariant_failures(
            op(0, warmup_epochs=-1)), [])
        self.assertEqual(benchstats.invariant_failures(
            op(0, open=True, below_knee=True, requests=3,
               slo_attainment=1.0)), [])


class DigestLine(unittest.TestCase):
    def test_reads_the_hex_digest(self):
        lines = ["  mpki_error 0.33 ratio 12 Table 2 workloads",
                 "digest rack4 seed=7: 0123456789abcdef (1 cells)",
                 '{"correct": true}']
        self.assertEqual(benchstats.digest_of_output(lines),
                         "0123456789abcdef")
        self.assertIsNone(benchstats.digest_of_output(lines[2:]))


class Verdict(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8,
              100.1, 99.9]

    def test_improved(self):
        change = [x * 1.05 for x in self.parent]
        self.assertEqual(benchstats.verdict(self.parent, change, "higher",
                                            0.1)[0], "improved")

    def test_no_worse_within_bound(self):
        change = [x * 0.98 for x in self.parent]
        self.assertEqual(
            benchstats.verdict(self.parent, change, "higher", 0.1),
            ("no worse within the bound", 0.0))

    def test_worse(self):
        change = [x * 1.2 for x in self.parent]
        self.assertEqual(benchstats.verdict(self.parent, change, "lower",
                                            0.1)[0], "worse")

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        parent = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 100.0, 90.0,
                  110.0, 100.0]
        change = list(reversed(parent))
        self.assertTrue(benchstats.verdict(parent, change, "higher", 0.1)
                        [0].startswith("unresolved"))
        better = [200.0 + x for x in parent]
        self.assertEqual(benchstats.verdict(parent, better, "higher", 0.1)
                         [0], "improved")


class Spec(unittest.TestCase):
    def test_benchmark_json_contract(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["paper-grid", "rack4", "serve64"])
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        names = [m["name"] for k in ("end_to_end", "per_layer")
                 for m in spec[k]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, name)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(set(bounds), {"refs_per_s", "setup_s",
                                       "peak_rss_mb", "mpki_error"})
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(bounds["setup_s"], 0.25)


class Smoke(unittest.TestCase):
    """Seconds-long runs of every workload in both modes."""

    def run_bench(self, workload, trace):
        r = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--smoke"], cwd=HERE.parent, capture_output=True, text=True,
            timeout=900)
        self.assertEqual(r.returncode, 0, r.stderr[-3000:])
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        digest = benchstats.digest_of_output(lines)
        self.assertRegex(digest or "", r"^[0-9a-f]{16}$")
        return result, digest

    def test_every_workload_both_modes(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for w in (w["name"] for w in spec["workloads"]):
            digests = []
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    result, digest = self.run_bench(w, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in spec[kind]})
                    digests.append(digest)
            self.assertEqual(digests[0], digests[1],
                             "traced and untraced digests differ: " + w)


if __name__ == "__main__":
    unittest.main()
