"""Tests of the kfi campaign benchmark itself.

    python3 -m unittest discover -s kfibench -p 'test_*.py'

The end-to-end tamper test builds the harness (into $CARGO_TARGET_DIR,
default .bench_build) and runs one workload, so it takes about a minute
once built.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def span(sid, parent, start, end, name="x", **tags):
    return dict(id=sid, parent=parent, name=name, start=start, end=end, **tags)


def record_at(seed, digests):
    """A passing harness record with the given per-campaign digests."""
    counts = run.RUNS
    return {
        "seed": seed,
        "campaigns": [{"name": name, "expected": counts[name],
                       "results": counts[name], "digest": digest,
                       "replay_mismatches": 0}
                      for name, digest in digests.items() if name != "fold"],
        "fold": digests["fold"],
        "oracles": 16, "oracles_failed": 0,
        "optimized": True, "ndebug": True,
    }


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        spans = [
            span(0, -1, 0.0, 10.0),
            span(1, 0, 1.0, 4.0),
            span(2, 0, 3.0, 6.0),    # overlaps span 1: counted once
            span(3, 0, 8.0, 12.0),   # clipped to the parent's end
            span(4, 1, 2.0, 3.0),    # grandchild: only span 1's child
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - (6.0 - 1.0) - (10.0 - 8.0))
        self.assertAlmostEqual(selfs[1], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[3], 4.0)
        self.assertAlmostEqual(selfs[4], 1.0)

    def test_fully_covered_parent_has_zero_self_time(self):
        spans = [span(0, -1, 0.0, 2.0), span(1, 0, 0.0, 1.0),
                 span(2, 0, 1.0, 2.0)]
        self.assertAlmostEqual(run.self_times(spans)[0], 0.0)


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        # 842 runs: p99 leaves 8 beyond, p98 leaves 16.
        self.assertEqual(run.tail_percentile(842), (98, 16))
        self.assertEqual(run.tail_percentile(100), (90, 10))
        self.assertEqual(run.tail_percentile(10000), (99.9, 10))

    def test_too_few_samples(self):
        self.assertEqual(run.tail_percentile(20), (50, 10))
        self.assertEqual(run.tail_percentile(19), (None, 0))
        self.assertEqual(run.tail_percentile(0), (None, 0))

    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(run.percentile(values, 50), 50.0)
        self.assertEqual(run.percentile(values, 98), 98.0)
        self.assertEqual(run.percentile([], 50), 0.0)


class Correctness(unittest.TestCase):
    def test_pinned_digests_pass(self):
        ledger = run.Ledger(None)
        attempted, failed, problems = run.judge(
            record_at(2003, run.PINNED), ledger)
        self.assertEqual((attempted, failed, problems), (842, 0, []))

    def test_tampered_campaign_counts_all_its_runs(self):
        digests = dict(run.PINNED, B="0000000000000000")
        attempted, failed, problems = run.judge(
            record_at(2003, digests), run.Ledger(None))
        self.assertEqual((attempted, failed), (842, 120))
        self.assertTrue(problems)
        metrics = run.e2e_metrics([self.timed()], attempted, failed)
        self.assertLess(metrics["ok_frac"][0], 1.0)

    def test_missing_runs_count_as_failed(self):
        record = record_at(2003, run.PINNED)
        record["campaigns"][2]["results"] = 40
        _, failed, problems = run.judge(record, run.Ledger(None))
        self.assertEqual(failed, 8)
        self.assertTrue(problems)

    def test_unpinned_seed_uses_cross_path_ledger(self):
        ledger = run.Ledger(None)
        digests = {"fold": "1" * 16, "A": "2" * 16, "B": "3" * 16,
                   "C": "4" * 16}
        self.assertEqual(run.judge(record_at(7, digests), ledger)[1:], (0, []))
        other = dict(digests, B="5" * 16, fold="6" * 16)
        attempted, failed, problems = run.judge(
            record_at(7, other), ledger)
        self.assertEqual(failed, attempted)
        self.assertTrue(problems)

    def test_traced_paths_must_agree(self):
        record = record_at(9, {"fold": "1" * 16, "A": "2" * 16,
                               "B": "3" * 16, "C": "4" * 16})
        record["w1_fold"] = "1" * 16
        record["w2_fold"] = "7" * 16
        attempted, failed, problems = run.judge(record, run.Ledger(None))
        self.assertEqual(failed, attempted)
        self.assertTrue(problems)

    def test_failed_oracle_fails_the_pinned_seed_only(self):
        record = record_at(2003, run.PINNED)
        record["oracles_failed"] = 1
        self.assertTrue(run.judge(record, run.Ledger(None))[2])
        record = record_at(5, {"fold": "1" * 16, "A": "2" * 16,
                               "B": "3" * 16, "C": "4" * 16})
        record["oracles_failed"] = 1
        self.assertEqual(run.judge(record, run.Ledger(None))[1:],
                         (0, []))

    @staticmethod
    def timed():
        return {"runs": 842, "campaign_s": 10.0, "wall_s": 12.0,
                "setup_s": 1.5, "cpu_s": 20.0, "peak_rss_mib": 200.0}


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.bench = load_benchmark()
        record = {key: 0 for key in ("kernel_build_s", "workloads_build_s",
                                     "profile_s", "oracles", "oracles_failed",
                                     "w1_campaign_s")}
        self.layer = run.layer_metrics(
            record, [span(0, -1, 0.0, 1.0, name="workload")])
        self.e2e = run.e2e_metrics([Correctness.timed()], 842, 0)

    def assert_matches(self, printed, declared):
        self.assertEqual(list(printed), [m["name"] for m in declared])
        for metric in declared:
            self.assertEqual(printed[metric["name"]][1], metric["unit"],
                             metric["name"])

    def test_end_to_end_names_match_benchmark_json(self):
        self.assert_matches(self.e2e, self.bench["end_to_end"])

    def test_per_layer_names_match_benchmark_json(self):
        self.assert_matches(self.layer, self.bench["per_layer"])

    def test_names_use_allowed_characters(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in self.bench[key]]
        names += [w["name"] for w in self.bench["workloads"]]
        for name in names:
            self.assertRegex(name, NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_match_runner(self):
        self.assertEqual(sorted(w["name"] for w in self.bench["workloads"]),
                         sorted(run.WORKLOADS))

    def test_end_to_end_metrics_are_never_zero(self):
        for name, (value, _) in self.e2e.items():
            self.assertNotEqual(value, 0, name)


class EndToEndTamper(unittest.TestCase):
    def test_tampered_result_fails_the_run(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "abc-inproc", "--seed", "2003", "--seconds", "0", "--trace", "0",
             "--tamper", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=900, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("FAIL", proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in
                                load_benchmark()["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
