"""Tests of the result-set comparison; `python3 e2ebench/run.py test` runs them."""

import json
import unittest

from compare import (
    BETTER,
    UNRESOLVED,
    WITHIN,
    WORSE,
    classify,
    compare,
    exit_status,
    parse_records,
    quartiles,
    spread,
)


def runs(base, jitter, n):
    """A deterministic zig-zag of `n` values around `base`."""
    return [base * (1.0 + jitter * ((i % 5) - 2.0) / 2.0) for i in range(n)]


SPEC = [{"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]


def record(workload, cpu, value, correct=True, daemons=0, trace=False):
    return {
        "workload": workload,
        "trace": trace,
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {"steps_per_s": {"value": value, "unit": "1/s"}},
        "host": {
            "nproc": 2,
            "cpu_model": cpu,
            "rustc": "rustc",
            "git_sha": "x",
            "source_digest": "y",
            "rayon_threads": "unset",
            "seed": 1,
            "daemons": daemons,
        },
    }


class Statistics(unittest.TestCase):
    def test_quartiles_and_spread(self):
        xs = [float(i) for i in range(1, 11)]
        self.assertEqual(quartiles(xs), (2.75, 5.5, 8.25))
        self.assertEqual(quartiles([7.0]), (7.0, 7.0, 7.0))
        self.assertAlmostEqual(spread(xs), (8.25 - 2.75) / 5.5)
        self.assertEqual(spread([2.0, 2.0, 2.0]), 0.0)


class Classify(unittest.TestCase):
    def test_clear_speedup_is_better(self):
        old, new = runs(100.0, 0.01, 10), runs(80.0, 0.01, 10)
        self.assertEqual(classify(old, new, 0.05, False), BETTER)
        # the same numbers as a higher-is-better metric are a regression
        self.assertEqual(classify(old, new, 0.05, True), WORSE)

    def test_small_shift_inside_bound_is_within(self):
        old, new = runs(100.0, 0.01, 10), runs(102.0, 0.01, 10)
        self.assertEqual(classify(old, new, 0.05, False), WITHIN)
        # two losing pairs in ten block a claim of gain
        better = runs(95.0, 0.0, 10)
        better[3] = better[7] = 101.0
        self.assertEqual(classify([100.0] * 10, better, 0.1, False), WITHIN)

    def test_regression_beyond_bound_is_worse(self):
        old, new = runs(100.0, 0.01, 10), runs(110.0, 0.01, 10)
        self.assertEqual(classify(old, new, 0.05, False), WORSE)
        self.assertEqual(classify(old, new, 0.15, False), WITHIN)

    def test_noisy_sets_are_unresolved_unless_every_run_is_better(self):
        old, new = runs(100.0, 0.4, 10), runs(101.0, 0.4, 10)
        self.assertEqual(classify(old, new, 0.05, False), UNRESOLVED)
        # wins every pair, but not by more than the old IQR
        old, new = [100.0, 130.0, 70.0, 100.0], [60.0, 65.0, 50.0, 40.0]
        self.assertEqual(classify(old, new, 0.05, False), WITHIN)


class Compare(unittest.TestCase):
    def test_refuses_to_compare_across_hosts_unless_told(self):
        old, new = [record("w", "cpu-a", 10.0)], [record("w", "cpu-b", 10.0)]
        with self.assertRaises(ValueError):
            compare(SPEC, old, new)
        # workloads may differ in their own host fields (daemon count)
        same = [record("w", "cpu-a", 10.0), record("c", "cpu-a", 10.0, daemons=2)]
        self.assertEqual(len(compare(SPEC, same, same)), 2)
        lines = compare(SPEC, old, new, allow_host_mismatch=True)
        self.assertEqual([l["verdict"] for l in lines], [WITHIN])

    def test_failed_runs_are_left_out_and_block_a_gain(self):
        old = [record("w", "cpu", v) for v in runs(100.0, 0.01, 10)]
        faster = [record("w", "cpu", v) for v in runs(150.0, 0.01, 10)]
        lines = compare(SPEC, old, faster)
        self.assertEqual(lines[0]["verdict"], BETTER)
        self.assertEqual(exit_status(lines, faster), 0)
        # one new run failed its checks: no gain, exit 1
        faster[4] = record("w", "cpu", 1000.0, correct=False)
        lines = compare(SPEC, old, faster)
        self.assertEqual(lines[0]["verdict"], UNRESOLVED)
        self.assertNotIn(1000.0, lines[0]["new"])
        self.assertEqual(len(lines[0]["new"]), 9)
        self.assertEqual(exit_status(lines, faster), 1)
        # a worse pair also exits 1
        slower = [record("w", "cpu", v) for v in runs(50.0, 0.01, 10)]
        lines = compare(SPEC, old, slower)
        self.assertEqual(lines[0]["verdict"], WORSE)
        self.assertEqual(exit_status(lines, slower), 1)

    def test_parse_records_skips_traced_runs(self):
        text = "\n".join(
            json.dumps(r) for r in (record("w", "cpu", 12.5), record("w", "cpu", 1.0, trace=True))
        )
        recs = parse_records(text + "\n\n")
        self.assertEqual(len(recs), 1)
        self.assertEqual(recs[0]["metrics"]["steps_per_s"]["value"], 12.5)
        with self.assertRaises(ValueError):
            parse_records('{"workload": "w"}')


if __name__ == "__main__":
    unittest.main()
