#!/usr/bin/env python3
"""Unit tests for tools/bench_ab.py's pairing and statistics, on
synthetic numbers (no builds, no benchmark runs)."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_ab  # noqa: E402


class PairingTest(unittest.TestCase):
    def test_orders_alternate(self):
        self.assertEqual(bench_ab.pair_orders(4),
                         [("A", "B"), ("B", "A"), ("A", "B"), ("B", "A")])

    def test_each_side_runs_once_per_pair(self):
        for order in bench_ab.pair_orders(7):
            self.assertEqual(sorted(order), ["A", "B"])


class QuantileTest(unittest.TestCase):
    def test_interpolates(self):
        self.assertEqual(bench_ab.median([3, 1, 2]), 2)
        self.assertEqual(bench_ab.median([1, 2, 3, 4]), 2.5)
        self.assertEqual(bench_ab.quantile([0, 10], 0.25), 2.5)
        self.assertEqual(bench_ab.quantile([5], 0.9), 5)


class BootstrapTest(unittest.TestCase):
    def test_constant_sample_has_a_point_interval(self):
        self.assertEqual(bench_ab.bootstrap_interval([2.0] * 10), (2.0, 2.0))

    def test_interval_brackets_the_median_and_is_deterministic(self):
        values = [0.9, 1.1, 1.0, 1.05, 0.95, 1.2, 0.8, 1.0, 1.02, 0.98]
        lo, hi = bench_ab.bootstrap_interval(values)
        self.assertLessEqual(lo, bench_ab.median(values))
        self.assertGreaterEqual(hi, bench_ab.median(values))
        self.assertLess(lo, hi)
        self.assertEqual((lo, hi), bench_ab.bootstrap_interval(values))


class SummarizeTest(unittest.TestCase):
    A = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]

    def test_clear_latency_gain(self):
        b = [x / 5 for x in self.A]
        s = bench_ab.summarize(self.A, b, "lower", 0.24)
        self.assertEqual(s["verdict"], "gain")
        self.assertEqual(s["b_wins"], 10)
        self.assertAlmostEqual(s["ratio_median"], 0.2)
        self.assertAlmostEqual(s["ratio_ci"][0], 0.2)
        self.assertAlmostEqual(s["ratio_ci"][1], 0.2)

    def test_nine_of_ten_is_enough_eight_is_not(self):
        b = [x * 2 for x in self.A]
        b[0] = self.A[0] / 2  # one loss for "higher is better"
        self.assertEqual(bench_ab.summarize(self.A, b, "higher", 0.24)
                         ["verdict"], "gain")
        b[1] = self.A[1] / 2
        s = bench_ab.summarize(self.A, b, "higher", 0.24)
        self.assertEqual(s["b_wins"], 8)
        self.assertEqual(s["verdict"], "within")

    def test_win_inside_the_baseline_spread_is_no_gain(self):
        b = [x - 0.01 for x in self.A]  # wins every pair, by a hair
        s = bench_ab.summarize(self.A, b, "lower", 0.24)
        self.assertEqual(s["b_wins"], 10)
        self.assertEqual(s["verdict"], "within")

    def test_worse_beyond_the_bound(self):
        b = [x * 1.3 for x in self.A]
        self.assertEqual(bench_ab.summarize(self.A, b, "lower", 0.24)
                         ["verdict"], "worse")
        self.assertEqual(bench_ab.summarize(self.A, b, "higher", 0.24)
                         ["verdict"], "gain")

    def test_ties_count_for_neither_side(self):
        s = bench_ab.summarize([1.0, 1.0], [1.0, 1.0], "higher", 0.01)
        self.assertEqual((s["b_wins"], s["a_wins"]), (0, 0))
        self.assertEqual(s["verdict"], "within")

    def test_zero_baseline_gets_no_ratio(self):
        s = bench_ab.summarize([0.0, 0.0], [1.0, 2.0], "lower", 0.24)
        self.assertIsNone(s["ratio_median"])

    def test_mismatched_pairs_are_rejected(self):
        with self.assertRaises(ValueError):
            bench_ab.summarize([1.0], [1.0, 2.0], "lower", 0.24)


class ResultLineTest(unittest.TestCase):
    def test_takes_the_last_json_line(self):
        text = 'building\n{"correct": false}\nmetrics\n{"correct": true}\n'
        self.assertEqual(bench_ab.last_json_line(text), {"correct": True})

    def test_missing_result_is_an_error(self):
        with self.assertRaises(ValueError):
            bench_ab.last_json_line("no result\n")


if __name__ == "__main__":
    unittest.main()
