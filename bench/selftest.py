#!/usr/bin/env python3
"""Quick self-test of the runner's arithmetic (a few seconds, no mixlr needed).

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import unittest
from unittest import mock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import spans  # noqa: E402
from stats import median, percentile, self_times  # noqa: E402


class PercentileTest(unittest.TestCase):
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]

    def test_ends_are_min_and_max(self):
        self.assertEqual(percentile(self.values, 0.0), 1.0)
        self.assertEqual(percentile(self.values, 1.0), 9.0)

    def test_quartiles_match_inclusive_interpolation(self):
        want = statistics.quantiles(self.values, n=4, method="inclusive")
        got = [percentile(self.values, q) for q in (0.25, 0.5, 0.75)]
        for g, w in zip(got, want):
            self.assertAlmostEqual(g, w, places=12)

    def test_interpolates_between_ranks(self):
        self.assertAlmostEqual(percentile([10.0, 20.0], 0.3), 13.0)

    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(median([5.0, 1.0, 3.0]), 3.0)
        self.assertEqual(median([4.0, 1.0, 3.0, 2.0]), 2.5)
        self.assertEqual(median([7.0]), 7.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            percentile([], 0.5)
        with self.assertRaises(ValueError):
            percentile([1.0], 1.5)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
        starts = [0.0, 1.0, 5.0, 6.0]
        ends = [10.0, 4.0, 9.0, 7.0]
        parents = [-1, 0, 0, 2]
        self.assertEqual(self_times(starts, ends, parents), [3.0, 3.0, 3.0, 1.0])

    def test_self_times_add_up_to_the_roots(self):
        starts = [0.0, 0.5, 0.6, 2.0, 3.0]
        ends = [4.0, 1.5, 1.0, 3.5, 5.0]
        parents = [-1, 0, 1, 0, -1]
        own = self_times(starts, ends, parents)
        roots = sum(e - s for s, e, p in zip(starts, ends, parents) if p < 0)
        self.assertAlmostEqual(sum(own), roots)


class TracerTest(unittest.TestCase):
    def test_layer_times_count_outermost_spans_only(self):
        # mle [0, 10] > likelihood [1, 9] > likelihood [2, 8] > genotypes [3, 4]
        clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 8.0, 9.0, 10.0])
        tracer = spans.Tracer()
        with mock.patch.object(spans.time, "perf_counter", lambda: next(clock)):
            a = tracer.open("fit_both", "mle")
            b = tracer.open("marginal_log10", "likelihood")
            c = tracer.open("set_log10_likelihoods", "likelihood")
            d = tracer.open("enumerate_sets", "genotypes")
            for i in (d, c, b, a):
                tracer.close(i)
        times = tracer.layer_times()
        self.assertEqual(times["mle"], (10.0, 2.0))
        self.assertEqual(times["likelihood"], (8.0, 7.0))
        self.assertEqual(times["genotypes"], (1.0, 1.0))
        self.assertEqual(tracer.parents, [-1, 0, 1, 2])


class SpecTest(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        listed = [m["name"] for m in spec["per_layer"]]
        computed = spans.layer_metrics(spans.Tracer(), 0, 0.0, 0, 0.0)
        self.assertEqual(sorted(listed), sorted(computed))


if __name__ == "__main__":
    unittest.main(verbosity=1)
