#!/usr/bin/env python3
"""Unit tests for the benchmark's own rules:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import struct
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


class PercentileChoiceTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(10))
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertEqual(benchlib.tail_percentile(99), 50.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(999), 90.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(9999), 99.0)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)

    def test_samples_beyond_counts_strictly_above_the_rank(self):
        self.assertEqual(benchlib.samples_beyond(1000, 99.0), 10)
        self.assertEqual(benchlib.samples_beyond(999, 99.0), 9)

    def test_nearest_rank(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertEqual(benchlib.percentile(values, 99.0), 990)
        self.assertEqual(benchlib.percentile(values, 50.0), 500)
        self.assertEqual(benchlib.percentile([5.0], 99.0), 5.0)
        self.assertEqual(benchlib.percentile([3, 1, 2], 50.0), 2)

    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, q2, q3 = benchlib.quartiles(values)
        self.assertAlmostEqual(benchlib.spread(values), (q3 - q1) / q2)
        self.assertEqual(benchlib.spread([2.0, 2.0, 2.0]), 0.0)


def bits(x):
    return "%016x" % struct.unpack("<Q", struct.pack("<d", x))[0]


class FingerprintTest(unittest.TestCase):
    def test_fnv1a64_reference_vectors(self):
        self.assertEqual(benchlib.fnv1a64(b""), 0xcbf29ce484222325)
        self.assertEqual(benchlib.fnv1a64(b"a"), 0xaf63dc4c8601ec8c)
        self.assertEqual(benchlib.fnv1a64(b"foobar"), 0x85944171f73967e8)

    def test_identical_outputs_share_a_fingerprint(self):
        groups = [[1, 2, 3], [4, 5]]
        scores = [bits(0.25), bits(0.75)]
        self.assertEqual(benchlib.fingerprint(groups, scores),
                         benchlib.fingerprint([list(g) for g in groups], list(scores)))

    def test_one_score_bit_changes_it(self):
        groups = [[1, 2, 3], [4, 5]]
        a = benchlib.fingerprint(groups, [bits(0.25), bits(0.75)])
        b = benchlib.fingerprint(groups, [bits(0.25), bits(0.7500000000000001)])
        self.assertNotEqual(a, b)

    def test_membership_and_order_change_it(self):
        scores = [bits(0.25), bits(0.75)]
        base = benchlib.fingerprint([[1, 2, 3], [4, 5]], scores)
        self.assertNotEqual(base, benchlib.fingerprint([[1, 2, 3], [4, 6]], scores))
        self.assertNotEqual(base, benchlib.fingerprint([[4, 5], [1, 2, 3]], scores))
        # Group boundaries count, not just the member sequence.
        self.assertNotEqual(base, benchlib.fingerprint([[1, 2], [3, 4, 5]], scores))


class SelfTimeTest(unittest.TestCase):
    def test_span_minus_covered_children(self):
        def ev(i, parent, ts, dur):
            return {"ts": ts, "dur": dur, "args": {"id": i, "parent": parent}}
        events = [ev(0, -1, 0, 100), ev(1, 0, 10, 30), ev(2, 0, 30, 20),
                  ev(3, 1, 15, 5)]
        self.assertEqual(benchlib.self_times(events), {0: 60, 1: 25, 2: 20, 3: 5})


class VerdictTest(unittest.TestCase):
    def test_regression_beyond_bound(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.05]
        self.assertEqual(benchlib.verdict(base, [11.5] * 5, 0.1, "lower"), "regressed")
        self.assertEqual(benchlib.verdict(base, [10.5] * 5, 0.1, "lower"), "ok")
        self.assertEqual(benchlib.verdict(base, [8.5] * 5, 0.1, "higher"), "regressed")

    def test_unresolved_when_base_spread_exceeds_bound(self):
        base = [5.0, 8.0, 10.0, 12.0, 15.0]
        self.assertEqual(benchlib.verdict(base, [10.5] * 5, 0.1, "lower"), "unresolved")
        self.assertEqual(benchlib.verdict(base, [4.0] * 5, 0.1, "lower"), "ok")


if __name__ == "__main__":
    unittest.main()
