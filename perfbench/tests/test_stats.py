"""Tests for the benchmark's statistics.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_returns_a_sample(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(list(reversed(values)), 90), 90)

    def test_refuses_fewer_than_ten_samples_beyond(self):
        # p90 of 100 samples has exactly 10 beyond it; of 99, only 9.
        stats.percentile(list(range(100)), 90)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(99)), 90)
        # The median needs 20 samples.
        self.assertEqual(stats.percentile(list(range(20)), 50), 9)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(19)), 50)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_p95_needs_two_hundred(self):
        stats.percentile([1.0] * 200, 95)
        with self.assertRaises(ValueError):
            stats.percentile([1.0] * 199, 95)

    def test_rejects_out_of_range_p(self):
        for p in (0, 100, -5, 150):
            with self.assertRaises(ValueError):
                stats.percentile(list(range(1000)), p)


class WindowTest(unittest.TestCase):
    def test_keeps_samples_completed_inside_the_window(self):
        values = [1, 2, 3, 4]
        done = [0.9, 1.0, 1.5, 2.0]  # the window is [1.0, 2.0)
        self.assertEqual(stats.in_window(values, done, 1.0, 2.0), [2, 3])


class ThroughputTest(unittest.TestCase):
    def test_interval_rates_per_interval(self):
        rates = stats.interval_rates([0.1, 0.2, 0.3, 0.9, 1.05], 0.0, 1.0)
        self.assertEqual(rates, [8.0, 4.0, 0.0, 4.0])

    def test_intervals_start_at_the_window_and_drop_a_partial_tail(self):
        rates = stats.interval_rates([5.1, 5.3, 5.55, 5.6], 5.0, 5.6)
        self.assertEqual(rates, [4.0, 4.0])

    def test_interval_rates_scale_by_queries_per_op(self):
        self.assertEqual(stats.interval_rates([0.1], 0.0, 0.25, per_op=64),
                         [256.0])

    def test_one_stall_does_not_move_the_median_rate(self):
        # 100 ops/s for 10 s, except a 0.5 s stall with no completions.
        done = [i / 100 + 0.005 for i in range(1000) if not 300 <= i < 350]
        rates = stats.interval_rates(done, 0.0, 10.0)
        self.assertEqual(len(rates), 40)
        self.assertAlmostEqual(stats.percentile(rates, 50), 100.0)
        # The plain mean rate drops by the stall; the median does not.
        self.assertLess(len(done) / 10.0, 100.0)


class IntervalPercentileTest(unittest.TestCase):
    def test_percentile_of_each_interval(self):
        # Interval 0 holds latencies 1..20, interval 1 holds 101..120.
        values = list(range(1, 21)) + list(range(101, 121))
        done = [0.01 * i for i in range(20)] + [0.3 + 0.01 * i
                                                for i in range(20)]
        self.assertEqual(
            stats.interval_percentiles(values, done, 0.0, 0.5, 50),
            [10, 110])

    def test_a_stalled_interval_reads_as_infinitely_slow(self):
        values = list(range(1, 21)) + [500.0]
        done = [0.01 * i for i in range(20)] + [0.4]
        got = stats.interval_percentiles(values, done, 0.0, 0.5, 50)
        self.assertEqual(got[0], 10)
        self.assertTrue(math.isinf(got[1]))

    def test_a_burst_in_a_minority_of_intervals_leaves_the_median(self):
        # 40 intervals of 100 reads at 200-209 us; in 15 of them the
        # slowest 30% of the reads take 2 ms instead. The p90 of all reads
        # lands in the burst; the median interval's p90 does not.
        values, done = [], []
        for k in range(40):
            for i in range(100):
                slow = 10 <= k < 25 and i >= 70
                values.append(2000.0 if slow else 200.0 + i % 10)
                done.append(k * 0.25 + (i + 0.5) * 0.0025)
        p90s = stats.interval_percentiles(values, done, 0.0, 10.0, 90)
        self.assertEqual(stats.percentile(p90s, 50), 208.0)
        self.assertEqual(stats.percentile(values, 90), 2000.0)


class IntervalMedianTest(unittest.TestCase):
    def test_lower_median_is_one_intervals_figure(self):
        self.assertEqual(stats.interval_median([4.0, 1.0, 3.0, 2.0]), 2.0)
        self.assertEqual(stats.interval_median([5.0]), 5.0)

    def test_stalled_intervals_count_against_the_run(self):
        self.assertEqual(stats.interval_median([1.0, 2.0, math.inf]), 2.0)
        with self.assertRaises(ValueError):
            stats.interval_median([1.0, math.inf, math.inf])
        with self.assertRaises(ValueError):
            stats.interval_median([])


class MedianOfMeansTest(unittest.TestCase):
    def test_follows_the_work_where_the_median_jumps(self):
        # A pass of 20 operations in two clusters. Making one expensive
        # operation cheap moves the median from one cluster to the other,
        # and the mean by the work saved.
        before = [20.0] * 9 + [150.0] * 11
        after = [20.0] * 10 + [150.0] * 10
        self.assertEqual(stats.percentile(before, 50), 150.0)
        self.assertEqual(stats.percentile(after, 50), 20.0)
        self.assertAlmostEqual(stats.median_of_means([before]), 91.5)
        self.assertAlmostEqual(stats.median_of_means([after]), 85.0)

    def test_one_disturbed_pass_does_not_move_it(self):
        passes = [[10.0, 30.0]] * 4 + [[100.0, 300.0]]
        self.assertEqual(stats.median_of_means(passes), 20.0)

    def test_refuses_empty_input(self):
        with self.assertRaises(ValueError):
            stats.median_of_means([])
        with self.assertRaises(ValueError):
            stats.median_of_means([[1.0], []])


class SelfTimeTest(unittest.TestCase):
    @staticmethod
    def span(name, ts, dur, tid=1):
        return {"name": name, "ts": ts, "dur": dur, "tid": tid}

    def test_children_are_subtracted_once(self):
        events = [
            self.span("retrain", 0, 100),
            self.span("solve", 10, 60),
            self.span("pg", 20, 30),   # child of solve, not of retrain
            self.span("assemble", 75, 20),
        ]
        got = {name: (dur, own) for name, dur, own in stats.self_times(events)}
        self.assertEqual(got["retrain"], (100, 20))  # 100 - 60 - 20
        self.assertEqual(got["solve"], (60, 30))     # 60 - 30
        self.assertEqual(got["pg"], (30, 30))
        self.assertEqual(got["assemble"], (20, 20))

    def test_other_threads_are_not_children(self):
        events = [self.span("batch", 0, 50, tid=1),
                  self.span("task", 10, 20, tid=2)]
        got = stats.self_times(events)
        self.assertEqual(got, [("batch", 50, 50), ("task", 20, 20)])

    def test_siblings_and_rounding_slack(self):
        # The child ends 0.001 us after its parent in the printed trace.
        events = [self.span("a", 0.0, 10.0), self.span("b", 2.0, 8.001),
                  self.span("c", 20.0, 5.0)]
        got = stats.self_times(events)
        self.assertAlmostEqual(got[0][2], 1.999)
        self.assertEqual(got[2], ("c", 5.0, 5.0))

    def test_same_start_longer_span_is_the_parent(self):
        events = [self.span("inner", 0, 5), self.span("outer", 0, 9)]
        got = stats.self_times(events)
        self.assertEqual(got, [("inner", 5, 5), ("outer", 9, 4)])


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / med)


if __name__ == "__main__":
    unittest.main()
