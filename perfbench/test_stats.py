"""Tests of the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class TailPercentileTest(unittest.TestCase):
    def test_reports_a_tail_with_ten_samples_beyond(self):
        values = list(range(1, 101))  # p90 of 100 has 10 beyond it
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.tail_percentile(values, 90), 90)

    def test_refuses_a_tail_with_fewer_than_ten_beyond(self):
        with self.assertRaises(stats.TailRefused):
            stats.tail_percentile(list(range(99)), 90)  # 9 beyond
        with self.assertRaises(stats.TailRefused):
            stats.tail_percentile(list(range(1000)), 99.5)  # 5 beyond
        with self.assertRaises(stats.TailRefused):
            stats.tail_percentile([], 50)

    def test_higher_tails_need_more_samples(self):
        self.assertEqual(stats.tail_percentile(list(range(1, 1001)), 99), 990)
        self.assertEqual(stats.samples_beyond(1000, 99), 10)

    def test_order_of_samples_does_not_matter(self):
        values = [float(v) for v in range(200)]
        shuffled = values[::7] + [v for i, v in enumerate(values) if i % 7]
        self.assertEqual(stats.tail_percentile(values, 90),
                         stats.tail_percentile(shuffled, 90))


class SelfTimeTest(unittest.TestCase):
    @staticmethod
    def span(id_, parent, start, end):
        return {"id": id_, "parent": parent, "start": start, "end": end}

    def test_no_children_is_whole_duration(self):
        self.assertEqual(stats.self_times([self.span(1, 0, 10, 25)]), {1: 15})

    def test_disjoint_children_are_subtracted(self):
        spans = [self.span(1, 0, 0, 100), self.span(2, 1, 10, 30),
                 self.span(3, 1, 50, 60)]
        self.assertEqual(stats.self_times(spans)[1], 70)

    def test_overlapping_children_count_once(self):
        # Children 2 and 3 overlap on [20, 30]; 4 nests inside 2. The covered
        # part of the parent is [10, 40] = 30, not 20 + 20 + 5.
        spans = [self.span(1, 0, 0, 100), self.span(2, 1, 10, 30),
                 self.span(3, 1, 20, 40), self.span(4, 1, 12, 17)]
        self.assertEqual(stats.self_times(spans)[1], 70)

    def test_children_outside_the_parent_are_clipped(self):
        spans = [self.span(1, 0, 10, 20), self.span(2, 1, 5, 15),
                 self.span(3, 1, 18, 30)]
        self.assertEqual(stats.self_times(spans)[1], 3)

    def test_grandchildren_do_not_reduce_the_grandparent_twice(self):
        spans = [self.span(1, 0, 0, 100), self.span(2, 1, 0, 50),
                 self.span(3, 2, 10, 20)]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[1], 50)
        self.assertEqual(selfs[2], 40)
        self.assertEqual(selfs[3], 10)

    def test_paired_delta_matches_requests_across_surfaces(self):
        upper = {"a#0": 12.0, "b#0": 30.0, "c#0": 9.0}
        lower = {"a#0": 10.0, "b#0": 25.0, "d#0": 1.0}
        self.assertEqual(stats.paired_delta(upper, lower), 3.5)
        with self.assertRaises(ValueError):
            stats.paired_delta({"x#0": 1.0}, {"y#0": 1.0})


class SplitByClickTest(unittest.TestCase):
    def test_one_population_per_click_kind_in_order(self):
        ops = [("open", 0.1), ("root", 400.0), ("star", 450.0),
               ("rule", 60.0), ("rule", 5.0), ("close", 0.01),
               ("open", 0.2), ("root", 380.0), ("rule", 7.0)]
        pops = stats.split_by_click(ops)
        self.assertEqual(list(pops), ["open", "root", "star", "rule", "close"])
        self.assertEqual(pops["root"], [400.0, 380.0])
        self.assertEqual(pops["rule"], [60.0, 5.0, 7.0])

    def test_populations_never_mix(self):
        # Fast rule expands must not pull the root median down, and slow
        # roots must not lift the rule tail.
        ops = [("root", 400.0)] * 11 + [("rule", 5.0)] * 100
        pops = stats.split_by_click(ops)
        self.assertEqual(stats.median(pops["root"]), 400.0)
        self.assertEqual(stats.tail_percentile(pops["rule"], 90), 5.0)


class QuartileSpreadTest(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        values = [90, 95, 100, 100, 100, 105, 110]
        q1, _, q3 = (95.0, 100.0, 105.0)
        self.assertAlmostEqual(stats.quartile_spread(values),
                               (q3 - q1) / 100.0)


if __name__ == "__main__":
    unittest.main()
