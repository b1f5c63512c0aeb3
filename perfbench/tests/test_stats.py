"""Tail percentile rule, failure counting, per-operation medians and host-speed scaling.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402


class TailRule(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(10_000), 99.9)
        self.assertEqual(stats.tail_percentile(5184), 99.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)

    def test_value_and_count(self):
        p, v, beyond = stats.tail(list(range(1000, 0, -1)))  # 1..1000, any order
        self.assertEqual((p, v, beyond), (99.0, 990, 10))

    def test_one_outlier_cannot_set_the_tail(self):
        values = [1.0] * 999 + [1000.0]
        p, v, beyond = stats.tail(values)
        self.assertEqual(v, 1.0)

    def test_ties_do_not_count_as_beyond(self):
        values = [1.0] * 50 + [2.0] * 15
        p, v, beyond = stats.tail(values)
        self.assertEqual((p, v, beyond), (75.0, 1.0, 15))

    def test_too_few_samples_fall_back_to_median(self):
        self.assertEqual(stats.tail_percentile(15), 50.0)
        p, v, beyond = stats.tail([3, 1, 2])
        self.assertEqual((p, v), (50.0, 2))
        self.assertLess(beyond, stats.MIN_BEYOND)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])

    def test_nearest_rank(self):
        s = [10, 20, 30, 40]
        self.assertEqual(stats.percentile(s, 50), 20)
        self.assertEqual(stats.percentile(s, 75), 30)
        self.assertEqual(stats.percentile(s, 99), 40)
        self.assertEqual(stats.percentile(s, 0), 10)


class FailureCounting(unittest.TestCase):
    def test_an_operation_with_any_failed_check_counts_once(self):
        log = stats.OpLog()
        log.record(0.0, 1.0, [])
        log.record(1.0, 2.0, ["a", "b"])
        log.record(2.0, 3.0, [])
        log.record(3.0, 4.0, ["c"])
        self.assertEqual(log.attempted, 4)
        self.assertEqual(log.failed, 2)
        self.assertEqual(log.messages, ["a", "b", "c"])

    def test_messages_are_capped_but_failures_are_not(self):
        log = stats.OpLog()
        for i in range(50):
            log.record(i, i + 1, [f"m{i}"])
        self.assertEqual(log.failed, 50)
        self.assertEqual(len(log.messages), stats.OpLog.MAX_MESSAGES)


class PerOperation(unittest.TestCase):
    def test_takes_each_operations_median(self):
        rounds = [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 2.0, 4.0]]
        self.assertEqual(stats.per_op(rounds), [3.0, 2.0, 5.0])

    def test_one_slow_round_does_not_move_it(self):
        quiet = [1.0, 2.0, 3.0]
        slow = [v * 1.7 for v in quiet]
        self.assertEqual(stats.per_op([slow, quiet, quiet]), quiet)

    def test_rounds_must_match(self):
        with self.assertRaises(ValueError):
            stats.per_op([[1.0, 2.0], [1.0]])
        with self.assertRaises(ValueError):
            stats.per_op([])


class HostSpeedScaling(unittest.TestCase):
    def test_timings_scale_by_the_reference_and_memory_does_not(self):
        import hostspeed
        import run

        rounds = [{"latencies": [0.5, 0.01, 0.03, 0.02], "peak_rss_mb": 30.0, "wall_s": 1.0}] * 3
        cold = [{"ready_s": 0.4, "setup_s": 0.3, "first_s": 0.5, "partial_setup": False},
                {"ready_s": 0.1, "setup_s": 0.05, "first_s": 0.7, "partial_setup": True}]
        slow = [2 * hostspeed.NOMINAL_S] * 5  # the host runs the reference at half speed
        m, _ = run.end_to_end(rounds, cold, slow)
        self.assertAlmostEqual(m["wall_s"][0], (0.4 + 0.5 + 0.06) / 2)
        self.assertAlmostEqual(m["setup_s"][0], 0.3 / 2)  # the partial set-up is left out
        self.assertAlmostEqual(m["first_result_s"][0], 0.6 / 2)
        self.assertAlmostEqual(m["ops_per_s"][0], 3 / 0.06 * 2)
        self.assertAlmostEqual(m["op_p50_ms"][0], 25.0 / 2)
        self.assertEqual(m["peak_rss_mb"], (30.0, "MB"))


if __name__ == "__main__":
    unittest.main()
