"""Tests of the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(stats.nearest_rank(100, 50), 49)
        self.assertEqual(stats.nearest_rank(100, 90), 89)
        self.assertEqual(stats.nearest_rank(1000, 99), 989)
        self.assertEqual(stats.nearest_rank(1, 99), 0)

    def test_percentile_reported_with_exactly_ten_beyond(self):
        r = stats.percentile(range(100), 90)
        self.assertEqual((r["reported"], r["beyond"], r["value"]), (90, 10, 89))
        self.assertTrue(r["rule_met"])
        r = stats.percentile(range(1000), 99)
        self.assertEqual((r["reported"], r["beyond"], r["value"]), (99, 10, 989))

    def test_falls_back_when_fewer_than_ten_beyond(self):
        r = stats.percentile(range(99), 90)  # 9 beyond p90
        self.assertEqual((r["reported"], r["value"]), (50, 49))
        self.assertTrue(r["rule_met"])
        r = stats.percentile(range(999), 99)  # 9 beyond p99
        self.assertEqual((r["reported"], r["value"]), (90, 899))

    def test_median_flagged_when_no_percentile_qualifies(self):
        r = stats.percentile([5.0, 1.0, 3.0], 99)
        self.assertEqual((r["reported"], r["value"], r["samples"]), (50, 3.0, 3))
        self.assertFalse(r["rule_met"])

    def test_order_of_samples_does_not_matter(self):
        values = [float(v) for v in range(200)]
        self.assertEqual(stats.percentile(values[::-1], 90),
                         stats.percentile(values, 90))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class FailureAccounting(unittest.TestCase):
    def test_refused_and_failed_check_both_count(self):
        status = [stats.OK, stats.REFUSED, stats.OK, stats.CHECK_FAILED]
        self.assertEqual(stats.failures(status), (4, 2))
        self.assertEqual(stats.failed_frac(status), 0.5)

    def test_all_ok(self):
        self.assertEqual(stats.failures([stats.OK] * 7), (7, 0))
        self.assertEqual(stats.failed_frac([stats.OK] * 7), 0.0)

    def test_saturation_failures_count_too(self):
        raw = open_raw(due=[0.0] * 4, sent=[0.0] * 4, done=[1.0] * 4)
        raw["saturation_status"] = [stats.OK, stats.REFUSED,
                                    stats.CHECK_FAILED, stats.OK]
        self.assertEqual(stats.failures(run.statuses(raw)), (8, 2))

    def test_failed_samples_leave_the_latency_percentiles(self):
        raw = closed_raw([10.0] * 30 + [500.0] * 5,
                         [stats.OK] * 30 + [stats.CHECK_FAILED] * 5)
        metrics, reports = run.end_to_end(raw)
        self.assertEqual(metrics["select_p50_ms"], 10.0)
        self.assertEqual(reports[90]["value"], 10.0)
        self.assertEqual(reports[50]["samples"], 30)


class OpenLoopTiming(unittest.TestCase):
    def test_latency_runs_from_due_time_not_send_time(self):
        # The generator stalls 40 ms before request 1: it goes out late, and
        # the stall is charged to it.
        due = [0.0, 10.0, 20.0]
        sent = [0.0, 50.0, 51.0]
        done = [2.0, 53.0, 54.0]
        latency, lag = stats.open_loop_latency(due, sent, done)
        self.assertEqual(latency, [2.0, 43.0, 34.0])
        self.assertEqual(lag, [0.0, 40.0, 31.0])

    def test_lengths_must_agree(self):
        with self.assertRaises(ValueError):
            stats.open_loop_latency([0.0], [0.0, 1.0], [1.0])

    def test_end_to_end_uses_due_times(self):
        n = 40
        raw = open_raw(due=[float(i) for i in range(n)],
                       sent=[float(i) + 5.0 for i in range(n)],
                       done=[float(i) + 6.0 for i in range(n)])
        metrics, _ = run.end_to_end(raw)
        self.assertEqual(metrics["select_p50_ms"], 6.0)

    def test_wait_is_latency_minus_service_of_misses(self):
        n = 2000
        raw = open_raw(due=[0.0] * n, sent=[0.0] * n, done=[10.0] * n)
        raw["hit"] = [1] * (n // 2) + [0] * (n // 2)
        raw["service_ms"] = [-1.0] * (n // 2) + [4.0] * (n // 2)
        metrics, _, _, _ = run.per_layer(raw, run.end_to_end(raw)[0])
        self.assertEqual(metrics["serve.service_p50_ms"], 4.0)
        self.assertEqual(metrics["serve.wait_p99_ms"], 10.0)
        self.assertEqual(metrics["serve.wait_p50_ms"], 6.0)


class OpenLoopThroughput(unittest.TestCase):
    def test_throughput_comes_from_the_saturation_phase(self):
        # The open loop's own completion rate is the offered rate; the
        # metric is the median of the saturation repetitions' rates.
        raw = open_raw(due=[0.0] * 40, sent=[0.0] * 40, done=[1.0] * 40)
        raw["saturation_ok"] = [1000.0, 1000.0, 900.0]
        raw["saturation_s"] = [1.0, 2.0, 0.5]
        metrics, _ = run.end_to_end(raw)
        self.assertEqual(metrics["throughput_per_s"], 1000.0)

    def test_traced_saturation_repetitions_split_out(self):
        raw = open_raw(due=[0.0] * 40, sent=[0.0] * 40, done=[1.0] * 40)
        raw["saturation_ok"] = [1000.0, 1000.0, 1000.0]
        raw["saturation_s"] = [1.0, 2.0, 1.0]
        raw["saturation_traced"] = [0, 1, 0]
        traced, _ = run.end_to_end(raw, mask=1, setup_mask=1)
        untraced, _ = run.end_to_end(raw, mask=0, setup_mask=0)
        self.assertEqual(traced["throughput_per_s"], 500.0)
        self.assertEqual(untraced["throughput_per_s"], 1000.0)


class SetupRepetitions(unittest.TestCase):
    def test_cold_first_setup_is_in_neither_trace_side(self):
        raw = open_raw(due=[0.0] * 40, sent=[0.0] * 40, done=[1.0] * 40)
        raw["setup_s"] = [9.0, 2.0, 1.0, 2.0, 1.0]
        raw["setup_traced"] = [2, 1, 0, 1, 0]
        self.assertEqual(run.end_to_end(raw)[0]["setup_s"], 2.0)
        traced, _ = run.end_to_end(raw, mask=1, setup_mask=1)
        untraced, _ = run.end_to_end(raw, mask=0, setup_mask=0)
        self.assertEqual(traced["setup_s"] - untraced["setup_s"], 1.0)


class MetricNames(unittest.TestCase):
    def test_benchmark_json_lists_what_run_prints(self):
        spec_path = HERE.parent / "BENCHMARK.json"
        if not spec_path.is_file():
            self.skipTest("BENCHMARK.json not present")
        spec = json.loads(spec_path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)


def closed_raw(latency, status):
    return {
        "kind": "closed", "latency_ms": latency, "status": status,
        "traced": [0] * len(latency), "elapsed_s": sum(latency) / 1000.0,
        "setup_s": [1.0], "setup_traced": [0], "peak_rss_kib": 1024.0,
    }


def open_raw(due, sent, done):
    n = len(due)
    return {
        "kind": "open", "due_ms": due, "sent_ms": sent, "done_ms": done,
        "status": [stats.OK] * n, "traced": [i % 2 for i in range(n)],
        "hit": [0] * n, "service_ms": [0.0] * n,
        "parse_us": [1.0] * n, "job_build_us": [1.0] * n,
        "submit_us": [1.0] * n, "format_us": [1.0] * n,
        "setup_s": [1.0, 1.0], "setup_traced": [0, 1],
        "saturation_s": [1.0, 1.0], "saturation_ok": [float(n)] * 2,
        "saturation_traced": [0, 1], "saturation_status": [stats.OK] * n,
        "peak_rss_kib": 1024.0, "peak_rss_kib_checked": 1024.0,
        "peak_rss_kib_end": 1024.0, "layers": {}, "pool_threads": 4,
    }


if __name__ == "__main__":
    unittest.main()
