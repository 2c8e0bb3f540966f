"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import reduce

HERE = os.path.dirname(os.path.abspath(__file__))


class StatisticsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(reduce.median([3, 1, 2]), 2)
        self.assertEqual(reduce.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            reduce.median([])

    def test_percentile_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))  # 1..1000; input order must not matter
        values.reverse()
        self.assertEqual(reduce.percentile(values, 0.99), 990)
        with self.assertRaises(ValueError):
            reduce.percentile(list(range(1, 1000)), 0.99)  # 9 beyond
        self.assertEqual(reduce.percentile(list(range(1, 1000)), 0.99, min_beyond=9), 990)

    def test_percentile_without_the_rule_is_nearest_rank(self):
        self.assertEqual(reduce.percentile([5, 1, 9, 7], 0.99, min_beyond=0), 9)
        self.assertEqual(reduce.percentile([5, 1, 9, 7], 0.5, min_beyond=0), 5)

    def test_tail_percentile_stops_where_ten_samples_remain_beyond(self):
        self.assertEqual(reduce.tail_percentile(list(range(1, 1001)), 0.99), 990)
        # 40 samples: p99 would be the slowest; rank 30 leaves 10 beyond it.
        self.assertEqual(reduce.tail_rank(40, 0.99), 30)
        self.assertEqual(reduce.tail_percentile(list(range(40, 0, -1)), 0.99), 30)
        self.assertEqual(reduce.tail_rank(10, 0.99), 0)
        with self.assertRaises(ValueError):
            reduce.tail_percentile(list(range(10)), 0.99)

    def test_work_per_s_is_work_per_op_over_median_op_time(self):
        ops_ms = [500.0, 700.0, 600.0, 650.0, 550.0]
        self.assertAlmostEqual(reduce.work_per_s([7000] * 5, ops_ms), 7000 / 0.6)
        # Work is also taken as a median, so one odd op does not move it.
        self.assertAlmostEqual(reduce.work_per_s([7000, 7000, 1, 7000, 7000], ops_ms),
                               7000 / 0.6)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_direct_children(self):
        spans = [
            ("root", 0, 100, -1, 0),
            ("a", 10, 40, 0, 0),
            ("b", 30, 60, 0, 0),   # overlaps a: the union 10..60 counts once
            ("a.1", 15, 20, 1, 0),  # grandchild: only a's self time shrinks
            ("late", 90, 130, 0, 0),  # clipped to the parent's end
        ]
        self.assertEqual(reduce.self_times(spans), [100 - 50 - 10, 25, 30, 5, 40])

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(reduce.self_times([("x", 5, 12, -1, 0)]), [7])


class CounterTest(unittest.TestCase):
    def test_deltas_cover_counters_of_either_snapshot(self):
        deltas = reduce.counter_deltas({"a": 1, "b": 5}, {"a": 4, "b": 5, "c": 2})
        self.assertEqual(deltas, {"a": 3, "b": 0, "c": 2})

    def test_counter_metrics(self):
        d = {"campaign.lane_slots_filled": 6000, "campaign.lane_slots_total": 6144,
             "campaign.lane_timed_resolutions": 6000, "campaign.lane_batches": 12}
        m = reduce.COUNTER_METRICS
        self.assertAlmostEqual(m["campaign.lane_occupancy"](d), 6000 / 6144)
        self.assertEqual(m["campaign.timed_per_lane_strike"](d), 1.0)
        self.assertEqual(m["campaign.lane_batches"](d), 12)
        self.assertIsNone(m["service.result_cache_hit_ratio"]({}))


class PerLayerTest(unittest.TestCase):
    def raw(self):
        names = ["campaign.op", "campaign.engine", "sim.batch", "sim.sweep", "sim.resolve",
                 "sta.run"]
        ms = 1_000_000
        spans = [
            # op 0 (own campaign op): op span with the engine as its child
            [0, 0, 100 * ms, -1, 0], [1, 0, 90 * ms, 0, 0],
            [2, 200 * ms, 230 * ms, -1, 0], [2, 240 * ms, 250 * ms, -1, 0],
            [3, 300 * ms, 310 * ms, -1, 0], [4, 310 * ms, 315 * ms, -1, 0],
            [5, 400 * ms, 402 * ms, -1, 0],
            # op 1 (another group's op): its sta.run must not be used
            [5, 500 * ms, 520 * ms, -1, 1],
        ]
        before = {"campaign.lane_batches": 3}
        after = {"campaign.lane_batches": 15}
        ops = [
            {"id": 0, "group": "campaign", "own": True,
             "values": {"traced_ms": 100.0, "untraced_ms": 97.5},
             "counters_before": before, "counters_after": after},
            {"id": 1, "group": "certify", "own": False, "values": {}},
        ]
        return {"workload": "campaign-c7552", "noise": {"alu_ms": 1.0, "mem_ms": 2.0},
                "trace": {"names": names, "spans": spans, "ops": ops}}

    def test_metrics_from_spans_values_and_counters(self):
        m = reduce.per_layer(self.raw())
        self.assertAlmostEqual(m["campaign.engine_ms"], 90.0)
        self.assertAlmostEqual(m["sim.batch_ms"], 40.0)  # both batch spans of the op
        self.assertAlmostEqual(m["sim.extract_ms"], 40.0 - 10.0 - 5.0)
        self.assertAlmostEqual(m["sta.run_ms"], 2.0)  # own op preferred
        self.assertEqual(m["campaign.lane_batches"], 12)
        self.assertAlmostEqual(m["trace.overhead_ms"], 2.5)
        self.assertIsNone(m["analysis.windows_ms"])
        self.assertEqual(m["noise.mem_ms"], 2.0)

    def test_every_declared_metric_is_computed(self):
        m = reduce.per_layer(self.raw())
        self.assertEqual(sorted(m), sorted(name for name, *_ in reduce.PER_LAYER))


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]], reduce.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         reduce.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         [(name, unit) for name, unit, *_ in reduce.PER_LAYER])

    def test_batch_end_to_end(self):
        ops = [400.0 + i for i in range(20)]
        raw = {"workload": "campaign-c7552", "setup_ms": [30.0, 20.0, 25.0],
               "op_ms": ops, "op_work": [7000] * 20, "peak_rss_kb": 2048}
        m = reduce.end_to_end(raw)
        self.assertAlmostEqual(m["setup_s"], 0.025)
        self.assertAlmostEqual(m["work_per_s"], 7000 / 0.4095)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["p50_ms"], 409.5)
        self.assertEqual(m["p99_ms"], 409.0)  # rank 10 of 20: ten ops beyond

    def test_service_end_to_end(self):
        raw = {"workload": "service-c7552", "setup_ms": [50.0], "latency_ms":
               [float(i) for i in range(1, 1001)], "wall_s": 4.0,
               "peak_rss_kb": 1024}
        m = reduce.end_to_end(raw)
        self.assertEqual(m["work_per_s"], 250.0)
        self.assertEqual(m["p50_ms"], 500.5)
        self.assertEqual(m["p99_ms"], 990.0)
        raw["latency_ms"] = raw["latency_ms"][:999]  # 9 beyond p99: not reported
        self.assertIsNone(reduce.end_to_end(raw)["p99_ms"])


if __name__ == "__main__":
    unittest.main()
