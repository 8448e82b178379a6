#!/usr/bin/env python3
"""Self-test of bench/e2e/run.py: quartiles, compare verdicts, the checks that
feed failed_frac, and the result-file schema. Needs no build.

  python3 bench/e2e/run_test.py
"""
import copy
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPANS = ("bundler.ingress", "qdisc.enqueue", "qdisc.dequeue", "transport.flow_create")


def fake_rep(seed=1, run_s=1.0, digest="00aa", traced=False, workers=None, checks=()):
    """A harness result shaped like bundler_bench's output."""
    spans = {n: {"calls": 10, "total_s": 0.02, "self_s": 0.01} for n in SPANS}
    return {
        "workload": "dumbbell_sfq", "seed": seed, "traced": traced, "workers": workers or 1,
        "setup_s": 0.002, "run_s": run_s, "cpu_s": run_s * 1.01, "run_cpu_s": run_s,
        "peak_rss_mb": 400.0, "fct_p50_ms": 57.0, "fct_p99_ms": 290.0,
        "digest": digest, "checks": list(checks),
        "counts": {"sim.events": 1000.0, "sim.ns_per_event": run_s * 1e6,
                   "transport.flows": 50.0, "obs.records_per_event": 1.5 if traced else 0.0},
        "coarse_spans": [{"name": n, "dur_s": d} for n, d in (
            ("trial", run_s + 0.01), ("topo.build", 0.001), ("app.arm", 0.001),
            ("sim.run", run_s), ("metrics.extract", 0.003), ("obs.serialize", 0.002))],
        "setup_spans": dict(copy.deepcopy(spans), toplevel_s=0.0),
        "run_spans": dict(copy.deepcopy(spans), toplevel_s=0.04),
    }


def fake_round(seed=1, traced_digest="00aa"):
    return {"base": fake_rep(seed), "traced": fake_rep(seed, 1.3, traced_digest, traced=True)}


HOST = {"nproc": 4, "effective_cores": 3.9, "compiler": "GNU 12", "build_type": "Release"}


def fake_result(untraced=None, rounds=None):
    spec = run.load_spec()
    untraced = untraced if untraced is not None else [fake_rep(run_s=1 + i / 100) for i in range(5)]
    rounds = rounds if rounds is not None else [fake_round()]
    return {"schema": run.RESULT_SCHEMA, "host": dict(HOST), "seed": 1, "reps": len(untraced),
            "scale": 1.0,
            "workloads": {"dumbbell_sfq": run.workload_result(spec, untraced, rounds, HOST)}}


class QuartilesTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        vals = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        self.assertEqual(run.quartiles(vals), tuple(statistics.quantiles(vals, n=4)))

    def test_single_value(self):
        self.assertEqual(run.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_spread_is_quartile_distance_over_median(self):
        s = run.summarize([1.0, 2.0, 3.0, 4.0, 5.0], "s", "lower")
        self.assertEqual((s["median"], s["n"]), (3.0, 5))
        self.assertAlmostEqual(run.spread(s), (s["q3"] - s["q1"]) / 3.0)


class VerdictTest(unittest.TestCase):
    BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]

    def scaled(self, f):
        return [x * f for x in self.BASE]

    def test_same_runs_are_unchanged(self):
        self.assertEqual(run.verdict(self.BASE, list(self.BASE), "lower", 0.1), "unchanged")

    def test_slowdown_beyond_bound_is_worse(self):
        self.assertEqual(run.verdict(self.BASE, self.scaled(1.2), "lower", 0.1), "worse")

    def test_slowdown_within_bound_is_unchanged(self):
        self.assertEqual(run.verdict(self.BASE, self.scaled(1.05), "lower", 0.1), "unchanged")

    def test_consistent_gain_is_better(self):
        self.assertEqual(run.verdict(self.BASE, self.scaled(0.9), "lower", 0.1), "better")

    def test_gain_needs_nine_of_ten_pair_wins(self):
        change = self.scaled(0.9)
        change[0] = change[1] = 1.5  # two lost pairs
        self.assertEqual(run.verdict(self.BASE, change, "lower", 0.1), "unchanged")

    def test_gain_must_exceed_base_quartile_distance(self):
        self.assertEqual(run.verdict(self.BASE, self.scaled(0.995), "lower", 0.1), "unchanged")

    def test_noisy_base_is_unresolved(self):
        base = [1.0, 1.6, 1.0, 1.6, 1.0, 1.6, 1.0, 1.6, 1.0, 1.6]
        self.assertEqual(run.verdict(base, self.scaled(1.3), "lower", 0.1), "unresolved")

    def test_noisy_base_beaten_by_every_run_is_better(self):
        base = [1.0, 1.6, 1.0, 1.6, 1.0, 1.6, 1.0, 1.6, 1.0, 1.6]
        self.assertEqual(run.verdict(base, self.scaled(0.5), "lower", 0.1), "better")

    def test_higher_is_better(self):
        self.assertEqual(run.verdict(self.BASE, self.scaled(1.2), "higher", 0.1), "better")
        self.assertEqual(run.verdict(self.BASE, self.scaled(0.8), "higher", 0.1), "worse")

    def test_any_failure_increase_is_worse(self):
        self.assertEqual(run.verdict([0.0], [0.05], "lower", 0.0), "worse")
        self.assertEqual(run.verdict([0.0], [0.0], "lower", 0.0), "unchanged")

    def test_absolute_slack(self):
        base, change = [0.0010] * 5, [0.0015] * 5  # +50%, but only 0.5 ms
        self.assertEqual(run.verdict(base, change, "lower", 0.1, 0.005), "unchanged")
        self.assertEqual(run.verdict(base, change, "lower", 0.1), "worse")

    def test_noise_within_absolute_slack_is_resolved(self):
        base = [20e-6, 30e-6, 20e-6, 30e-6, 20e-6]  # 40% spread, but microseconds
        self.assertEqual(run.verdict(base, list(base), "lower", 0.25, 0.005), "unchanged")
        self.assertEqual(run.verdict(base, list(base), "lower", 0.25), "unresolved")


class ChecksTest(unittest.TestCase):
    def test_clean_runs_pass(self):
        res = fake_result()["workloads"]["dumbbell_sfq"]
        self.assertEqual((res["attempted"], res["failed"]), (7, 0))
        self.assertEqual(res["end_to_end"]["failed_frac"]["median"], 0.0)

    def test_digest_mismatch_fails_the_odd_run_out(self):
        untraced = [fake_rep(), fake_rep(), fake_rep(digest="bad")]
        res = fake_result(untraced)["workloads"]["dumbbell_sfq"]
        self.assertEqual(res["failed"], 1)
        self.assertAlmostEqual(res["end_to_end"]["failed_frac"]["median"], 1 / 5)

    def test_traced_digest_must_match_untraced(self):
        res = fake_result(rounds=[fake_round(traced_digest="bad")])["workloads"]["dumbbell_sfq"]
        self.assertEqual(res["failed"], 1)
        self.assertIn("traced", res["failures"][0])

    def test_one_worker_digest_must_match(self):
        rnd = fake_round()
        rnd["w1"] = fake_rep(workers=1, digest="bad")
        res = fake_result(rounds=[rnd])["workloads"]["dumbbell_sfq"]
        self.assertEqual(res["failed"], 1)

    def test_output_checks_and_errors_fail(self):
        untraced = [fake_rep(), fake_rep(checks=["only 7199 of 7200 flows completed"]),
                    {"error": "exit 2", "seed": 1}]
        res = fake_result(untraced)["workloads"]["dumbbell_sfq"]
        self.assertEqual(res["failed"], 2)

    def test_self_time_rows_add_up_to_sim_run(self):
        table, adds_up = run.self_time_table(fake_rep(traced=True))
        run_rows = [r["self_s"] for r in table if r["phase"] == "run"]
        self.assertTrue(adds_up)
        self.assertAlmostEqual(sum(run_rows), 1.0)

    def test_overhead_and_speedup(self):
        rnd = fake_round()
        rnd["w1"] = fake_rep(run_s=2.0, workers=1)
        values = run.round_per_layer(rnd, w4_run_s=1.0)
        self.assertAlmostEqual(values["sim.shard_speedup"], 2.0)
        self.assertAlmostEqual(values["obs.trace_overhead_frac"], 1.3 / 2.0 - 1)
        self.assertAlmostEqual(values["qdisc.enq_ns"], 0.02 / 10 * 1e9)


class SchemaTest(unittest.TestCase):
    def test_valid_result(self):
        self.assertEqual(run.validate_result(fake_result()), [])

    def test_wrong_schema(self):
        doc = fake_result()
        doc["schema"] = "other"
        self.assertTrue(run.validate_result(doc))

    def test_host_record_required(self):
        doc = fake_result()
        del doc["host"]["effective_cores"]
        self.assertTrue(run.validate_result(doc))

    def test_sample_count_must_match(self):
        doc = fake_result()
        doc["workloads"]["dumbbell_sfq"]["end_to_end"]["run_s"]["n"] = 99
        self.assertTrue(run.validate_result(doc))

    def test_every_listed_metric_is_reported(self):
        spec = run.load_spec()
        res = fake_result()["workloads"]["dumbbell_sfq"]
        self.assertEqual(set(res["end_to_end"]), {m["name"] for m in run.e2e_metrics(spec)})
        self.assertEqual(set(res["per_layer"]), {m["name"] for m in run.per_layer_metrics(spec)})

    def test_summary_line(self):
        line = run.summary_line(8, 0, {"run_s": (1.25, "s")})
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"]["run_s"], {"value": 1.25, "unit": "s"})
        self.assertTrue(line["correct"])
        self.assertFalse(run.summary_line(8, 1, {})["correct"])


if __name__ == "__main__":
    unittest.main()
