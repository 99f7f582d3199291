"""Tests of the benchmark itself (stdlib only).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_enfkit()

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, json.loads(out.getvalue().splitlines()[-1])


def _draw(cls, seed, n_rounds):
    w = cls(seed)
    order = workloads.rounds(w.items, w.per_stratum, random.Random(f"{w.name}:{seed}"))
    return [[json.dumps(item["key"]) for item in next(order)] for _ in range(n_rounds)]


class InputsTest(unittest.TestCase):
    def test_draws_are_deterministic_per_seed(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                self.assertEqual(_draw(cls, 7, 3), _draw(cls, 7, 3))
                self.assertNotEqual(_draw(cls, 7, 3), _draw(cls, 8, 3))

    def test_generated_texts_are_deterministic(self):
        for name in ("compile-ladder", "check-large"):
            cls = workloads.WORKLOADS[name]
            first, second = cls(1), cls(2)
            a, b = first.prepare(), second.prepare()
            texts_a = [first.input_text(a, item) for item in first.items]
            texts_b = [second.input_text(b, item) for item in second.items]
            self.assertEqual(workloads.digest(texts_a), workloads.digest(texts_b))

    def test_a_round_takes_one_item_per_stratum(self):
        w = workloads.CompileLadder(3)
        drawn = _draw(workloads.CompileLadder, 3, 1)[0]
        parts = [sum(item["part"] == part for item in w.items) for part in ("2x3", "3x4")]
        self.assertEqual(len(drawn), sum(workloads.strata_count(n, w.per_stratum) for n in parts))
        self.assertEqual(len(set(drawn)), len(drawn))

    def test_compile_ladder_draws_only_finished_compiles(self):
        w = workloads.CompileLadder(3)
        self.assertTrue(w.items)
        for item in w.items:
            self.assertEqual(item["outcome"], "ok")
            self.assertLessEqual(10 * item["cost_s"], w.deadline_s)


class HostSpeedTest(unittest.TestCase):
    def test_scale_without_samples_is_the_identity(self):
        self.assertEqual(hostspeed.Scale([]).span(1.0, 3.5), 2.5)

    def test_scale_divides_by_the_kernel_slowdown(self):
        slow = 2 * hostspeed.REFERENCE_S
        scale = hostspeed.Scale([(t * 0.1, slow) for t in range(20)])
        self.assertAlmostEqual(scale.span(0.35, 1.35), 0.5)
        self.assertAlmostEqual(scale.span(2.0, 3.0), 0.5)

    def test_calibration_time_is_left_out_of_the_clock(self):
        host = hostspeed.HostSpeed()
        began = host.clock()
        host.sample()
        self.assertEqual(len(host.samples), 1)
        self.assertLess(host.clock() - began, host.samples[0][1])


class MetricsTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]},
            tracer.LAYER_METRICS,
        )

    def test_untraced_run_emits_every_end_to_end_metric(self):
        code, out = _run("--workload", "enforce-online", "--seed", "4", "--seconds", "1",
                         "--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, run.END_TO_END)
        for name, metric in out["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_traced_run_emits_every_layer_metric_and_self_times_fit(self):
        code, out = _run("--workload", "enforce-online", "--seed", "4", "--seconds", "1",
                         "--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(out["correct"])
        metrics = out["metrics"]
        self.assertEqual(
            {k: v["unit"] for k, v in metrics.items()},
            {k: unit for k, (unit, _) in tracer.LAYER_METRICS.items()},
        )
        self_total = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracer.LAYERS)
        self.assertGreater(self_total, 0)
        self.assertLessEqual(self_total, metrics["trace.traced_s"]["value"])
        self.assertGreater(metrics["runtime.istep_s"]["value"], 0)

    def test_tail_keeps_ten_samples_beyond(self):
        value, percentile, n = run.tail(list(range(100)))
        self.assertEqual((value, n), (89, 100))
        self.assertEqual(percentile, 90.0)
        self.assertEqual(run.tail([5.0])[0], 5.0)


class TracerTest(unittest.TestCase):
    def test_inclusive_times_nest_and_wrappers_are_removed(self):
        import enfkit

        d = workloads.D23
        f = enfkit.parse_formula("max X.([(x)?req]X && [i?req]ff)", d)
        with tracer.Tracer() as trace:
            enfkit.compile_formula(f, d)
        reduced = trace.reduce()
        self.assertEqual(reduced["synthesis.compile_calls"], 1)
        self.assertGreater(reduced["normalizer.normalize_s"], 0)
        self.assertLessEqual(reduced["normalizer.normalize_s"], reduced["synthesis.compile_s"])
        self.assertLessEqual(reduced["synthesis.self_s"], reduced["synthesis.compile_s"])
        self.assertIs(enfkit.compile_formula, enfkit.synthesis.compile_formula)


class VerdictLineTest(unittest.TestCase):
    def test_split_keeps_subject_and_outcome(self):
        head, outcome = workloads.split_verdict(
            "nvtt 'max X.[i?req]X pass' fail [trace ε invents derivative nil]"
        )
        self.assertEqual((head, outcome), ("nvtt 'max X.[i?req]X pass' fail", "fail"))
        self.assertEqual(workloads.split_verdict("soundness 'tt nil' pass"),
                         ("soundness 'tt nil' pass", "pass"))


if __name__ == "__main__":
    unittest.main()
