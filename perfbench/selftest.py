#!/usr/bin/env python3
"""Self-test of the benchmark itself: seeded generation, the answer checker,
deadline and traceback accounting, and the span recorder.

    python3 perfbench/selftest.py

Runs in a few seconds; it executes only the cheapest documents.
"""

from __future__ import annotations

import json
import math
import unittest
from fractions import Fraction

import run
import workloads

cli = run.import_program()


def _doc(workload, name, seed=3):
    return next(d for d in workloads.generate(workload, seed) if d.name == name)


def _run(doc, deadline_s=30.0):
    (path,) = run.write_documents("selftest", doc.name, [doc])
    return run.run_document(cli, path, deadline_s)


class GenerationTest(unittest.TestCase):
    def test_a_seed_reproduces_identical_bytes(self):
        for name in workloads.WORKLOADS:
            first = [(d.name, d.text) for d in workloads.generate(name, 11)]
            again = [(d.name, d.text) for d in workloads.generate(name, 11)]
            other = [(d.name, d.text) for d in workloads.generate(name, 12)]
            self.assertEqual(first, again, name)
            self.assertNotEqual(first, other, name)

    def test_cost_shape_does_not_depend_on_the_seed(self):
        for name in workloads.WORKLOADS:
            shapes = {tuple(sorted(d.name for d in workloads.generate(name, s)))
                      for s in range(6)}
            self.assertEqual(len(shapes), 1, name)

    def test_printed_scalars_evaluate_exactly(self):
        value = workloads.eval_scalar("(8/3)/(x^2 + 2*y^2 + 4/3)", Fraction(1, 2), Fraction(1))
        self.assertEqual(value, Fraction(8, 3) / (Fraction(1, 4) + 2 + Fraction(4, 3)))
        with self.assertRaises(ValueError):
            workloads.eval_scalar("__import__('os')", Fraction(0), Fraction(0))


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        from spans import Recorder, per_layer_metrics

        manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in manifest["workloads"]},
                         {name: w.why for name, w in workloads.WORKLOADS.items()})
        doc = _doc("cohomology", "h3")
        tally = run.Tally([doc])
        tally.samples[doc.name].append((0.0, 1.0))
        layer = per_layer_metrics(Recorder(), tally, tally, run.wall_seconds)
        self.assertEqual({m["name"]: m["unit"] for m in manifest["per_layer"]},
                         {name: unit for name, (_, unit) in layer.items()})
        end_to_end = run.end_to_end_metrics(tally, [(0.0, 1.0)], run.wall_seconds)
        self.assertEqual({m["name"]: m["unit"] for m in manifest["end_to_end"]},
                         {name: m["unit"] for name, m in end_to_end.items()})


class TallyTest(unittest.TestCase):
    def test_a_pass_sums_each_slots_median_over_its_own_samples(self):
        docs = workloads.generate("cohomology", 3)[:2]
        tally = run.Tally(docs)
        tally.samples[docs[0].name] += [(0.0, 1.0), (1.0, 4.0), (4.0, 5.0)]
        tally.samples[docs[1].name] += [(5.0, 7.0), (7.0, 9.0)]  # the round was cut
        self.assertEqual(tally.rounds, 2)
        self.assertEqual(tally.pass_time(run.wall_seconds), 1.0 + 2.0)
        self.assertEqual(tally.last(docs[0].name), 1.0)
        self.assertEqual(sorted(tally.latencies(run.wall_seconds)), [1.0, 2.0, 2.0, 3.0])


class CheckerTest(unittest.TestCase):
    def test_right_answers_pass(self):
        for workload, name in [("cohomology", "h3"), ("small-docs", "torus-poly-0"),
                               ("small-docs", "torus-numeric-1"),
                               ("small-docs", "invalid-unknown-op"),
                               ("small-docs", "su2-invalid")]:
            doc = _doc(workload, name)
            attempted, failed, messages = run.check_document(doc, *_run(doc))
            self.assertEqual((failed, messages), (0, []), name)
            self.assertEqual(attempted, doc.expect.computations)

    def test_a_wrong_answer_is_a_failure(self):
        doc = _doc("cohomology", "h3")
        outcome, stdout, stderr = _run(doc)
        payload = json.loads(stdout)
        for item in payload["results"]:
            if "betti" in item.get("result", {}):
                item["result"]["betti"][1] += 1
        attempted, failed, _ = run.check_document(doc, outcome, json.dumps(payload), stderr)
        self.assertEqual((attempted, failed), (2, 1))

    def test_a_wrong_exit_code_fails_every_computation(self):
        doc = _doc("cohomology", "h3")
        _, stdout, stderr = _run(doc)
        self.assertEqual(run.check_document(doc, 1, stdout, stderr)[:2], (2, 2))

    def test_a_deadline_hit_is_a_failure(self):
        doc = _doc("cohomology", "pair3")
        outcome, stdout, stderr = _run(doc, deadline_s=0.005)
        self.assertEqual(outcome, "deadline")
        self.assertEqual(run.check_document(doc, outcome, stdout, stderr)[:2], (1, 1))

    def test_a_traceback_is_a_failure(self):
        class Broken:
            @staticmethod
            def main(argv):
                raise ArithmeticError("escaped")

        doc = _doc("cohomology", "h3")
        (path,) = run.write_documents("selftest", "broken", [doc])
        outcome, stdout, stderr = run.run_document(Broken, path, 5.0)
        self.assertEqual(outcome, "traceback")
        self.assertIn("Traceback", stderr)
        self.assertEqual(run.check_document(doc, outcome, stdout, stderr)[:2], (2, 2))


class SpeedMeterTest(unittest.TestCase):
    def test_intervals_convert_at_the_sampled_speed(self):
        import speed

        meter = speed.SpeedMeter()
        for k in range(10):  # the machine runs at half the reference speed
            meter._logs.append(math.log(2 * speed.REFERENCE_S))
            meter.starts.append(float(k))
            meter.times.append(2 * speed.REFERENCE_S)
        # two samples inside [2.5, 4.5]: their time is left out, the rest halved
        expected = (2.0 - 4 * speed.REFERENCE_S) / 2
        self.assertAlmostEqual(meter.reference_seconds(2.5, 4.5), expected)
        self.assertAlmostEqual(meter.reference_seconds(20.0, 21.0), 0.5)

    def test_the_meter_samples_and_restores_the_signal(self):
        import signal

        import speed

        before = signal.getsignal(signal.SIGPROF)
        with speed.SpeedMeter(period_s=0.01) as meter:
            deadline = run.perf_counter() + 0.3
            while run.perf_counter() < deadline:
                sum(range(1000))
        self.assertGreater(len(meter.times), 3)
        self.assertIs(signal.getsignal(signal.SIGPROF), before)


class RecorderTest(unittest.TestCase):
    def test_spans_cover_the_call_and_originals_come_back(self):
        from spans import Recorder, per_layer_metrics

        import algindex.chern_weil as cw
        import algindex.thom_index as ti

        original = cw.levi_civita
        doc = _doc("small-docs", "torus-poly-0")
        (path,) = run.write_documents("selftest", "traced", [doc])
        recorder = Recorder()
        recorder.install()
        tally = run.Tally([doc])
        try:
            self.assertIs(ti.levi_civita, original)  # installed, not yet enabled
            recorder.enable()
            self.assertIsNot(ti.levi_civita, original)
            self.assertIs(ti.levi_civita, cw.levi_civita)
            recorder.disable()
            for _ in range(2):
                run._run_and_check(cli, doc, path, 30.0, tally, recorder)
            self.assertIs(ti.levi_civita, original)
        finally:
            recorder.uninstall()
        self.assertIs(cw.levi_civita, original)
        self.assertEqual(tally.failed, 0)
        roots = [s for s in recorder.spans if s[3] == -1]
        self.assertEqual([s[0] for s in roots], ["cli.main", "cli.main"])
        self.assertEqual({s[4] for s in recorder.spans}, {doc.name})

        # self times add up to the root spans, also when converted by a clock
        total = sum(recorder.self_times().values())
        self.assertAlmostEqual(total, sum(s[2] - s[1] for s in roots), delta=1e-9)
        doubled = sum(recorder.self_times(lambda a, b: 2 * (b - a)).values())
        self.assertAlmostEqual(doubled, 2 * total, delta=1e-9)

        # figures are per pass: the totals of the two runs, halved
        layer = per_layer_metrics(recorder, tally, tally, run.wall_seconds)
        self.assertEqual(layer["thom_index.integrate.calls"][0],
                         recorder.counts[doc.name]["thom_index.integrate.calls"] / 2)
        self.assertGreater(layer["thom_index.integrate.calls"][0], 0)
        self.assertAlmostEqual(layer["trace.coverage_ratio"][0], 1.0, delta=0.05)


if __name__ == "__main__":
    unittest.main()
