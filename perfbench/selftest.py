"""Self-tests of the benchmark, on tiny shapes (about a minute on two cores).

Run from the repository root with ``python3 perfbench/selftest.py`` or
``python3 -m pytest perfbench/selftest.py``.  The file name keeps it out of the
repository's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from sweep import check_result, repeat_trial, run_sweep  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC = ("topology.nodes", "selection.owners", "protocol.events",
                 "kernel.batched_views", "kernel.scalar_dispatches", "kernel.batched_frac")


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--tiny", "--trace", str(trace), *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    traced = {}

    @classmethod
    def setUpClass(cls):
        cls.traced = {name: [last_json(bench(name, 1)) for _ in range(2)] for name in workloads.WORKLOADS}

    def test_every_metric_printed_with_unit(self):
        for name in workloads.WORKLOADS:
            for trace, table in ((0, "end_to_end"), (1, "per_layer")):
                done = bench(name, trace) if trace == 0 else None
                result = last_json(done) if done else self.traced[name][0]
                with self.subTest(workload=name, trace=trace):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(result["attempted"], workloads.WORKLOADS[name].tiny.trials)
                    expected = {entry["name"]: entry["unit"] for entry in DECLARED[table]}
                    got = {key: value["unit"] for key, value in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    if done:
                        for metric in expected:
                            self.assertIn(metric, done.stdout)

    def test_deterministic_counts_repeat(self):
        for name, (first, second) in self.traced.items():
            for metric in DETERMINISTIC:
                with self.subTest(workload=name, metric=metric):
                    self.assertEqual(first["metrics"][metric]["value"],
                                     second["metrics"][metric]["value"])

    def test_layer_self_times_within_trial_time(self):
        for name, (result, _) in self.traced.items():
            metrics = {key: value["value"] for key, value in result["metrics"].items()}
            layer_time = sum(metrics[entry["name"]] for entry in DECLARED["per_layer"]
                             if entry["unit"] == "s" and not entry["name"].startswith("experiments."))
            with self.subTest(workload=name):
                self.assertLessEqual(layer_time, metrics["experiments.trial_s"] + 1e-9)
                self.assertGreaterEqual(metrics["experiments.unattributed_s"], 0.0)


class InProcess(unittest.TestCase):
    def test_traced_digest_equals_untraced(self):
        for name, workload in workloads.WORKLOADS.items():
            spec, _, _ = workloads.set_up(workload, 3, tiny=True)
            plain = run_sweep(spec)
            tracer = layers.Tracer()
            patches = layers.install(tracer)
            try:
                traced = run_sweep(spec, tracer=tracer)
            finally:
                patches.undo()
            with self.subTest(workload=name):
                self.assertEqual(traced.digest, plain.digest)
                self.assertEqual(len(tracer.trials), 2)
                self.assertTrue(tracer.spans)
                self.assertLessEqual(sum(tracer.self_times().values()),
                                     sum(end - start for start, end in tracer.trials))
            self.assertEqual(run_sweep(spec).digest, plain.digest)  # wrappers removed

    def test_output_checks_catch_a_changed_payload(self):
        spec, measure, metric = workloads.set_up(workloads.WORKLOADS["static-ans-size"], 5, tiny=True)
        run = run_sweep(spec)
        self.assertEqual(check_result(spec, run), [])
        self.assertEqual(repeat_trial(spec, measure, metric, run), [])
        index = min(run.payloads, key=lambda i: run.payloads[i][0])
        seconds, payload = run.payloads[index]
        run.payloads[index] = (seconds, {**payload, "node_count": payload["node_count"] + 1})
        self.assertTrue(repeat_trial(spec, measure, metric, run))

    def test_compare_verdicts(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
        faster = [value * 0.8 for value in base]
        self.assertEqual(compare.verdict(base, faster, "lower", 0.1)["verdict"], "improved")
        self.assertEqual(compare.verdict(faster, base, "lower", 0.1)["verdict"], "regressed")
        self.assertEqual(compare.verdict(base, base, "lower", 0.1)["verdict"], "no worse")
        noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
        self.assertEqual(compare.verdict(noisy, noisy[::-1], "lower", 0.1)["verdict"], "unresolved")
        row = compare.verdict(base, faster, "higher", 0.1)
        self.assertEqual((row["wins"], row["verdict"]), (0, "regressed"))

    def test_compare_flags_changed_digests(self):
        run = {"correct": True, "digests": ["a", "b"]}
        self.assertTrue(compare._pair_correct({"parent": run, "change": dict(run)}))
        changed = {"correct": True, "digests": ["a", "c"]}
        self.assertFalse(compare._pair_correct({"parent": run, "change": changed}))


class Standalone(unittest.TestCase):
    def test_fails_without_program_sources(self):
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as scratch:
            root = Path(scratch)
            shutil.copy(ROOT / "BENCHMARK.json", root)
            for path in DECLARED["paths"]:
                shutil.copytree(ROOT / path, root / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("static-overhead", 0, cwd=root)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
