"""One timed sweep through the public ``run_experiment``, plus its output checks."""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments import run_experiment
from repro.experiments.runner import build_trial
from repro.experiments.sinks import ResultSink


def canonical(value) -> str:
    """Stable JSON text of a result or payload (NaN spelled out, tuples as lists)."""
    return json.dumps(value, sort_keys=True, default=repr)


class _Recorder(ResultSink):
    """Trial boundaries (gaps between successive trial events), failures, telemetry."""

    def __init__(self, clock, tracer=None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.gaps: List[float] = []
        self.completed = 0
        self.failed = 0
        self.payloads: Dict[int, Tuple[float, dict]] = {}
        self.counters: dict = {}
        self._last = 0.0

    def _boundary(self) -> float:
        now = self.clock()
        gap = now - self._last
        self.gaps.append(gap)
        if self.tracer is not None:
            self.tracer.end_trial(self._last, now)
        self._last = now
        return gap

    def on_sweep_start(self, spec) -> None:
        self._last = self.clock()

    def on_trial(self, spec, density, run_index, payload, message) -> None:
        self.payloads[run_index] = (self._boundary(), payload)
        self.completed += 1

    def on_trial_error(self, spec, density, run_index, failure) -> None:
        self._boundary()
        self.failed += 1

    def on_metrics(self, spec, snapshot) -> None:
        if snapshot.get("density") is None:
            self.counters = dict(snapshot.get("counters", {}))


@dataclass
class SweepRun:
    result: object
    wall_s: float
    gaps: List[float]
    completed: int
    failed: int
    #: ``run_index -> (trial seconds, payload)`` of every completed trial.
    payloads: Dict[int, Tuple[float, dict]]
    counters: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return hashlib.sha256(canonical(self.result.to_dict()).encode()).hexdigest()


def run_sweep(spec, tracer=None, clock=time.perf_counter) -> SweepRun:
    """Run ``spec`` serially (one worker, failed trials skipped and counted)."""
    recorder = _Recorder(clock, tracer)
    start = clock()
    result = run_experiment(
        spec, sinks=[recorder], workers=1, on_error="skip", metrics=tracer is not None
    )
    wall = clock() - start
    return SweepRun(
        result=result,
        wall_s=wall,
        gaps=recorder.gaps,
        completed=recorder.completed,
        failed=recorder.failed,
        payloads=recorder.payloads,
        counters=recorder.counters,
    )


def check_result(spec, run: SweepRun) -> List[str]:
    """Problems with a sweep's output that hold for every seed (empty when sound)."""
    problems = []
    result = run.result.to_dict()
    if sorted(result["series"]) != sorted(spec.selectors):
        problems.append(f"series {sorted(result['series'])} != selectors {sorted(spec.selectors)}")
    if run.completed + run.failed != spec.runs:
        problems.append(f"{run.completed + run.failed} trial events for {spec.runs} runs")
    for name, points in result["series"].items():
        if [point["density"] for point in points] != list(spec.densities):
            problems.append(f"{name}: densities {[p['density'] for p in points]}")
            continue
        for point in points:
            if point["count"] > 0 and not math.isfinite(point["mean"]):
                problems.append(f"{name}: non-finite mean {point}")
            if spec.measure in ("ans-size", "overhead"):
                if point["count"] <= 0 or not point["mean"] >= -1e-9:
                    problems.append(f"{name}: empty or negative {spec.measure} point {point}")
            if spec.measure == "overhead" and not 0.0 <= point["delivery_ratio"] <= 1.0:
                problems.append(f"{name}: delivery ratio {point['delivery_ratio']}")
            control = point.get("control")
            if control and control["deliveries"] + control["losses"] > control["transmissions"]:
                problems.append(f"{name}: more deliveries and losses than transmissions")
    return problems


def repeat_trial(spec, measure, metric, run: SweepRun) -> List[str]:
    """Re-run the sweep's quickest completed trial outside the engine; it must reproduce
    its payload exactly (a check that holds for every seed)."""
    if not run.payloads:
        return []
    index = min(run.payloads, key=lambda i: run.payloads[i][0])
    trial = build_trial(spec.sweep_config(), metric, spec.densities[0], index)
    if canonical(measure.per_trial()(trial)) != canonical(run.payloads[index][1]):
        return [f"seed {spec.seed}: trial {index} did not reproduce its payload"]
    return []
