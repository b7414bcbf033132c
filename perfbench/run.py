"""End-to-end sweep benchmark.

Runs one workload (a registered preset narrowed to one density, see ``workloads.py``)
through the public ``run_experiment``: one client, serial, one worker, a fresh process
per invocation, every output checked.  Usage, from the repository root::

    python3 perfbench/run.py --workload static-overhead --seed 42 --seconds 18 --trace 0

A run is a fixed number of sweeps ("chunks") of a fixed trial count, set by the workload
and ``--seconds`` alone (``workloads.chunk_count``), so the same arguments give the same
work on any machine.  ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs every chunk twice, untraced and traced (layer wrappers from
``layers.py``) in alternating order, and reports the per-layer metrics, writing the spans
to ``.perfbench-out/``.  The line before the last lists the digest of every chunk's
``ExperimentResult`` (``digests [...]``); the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Output checks: every chunk passes the seed-independent checks of ``sweep.check_result``;
at the default seed chunk 0's digest must equal the one in ``record.json``; untimed, the
quickest trial is run again and must reproduce its payload exactly (``--trace 1``: every
traced chunk must reproduce its untraced digest).  A run whose check fails counts all its
trials as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers  # the benchmark's own modules import the program lazily
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: 42)")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="nominal measuring time of one run (sets the chunk count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny shapes, one chunk (self-tests)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _probe_setup(args, count: int) -> list:
    """Seconds from spawning a fresh interpreter to its engine being ready, ``count`` times."""
    command = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", args.workload,
               "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    samples = []
    for _ in range(count):
        start = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def _alternating_passes(specs):
    """Every chunk untraced and traced, the order alternating from chunk to chunk so that
    neither pass is always the warmer one.  Returns ``(tracer, untraced, traced)``."""
    from sweep import run_sweep

    tracer = layers.Tracer()
    untraced, traced = [], []
    for index, chunk_spec in enumerate(specs):
        for with_tracer in ((False, True) if index % 2 == 0 else (True, False)):
            if not with_tracer:
                untraced.append(run_sweep(chunk_spec))
                continue
            patches = layers.install(tracer)
            try:
                traced.append(run_sweep(chunk_spec, tracer=tracer))
            finally:
                patches.undo()
    return tracer, untraced, traced


def _layer_metrics(tracer, traced, untraced) -> dict:
    n = max(1, sum(run.completed for run in traced))
    own = tracer.self_times()
    total = tracer.total_times()
    counts = tracer.counts
    counters = {}
    for run in traced:
        for name, value in run.counters.items():
            counters[name] = counters.get(name, 0) + value

    def ratio(part, whole):
        return part / whole if whole else 0.0

    batched = counters.get("kernel.batched_views", 0)
    scalar = counters.get("kernel.scalar_dispatches", 0)
    hits = counters.get("selection.cache_hits", 0)
    trial_total = sum(end - start for start, end in tracer.trials)
    attributed = tracer.attributed_time()
    metrics = {
        "topology.generate_s": own["topology.generate"] / n,
        "topology.nodes": counts["topology.nodes"] / n,
        "localview.csr_s": own["localview.csr"] / n,
        "localview.views_s": own["localview.views"] / n,
        "kernel.batched_views": batched / n,
        "kernel.scalar_dispatches": scalar / n,
        "kernel.batched_frac": ratio(batched, batched + scalar),
    }
    for name in layers.SELECTORS:
        metrics[f"selection.{name}.s"] = own[f"selection.{name}"] / n
    metrics.update({
        "selection.owners": counts["selection.owners"] / n,
        "selection.cache_hit_frac": ratio(hits, hits + counters.get("selection.owners_selected", 0)),
        "routing.advertised_s": own["routing.advertised"] / n,
        "routing.optimal_s": own["routing.optimal"] / n,
        "routing.hop_by_hop_s": own["routing.hop_by_hop"] / n,
        "routing.delivered_frac": ratio(counts["routing.delivered"], counts["routing.routes"]),
        "mobility.advance_s": own["mobility.advance"] / n,
        "mobility.dirty_owners_mean": ratio(counts["mobility.dirty_owners"], counts["mobility.steps"]),
        "mobility.views_rebuilt": counts["mobility.views_rebuilt"] / n,
        "mobility.wholesale_steps": counters.get("mobility.view_wholesale_rebuilds", 0) / n,
        "protocol.run_until_s": own["protocol.run_until"] / n,
        "protocol.readout_s": own["protocol.readout"] / n,
        "protocol.events": counts["protocol.events"] / n,
        "protocol.events_per_s": ratio(counts["protocol.events"], total["protocol.run_until"]),
        "protocol.transmissions": counts["protocol.transmissions"] / n,
        "protocol.losses": counts["protocol.losses"] / n,
        "experiments.trial_s": trial_total / n,
        "experiments.unattributed_s": (trial_total - attributed) / n,
        "trace.attributed_frac": ratio(attributed, trial_total),
        "trace.overhead_frac": statistics.median(
            run.wall_s / plain.wall_s - 1.0 for run, plain in zip(traced, untraced)
        ),
    })
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"no program sources under {ROOT / 'src'}; run from a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]  # serial, telemetry as chosen here, no injected faults

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED

    if args.probe_setup:
        workloads.set_up(workload, args.seed, args.tiny)
        print(time.monotonic())
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads((HERE / "record.json").read_text())
    # Setup is probed on both sides of the sweeps, so a slow spell of a shared machine
    # is less likely to cover every probe.
    probes = 0 if args.trace else 1 if args.tiny else SETUP_PROBES
    setup = _probe_setup(args, (probes + 1) // 2)

    spec, measure, metric = workloads.set_up(workload, args.seed, args.tiny)
    from sweep import check_result, repeat_trial, run_sweep

    specs = [spec.with_overrides(seed=workloads.chunk_seed(args.seed, index))
             for index in range(workloads.chunk_count(workload, args.seconds, args.tiny))]
    if args.trace == 0:
        untraced = [run_sweep(chunk_spec) for chunk_spec in specs]
    else:
        tracer, untraced, traced = _alternating_passes(specs)
    problems = [problem for chunk_spec, run in zip(specs, untraced)
                for problem in check_result(chunk_spec, run)]
    digests = [run.digest for run in untraced]
    expected = record["digests"].get(workload.name)
    if not args.tiny and expected and expected["seed"] == args.seed and expected["sha256"] != digests[0]:
        problems.append(f"digest {digests[0]} != recorded {expected['sha256']}")

    gaps = [gap for run in untraced for gap in run.gaps]
    if args.trace == 0:
        setup += _probe_setup(args, probes // 2)
        quickest = min(range(len(untraced)), key=lambda i: min(untraced[i].gaps))
        problems += repeat_trial(specs[quickest], measure, metric, untraced[quickest])
        metrics = {
            "trials_per_s": sum(run.completed for run in untraced)
            / sum(run.wall_s for run in untraced),
            "trial_s.p50": statistics.median(gaps),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        table = declared["end_to_end"]
    else:
        for chunk_spec, plain, run in zip(specs, untraced, traced):
            if run.digest != plain.digest:
                problems.append(f"seed {chunk_spec.seed}: traced digest {run.digest} "
                                f"!= untraced {plain.digest}")
        metrics = _layer_metrics(tracer, traced, untraced)
        table = declared["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"{workload.name}-seed{args.seed}.spans.json")

    attempted = sum(chunk_spec.runs for chunk_spec in specs)
    failed = attempted if problems else sum(run.failed for run in untraced)
    if args.trace == 0:
        metrics["ok_frac"] = (attempted - failed) / attempted
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    print(f"{workload.name}: seed={args.seed} chunks={len(specs)} trials={attempted}")
    out = {}
    for entry in table:
        value = metrics[entry["name"]]
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<30} {value:>14.6g} {entry['unit']}")
    print(f"  (trial_s.p50 over n={len(gaps)} trials)")
    print("digests " + json.dumps(digests))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
