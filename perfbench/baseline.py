"""Measure the benchmark's run-to-run spread and (optionally) record it in ``record.json``.

Runs every workload ``--runs`` times with seeds ``--seed-base + i`` (end-to-end metrics,
``--trace 0``), prints each metric's median, quartiles and spread (quartile distance /
median) against its bound, then runs each workload once more at the default seed, traced,
for the per-layer breakdown and the output digest::

    python3 perfbench/baseline.py --runs 10 --write

``--write`` stores the spreads, the per-layer figures, the default-seed digests and the
machine facts in ``perfbench/record.json``.  Re-record after any deliberate change of
the benchmark or of the program's outputs, and say so in the change log.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "record.json"


def bench(workload: str, seed: int, trace: int, seconds: int):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    digests = next(json.loads(line[len("digests "):]) for line in lines if line.startswith("digests "))
    return json.loads(lines[-1]), digests[0]


def machine() -> dict:
    import networkx
    import numpy

    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "cpu": model, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "networkx": networkx.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", default="", help="comma-separated (default: all)")
    parser.add_argument("--write", action="store_true", help="update record.json")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(RECORD.read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in declared["workloads"]]
    steady = True
    for name in names:
        values = {entry["name"]: [] for entry in declared["end_to_end"]}
        for index in range(args.runs):
            result, _ = bench(name, args.seed_base + index, 0, declared["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {args.seed_base + index}: output check failed")
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
        summary = {}
        for entry in declared["end_to_end"]:
            q1, median, q3 = statistics.quantiles(values[entry["name"]], n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[entry["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                      "values": values[entry["name"]]}
            flag = "ok" if spread < entry["bound"] / 3 else "WIDE"
            steady &= flag == "ok" or entry["name"] == "setup_s"
            print(f"{name:<22} {entry['name']:<14} median {median:<12.5g} q1 {q1:<12.5g} "
                  f"q3 {q3:<12.5g} spread {spread:.4f} (bound {entry['bound']}) {flag}")
        traced, digest = bench(name, record["default_seed"], 1, declared["run_seconds"])
        if not traced["correct"]:
            print(f"{name}: the traced run at the default seed failed its output check")
            steady = False
        layer = {key: value["value"] for key, value in traced["metrics"].items()}
        print(f"{name:<22} trace.attributed_frac {layer['trace.attributed_frac']:.3f} "
              f"trace.overhead_frac {layer['trace.overhead_frac']:.3f}")
        if args.write:
            record["baseline"]["workloads"][name] = {
                "seeds": [args.seed_base, args.seed_base + args.runs - 1],
                "end_to_end": summary,
                "per_layer_at_default_seed": layer,
            }
            record["attributed_frac"][name] = layer["trace.attributed_frac"]
            record["digests"][name] = {"seed": record["default_seed"], "sha256": digest}
    if args.write:
        record["baseline"]["machine"] = machine()
        RECORD.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
