"""Compare a parent and a change on the end-to-end metrics of ``BENCHMARK.json``.

Run pairs (each side in its own checkout, run order alternating from pair to pair, pair
``i`` on seed ``--seed-base + i``), append every result to a JSONL file, then print the
verdict table::

    python3 perfbench/compare.py run --parent ../parent --change . --pairs 10 --out pairs.jsonl
    python3 perfbench/compare.py report pairs.jsonl

For each workload x metric the report gives both medians and quartiles, the fraction of
pairs the change won (ties count for neither side) and a verdict:

* ``improved``   -- the change won at least 9/10 of the pairs and the medians differ by
  more than the parent's own quartile distance;
* ``unresolved`` -- the parent's spread (quartile distance / median) is wider than the
  metric's bound, and not every change run beats every parent run;
* ``regressed``  -- the change's median is worse than the parent's by more than the bound;
* ``no worse``   -- otherwise.

``incorrect`` replaces the verdict when any run of either side failed its output check,
or when the two sides of a pair printed different chunk digests (same workload, seed and
``--seconds``, so the same inputs: the change altered the program's results).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> Dict:
    """Pairwise comparison of one metric; ``parent[i]`` and ``change[i]`` form pair ``i``."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    worse = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    dominates = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins >= 0.9 * len(parent) and worse < 0 and abs(c_med - p_med) > p_q3 - p_q1:
        outcome = "improved"
    elif spread > bound and not dominates:
        outcome = "unresolved"
    elif worse > bound:
        outcome = "regressed"
    else:
        outcome = "no worse"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "parent_spread": spread,
        "verdict": outcome,
    }


def _run_one(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One run's result JSON, with the chunk digests it printed added as ``digests``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "digests": []}
    digests = [json.loads(line[len("digests "):]) for line in lines if line.startswith("digests ")]
    return {**json.loads(lines[-1]), "digests": digests[0] if digests else []}


def _pair_correct(pair: Dict[str, dict]) -> bool:
    """Both runs passed their checks and agree on the digests of every chunk both ran."""
    parent, change = pair["parent"], pair["change"]
    same = all(p == c for p, c in zip(parent.get("digests", []), change.get("digests", [])))
    return parent["correct"] and change["correct"] and same


def run_pairs(args) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in declared["workloads"]]
    seconds = args.seconds or declared["run_seconds"]
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in names:
            for pair in range(args.pairs):
                seed = args.seed_base + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    result = _run_one(sides[side], workload, seed, seconds)
                    record = {"workload": workload, "pair": pair, "seed": seed, "side": side,
                              "position": position, "result": result}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"{workload} pair {pair} {side}: correct={result['correct']}",
                          file=sys.stderr)


def report(path: str) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs: Dict[str, Dict[int, Dict[str, dict]]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault(record["workload"], {}).setdefault(record["pair"], {})[record["side"]] = record["result"]
    print(f"{'workload':<22} {'metric':<14} {'parent q1/med/q3':<32} {'change q1/med/q3':<32} "
          f"{'wins':>7}  verdict")
    for workload, pairs in runs.items():
        complete = [pairs[i] for i in sorted(pairs) if {"parent", "change"} <= set(pairs[i])]
        incorrect = not all(_pair_correct(pair) for pair in complete)
        for entry in declared["end_to_end"]:
            name = entry["name"]
            parent = [pair["parent"]["metrics"].get(name, {}).get("value") for pair in complete]
            change = [pair["change"]["metrics"].get(name, {}).get("value") for pair in complete]
            if not complete or None in parent or None in change:
                print(f"{workload:<22} {name:<14} (no complete pairs)")
                continue
            row = verdict(parent, change, entry["better"], entry["bound"])
            shown = "incorrect" if incorrect else row["verdict"]
            print(f"{workload:<22} {name:<14} "
                  f"{'/'.join(f'{v:.4g}' for v in row['parent']):<32} "
                  f"{'/'.join(f'{v:.4g}' for v in row['change']):<32} "
                  f"{row['wins']:>3}/{row['pairs']:<3}  {shown}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="parent-vs-change comparison")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run alternating pairs and append them to --out")
    run.add_argument("--parent", required=True, help="checkout of the parent commit")
    run.add_argument("--change", required=True, help="checkout of the change")
    run.add_argument("--workloads", default="", help="comma-separated (default: all)")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed-base", type=int, default=1000)
    run.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    run.add_argument("--out", required=True)
    show = commands.add_parser("report", help="print the verdict table of a pairs file")
    show.add_argument("path")
    args = parser.parse_args(argv)
    if args.command == "run":
        run_pairs(args)
        return report(args.out)
    return report(args.path)


if __name__ == "__main__":
    sys.exit(main())
