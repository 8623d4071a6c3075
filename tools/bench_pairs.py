"""Run the committed benchmark in two checkouts, pair by pair, and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S [--out FILE]

Pair i runs the benchmark command of PARENT's ``BENCHMARK.json`` at seed S + i,
``run_seconds`` long and untraced, once in each checkout, PARENT first on even
pairs and CHANGE first on odd ones; no bytecode is written.  The last stdout
line is, for every end-to-end metric, both sides' median and quartiles, the
ratio of the medians, the pairs in which CHANGE was better, how much worse it
is against the metric's bound, read with its direction from ``BENCHMARK.json``,
and whether a gain in it may be claimed: CHANGE better in at least nine tenths
of the pairs, ties counting for neither, and its median better than PARENT's by
more than PARENT's quartile spread.
``--out`` also writes each run's values and the seeds to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def result_of(stdout: str) -> dict:
    """The result of one benchmark run: the last line of its stdout."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(checkout: Path, spec: dict, workload: str, seed: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"])]
    proc = subprocess.run(
        [*spec["command"], *args, "--trace", "0"], cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}, check=False,
    )
    if proc.returncode:
        raise RuntimeError(f"{checkout} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return result_of(proc.stdout)


def metrics_block(end_to_end: list[dict], parent: list[dict], change: list[dict]) -> dict:
    """The comparison of paired results, ``parent[i]`` against ``change[i]``."""
    block = {"pairs": len(parent), "all_correct": all(r["correct"] for r in parent + change)}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        old = [r["metrics"][name]["value"] for r in parent]
        new = [r["metrics"][name]["value"] for r in change]
        (q1, median, q3), (c1, c_median, c3) = _quartiles(old), _quartiles(new)
        ratio = round(c_median / median, 4)
        worse_by = round(ratio - 1 if lower else 1 - ratio, 4)
        better = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        gain = median - c_median if lower else c_median - median
        block[name] = {
            "parent_median": median, "parent_q1": q1, "parent_q3": q3,
            "change_median": c_median, "change_q1": c1, "change_q3": c3,
            "ratio": ratio,
            "change_better_pairs": better,
            "pairs": len(old),
            "worse_by": worse_by,
            "bound": metric["bound"],
            "within_bound": worse_by <= metric["bound"],
            "claim_met": 10 * better >= 9 * len(old) and gain > q3 - q1,
        }
    return block


def _quartiles(values: list[float]) -> list[float]:
    # a single run is its own quartiles, which statistics.quantiles refuses
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    sides = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].append(run_once(getattr(args, side), spec, args.workload, args.seed + i))
            print(f"pair {i} {side} done", file=sys.stderr, flush=True)
    block = metrics_block(spec["end_to_end"], sides["parent"], sides["change"])
    if args.out:
        names = [m["name"] for m in spec["end_to_end"]]
        runs = {side: {n: [r["metrics"][n]["value"] for r in results] for n in names}
                for side, results in sides.items()}
        seeds = list(range(args.seed, args.seed + args.pairs))
        record = {"workload": args.workload, "seeds": seeds, "runs": runs, "metrics": block}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(block))
    return 0


if __name__ == "__main__":
    sys.exit(main())
