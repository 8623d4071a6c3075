"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ``src/``
there and nowhere else.  Outputs (the sweep CSV, a run record, and in a
traced run the spans and per-layer table) go to ``.perfbench_run/`` in the
checkout.

With ``--trace 0`` the run times set-up in fresh interpreters, then runs
passes of the workload for ``--seconds`` and reports the end-to-end
metrics; pass times are scaled to a reference host speed (see
``workloads.Clock``).  With
``--trace 1`` it alternates untraced and traced passes over the same inputs
and reports the per-layer metrics, in unscaled seconds, including the
tracing overhead (traced minus untraced pass time).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"

SETUP_RUNS = 5
WORKLOAD_NAMES = ("mc-saturating", "mc-supercritical", "cluster-geometry")

# A fresh interpreter made ready: import the package, then first calls into every layer.
SETUP_CODE = (
    "import sys; sys.path[:0] = [{src!r}, {root!r}]; "
    "from perfbench import workloads; workloads.warm_up()"
)


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )


def measure_setup(runs: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its exit once ready.

    Not scaled like the pass times: import time did not follow the
    calibration (scaling widened its spread from 8% to 17%).
    """
    code = SETUP_CODE.format(src=str(SRC), root=str(ROOT))
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _child(["-c", code])
        times.append(time.perf_counter() - t0)
    return times


def oracle_import_s() -> float:
    """Cumulative import time of perccode.oracle, from ``python -X importtime``."""
    proc = _child(["-X", "importtime", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import perccode"])
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "perccode.oracle":
            return int(parts[1]) / 1e6
    return 0.0


@contextlib.contextmanager
def stderr_to(path: Path):
    """Send file descriptor 2 (the CLI's progress lines) to ``path``."""
    sys.stderr.flush()
    saved = os.dup(2)
    with open(path, "w", encoding="utf-8") as fh:
        os.dup2(fh.fileno(), 2)
    try:
        yield
    finally:
        sys.stderr.flush()
        os.dup2(saved, 2)
        os.close(saved)


def run_untraced(workload, seconds: float) -> list:
    """Scaled call times of each timed pass.  Pass 0 is the warm-up: it is
    checked like the others, and against a recomputation of its cells, but
    not timed."""
    from perfbench.workloads import Clock

    workload.run_pass(Clock(), 0)
    passes, calibrations = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        gc.collect()
        clock = Clock()
        workload.run_pass(clock, len(passes) + 1)
        passes.append(clock.scaled())
        calibrations += [c for _, c in clock.calibrations]
    return passes, calibrations


def run_traced(workload, seconds: float, run_dir: Path):
    """Alternate untraced and traced passes on the same inputs; per-layer
    metrics of the traced ones."""
    from perfbench.tracing import Tracer
    from perfbench.workloads import Clock

    tracer = Tracer()
    workload.run_pass(Clock(), 0)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        k = len(traced) + 1
        gc.collect()
        clock = Clock()
        workload.run_pass(clock, k)
        untraced.append(clock.wall)
        gc.collect()
        clock = Clock(tracer)
        tracer.install()
        try:
            workload.run_pass(clock, k)
        finally:
            tracer.uninstall()
        traced.append(clock.wall)
    metrics, rows = tracer.layer_metrics(len(traced))
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    tracer.write_spans(run_dir / "spans.npz")
    with open(run_dir / "layers.tsv", "w", encoding="utf-8") as fh:
        fh.write("kind\tname\tcount_per_pass\ttotal_s_per_pass\tself_s_per_pass\tself_share\n")
        for row in rows:
            fh.write("\t".join(str(x) for x in row) + "\n")
    return metrics, rows, len(traced)


def end_to_end(workload, passes: list, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics from scaled call times, and what the run record adds."""
    walls = [sum(dt for dt, _ in calls) for calls in passes]
    latencies = np.array([dt for calls in passes for dt, cluster in calls if cluster])
    p50, p95 = np.percentile(latencies, [50, 95])
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "samples_per_s": statistics.median(workload.samples_per_pass / w for w in walls),
        "clusters_per_s": len(latencies) / float(latencies.sum()),
        "cluster_p50_ms": float(p50) * 1e3,
        "cluster_p95_ms": float(p95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "passes": len(passes),
        "clusters_timed": len(latencies),
        "clusters_beyond_p95": int((latencies > p95).sum()),
    }
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "perccode" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'perccode'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import perccode

    if not Path(perccode.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported perccode from {perccode.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "package_version": perccode.__version__,
        "rng_version": perccode.RNG_VERSION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }

    checker = workloads.Checker()
    workload = workloads.WORKLOADS[args.workload](args.seed, checker, run_dir)
    if args.trace:
        with stderr_to(run_dir / "stderr.log"):
            workloads.warm_up()
            metrics, rows, passes = run_traced(workload, args.seconds, run_dir)
        metrics["oracle.import_s"] = oracle_import_s()
        record["traced_passes"] = passes
        for row in rows:
            print("\t".join(f"{x:.6g}" if isinstance(x, float) else str(x) for x in row))
    else:
        setup = measure_setup(SETUP_RUNS)
        with stderr_to(run_dir / "stderr.log"):
            workloads.warm_up()
            passes, calibrations = run_untraced(workload, args.seconds)
        metrics, extra = end_to_end(workload, passes, setup)
        record.update(extra, setup_s=setup, calibration_median_s=statistics.median(calibrations))
    if isinstance(workload, workloads.ClusterGeometry):
        record["book_text_skipped_empty_word"] = workload.empty_word_books

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record.update(problems=checker.problems, metrics=metrics)
    (run_dir / "run.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"run": {k: v for k, v in record.items() if k not in ("metrics", "problems")}}))
    for problem in checker.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
