"""The benchmark's own tests: a smoke-sized run of each workload, the traced
run's accounting, and corrupted outputs that must count as failed.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perccode import analytic, codec, ensemble, oracle, percolate  # noqa: E402
from perfbench import run, workloads  # noqa: E402

SMOKE = {
    "mc-saturating": dict(samples=60, probes=2),
    "mc-supercritical": dict(samples=40, probes=2),
    "cluster-geometry": dict(clusters=6, message_len=16),
}


def _workload(name, tmp_path, seed=5):
    checker = workloads.Checker()
    return workloads.WORKLOADS[name](seed, checker, tmp_path, **SMOKE[name]), checker


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_is_correct(name, tmp_path):
    workload, checker = _workload(name, tmp_path)
    passes, calibrations = run.run_untraced(workload, seconds=0.01)
    assert calibrations and min(calibrations) > 0.0
    assert checker.failed == 0, checker.problems
    assert checker.attempted > 0
    assert passes and all(calls for calls in passes)
    assert any(cluster for calls in passes for _, cluster in calls)
    assert all(dt > 0.0 for calls in passes for dt, _ in calls)
    metrics, _ = run.end_to_end(workload, passes, [1.0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(value > 0.0 for value in metrics.values())


def test_traced_run_accounts_for_its_wall_time(tmp_path):
    workload, checker = _workload("mc-supercritical", tmp_path)
    metrics, rows, passes = run.run_traced(workload, 0.01, tmp_path)
    assert checker.failed == 0, checker.problems
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) | {"oracle.import_s"} == {m["name"] for m in spec["per_layer"]}
    layer_self = sum(row[4] for row in rows if row[0] == "layer")
    assert layer_self == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    calls = 2 * (40 + 2 * workloads.PROBE_BEST_OF)
    assert metrics["percolate.stream_key_calls"] == calls
    assert metrics["infomeasure.calls"] == calls
    assert metrics["percolate.uniforms"] > 0
    assert (tmp_path / "spans.npz").is_file() and (tmp_path / "layers.tsv").is_file()


def test_call_times_are_scaled_by_the_calibrations_around_them(monkeypatch):
    clock = workloads.Clock()
    clock.calibrations = [(0.0, 0.010)]
    clock.calls = [(1.0, 0.5, True), (2.0, 0.25, False)]
    monkeypatch.setattr(workloads, "calibration", lambda: 0.030)
    ref = workloads.REFERENCE_CALIBRATION_S
    assert clock.scaled() == [(0.5 * ref / 0.020, True), (0.25 * ref / 0.020, False)]


def test_reference_sampler_matches_the_program():
    params = analytic.ModelParams(0.7)
    for index in range(20):
        t = percolate.sample_tally(params, 12, percolate.cluster_stream(9, index))
        assert workloads.reference_tally(0.7, 12, 9, index) == (t.node_counts, t.leaf_counts)


def test_wrong_decode_counts_as_failed(tmp_path, monkeypatch):
    decode = codec.decode
    monkeypatch.setattr(codec, "decode", lambda book, bits: decode(book, bits)[:-1])
    workload, checker = _workload("cluster-geometry", tmp_path)
    workload.run_pass(workloads.Clock(), 0)
    assert checker.failed > 0
    assert any("decode(encode(message)) != message" in p for p in checker.problems)


def test_wrong_ensemble_count_counts_as_failed(tmp_path, monkeypatch):
    run_ensemble = ensemble.run_ensemble

    def corrupted(*args, **kwargs):
        stats = run_ensemble(*args, **kwargs)
        return dataclasses.replace(stats, used=stats.used + 1)

    monkeypatch.setattr(ensemble, "run_ensemble", corrupted)
    workload, checker = _workload("mc-saturating", tmp_path)
    workload.run_pass(workloads.Clock(), 0)
    assert checker.failed == len(workload.cells)
    assert all("!= samples" in p for p in checker.problems)


def test_enumeration_that_changes_between_passes_counts_as_failed(tmp_path, monkeypatch):
    workload, checker = _workload("cluster-geometry", tmp_path)
    workload.run_pass(workloads.Clock(), 0)
    assert checker.failed == 0
    enumerate_ = oracle.exact_enumeration
    monkeypatch.setattr(oracle, "exact_enumeration", lambda *args: dataclasses.replace(
        enumerate_(*args), mean_entropy_bits=0.0))
    workload.run_pass(workloads.Clock(), 1)
    assert checker.failed == len(workload.enum_p)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-saturating", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
