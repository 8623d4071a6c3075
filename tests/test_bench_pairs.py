import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def canned_stdout(correct, **values):
    """A benchmark run's stdout: its run record, a failure line, then the result line."""
    result = {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()},
    }
    return "\n".join(['{"run": {"seed": 1}}', "FAILED nothing", json.dumps(result)]) + "\n"


def test_metrics_block_of_canned_result_lines():
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in end_to_end]
    # wall_s (lower is better) and samples_per_s (higher is better) vary; the rest are 1.0
    walls = [(1.0, 0.9), (1.2, 1.3), (1.1, 0.8), (1.3, 1.0)]
    rates = [(100.0, 150.0), (200.0, 190.0), (300.0, 270.0), (400.0, 420.0)]
    parent, change = [], []
    for (w0, w1), (r0, r1) in zip(walls, rates):
        rest = dict.fromkeys(names, 1.0)
        old = canned_stdout(True, **{**rest, "wall_s": w0, "samples_per_s": r0})
        new = canned_stdout(r1 != 420.0, **{**rest, "wall_s": w1, "samples_per_s": r1})
        parent.append(bench_pairs.result_of(old))
        change.append(bench_pairs.result_of(new))
    block = bench_pairs.metrics_block(end_to_end, parent, change)

    assert block["pairs"] == 4 and block["all_correct"] is False
    assert set(block) == {"pairs", "all_correct", *names}
    wall = block["wall_s"]
    # statistics.quantiles' exclusive method on 4 values: (n + 1) p-th order statistic
    assert wall["parent_median"] == pytest.approx(1.15)
    assert (wall["parent_q1"], wall["parent_q3"]) == pytest.approx((1.025, 1.275))
    assert wall["change_median"] == pytest.approx(0.95)
    assert (wall["change_q1"], wall["change_q3"]) == pytest.approx((0.825, 1.225))
    assert wall["ratio"] == round(0.95 / 1.15, 4) and wall["worse_by"] == round(0.95 / 1.15 - 1, 4)
    assert wall["change_better_pairs"] == 3 and wall["bound"] == 0.2 and wall["within_bound"]
    rate = block["samples_per_s"]
    assert (rate["parent_median"], rate["change_median"]) == (250.0, 230.0)
    assert rate["ratio"] == 0.92 and rate["worse_by"] == 0.08 and rate["change_better_pairs"] == 2
    setup = block["setup_s"]
    assert setup["ratio"] == 1.0 and setup["worse_by"] == 0.0 and setup["change_better_pairs"] == 0
    assert list(wall) == [
        "parent_median", "parent_q1", "parent_q3", "change_median", "change_q1", "change_q3",
        "ratio", "change_better_pairs", "pairs", "worse_by", "bound", "within_bound", "claim_met",
    ]
    # 3 of 4 pairs better: no gain may be claimed
    assert not wall["claim_met"] and not rate["claim_met"] and not setup["claim_met"]
    # a change worse than its bound is out of it
    slow = [{**r, "metrics": {**r["metrics"], "peak_rss_mb": {"value": 1.2}}} for r in change]
    assert not bench_pairs.metrics_block(end_to_end, parent, slow)["peak_rss_mb"]["within_bound"]

    # ten pairs; the parent's quartiles of 100..109 (or 10..19) are 5.5 apart
    parent, change = [], []
    for i in range(10):
        rest = dict.fromkeys(names, 1.0)
        old = {"clusters_per_s": 100.0 + i, "cluster_p50_ms": 10.0, "cluster_p95_ms": 10.0 + i}
        new = {
            # better by 20 in 9 pairs and tied in one, which counts for neither side
            "clusters_per_s": 100.0 + i + (20.0 if i else 0.0),
            # far better in 8 pairs, worse in 2
            "cluster_p50_ms": 5.0 if i < 8 else 20.0,
            # better in every pair, by less than the parent's spread
            "cluster_p95_ms": 9.0 + i,
        }
        parent.append(bench_pairs.result_of(canned_stdout(True, **{**rest, **old})))
        change.append(bench_pairs.result_of(canned_stdout(True, **{**rest, **new})))
    block = bench_pairs.metrics_block(end_to_end, parent, change)
    met = block["clusters_per_s"]
    assert (met["parent_q1"], met["parent_q3"]) == pytest.approx((101.75, 107.25))
    assert met["change_better_pairs"] == 9 and met["claim_met"]
    assert block["cluster_p50_ms"]["change_better_pairs"] == 8
    assert block["cluster_p50_ms"]["ratio"] == 0.5 and not block["cluster_p50_ms"]["claim_met"]
    assert block["cluster_p95_ms"]["change_better_pairs"] == 10
    assert not block["cluster_p95_ms"]["claim_met"]
