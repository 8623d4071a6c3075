import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from perccode.analytic import ModelParams, pgf_iterate
from perccode.ensemble import (
    CSV_COLUMNS,
    EnsembleConfig,
    csv_text,
    run_ensemble,
    sweep,
    write_csv,
)

from conftest import sweep_on_threads


def test_p_zero_cell():
    stats = run_ensemble(ModelParams(0.0), 8, 100, seed=1)
    assert stats.skipped_leafless == 0
    assert stats.used == 100
    assert stats.mean_H_bits == 0.0 and stats.mean_L == 0.0
    assert stats.mean_N_final == 0.0
    assert stats.extinct_frac == 1.0
    assert stats.mean_leaf_counts[0] == 1.0
    assert stats.analytic_lambda == 1.0


def test_p_one_cell():
    stats = run_ensemble(ModelParams(1.0), 8, 100, seed=1)
    assert stats.skipped_leafless == 100
    assert stats.used == 0
    assert stats.mean_H_bits == 0.0 and stats.mean_L == 0.0
    assert stats.extinct_frac == 0.0
    assert stats.analytic_H_bits is None  # diverging series leaves the cell empty


def test_counts_partition_and_se_definition():
    stats = run_ensemble(ModelParams(0.6), 6, 4000, seed=9)
    assert stats.used + stats.skipped_leafless == stats.samples == 4000
    assert stats.se_N_final > 0.0
    assert stats.se_H_bits > 0.0


def test_extinction_tracks_pgf_iterate():
    m = ModelParams(0.6)
    depth, samples = 16, 20000
    stats = run_ensemble(m, depth, samples, seed=5150)
    target = pgf_iterate(m, depth, 0.0)
    se = math.sqrt(target * (1.0 - target) / samples)
    assert abs(stats.extinct_frac - target) <= 3 * se


def test_leaf_count_means_track_closed_form():
    for p in (0.5, 0.6):
        m = ModelParams(p)
        depth, samples = 9, 20000
        stats = run_ensemble(m, depth, samples, seed=31337)
        for n in range(depth):
            expected = m.u1 * (2 * p) ** n
            se = stats.se_leaf_counts[n]
            assert abs(stats.mean_leaf_counts[n] - expected) <= max(3 * se, 1e-9)


def test_deterministic_across_runs_and_threads():
    m = ModelParams(0.55)
    a = run_ensemble(m, 10, 3000, seed=77)
    b = run_ensemble(m, 10, 3000, seed=77)
    # four concurrent calls of the same cell from the caller's own pool
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(run_ensemble, m, 10, 3000, 77) for _ in range(4)]
        pooled = [f.result() for f in futures]
    assert a == b
    assert pooled == [a] * 4


def test_cell_is_position_independent():
    # a (p, depth, samples, seed) cell gives the same row alone or in a grid
    config = EnsembleConfig(p_values=[0.3, 0.55], depths=[4, 7], samples=500, seed=3)
    rows = sweep(config, log=None)
    solo = run_ensemble(ModelParams(0.55), 7, 500, seed=3)
    assert rows[3] == solo


def test_sweep_rows_and_mean_length_growth():
    config = EnsembleConfig(p_values=[0.5], depths=[7, 12, 16], samples=4000, seed=11)
    rows = sweep(config, log=None)
    assert [r.depth for r in rows] == [7, 12, 16]
    # deeper bounds only ever add longer words, and at p = 0.5 the mean
    # codeword length saturates rather than tracking the depth
    assert rows[0].mean_L <= rows[1].mean_L <= rows[2].mean_L
    assert rows[2].mean_L < 5.0


def test_csv_shape_and_empty_analytic_cells(tmp_path):
    out = tmp_path / "grid.csv"
    config = EnsembleConfig(p_values=[0.5, 0.75], depths=[4], samples=50, seed=2)
    rows = sweep(config, log=None)
    with open(out, "w", encoding="ascii", newline="") as fh:
        write_csv(rows, fh)
    text = out.read_text(encoding="ascii")
    lines = text.splitlines()
    assert lines[0].startswith("# rng_version=")
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2 + len(rows)
    first = lines[2].split(",")
    assert len(first) == len(CSV_COLUMNS)
    assert first[0] == "0.5" and first[1] == "4" and first[2] == "50"
    # p = 0.75 sits outside every analytic window: empty trailing cells
    second = lines[3].split(",")
    assert second[-3:] == ["", "", ""]
    assert "." in second[5]  # extinct_frac stays locale-independent


def test_header_only_csv_for_empty_grid():
    config = EnsembleConfig(p_values=[], depths=[8], samples=10, seed=1)
    rows = sweep(config, log=None)
    assert rows == []
    lines = csv_text(rows).splitlines()
    assert len(lines) == 2
    assert lines[1] == ",".join(CSV_COLUMNS)


def test_csv_byte_identical_across_thread_counts(tmp_path):
    config = EnsembleConfig(p_values=[0.5, 0.6], depths=[5, 9], samples=1500, seed=4)
    rows1 = sweep(config, log=None)
    rows4 = sweep_on_threads(config)
    assert csv_text(rows1) == csv_text(rows4)


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(p_values=[0.5], depths=[8], samples=0, seed=1)
    with pytest.raises(ValueError):
        EnsembleConfig(p_values=[1.5], depths=[8], samples=10, seed=1)
    with pytest.raises(ValueError):
        EnsembleConfig(p_values=[0.5], depths=[0], samples=10, seed=1)
    with pytest.raises(ValueError):
        run_ensemble(ModelParams(0.5), 0, 10, seed=1)
