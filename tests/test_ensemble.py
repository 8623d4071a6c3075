import contextlib
import io
import math
import re
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from perccode import analytic, cli, ensemble, oracle, percolate
from perccode.analytic import DomainError, ModelParams, pgf_iterate
from perccode.ensemble import (
    CSV_COLUMNS,
    EnsembleConfig,
    EnsembleStats,
    csv_text,
    run_ensemble,
    sweep,
)
from perccode.infomeasure import measures
from perccode.percolate import SampleStreams, cluster_stream, sample_tally

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



@pytest.mark.parametrize("samples", [1, 3000])
@pytest.mark.parametrize("generations_per_block", [1, 5])
def test_leaf_columns_reduced_a_block_at_a_time_give_the_same_rows(
    monkeypatch, samples, generations_per_block
):
    # NumPy reduces each generation's row on its own, so how many generations
    # share one contiguous copy changes no bit of any row
    config = EnsembleConfig([0.45, 0.6], [7, 12], samples, seed=2203)
    assert ensemble._REDUCE_ELEMENTS // samples >= 12  # one block by default
    whole = sweep(config, log=None)
    monkeypatch.setattr(ensemble, "_REDUCE_ELEMENTS", generations_per_block * samples)
    assert sweep(config, log=None) == whole

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


def test_csv_shape_and_empty_analytic_cells():
    config = EnsembleConfig(p_values=[0.5, 0.75], depths=[4], samples=50, seed=2)
    rows = sweep(config, log=None)
    lines = csv_text(rows).splitlines()
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


def test_sweep_draws_each_p_once_at_its_deepest_depth(monkeypatch):
    # every keying of a stream during the sweep; p = 0.5, 0.6 and 1 at depth 9
    # share their first block, the 1024 cap of p = 1, so each sample is keyed
    # at position 0 once
    calls = []
    at = SampleStreams.at

    def recording_at(self, index, position=0):
        calls.append((index, position))
        return at(self, index, position)

    monkeypatch.setattr(SampleStreams, "at", recording_at)
    config = EnsembleConfig(p_values=[0.5, 0.6, 1.0], depths=[9, 4, 9, 6], samples=300, seed=12)
    rows = sweep(config, log=None)
    assert sorted(i for i, position in calls if position == 0) == list(range(300))
    assert [(r.p, r.depth) for r in rows] == [(p, d) for p in (0.5, 0.6, 1.0) for d in (9, 4, 9, 6)]
    # every row, repeats included, is the row of its cell run alone
    for row in rows:
        assert row == run_ensemble(ModelParams(row.p), row.depth, 300, 12)
    calls.clear()
    assert sweep(EnsembleConfig(p_values=[0.5, 0.6], depths=[], samples=300, seed=12)) == []
    assert calls == []
    assert sweep(EnsembleConfig(p_values=[], depths=[9, 4], samples=300, seed=12)) == []
    assert calls == []


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


@pytest.mark.parametrize("samples, depth", [(2.5, 8), (10, 8.0), (True, 8), (10, False)])
def test_config_refuses_non_integer_samples_and_depths(samples, depth):
    bad = samples if type(samples) is not int else depth
    with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {bad!r}")):
        EnsembleConfig(p_values=[0.5], depths=[depth], samples=samples, seed=1)
    with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {bad!r}")):
        run_ensemble(ModelParams(0.5), depth, samples, seed=1)
    fine = EnsembleConfig([0.5], [np.int64(4)], np.int32(5), np.uint64(2))
    assert csv_text(sweep(fine, log=None)) == csv_text([run_ensemble(ModelParams(0.5), 4, 5, 2)])


def _mean_se(values):
    if len(values) == 0:
        return 0.0, 0.0
    if len(values) < 2:
        return float(values.mean()), 0.0
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


@pytest.mark.parametrize("rows", [0, 1, 2, 8193, 10**6])
def test_column_stats_is_the_per_column_mean_and_se_bit_for_bit(rows):
    # N_final goes in as one float column and (H, L) as a two-column float block
    rng = np.random.default_rng(3101)
    depth = 2
    nodes = rng.integers(0, 2**24, (rows, depth + 1), dtype=np.int32)
    measured = rng.random((rows, 3)) * rng.choice([1e-3, 1.0, 1e3], (rows, 3))
    measured[rng.random(rows) < 0.1, 1:] = np.nan
    usable = ~np.isnan(measured[:, 1])
    columns = [nodes[:, depth].astype(float), measured[:, 1][usable], measured[:, 2][usable]]
    expected = [_mean_se(column) for column in columns]
    n_stats = ensemble._column_stats(nodes[:, depth][:, None].astype(float))
    h_l_stats = ensemble._column_stats(np.column_stack(columns[1:]))
    assert [*zip(*n_stats), *zip(*h_l_stats)] == expected
    # the int32 column reduces through NumPy's cast buffer, 8192 values a chunk, and
    # still gives the same bits: its sums are integers below 2**53, so exact in any order
    assert ensemble._column_stats(nodes[:, depth][:, None]) == n_stats
    if rows:
        stats = ensemble._cell_stats(ModelParams(0.5), 1, nodes, ([], []), depth, measured)
        assert [
            (stats.mean_N_final, stats.se_N_final),
            (stats.mean_H_bits, stats.se_H_bits),
            (stats.mean_L, stats.se_L),
        ] == expected


def reference_ensemble(params, depth, samples, seed):
    """One cell through the per-sample path: a new stream, ``sample_tally``
    and ``measures`` for every sample, reduced over full per-sample arrays."""
    n_final = np.zeros(samples, dtype=np.int64)
    leaf_counts = np.zeros((samples, depth), dtype=np.int64)
    entropy = np.full(samples, np.nan)
    length = np.full(samples, np.nan)
    for i in range(samples):
        t = sample_tally(params, depth, cluster_stream(seed, i))
        n_final[i] = t.node_counts[depth]
        leaf_counts[i] = t.leaf_counts
        m = measures(t, params.p)
        if m.entropy_bits is not None:
            entropy[i] = m.entropy_bits
            length[i] = m.avg_length
    usable = ~np.isnan(entropy)
    used = int(np.count_nonzero(usable))
    mean_n, se_n = _mean_se(n_final.astype(float))
    mean_h, se_h = _mean_se(entropy[usable])
    mean_l, se_l = _mean_se(length[usable])
    try:
        analytic_cols = (
            analytic.expected_entropy(params),
            analytic.expected_code_length(params),
            analytic.lambda_mean(params),
        )
    except DomainError:
        analytic_cols = (None, None, None)
    return EnsembleStats(
        p=params.p,
        depth=depth,
        samples=samples,
        seed=seed,
        used=used,
        skipped_leafless=samples - used,
        extinct_frac=float(np.count_nonzero(n_final == 0)) / samples,
        mean_N_final=mean_n,
        se_N_final=se_n,
        mean_H_bits=mean_h,
        se_H_bits=se_h,
        mean_L=mean_l,
        se_L=se_l,
        mean_leaf_counts=[float(x) for x in leaf_counts.mean(axis=0)],
        se_leaf_counts=[
            float(leaf_counts[:, g].std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
            for g in range(depth)
        ],
        analytic_H_bits=analytic_cols[0],
        analytic_L=analytic_cols[1],
        analytic_lambda=analytic_cols[2],
    )


def block_walk(params, depth, samples, seed, block):
    """The uniforms each sample's cluster reads, 2 * sum_{g < depth} N_g,
    and the offsets 2 * sum_{h < g} N_h at which the samples that outgrow
    ``block`` resume: g is the first generation running past it."""
    needed, offsets = [], []
    for i in range(samples):
        nodes = sample_tally(params, depth, cluster_stream(seed, i)).node_counts
        ends = np.cumsum([2 * n for n in nodes[:depth]])
        needed.append(int(ends[-1]))
        past = np.flatnonzero(ends > block)
        if len(past):
            offsets.append(int(ends[past[0]] - 2 * nodes[past[0]]))
    return np.array(needed), offsets


# single samples, large seeds, several chunks of samples, samples that fit
# their first block of uniforms and samples that outgrow it; in the cells at
# (0.7, 18), (0.9, 14) and depth 30 some outgrow their last block and resume
# at a counter position (see the next test); at (0.3, 40) both blocks, of 12
# and 48 uniforms, stop their lockstep at generation k/2, short of the depth
@pytest.mark.parametrize(
    "p, depth, samples, seed",
    [
        (0.6, 16, 1, 2**62),
        (0.45, 12, 1, 2**62 + 7),
        (0.9, 6, 1, 2**64 - 1),
        (0.6, 16, 300, 2**62 + 11),
        (0.55, 14, 200, 2**63 + 1),
        (0.7, 18, 40, 2**63 - 1),
        (0.3, 5, 500, 2**64 - 1),
        (0.3, 40, 300, 2**64 - 1),
        (0.0, 3, 20, 5),
        (1.0, 4, 10, 2**62),
        (0.5, 30, 400, 3),
        (0.4, 30, 200, 32),
        (0.9, 14, 60, 2**64 - 27),
    ],
)
def test_matches_per_sample_reference(p, depth, samples, seed):
    params = ModelParams(p)
    assert run_ensemble(params, depth, samples, seed) == reference_ensemble(
        params, depth, samples, seed
    )


def reach_every_pass(p, depth, samples, seed):
    """Check that some samples of the cell fit the first block, some continue
    into the second where there is one, and some outgrow the last and resume
    at a counter position, some two uniforms into a Philox counter step,
    which SampleStreams.at discards; and that one-p grid_tallies matches the
    per-sample reference.  Return the block sizes, the uniforms each sample
    reads and the resume offsets, as block_walk gives them."""
    params = ModelParams(p)
    sizes = percolate._block_sizes(p, depth)
    first, last = sizes[0], sizes[-1]
    needed, offsets = block_walk(params, depth, samples, seed, last)
    continued = int(np.count_nonzero((needed > first) & (needed <= last)))
    print(f"p={p} depth={depth} blocks={sizes}: {continued} continued, resumed at {offsets}")
    assert np.any(needed <= first) and offsets
    assert any(offset % 4 == 2 for offset in offsets)
    if len(sizes) == 2:
        assert continued >= 1
    nodes, leaves = percolate.grid_tallies([params], depth, seed, samples)[0]
    for i in range(samples):
        t = sample_tally(params, depth, cluster_stream(seed, i))
        assert (nodes[i, -1], leaves[i].tolist()) == (t.node_counts[depth], t.leaf_counts)
    return sizes, needed, offsets


@pytest.mark.parametrize(
    "p, depth, samples, seed, at_edges",
    [(0.5, 30, 400, 3, False), (0.4, 30, 200, 32, True), (0.9, 14, 60, 2**64 - 27, True)],
)
def test_reference_cells_reach_every_pass(p, depth, samples, seed, at_edges):
    # flags come in pairs, so where at_edges holds one sample resumes exactly
    # at the end of the last block and, with two blocks, one reads exactly
    # two uniforms past the first, so an off-by-one in either pass changes
    # that cell
    sizes, needed, offsets = reach_every_pass(p, depth, samples, seed)
    if at_edges:
        assert len(sizes) == 1 or sizes[0] + 2 in needed
        assert sizes[-1] in offsets


@pytest.mark.parametrize("p, depth, samples, seed", [(0.4, 30, 200, 18), (0.45, 20, 200, 28)])
def test_reference_cells_reach_both_block_edges(p, depth, samples, seed):
    # two-block cells where some sample reads exactly two uniforms past each
    # block and one resumes exactly at the end of the last
    sizes, needed, offsets = reach_every_pass(p, depth, samples, seed)
    assert len(sizes) == 2
    assert sizes[0] + 2 in needed and sizes[1] + 2 in needed
    assert sizes[1] in offsets


def test_keys_past_64_bits_are_rejected_before_any_work():
    with pytest.raises(ValueError, match="2\\*\\*64"):
        run_ensemble(ModelParams(0.5), 4, 10, seed=2**64)
    # sample 2**64 needs a key word past 64 bits; refused before any allocation
    with pytest.raises(ValueError, match="2\\*\\*64"):
        run_ensemble(ModelParams(0.5), 4, 2**64 + 1, seed=0)
    # a float seed would be truncated to another seed's stream, and reported as given
    with pytest.raises(ValueError, match="seed must be an integer, got 2.9"):
        run_ensemble(ModelParams(0.5), 4, 5, seed=2.9)


def test_sweep_log_reports_time_and_rate():
    log = io.StringIO()
    started = time.perf_counter()
    sweep(EnsembleConfig(p_values=[0.5], depths=[4, 6], samples=30, seed=1), log=log)
    elapsed = time.perf_counter() - started
    lines = log.getvalue().splitlines()
    assert len(lines) == 2
    pattern = r"\[sweep\] p=0\.5 depth=(\d+) samples=30 done in (\S+) s \((\d+) samples/s\)"
    booked = 0.0
    for line, depth in zip(lines, ("4", "6")):
        match = re.fullmatch(pattern, line)
        assert match is not None, line
        assert match.group(1) == depth
        assert float(match.group(2)) > 0.0 and int(match.group(3)) > 0
        booked += float(match.group(2))
    # the lines book disjoint stretches of the call; 3 significant digits round each up by <= 0.5%
    assert booked <= elapsed * 1.005


def test_sweep_logs_to_the_stderr_of_the_call():
    # the default log is looked up per call, so redirect_stderr catches it
    config = EnsembleConfig(p_values=[0.5], depths=[4], samples=10, seed=1)
    with contextlib.redirect_stderr(io.StringIO()) as log:
        sweep(config)
    assert log.getvalue().startswith("[sweep] p=0.5 depth=4 samples=10 done in ")
    with contextlib.redirect_stderr(io.StringIO()) as log:
        sweep(config, log=None)
    assert log.getvalue() == ""


def test_one_cell_path_logs_no_sweep_line(capsys):
    # run_ensemble is a sweep of one cell, run without the sweep's log
    run_ensemble(ModelParams(0.5), 4, 10, seed=1)
    assert capsys.readouterr() == ("", "")
    argv = ["ensemble", "--p", "0.5", "--depth", "4", "--samples", "10", "--seed", "1"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == (
        f"[perccode ensemble] rng={percolate.RNG_VERSION} command=ensemble"
        " depth=4 out=None p=0.5 samples=10 seed=1\n"
    )


def _variance_z(s2: float, law: np.ndarray, var: float, n: int) -> float:
    """How many standard deviations the sample variance ``s2`` of ``n`` draws lies
    from ``var``, the exact variance of the law ``law[k] = P(X = k)``: the sample
    variance has variance mu4 / n - var^2 (n - 3) / (n (n - 1))."""
    k = np.arange(len(law))
    mu4 = float(law @ (k - law @ k) ** 4)
    return (s2 - var) / math.sqrt(mu4 / n - var * var * (n - 3) / (n * (n - 1)))


@pytest.mark.parametrize("seed", [5, 77, 2**64 - 1])
@pytest.mark.parametrize("p", [0.45, 0.5, 0.6])
def test_printed_standard_errors_carry_the_exact_variances(p, seed):
    # se^2 * samples is the sample variance of N_12 and of each L_n; it must lie
    # within 4 SD of the exact variance, its fourth moment from the oracle's laws
    m, depth, samples = ModelParams(p), 12, 20000
    stats = run_ensemble(m, depth, samples, seed)
    z = [
        _variance_z(
            stats.se_N_final**2 * samples,
            oracle.node_distribution(m, depth),
            analytic.node_moments(m, depth).variance,
            samples,
        )
    ]
    for n in range(1, 7):
        z.append(
            _variance_z(
                stats.se_leaf_counts[n] ** 2 * samples,
                oracle.joint_leaf_distribution(m, n).sum(axis=0),
                analytic.leaf_moments(m, n).var,
                samples,
            )
        )
    assert max(map(abs, z)) < 4.0, z
