"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen; without ``-s`` pytest still shows them for failing criteria.
Stochastic checks use 3-standard-error bands; exact checks use the stated
tolerances.
"""

import math
import time

import numpy as np
import pytest

from perccode import analytic, codec, infomeasure, oracle
from perccode.analytic import ModelParams
from perccode.ensemble import EnsembleConfig, csv_text, run_ensemble, sweep
from perccode.percolate import (
    cluster_stream,
    grid_tallies,
    sample_cluster,
    sample_tally,
    tally,
)

from conftest import SEVEN_LEAF_WORDS, cluster_from_codewords, sweep_on_threads
from transform_reference import transform_means


def report(cid: str, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {cid} {label}: {status}{suffix}")


def test_c1_closed_form_unit_values():
    checks = {
        "extinction(0.6)": (
            analytic.extinction_probability(ModelParams(0.6)),
            4.0 / 9.0,
        ),
        "lambda_mean(0.5)": (analytic.lambda_mean(ModelParams(0.5)), 0.5),
        "lambda_var(0.5)": (analytic.lambda_var(ModelParams(0.5)), 0.25),
        "code_length(0.5)": (analytic.expected_code_length(ModelParams(0.5)), 1.0),
    }
    mom = analytic.node_moments(ModelParams(0.5), 4)
    checks["node_mean(0.5,4)"] = (mom.mean, 1.0)
    checks["node_var(0.5,4)"] = (mom.variance, 2.0)
    bad = {k: v for k, v in checks.items() if abs(v[0] - v[1]) > 1e-12}
    report("C1", "closed-form unit values", not bad, f"violations: {bad}" if bad else "all within 1e-12")
    assert not bad


def test_c2_pgf_composition_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (0.3, 0.5, 0.6):
        m = ModelParams(p)
        for n in range(11):
            dist = oracle.node_distribution(m, n)
            mom = analytic.node_moments(m, n)
            k = np.arange(len(dist))
            mean = float(k @ dist)
            worst = max(
                worst,
                abs(math.fsum(dist.tolist()) - 1.0),
                abs(mean - mom.mean),
                abs(float((k * k) @ dist) - mean * mean - mom.variance),
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report("C2", "PGF composition oracle", ok, f"worst dev {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_c3_brute_force_enumeration():
    failures = []
    for p in (0.5, 0.55):
        m = ModelParams(p)
        stats = oracle.exact_enumeration(m, 3)
        q = m.q
        for n in range(3):
            if abs(stats.node_mean[n] - (2 * p) ** n) > 1e-12:
                failures.append(f"E[N_{n}] at p={p}")
            if abs(stats.leaf_mean[n] - q**2 * (2 * p) ** n) > 1e-12:
                failures.append(f"E[L_{n}] at p={p}")
        truth = 2 * p * q**2 * (1 - q**2 + q**3)
        if abs(stats.leaf_var[1] - truth) > 1e-12:
            failures.append(f"Var[L_1] at p={p}")
        # documented finding: both closed-form variance conventions miss truth
        lm = analytic.leaf_moments(m, 1)
        if abs(lm.var_u1_scaled - truth) < 1e-6 or abs(lm.var_u1_squared - truth) < 1e-6:
            failures.append(f"variance conventions unexpectedly agree at p={p}")
    v05 = oracle.exact_enumeration(ModelParams(0.5), 3).leaf_var[1]
    if abs(v05 - 0.21875) > 1e-12:
        failures.append("Var[L_1](0.5) != 0.21875")
    report("C3", "brute-force enumeration", not failures, ", ".join(failures) or "means exact, Var[L_1]=0.21875")
    assert not failures


def test_c4_distribution_level_simulation():
    t0 = time.perf_counter()
    m = ModelParams(0.5)
    depth, samples = 8, 200_000
    nodes, _ = grid_tallies([m], depth, 80808, samples)[0]
    hist = np.bincount(nodes[:, -1], minlength=2**depth + 1) / samples
    exact = oracle.node_distribution(m, depth)
    tv = 0.5 * float(np.abs(hist - exact).sum())
    elapsed = time.perf_counter() - t0
    ok = tv <= 0.01 and elapsed < 60.0
    report("C4", "N_8 distribution vs exact", ok, f"TV {tv:.4f}, {elapsed:.1f}s")
    assert tv <= 0.01
    assert elapsed < 60.0


def test_c5_extinction():
    m = ModelParams(0.6)
    depth, samples = 16, 100_000
    nodes, _ = grid_tallies([m], depth, 160160, samples)[0]
    frac = int(np.count_nonzero(nodes[:, -1] == 0)) / samples
    target = analytic.pgf_iterate(m, depth, 0.0)
    se = math.sqrt(target * (1.0 - target) / samples)
    band_ok = abs(frac - target) <= 3 * se
    fixed_point = analytic.pgf_iterate(m, 64, 0.0)
    fp_ok = abs(fixed_point - 4.0 / 9.0) <= 1e-4
    report(
        "C5", "extinction frequency and fixed point", band_ok and fp_ok,
        f"freq {frac:.5f} vs {target:.5f} (3SE {3*se:.5f}); f_64(0) {fixed_point:.6f}",
    )
    assert band_ok
    assert fp_ok


def test_c6a_mean_length_saturates_inside_window():
    m = ModelParams(0.55)
    samples = 100_000
    seed = 555
    low = run_ensemble(m, 14, samples, seed=seed)
    high = run_ensemble(m, 18, samples, seed=seed)
    rel = abs(high.mean_L - low.mean_L) / low.mean_L
    ok = rel <= 0.02
    report(
        "C6a", "mean L saturation at p=0.55", ok,
        f"L(14)={low.mean_L:.4f} L(18)={high.mean_L:.4f} rel change {rel:.4f}",
    )
    assert ok


def test_c6b_mean_length_doubles_outside_window():
    # Criterion: at p = 0.7 the depth-18 mean codeword length must exceed
    # twice the depth-12 value.  The per-cluster average length is bounded
    # by depth-1 and its leaf weights decay like (2p^2)^n = 0.98^n, so it
    # grows roughly linearly in depth; the measured ratio sits near 1.4,
    # short of the pinned doubling threshold, and this check stays red as
    # an honest record of the behavior (see README, Known findings).
    m = ModelParams(0.7)
    samples = 10_000
    low = run_ensemble(m, 12, samples, seed=700)
    high = run_ensemble(m, 18, samples, seed=700)
    ratio = high.mean_L / low.mean_L
    ok = high.mean_L > 2.0 * low.mean_L
    report(
        "C6b", "mean L doubling at p=0.7", ok,
        f"L(12)={low.mean_L:.4f} L(18)={high.mean_L:.4f} ratio {ratio:.3f} (need > 2)",
    )
    assert ok, (
        f"mean L grew {ratio:.3f}x between depths 12 and 18 at p=0.7; "
        "the >2x threshold is unattainable because per-cluster average "
        "codeword length is bounded by depth-1 and grows ~linearly here"
    )


def test_c6b_exact_ratio():
    # C6b's two means exactly, from the transform reference: E[L] over clusters
    # with a leaf at p = 0.7 grows 1.37459x from depth 12 to 18, short of 2x
    low, high = (transform_means(0.7, d)["mean_avg_length"] for d in (12, 18))
    ratio = high / low
    ok = (low, high) == pytest.approx((5.4153, 7.4438), abs=5e-5) and abs(ratio - 1.37459) <= 5e-6
    report("C6b-exact", "exact mean L ratio at p=0.7", ok,
           f"L(12)={low:.4f} L(18)={high:.4f} ratio {ratio:.5f}")
    assert ok


def test_c7_coding_fixtures():
    failures = []
    cluster = cluster_from_codewords(SEVEN_LEAF_WORDS, 5)
    book = codec.extract_codebook(cluster)
    if book.words != SEVEN_LEAF_WORDS:
        failures.append(f"extraction gave {book.words}")
    if abs(codec.kraft_sum(book) - 0.6875) > 1e-12:
        failures.append("kraft != 0.6875")
    if not codec.is_prefix_free(book):
        failures.append("fixture book not prefix-free")
    if codec.decode(book, "000100110") != [0, 1, 5]:
        failures.append("decode(000100110) != [s1, s2, s6]")
    count = 0
    for p in (0.2, 0.5, 0.6):
        m = ModelParams(p)
        for i in range(3400):
            b = codec.extract_codebook(sample_cluster(m, 12, cluster_stream(1212, i)))
            count += 1
            if not codec.is_prefix_free(b):
                failures.append(f"non-prefix-free book at p={p} i={i}")
                break
            if codec.kraft_sum(b) > 1.0 + 1e-12:
                failures.append(f"Kraft > 1 at p={p} i={i}")
                break
    report("C7", "coding fixtures", not failures, ", ".join(failures) or f"{count} random books clean")
    assert not failures


def test_c8_per_configuration_measures():
    t = tally(cluster_from_codewords(SEVEN_LEAF_WORDS, 5))
    m = infomeasure.measures(t, 0.5)
    h, ell = m.entropy_bits, m.avg_length
    ok = abs(h - 2.5503) <= 1e-3 and abs(ell - 3.0909) <= 1e-3
    report("C8", "per-configuration measures", ok, f"H={h:.4f} L={ell:.4f}")
    assert h == pytest.approx(2.5503, abs=1e-3)
    assert ell == pytest.approx(3.0909, abs=1e-3)


def test_c9_boundary_densities():
    failures = []
    full = run_ensemble(ModelParams(1.0), 8, 200, seed=90)
    if full.skipped_leafless != 200 or full.used != 0:
        failures.append("p=1 cell not entirely leafless")
    if full.mean_H_bits != 0.0 or full.mean_L != 0.0:
        failures.append("p=1 H/L not reported as 0")
    empty = run_ensemble(ModelParams(0.0), 8, 200, seed=90)
    if empty.mean_H_bits != 0.0 or empty.mean_L != 0.0 or empty.skipped_leafless:
        failures.append("p=0 cell wrong")
    for i in range(200):
        t = sample_tally(ModelParams(0.0), 8, cluster_stream(90, i))
        if infomeasure.measures(t, 0.0).normalization != 1.0:
            failures.append(f"p=0 sample {i} has Lambda != 1")
            break
    report("C9", "boundary densities", not failures, ", ".join(failures) or "p=0 and p=1 behave")
    assert not failures


def test_c10_reproducibility_across_threads(tmp_path):
    config = EnsembleConfig(p_values=[0.5, 0.6], depths=[6, 10], samples=3000, seed=10)
    text1 = csv_text(sweep(config, log=None))
    textn = csv_text(sweep_on_threads(config))
    again = csv_text(sweep(config, log=None))
    ok = text1 == textn == again
    report("C10", "byte-identical CSV across runs/threads", ok)
    assert text1 == again
    assert text1 == textn
