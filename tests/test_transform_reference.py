"""The pointwise transform reference against the exact enumeration, and the
golden sweeps' Monte Carlo cells against the reference."""

import math
from collections import defaultdict

import pytest

from perccode.analytic import ModelParams
from perccode.oracle import MAX_ENUM_DEPTH, exact_enumeration

from test_golden import golden_rows
from transform_reference import transform_means


@pytest.mark.parametrize("depth", range(MAX_ENUM_DEPTH + 1))
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.6, 0.9, 1.0])
def test_transform_means_are_the_enumerations(p, depth):
    exact = exact_enumeration(ModelParams(p), depth)
    means = transform_means(p, depth)
    for name in ("mean_normalization", "leafless_probability", "mean_avg_length"):
        assert means[name] == pytest.approx(getattr(exact, name), rel=1e-12, abs=0), name
    # the entropy's error is rounding over the grid, absolute
    assert means["mean_entropy_bits"] == pytest.approx(exact.mean_entropy_bits, rel=0, abs=1e-11)


def leaf_count_law(p, depth):
    """The exact law of the leaf counts (L_0, ..., L_{depth - 1}), as {vector: probability},
    by the root's three cases: a leaf (q^2), one open edge (2pq) over a cluster of depth
    bound depth - 1, or two (p^2) over two independent ones, whose vectors add; either way
    the subtree's counts move one generation down."""
    q = 1.0 - p
    law = {(): 1.0}
    for d in range(1, depth + 1):
        atoms = defaultdict(list)
        atoms[(1,) + (0,) * (d - 1)].append(q * q)
        for v, a in law.items():
            atoms[(0, *v)].append(2 * p * q * a)
            for u, b in law.items():
                atoms[(0, *map(sum, zip(v, u)))].append(p * p * a * b)
        law = {v: math.fsum(probs) for v, probs in atoms.items()}
    return law


def law_means(p, law):
    """``transform_means``' four means over a leaf-count law with 0 < p < 1: per atom
    Lambda = sum_n L_n p^n and M = sum_n n L_n p^n, and the entropy in bits
    log2(Lambda) - log2(p) M / Lambda, each mean one fsum over the atoms."""
    leafy = []
    for v, prob in law.items():
        if any(v):
            lam = math.fsum(c * p**n for n, c in enumerate(v))
            leafy.append((prob, lam, math.fsum(n * c * p**n for n, c in enumerate(v)) / lam))
    # with no leafy atom (depth 0) both conditional means are 0.0, as the enumeration has them
    mass = math.fsum(prob for prob, _, _ in leafy) or math.inf
    return {
        "mean_normalization": math.fsum(prob * lam for prob, lam, _ in leafy),
        "leafless_probability": math.fsum(prob for v, prob in law.items() if not any(v)),
        "mean_avg_length": math.fsum(prob * length for prob, _, length in leafy) / mass,
        "mean_entropy_bits": math.fsum(
            prob * (math.log2(lam) - math.log2(p) * length) for prob, lam, length in leafy
        ) / mass,
    }


def assert_means_agree(got, want):
    for name in ("mean_normalization", "leafless_probability", "mean_avg_length"):
        assert got[name] == pytest.approx(want[name], rel=1e-12, abs=0), name
    assert got["mean_entropy_bits"] == pytest.approx(want["mean_entropy_bits"], rel=0, abs=1e-11)


@pytest.mark.parametrize("depth", range(MAX_ENUM_DEPTH + 1))
@pytest.mark.parametrize("p", [0.3, 0.5, 0.6, 0.9])
def test_leaf_count_law_is_the_enumerations(p, depth):
    exact = exact_enumeration(ModelParams(p), depth)
    law = leaf_count_law(p, depth)
    leaf_mean = [math.fsum(prob * v[n] for v, prob in law.items()) for n in range(depth)]
    assert leaf_mean == pytest.approx(list(exact.leaf_mean), rel=1e-12, abs=0)
    assert_means_agree(law_means(p, law), vars(exact))


# past the enumeration's depths: 36, 202 and 1,828 atoms, the law's size at any 0 < p < 1
@pytest.mark.parametrize("depth, atoms", [(4, 36), (5, 202), (6, 1828)])
@pytest.mark.parametrize("p", [0.3, 0.5, 0.6, 0.9])
def test_transform_means_are_the_leaf_count_laws(p, depth, atoms):
    law = leaf_count_law(p, depth)
    assert len(law) == atoms
    assert math.fsum(law.values()) == pytest.approx(1.0, rel=0, abs=1e-15)
    assert_means_agree(transform_means(p, depth), law_means(p, law))


@pytest.mark.parametrize("depth", [1, 3, 18])
def test_transform_means_at_p_zero_and_one(depth):
    # p = 0: the root is the one leaf, of weight 1; p = 1: the full tree, with no leaf
    assert transform_means(0.0, depth) == {
        "mean_normalization": 1.0, "leafless_probability": 0.0,
        "mean_avg_length": 0.0, "mean_entropy_bits": 0.0,
    }
    assert transform_means(1.0, depth) == {
        "mean_normalization": 0.0, "leafless_probability": 1.0,
        "mean_avg_length": 0.0, "mean_entropy_bits": 0.0,
    }


@pytest.mark.parametrize("name", ["sweep.csv", "sweep-block.csv"])
def test_golden_sweep_cells_lie_within_three_se_of_the_exact_means(name):
    cells = [row for row in golden_rows(name) if 0.0 < float(row["p"]) < 1.0]
    assert cells
    for row in cells:
        exact = transform_means(float(row["p"]), int(row["depth"]))
        for mean, se, key in [("mean_L", "se_L", "mean_avg_length"),
                              ("mean_H_bits", "se_H_bits", "mean_entropy_bits")]:
            # depth 1 has only root leaves: every mean and SE is an exact 0
            miss = abs(float(row[mean]) - exact[key])
            assert miss <= 3 * float(row[se]), (row["p"], row["depth"], mean, miss)
