import math
from dataclasses import fields

import numpy as np
import pytest

from perccode import analytic
from perccode.analytic import ModelParams
from perccode.infomeasure import measures
from perccode.oracle import (
    ExactStats,
    SizeError,
    _enumerated_tallies,
    exact_enumeration,
    joint_leaf_distribution,
    node_distribution,
)
from perccode.percolate import tally

from conftest import cluster_from_mask


def reference_enumeration(params: ModelParams, depth: int) -> ExactStats:
    """One cluster, one ``tally`` and one ``measures`` per edge mask, all
    2^E of them: the sampler's own counting, one configuration at a time."""
    p, q = params.p, params.q
    n_edges = 2 ** (depth + 1) - 2
    pow_p = [p**k for k in range(n_edges + 1)]
    pow_q = [q**k for k in range(n_edges + 1)]

    n_configs = 1 << n_edges
    opened = [mask.bit_count() for mask in range(n_configs)]
    weights = np.array([pow_p[k] * pow_q[n_edges - k] for k in opened])
    tallies = [tally(cluster_from_mask(mask, depth)) for mask in range(n_configs)]
    measured = [measures(t, p) for t in tallies]
    nodes = np.array([t.node_counts for t in tallies], dtype=float)
    leaves = np.array([t.leaf_counts for t in tallies], dtype=float)
    lams = np.array([m.normalization for m in measured])
    entropies = np.array(
        [math.nan if m.entropy_bits is None else m.entropy_bits for m in measured]
    )
    lengths = np.array([math.nan if m.avg_length is None else m.avg_length for m in measured])
    node_hist = [
        np.bincount(nodes[:, g].astype(np.intp), weights=weights, minlength=2**g + 1)
        for g in range(depth + 1)
    ]

    def wmean(values: np.ndarray) -> float:
        return math.fsum((weights * values).tolist())

    node_mean = [wmean(nodes[:, g]) for g in range(depth + 1)]
    node_var = [
        wmean(nodes[:, g] ** 2) - node_mean[g] ** 2 for g in range(depth + 1)
    ]
    leaf_mean = [wmean(leaves[:, g]) for g in range(depth)]
    leaf_var = [wmean(leaves[:, g] ** 2) - leaf_mean[g] ** 2 for g in range(depth)]

    with_leaves = ~np.isnan(entropies)
    mass_with_leaves = math.fsum(weights[with_leaves].tolist())
    leafless_probability = 1.0 - mass_with_leaves
    if mass_with_leaves > 0.0:
        mean_entropy = (
            math.fsum((weights[with_leaves] * entropies[with_leaves]).tolist())
            / mass_with_leaves
        )
        mean_length = (
            math.fsum((weights[with_leaves] * lengths[with_leaves]).tolist())
            / mass_with_leaves
        )
    else:
        mean_entropy = 0.0
        mean_length = 0.0

    return ExactStats(
        p=p,
        depth=depth,
        node_mean=node_mean,
        node_var=node_var,
        leaf_mean=leaf_mean,
        leaf_var=leaf_var,
        node_distributions=node_hist,
        mean_normalization=wmean(lams),
        mean_entropy_bits=mean_entropy,
        mean_avg_length=mean_length,
        leafless_probability=leafless_probability,
    )


def test_node_distribution_examples():
    d1 = node_distribution(ModelParams(0.5), 1)
    assert np.allclose(d1, [0.25, 0.5, 0.25], atol=1e-15)
    d2 = node_distribution(ModelParams(0.5), 2)
    assert d2[0] == pytest.approx(0.390625, abs=1e-12)
    d0 = node_distribution(ModelParams(0.37), 0)
    assert np.allclose(d0, [0.0, 1.0], atol=0)


def test_node_distribution_caps():
    with pytest.raises(SizeError):
        node_distribution(ModelParams(0.5), 13)
    with pytest.raises(ValueError):
        node_distribution(ModelParams(0.5), -1)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.6])
def test_node_distribution_sums_and_moments(p):
    m = ModelParams(p)
    for n in range(11):
        dist = node_distribution(m, n)
        assert len(dist) == 2**n + 1
        assert np.all(dist >= 0.0)
        assert math.fsum(dist.tolist()) == pytest.approx(1.0, abs=1e-9)
        mom = analytic.node_moments(m, n)
        k = np.arange(len(dist))
        mean = float(k @ dist)
        assert mean == pytest.approx(mom.mean, abs=1e-9)
        assert float((k * k) @ dist) - mean * mean == pytest.approx(mom.variance, abs=1e-9)


def test_extinction_atom_matches_iterate():
    m = ModelParams(0.6)
    for n in (1, 4, 9):
        dist = node_distribution(m, n)
        assert dist[0] == pytest.approx(analytic.pgf_iterate(m, n, 0.0), abs=1e-12)


def test_joint_example_two_children_both_leaves():
    j = joint_leaf_distribution(ModelParams(0.5), 1)
    # both edges open, then each child keeps both of its edges closed
    assert j[2, 2] == pytest.approx(0.015625, abs=1e-12)
    assert j[2, 1] == pytest.approx(0.09375, abs=1e-12)
    assert j[0, 0] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.6])
@pytest.mark.parametrize("n", range(1, 7))
def test_joint_marginals_and_leaf_mean(p, n):
    m = ModelParams(p)
    j = joint_leaf_distribution(m, n)
    assert np.all(j >= -1e-15)
    marginal = j.sum(axis=1)
    assert np.allclose(marginal, node_distribution(m, n), atol=1e-9)
    leaf_mean = float(np.arange(j.shape[1]) @ j.sum(axis=0))
    assert leaf_mean == pytest.approx(analytic.leaf_moments(m, n).mean, abs=1e-9)


def test_joint_upper_triangle_is_zero():
    j = joint_leaf_distribution(ModelParams(0.6), 3)
    rows, cols = np.indices(j.shape)
    assert np.all(j[cols > rows] == 0.0)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.6, 0.9, 1.0])
@pytest.mark.parametrize("n", [1, 2])
def test_joint_is_the_weighted_histogram_of_the_enumerated_masks(p, n):
    # an independent route to the thinned law: every edge mask of the depth-3
    # tree, weighted p^open q^closed, counted at its own (N_n, L_n)
    opened, node_rows, leaf_rows, inverse = _enumerated_tallies(3)
    n_edges = 2**4 - 2
    weights = np.array([p**k * (1.0 - p) ** (n_edges - k) for k in range(n_edges + 1)])
    hist = np.zeros((2**n + 1, 2**n + 1))
    np.add.at(hist, (node_rows[:, n], leaf_rows[inverse, n]), weights[opened])
    assert np.abs(joint_leaf_distribution(ModelParams(p), n) - hist).max() <= 1e-13


def test_joint_caps():
    with pytest.raises(SizeError):
        joint_leaf_distribution(ModelParams(0.5), 7)
    with pytest.raises(ValueError):
        joint_leaf_distribution(ModelParams(0.5), 0)


def test_enumeration_depth_one_by_hand():
    # 2 edges -> 4 configurations; only the both-closed one has a leaf
    stats = exact_enumeration(ModelParams(0.5), 1)
    assert stats.node_mean[0] == 1.0
    assert stats.node_mean[1] == pytest.approx(1.0, abs=1e-15)
    assert stats.leaf_mean[0] == pytest.approx(0.25, abs=1e-15)
    assert stats.leafless_probability == pytest.approx(0.75, abs=1e-15)
    assert stats.mean_entropy_bits == 0.0
    assert stats.mean_avg_length == 0.0
    assert stats.mean_normalization == pytest.approx(0.25, abs=1e-15)


def test_enumeration_depth_two_examples():
    stats = exact_enumeration(ModelParams(0.5), 2)
    assert stats.node_mean[1] == pytest.approx(1.0, abs=1e-12)
    assert stats.node_mean[2] == pytest.approx(1.0, abs=1e-12)
    assert stats.leaf_mean[1] == pytest.approx(0.25, abs=1e-12)
    assert stats.leaf_var[1] == pytest.approx(0.21875, abs=1e-12)


def test_enumeration_finds_true_leaf_variance():
    # ground truth 2pq^2(1 - q^2 + q^3) disagrees with both closed-form
    # variance conventions, while every mean formula agrees
    for p in (0.5, 0.55):
        m = ModelParams(p)
        stats = exact_enumeration(m, 3)
        q = m.q
        truth = 2 * p * q**2 * (1 - q**2 + q**3)
        assert stats.leaf_var[1] == pytest.approx(truth, abs=1e-12)
        lm = analytic.leaf_moments(m, 1)
        assert abs(lm.var_u1_scaled - truth) > 1e-3
        assert abs(lm.var_u1_squared - truth) > 1e-3
        for n in range(3):
            assert stats.node_mean[n] == pytest.approx((2 * p) ** n, abs=1e-12)
            assert stats.leaf_mean[n] == pytest.approx(
                q**2 * (2 * p) ** n, abs=1e-12
            )


def test_enumeration_node_histograms_match_polynomials():
    m = ModelParams(0.5)
    stats = exact_enumeration(m, 3)
    for n in range(4):
        assert np.allclose(
            stats.node_distributions[n], node_distribution(m, n), atol=1e-9
        )


def test_enumeration_normalization_matches_truncated_series():
    m = ModelParams(0.5)
    stats = exact_enumeration(m, 3)
    series = math.fsum(m.u1 * (2 * m.p**2) ** n for n in range(3))
    assert stats.mean_normalization == pytest.approx(series, abs=1e-12)


def test_enumeration_node_variances_match_closed_forms():
    for p in (0.3, 0.55):
        m = ModelParams(p)
        stats = exact_enumeration(m, 3)
        for n in range(4):
            mom = analytic.node_moments(m, n)
            assert stats.node_var[n] == pytest.approx(mom.variance, abs=1e-12)


def test_enumeration_weights_cover_everything():
    # degenerate densities collapse to a single configuration
    full = exact_enumeration(ModelParams(1.0), 2)
    assert full.node_mean == [1.0, 2.0, 4.0]
    assert full.leaf_mean == [0.0, 0.0]
    assert full.leafless_probability == 1.0
    empty = exact_enumeration(ModelParams(0.0), 2)
    assert empty.node_mean == [1.0, 0.0, 0.0]
    assert empty.leaf_mean == [1.0, 0.0]
    assert empty.leafless_probability == 0.0
    assert empty.mean_entropy_bits == 0.0


def test_enumeration_caps():
    with pytest.raises(SizeError):
        exact_enumeration(ModelParams(0.5), 4)
    with pytest.raises(ValueError):
        exact_enumeration(ModelParams(0.5), -1)


@pytest.mark.parametrize(
    "p, depth",
    [(p, d) for d in range(3) for p in (0.0, 0.3, 0.5, 0.6, 1.0)] + [(0.3, 3), (0.6, 3)],
)
def test_enumeration_is_bit_identical_to_the_per_mask_reference(p, depth):
    stats = exact_enumeration(ModelParams(p), depth)
    reference = reference_enumeration(ModelParams(p), depth)
    for field in fields(ExactStats):
        got, want = getattr(stats, field.name), getattr(reference, field.name)
        if field.name == "node_distributions":
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        else:
            assert got == want, field.name


@pytest.mark.parametrize("depth", range(4))
def test_enumerated_clusters_are_shared_read_only(depth):
    # every p at one depth gets the same arrays, so none may be written
    exact_enumeration(ModelParams(0.4), depth)
    shared = _enumerated_tallies(depth)
    assert _enumerated_tallies(depth) is shared
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@pytest.mark.parametrize("depth", range(4))
def test_mask_counts_are_the_tally_of_each_configuration(depth):
    opened, nodes, leaf_rows, inverse = _enumerated_tallies(depth)
    assert len(opened) == len(nodes) == len(inverse) == 1 << (2 ** (depth + 1) - 2)
    for mask in range(len(opened)):
        want = tally(cluster_from_mask(mask, depth))
        assert nodes[mask].tolist() == want.node_counts, mask
        assert leaf_rows[inverse[mask]].tolist() == want.leaf_counts, mask
        assert opened[mask] == mask.bit_count()
