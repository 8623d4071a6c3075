import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from perccode import analytic, codec, oracle, percolate
from perccode.analytic import DomainError, ModelParams
from perccode.infomeasure import row_measures

from conftest import cluster_from_mask


def test_params_derived_constants():
    m = ModelParams(0.6)
    assert m.q == 0.4
    assert m.mu == pytest.approx(1.2, abs=1e-12)
    assert m.p0 == pytest.approx(0.16, abs=1e-12)
    assert m.p1 == pytest.approx(0.48, abs=1e-12)
    assert m.p2 == pytest.approx(0.36, abs=1e-12)
    assert m.u1 == m.p0


@given(st.floats(min_value=0.0, max_value=1.0))
def test_params_probability_partitions(p):
    m = ModelParams(p)
    assert m.q == 1.0 - p
    assert m.p0 + m.p1 + m.p2 == pytest.approx(1.0, abs=1e-12)
    assert m.u0 + m.u1 == pytest.approx(1.0, abs=1e-12)
    assert m.mu == pytest.approx(2.0 * p, abs=1e-12)


@pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
def test_params_rejects_out_of_range(bad):
    with pytest.raises(DomainError):
        ModelParams(bad)


_BOOK = codec.CodeBook(("0", "10", "11"))
# each takes the one argument a case varies; the other arguments are fixed and valid
_CALLS = {
    "node_moments": lambda n: analytic.node_moments(ModelParams(0.6), n),
    "leaf_moments": lambda n: analytic.leaf_moments(ModelParams(0.6), n),
    "pgf_iterate": lambda n: analytic.pgf_iterate(ModelParams(0.6), n, 0.3),
    "node_distribution": lambda n: oracle.node_distribution(ModelParams(0.6), n),
    "joint_leaf_distribution": lambda n: oracle.joint_leaf_distribution(ModelParams(0.6), n),
    "exact_enumeration": lambda depth: oracle.exact_enumeration(ModelParams(0.6), depth),
    "ModelParams": ModelParams,
    "bernoulli_weights": lambda p: codec.bernoulli_weights(_BOOK, p),
    "SampleStreams.at": lambda position: percolate.SampleStreams(1, 4).at(2, position).random(3),
    "encode": lambda i: codec.encode(_BOOK, [i]),
    "row_measures": lambda depth: list(row_measures(np.ones((3, 4), dtype=np.int32), 0.5, [depth])),
}


# every case once returned a value or failed inside NumPy or Python's operators
@pytest.mark.parametrize(
    "call, name, bad",
    [
        ("node_moments", "generation count", 2.5),
        ("node_moments", "generation count", True),
        ("leaf_moments", "generation count", 1.5),
        ("pgf_iterate", "generation count", 2.5),
        ("node_distribution", "generation", True),
        ("node_distribution", "generation", 2.0),
        ("joint_leaf_distribution", "generation", 2.0),
        ("exact_enumeration", "depth", True),
        ("exact_enumeration", "depth", 2.0),
        ("ModelParams", "p", True),
        ("ModelParams", "p", "0.5"),
        ("bernoulli_weights", "p", True),
        ("SampleStreams.at", "position", 4.5),
        ("SampleStreams.at", "position", -4),
        ("encode", "symbol index", True),
        ("encode", "symbol index", 1.0),
        ("row_measures", "depth", 2.0),
        ("row_measures", "depth", -1),
    ],
)
def test_counts_and_probabilities_are_refused_by_name(call, name, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be .*, got {re.escape(repr(bad))}$"):
        _CALLS[call](bad)


@pytest.mark.parametrize(
    "call, good, numpy_good",
    [
        ("node_moments", 3, np.int64(3)),
        ("leaf_moments", 3, np.int64(3)),
        ("pgf_iterate", 3, np.uint8(3)),
        ("node_distribution", 3, np.int64(3)),
        ("joint_leaf_distribution", 3, np.int32(3)),
        ("exact_enumeration", 2, np.int64(2)),
        ("ModelParams", 0.6, np.float64(0.6)),
        ("bernoulli_weights", 0.5, np.float32(0.5)),
        ("SampleStreams.at", 6, np.int64(6)),
        ("encode", 1, np.int64(1)),
        ("row_measures", 2, np.int64(2)),
    ],
)
def test_numpy_counts_and_probabilities_still_pass(call, good, numpy_good):
    got, expected = (_CALLS[call](value) for value in (numpy_good, good))
    # a dataclass result field by field, since ExactStats holds arrays
    np.testing.assert_equal(getattr(got, "__dict__", got), getattr(expected, "__dict__", expected))


def test_pgf_eval_examples():
    assert analytic.pgf_eval(ModelParams(0.5), 1.0) == pytest.approx(1.0, abs=1e-12)
    assert analytic.pgf_eval(ModelParams(0.5), 0.0) == pytest.approx(0.25, abs=1e-12)
    assert analytic.pgf_eval(ModelParams(0.6), 0.5) == pytest.approx(0.49, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_pgf_at_one_is_one(p):
    assert analytic.pgf_eval(ModelParams(p), 1.0) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_pgf_equals_probability_sum(p, xi):
    m = ModelParams(p)
    direct = m.p0 + m.p1 * xi + m.p2 * xi * xi
    assert analytic.pgf_eval(m, xi) == pytest.approx(direct, abs=1e-12)


def test_pgf_eval_domain():
    with pytest.raises(DomainError):
        analytic.pgf_eval(ModelParams(0.5), 1.5)
    with pytest.raises(DomainError):
        analytic.pgf_eval(ModelParams(0.5), -0.1)


def test_leaf_pgf_examples():
    assert analytic.leaf_pgf_eval(ModelParams(0.5), 1.0) == pytest.approx(1.0, abs=1e-12)
    assert analytic.leaf_pgf_eval(ModelParams(0.5), 0.0) == pytest.approx(0.75, abs=1e-12)
    assert analytic.leaf_pgf_eval(ModelParams(0.0), 0.0) == 0.0


def test_pgf_iterate_examples():
    assert analytic.pgf_iterate(ModelParams(0.5), 1, 0.0) == pytest.approx(0.25, abs=1e-12)
    # hand-composed: f(f(0)) = (0.5 * 0.25 + 0.5)^2
    assert analytic.pgf_iterate(ModelParams(0.5), 2, 0.0) == pytest.approx(
        0.390625, abs=1e-12
    )
    assert analytic.pgf_iterate(ModelParams(0.6), 64, 0.0) == pytest.approx(
        4.0 / 9.0, abs=1e-4
    )
    assert analytic.pgf_iterate(ModelParams(0.3), 0, 0.7) == 0.7


def test_extinction_probability_examples():
    assert analytic.extinction_probability(ModelParams(0.4)) == 1.0
    assert analytic.extinction_probability(ModelParams(0.5)) == 1.0
    assert analytic.extinction_probability(ModelParams(0.6)) == pytest.approx(
        4.0 / 9.0, abs=1e-12
    )


def test_iterates_monotone_and_converge_to_extinction():
    # f_n(0) increases to the extinction probability.  Right at the critical
    # density the gap closes only like ~4/n, so the tight tolerance is
    # checked away from the critical window and an O(1/n) band inside it.
    n = 200
    for i in range(0, 101):
        p = i / 100.0
        m = ModelParams(p)
        prev = 0.0
        for k in range(1, n + 1):
            cur = analytic.pgf_iterate(m, k, 0.0)
            assert cur >= prev - 1e-15
            prev = cur
        gap = abs(prev - analytic.extinction_probability(m))
        if 0.47 <= p <= 0.53:
            assert gap <= 5.0 / n
        else:
            assert gap <= 1e-6


@pytest.mark.parametrize(
    "p,n,mean,var",
    [
        (0.5, 4, 1.0, 2.0),
        (0.6, 2, 1.44, 1.2672),  # hand-evaluated q(2p)^n[((2p)^n-1)/(2p-1)]
        (0.3, 0, 1.0, 0.0),
        (0.9, 0, 1.0, 0.0),
    ],
)
def test_node_moments_examples(p, n, mean, var):
    got = analytic.node_moments(ModelParams(p), n)
    assert got.mean == pytest.approx(mean, abs=1e-12)
    assert got.variance == pytest.approx(var, abs=1e-12)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.6])
@pytest.mark.parametrize("n", range(11))
def test_node_moments_match_exact_distribution(p, n):
    m = ModelParams(p)
    dist = oracle.node_distribution(m, n)
    got = analytic.node_moments(m, n)
    k = np.arange(len(dist))
    mean = float(k @ dist)
    assert got.mean == pytest.approx(mean, abs=1e-9)
    assert got.variance == pytest.approx(float((k * k) @ dist) - mean * mean, abs=1e-9)


@pytest.mark.parametrize("offset", [1e-6, 1e-8, 1e-10, 1e-12, 2.0**-45])
@pytest.mark.parametrize("sign", [1, -1])
def test_node_variance_next_to_one_half_is_exact(offset, sign):
    # (mean - 1)/(mu - 1) cancels next to p = 1/2; exact rational arithmetic does not
    p = 0.5 + sign * offset
    exact_p = Fraction(p)
    mu = 2 * exact_p
    for n in (2, 5, 12, 40):
        mean = mu**n
        exact = (1 - exact_p) * mean * (mean - 1) / (mu - 1)
        got = analytic.node_moments(ModelParams(p), n).variance
        assert float(abs(Fraction(got) - exact) / exact) <= 1e-14, n


def test_leaf_moments_examples():
    m = ModelParams(0.5)
    lm3 = analytic.leaf_moments(m, 3)
    assert lm3.mean == pytest.approx(0.25, abs=1e-12)
    assert lm3.var_u1_scaled == pytest.approx(0.375, abs=1e-12)  # 2npq^3 = n/8
    lm1 = analytic.leaf_moments(m, 1)
    assert lm1.var_u1_squared == pytest.approx(0.03125, abs=1e-12)  # q^4 * Var[N_1]


@pytest.mark.parametrize("p", [0.3, 0.5, 0.6])
@pytest.mark.parametrize("n", range(1, 7))
def test_leaf_variance_matches_exact_distribution(p, n):
    m = ModelParams(p)
    marginal = oracle.joint_leaf_distribution(m, n).sum(axis=0)
    i = np.arange(len(marginal))
    mean = float(i @ marginal)
    truth = float((i * i) @ marginal) - mean * mean
    assert analytic.leaf_moments(m, n).var == pytest.approx(truth, rel=1e-12, abs=1e-12)


def test_leaf_variance_example():
    assert analytic.leaf_moments(ModelParams(0.5), 1).var == pytest.approx(0.21875, abs=1e-15)


def test_leaf_variance_conventions_disagree():
    lm = analytic.leaf_moments(ModelParams(0.5), 1)
    truth = 0.21875  # 2pq^2(1 - q^2 + q^3), confirmed by exact enumeration
    assert lm.var_u1_scaled != pytest.approx(truth, abs=1e-6)
    assert lm.var_u1_squared != pytest.approx(truth, abs=1e-6)
    assert lm.var_u1_scaled != pytest.approx(lm.var_u1_squared, abs=1e-6)


def test_lambda_mean_examples():
    assert analytic.lambda_mean(ModelParams(0.5)) == pytest.approx(0.5, abs=1e-12)
    assert analytic.lambda_mean(ModelParams(0.6)) == pytest.approx(
        0.16 / 0.28, abs=1e-6
    )
    with pytest.raises(DomainError):
        analytic.lambda_mean(ModelParams(0.75))


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.6, math.sqrt(0.45)])
def test_lambda_mean_matches_series(p):
    # independent route: partial sums of sum_n E[L_n] p^n
    m = ModelParams(p)
    series = math.fsum(
        analytic.leaf_moments(m, n).mean * p**n for n in range(201)
    )
    assert series == pytest.approx(analytic.lambda_mean(m), abs=1e-9)


def test_lambda_var_examples():
    assert analytic.lambda_var(ModelParams(0.5)) == pytest.approx(0.25, abs=1e-12)
    assert analytic.lambda_var(ModelParams(0.6)) == pytest.approx(
        0.04608 / (0.136 * 0.28), abs=1e-5
    )
    with pytest.raises(DomainError):
        analytic.lambda_var(ModelParams(0.65))


def _lambda_moments_to_depth(p: float, depth: int) -> tuple[float, float]:
    """Mean and variance of Lambda_d = sum_{n<d} L_n p^n by the first-step
    recursion Lambda_d = 1{root is a leaf} + p(B1 Lambda'_{d-1} + B2 Lambda''_{d-1})."""
    q = 1.0 - p
    mean = second = 0.0
    for _ in range(depth):
        mean, second = (
            q * q + 2.0 * p * p * mean,
            q * q + 2.0 * p**3 * second + 2.0 * p**4 * mean * mean,
        )
    return mean, second - mean * mean


@pytest.mark.parametrize("p", [0.2, 0.5, 0.6, 0.7])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_lambda_recursion_matches_enumeration(p, depth):
    # brute force over every edge assignment of the depth-d tree
    n_edges = 2 ** (depth + 1) - 2
    weights, lams = [], []
    for mask in range(1 << n_edges):
        opened = mask.bit_count()
        weights.append(p**opened * (1.0 - p) ** (n_edges - opened))
        leaves = percolate.tally(cluster_from_mask(mask, depth)).leaf_counts
        lams.append(math.fsum(count * p**n for n, count in enumerate(leaves)))
    mean = math.fsum(w * lam for w, lam in zip(weights, lams))
    var = math.fsum(w * lam * lam for w, lam in zip(weights, lams)) - mean * mean
    want_mean, want_var = _lambda_moments_to_depth(p, depth)
    assert mean == pytest.approx(want_mean, abs=1e-12)
    assert var == pytest.approx(want_var, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.6, 0.65, 0.68])
def test_lambda_var_exact_is_the_recursion_limit(p):
    params = ModelParams(p)
    mean, var = _lambda_moments_to_depth(p, 2000)
    assert mean == pytest.approx(analytic.lambda_mean(params), rel=1e-9)
    assert var == pytest.approx(analytic.lambda_var_exact(params), rel=1e-9)


def test_lambda_var_exact_examples():
    assert analytic.lambda_var_exact(ModelParams(0.5)) == 0.125
    # finite where the older lambda_var raises
    assert math.isfinite(analytic.lambda_var_exact(ModelParams(0.65)))
    assert analytic.lambda_var_exact(ModelParams(0.0)) == 0.0
    with pytest.raises(DomainError):
        analytic.lambda_var_exact(ModelParams(math.sqrt(0.5)))


@pytest.mark.parametrize("p", [0.3, 0.5, 0.6])
def test_lambda_var_exact_matches_monte_carlo(p):
    depth, samples = 24, 10000
    params = ModelParams(p)
    _, leaves = percolate.grid_tallies([params], depth, 17, samples)[0]
    lam = leaves @ np.array([p**n for n in range(depth)])
    dev2 = (lam - lam.mean()) ** 2
    se = math.sqrt(dev2.var(ddof=1) / samples)
    exact = analytic.lambda_var_exact(params)
    # the generations cut off below depth 24 move the variance by < se / 20
    assert abs(_lambda_moments_to_depth(p, depth)[1] - exact) < se / 20
    assert abs(lam.var(ddof=1) - exact) < 3 * se


def _leaf_weight_transform(p: float, depth: int, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """F_d(s, t) = E[exp(-s Lambda_d - t M_d)] with M_d = sum_{n<d} n L_n p^n, a
    leafless cluster's (Lambda, M) being (0, 0), by the first-step recursion
    F_d(s, t) = q^2 e^-s + 2pq F' + p^2 F'^2 with F' = F_{d-1}(p(s + t), pt), F_0 = 1:
    a child's leaf at its generation n is one at n + 1, of weight p^(n+1)."""
    q = 1.0 - p
    levels = []
    for _ in range(depth):
        levels.append(s)
        s, t = p * (s + t), p * t
    f = np.ones_like(s)
    for s in reversed(levels):
        f = q * q * np.exp(-s) + 2 * p * q * f + p * p * f * f
    return f


# (s, t) points of the transform, each an expectation over the whole leaf profile
TRANSFORM_POINTS = np.array(
    [(0.1, 0), (0.5, 0), (1, 0), (2, 0), (5, 0), (0.3, 0.2), (1, 0.5), (3, 1)], dtype=float
).T


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.6, 0.9, 1.0])
@pytest.mark.parametrize("depth", range(4))
def test_leaf_weight_transform_matches_enumeration(p, depth):
    opened, _, leaf_rows, inverse = oracle._enumerated_tallies(depth)
    n_edges = 2 ** (depth + 1) - 2
    weights = np.array([p**k * (1.0 - p) ** (n_edges - k) for k in range(n_edges + 1)])[opened]
    powers = np.array([p**n for n in range(depth)])
    lam = (leaf_rows @ powers)[inverse]
    m = (leaf_rows @ (np.arange(depth) * powers))[inverse]
    s, t = TRANSFORM_POINTS
    got = [math.fsum((weights * np.exp(-a * lam - b * m)).tolist()) for a, b in zip(s, t)]
    assert np.abs(np.array(got) - _leaf_weight_transform(p, depth, s, t)).max() <= 1e-15


@pytest.mark.parametrize("p, depth, samples", [(0.45, 16, 50_000), (0.6, 16, 50_000), (0.7, 18, 20_000)])
def test_sampled_leaf_weights_follow_the_transform(p, depth, samples):
    # a check against the model, not between paths: the distribution of
    # (Lambda, M) as sampled and measured, through exp(-s Lambda - t M), whose
    # exact variance F(2s, 2t) - F(s, t)^2 gives each point an exact z-score
    _, leaves = percolate.grid_tallies([ModelParams(p)], depth, 99, samples)[0]
    (measured,) = row_measures(leaves, p, [depth])
    lam = measured[:, 0]
    m = np.nan_to_num(lam * measured[:, 2])  # Lambda times the mean length, 0 if leafless
    s, t = TRANSFORM_POINTS
    f, f2 = _leaf_weight_transform(p, depth, s, t), _leaf_weight_transform(p, depth, 2 * s, 2 * t)
    # a point where rare small-Lambda clusters carry the mean has little power
    powered = f2 <= 4 * f * f
    assert powered.sum() >= 5
    sampled = np.exp(-np.outer(lam, s) - np.outer(m, t)).mean(axis=0)
    z = (sampled - f) / np.sqrt((f2 - f * f) / samples)
    assert np.abs(z[powered]).max() <= 4, z


def test_expected_entropy_examples():
    assert analytic.expected_entropy(ModelParams(0.5)) == pytest.approx(0.0, abs=1e-12)
    assert analytic.expected_entropy(ModelParams(0.6)) == pytest.approx(
        1.0877, abs=1e-3
    )
    with pytest.raises(DomainError):
        analytic.expected_entropy(ModelParams(0.72))


def test_expected_code_length_examples():
    assert analytic.expected_code_length(ModelParams(0.5)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert analytic.expected_code_length(ModelParams(0.6)) == pytest.approx(
        0.72 / 0.28, abs=1e-6
    )
    # subcritical densities are accepted wherever the series converges
    assert analytic.expected_code_length(ModelParams(0.25)) == pytest.approx(
        0.125 / 0.875, abs=1e-6
    )
    with pytest.raises(DomainError):
        analytic.expected_code_length(ModelParams(0.72))


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.6, math.sqrt(0.45)])
def test_expected_code_length_matches_series(p):
    # the n-weighted series needs more terms than the plain one near the
    # window edge (2p^2 = 0.9), so sum until the tail is negligible
    m = ModelParams(p)
    lam = analytic.lambda_mean(m)
    series = math.fsum(
        n * analytic.leaf_moments(m, n).mean * p**n for n in range(601)
    )
    assert series / lam == pytest.approx(analytic.expected_code_length(m), abs=1e-9)


def test_moment_pair_rejects_negative_variance():
    with pytest.raises(ValueError):
        analytic.MomentPair(mean=1.0, variance=-0.5)
