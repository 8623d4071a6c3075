"""Closed-form results for bond percolation on a perfect binary tree.

Every edge of the tree is open independently with density ``p``, so each
node has 0, 1 or 2 offspring with probabilities q^2, 2pq and p^2 (q = 1-p),
and the open cluster containing the root is a binary branching process.
This module evaluates the exact consequences: the offspring generating
function and its iterates, per-generation node/leaf count moments, the
extinction probability, and the expected normalization / entropy /
codeword length of the prefix code cut out by the cluster's leaves.

All functions are pure and thread-safe.  Logarithms are base 2, so
entropies are in bits.  Quantities defined by an infinite series raise
:class:`DomainError` outside the convergence window instead of returning
infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "DomainError",
    "unit_interval",
    "ModelParams",
    "MomentPair",
    "LeafMoments",
    "pgf_eval",
    "leaf_pgf_eval",
    "pgf_iterate",
    "extinction_probability",
    "node_moments",
    "leaf_moments",
    "lambda_mean",
    "lambda_var",
    "lambda_var_exact",
    "expected_entropy",
    "expected_code_length",
]


class DomainError(ValueError):
    """A closed form was evaluated outside its convergence domain."""


def unit_interval(name: str, value: float) -> float:
    """``float(value)``, refused unless it lies in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Percolation density ``p`` and every constant derived from it.

    ``p0, p1, p2`` are the offspring-count probabilities (q^2, 2pq, p^2);
    ``u1`` is the probability that a node is a leaf (both edges closed)
    and ``u0 = 1 - u1``; ``mu = 2p`` is the mean offspring count.
    """

    p: float
    q: float = field(init=False)
    mu: float = field(init=False)
    p0: float = field(init=False)
    p1: float = field(init=False)
    p2: float = field(init=False)
    u0: float = field(init=False)
    u1: float = field(init=False)

    def __post_init__(self):
        p = unit_interval("p", self.p)
        q = 1.0 - p
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "mu", 2.0 * p)
        object.__setattr__(self, "p0", q * q)
        object.__setattr__(self, "p1", 2.0 * p * q)
        object.__setattr__(self, "p2", p * p)
        object.__setattr__(self, "u1", q * q)
        object.__setattr__(self, "u0", 2.0 * p * q + p * p)


@dataclass(frozen=True)
class MomentPair:
    """Mean and (non-negative) variance of a count distribution."""

    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < 0.0:
            raise ValueError(f"variance must be >= 0, got {self.variance!r}")


@dataclass(frozen=True)
class LeafMoments:
    """Mean and exact variance of the generation-n leaf count, plus two
    older variance conventions.

    Given N_n, each node of generation n is a leaf independently with
    probability u1 = q^2, so L_n is Binomial(N_n, u1) and by the law of total
    variance ``var`` = u1 * u0 * E[N_n] + u1**2 * Var[N_n], e.g.
    Var[L_1] = 2pq^2(1-q^2+q^3), which exact enumeration
    (``oracle.exact_enumeration``) confirms.  ``var_u1_scaled`` scales the
    node-count variance by the leaf probability once (u1 * Var[N_n]) and
    ``var_u1_squared`` twice (u1**2 * Var[N_n]); the two disagree with each
    other and neither equals the true variance.
    """

    mean: float
    var: float
    var_u1_scaled: float
    var_u1_squared: float


def pgf_eval(params: ModelParams, xi: float) -> float:
    """Offspring generating function f(xi) = (p*xi + q)^2 = sum p_k xi^k."""
    xi = unit_interval("xi", xi)
    v = params.p * xi + params.q
    return v * v


def leaf_pgf_eval(params: ModelParams, zeta: float) -> float:
    """Leaf-indicator generating function g(zeta) = u1*zeta + u0."""
    zeta = unit_interval("zeta", zeta)
    return params.u1 * zeta + params.u0


def pgf_iterate(params: ModelParams, n: int, xi0: float) -> float:
    """n-fold composition f_n(xi0) of the offspring generating function.

    f_0 is the identity; f_n(0) is the probability that the root cluster
    has died out by generation n.
    """
    if n < 0:
        raise DomainError(f"generation count must be >= 0, got {n}")
    xi = unit_interval("xi0", xi0)
    for _ in range(n):
        v = params.p * xi + params.q
        xi = v * v
    return xi


def extinction_probability(params: ModelParams) -> float:
    """Probability that the root cluster is finite: 1 for p <= 1/2, else (q/p)^2.

    This is the smallest fixed point of xi = f(xi) and the limit of
    ``pgf_iterate(params, n, 0)`` as n grows.
    """
    if params.p <= 0.5:
        return 1.0
    return (params.q / params.p) ** 2


def node_moments(params: ModelParams, n: int) -> MomentPair:
    """Mean and variance of the generation-n node count.

    mean = (2p)^n; variance = q(2p)^n[((2p)^n - 1)/(2p - 1)] for p != 1/2
    and n/2 at p = 1/2.  Generation 0 is the deterministic root.
    """
    if n < 0:
        raise DomainError(f"generation count must be >= 0, got {n}")
    mu = params.mu
    mean = mu**n
    if n == 0:
        return MomentPair(mean=1.0, variance=0.0)
    if params.p == 0.5:
        variance = n / 2.0
    else:
        # mean - 1 cancels where mean = mu^n is near 1, and expm1(n ln mu) does not;
        # farther out the rounding of n ln mu grows with it, and mean - 1 loses nothing
        x = n * math.log(mu) if mu > 0.0 else -math.inf
        rise = math.expm1(x) if abs(x) < 1.0 else mean - 1.0
        variance = params.q * mean * (rise / (mu - 1.0))
    return MomentPair(mean=mean, variance=variance)


def leaf_moments(params: ModelParams, n: int) -> LeafMoments:
    """Mean, exact variance and both older variance conventions for the
    generation-n leaf count.

    mean = u1*(2p)^n = q^2(2p)^n.  See :class:`LeafMoments` for how the
    variance fields differ.
    """
    nm = node_moments(params, n)
    u1 = params.u1
    return LeafMoments(
        mean=u1 * nm.mean,
        var=u1 * params.u0 * nm.mean + u1 * u1 * nm.variance,
        var_u1_scaled=u1 * nm.variance,
        var_u1_squared=u1 * u1 * nm.variance,
    )


def _require_lambda_domain(params: ModelParams) -> None:
    if 2.0 * params.p * params.p >= 1.0:
        raise DomainError(
            f"leaf-weight series diverges at p={params.p!r}: "
            "finite only for 2*p^2 < 1, i.e. p < sqrt(1/2) ~= 0.70711"
        )


def lambda_mean(params: ModelParams) -> float:
    """Expected leaf-weight normalization: sum_n E[L_n] p^n = q^2/(1 - 2p^2)."""
    _require_lambda_domain(params)
    return params.q**2 / (1.0 - 2.0 * params.p**2)


def lambda_var(params: ModelParams) -> float:
    """Variance of the leaf-weight normalization over cluster realizations.

    Equals 1/4 at p = 1/2 and 2p^2 q^3 / ((1 - 4p^3)(1 - 2p^2)) elsewhere;
    the series behind it converges only for 4*p^3 < 1.  This older closed
    form is not the true variance (1/8 at p = 1/2): see :func:`lambda_var_exact`.
    """
    p, q = params.p, params.q
    if p == 0.5:
        return 0.25
    if 4.0 * p**3 >= 1.0:
        raise DomainError(
            f"leaf-weight variance series diverges at p={p!r}: "
            "finite only for 4*p^3 < 1, i.e. p < cbrt(1/4) ~= 0.62996"
        )
    return 2.0 * p**2 * q**3 / ((1.0 - 4.0 * p**3) * (1.0 - 2.0 * p**2))


def lambda_var_exact(params: ModelParams) -> float:
    """Exact variance of the leaf-weight normalization Lambda.

    The first-step recursion Lambda = 1{root is a leaf} + p(B1 Lambda1 +
    B2 Lambda2) gives (q^2 + 2p^4 m^2)/(1 - 2p^3) - m^2 with m = lambda_mean,
    finite wherever the mean is (2p^2 < 1); 1/8 at p = 1/2.
    """
    m = lambda_mean(params)
    p, q = params.p, params.q
    return (q * q + 2.0 * p**4 * m * m) / (1.0 - 2.0 * p**3) - m * m


def expected_entropy(params: ModelParams) -> float:
    """Expected per-cluster entropy in bits, with the normalization replaced
    by its mean: 2p^2 log2(1/p)/(1 - 2p^2) + log2(lambda).

    This is the large-depth asymptotic; simulations that normalize each
    cluster exactly sit above it (see ``ensemble``).
    """
    lam = lambda_mean(params)
    p = params.p
    if p == 0.0:
        growth_term = 0.0
    else:
        growth_term = 2.0 * p * p * (-math.log2(p)) / (1.0 - 2.0 * p * p)
    return growth_term + math.log2(lam)


def expected_code_length(params: ModelParams) -> float:
    """Expected codeword length under the mean normalization: 2p^2/(1 - 2p^2)."""
    _require_lambda_domain(params)
    p = params.p
    return 2.0 * p * p / (1.0 - 2.0 * p * p)
