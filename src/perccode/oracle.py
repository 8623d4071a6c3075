"""Ground-truth engines for desk-scale cross-validation.

Two independent routes to exact answers:

* polynomial composition of the offspring generating function gives the
  exact law of the generation-n node count as a plain array, and binomial
  thinning of it (each node a leaf with probability q^2) the exact joint
  law of node and leaf counts as a matrix;
* exhaustive enumeration walks every open/closed assignment of a shallow
  truncated tree's edges, weighting each by p^(#open) q^(#closed).  Node
  and leaf counts are read straight off the edge bits, all assignments at
  once, with no cluster built and no call to the sampler's ``tally`` (a
  test checks ``tally`` against them).  They go into one read-only table
  per depth, built once whatever p is, with the histograms that group the
  assignments adding the same product to a mean; each distinct leaf-count
  row is measured by ``infomeasure.row_measures``.  A mean is one exact
  integer sum over those groups.

Both are deliberately capped at small sizes; they exist to validate the
closed forms and the sampler, not to scale.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .analytic import ModelParams, integer
from .infomeasure import row_measures

__all__ = [
    "SizeError",
    "ExactStats",
    "node_distribution",
    "joint_leaf_distribution",
    "exact_enumeration",
    "MAX_DIST_GENERATION",
    "MAX_JOINT_GENERATION",
    "MAX_ENUM_DEPTH",
]

MAX_DIST_GENERATION = 12  # dense degree-2^n coefficient vector stays small
MAX_JOINT_GENERATION = 6
MAX_ENUM_DEPTH = 3  # 2^(depth+1)-2 edges -> at most 16384 configurations


class SizeError(ValueError):
    """Requested size exceeds the oracle's deliberate cap."""


@dataclass(frozen=True)
class ExactStats:
    """Exact expectations from exhaustive enumeration of one truncated tree.

    Entropy and codeword length are conditioned on the cluster having at
    least one leaf; ``leafless_probability`` reports the mass of the
    complementary event so users can reweight.
    """

    p: float
    depth: int
    node_mean: list[float]
    node_var: list[float]
    leaf_mean: list[float]
    leaf_var: list[float]
    node_distributions: list[np.ndarray]
    mean_normalization: float
    mean_entropy_bits: float
    mean_avg_length: float
    leafless_probability: float


def node_distribution(params: ModelParams, n: int) -> np.ndarray:
    """Exact law of the generation-n node count, entry k being P(N_n = k), via
    repeated polynomial substitution f_n = (p * f_{n-1} + q)^2, f_0 = identity."""
    if integer("generation", n, 0) > MAX_DIST_GENERATION:
        raise SizeError(f"generation {n} exceeds cap {MAX_DIST_GENERATION}")
    coeffs = np.array([0.0, 1.0])
    for _ in range(n):
        lifted = params.p * coeffs
        lifted[0] += params.q
        coeffs = np.convolve(lifted, lifted)
    return coeffs


def joint_leaf_distribution(params: ModelParams, n: int) -> np.ndarray:
    """Exact joint law of (node count, leaf count) at generation n, entry
    [j, i] being P(N_n = j, L_n = i).

    Each node of generation n is a leaf, both of its edges closed,
    independently with probability u1 = q^2.  So given N_n = j the leaf
    count is Binomial(j, u1), whose law is the coefficients of
    (u0 + u1 * zeta)^j: row j of the node law's thinning matrix.
    """
    if integer("generation", n, 1) > MAX_JOINT_GENERATION:
        raise SizeError(f"generation {n} exceeds cap {MAX_JOINT_GENERATION}")
    nodes = node_distribution(params, n)
    thinning, row = np.zeros((len(nodes), len(nodes))), np.array([1.0])
    for j in range(len(nodes)):
        thinning[j, : j + 1] = row
        row = np.convolve(row, [params.u0, params.u1])
    return nodes[:, None] * thinning


@functools.cache
def _enumerated_tallies(depth: int) -> tuple:
    """Everything enumerations at ``depth`` share whatever p is, in one
    read-only table: per configuration its open-edge count, its node-count
    row N_0..N_d and the index of its leaf-count row L_0..L_{d-1} among the
    distinct ones; those distinct rows; and how many configurations share
    each product of a weighted mean.  Entry [k, n] of a histogram counts the
    configurations with k open edges and N_g = n (g <= depth), then L_g = n
    (g < depth); entry [k, n] of the last, those with leaf row n.

    Edge e of the heap-indexed tree joins node e // 2 to node e + 1 and is
    open iff bit e of the configuration's mask is set.  A node is live iff
    its parent is live and the edge between them is open; a live node above
    the bound is a leaf iff both of its own edges are closed.
    """
    n_edges = 2 ** (depth + 1) - 2
    # bool and uint8 working arrays: E <= 14 and N_g <= 8 up to MAX_ENUM_DEPTH
    masks = np.arange(1 << n_edges, dtype="<u2").view(np.uint8).reshape(-1, 2)
    opens = np.unpackbits(masks, axis=1, bitorder="little")[:, :n_edges].view(bool)
    opened = opens.sum(axis=1, dtype=np.uint8)
    live = np.ones((len(masks), n_edges + 1), dtype=bool)
    for e in range(n_edges):  # heap order puts each parent before its children
        live[:, e + 1] = live[:, e // 2] & opens[:, e]
    leaf = live[:, : n_edges // 2] & ~opens[:, 0::2] & ~opens[:, 1::2]
    # generation g holds heap nodes 2^g - 1 .. 2^(g+1) - 2
    starts = 2 ** np.arange(depth + 1) - 1
    node_rows = np.add.reduceat(live, starts, axis=1, dtype=np.uint8)
    leaves = np.add.reduceat(leaf, starts[:-1], axis=1, dtype=np.uint8)
    # L_g <= 2^g < 2^depth, so the row's digits in base 2^depth key it
    keys = leaves @ (1 << depth) ** np.arange(depth)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    key, groups = opened.astype(np.intp), []
    for column in [*node_rows.T, *leaves.T, inverse]:
        width = int(column.max()) + 1
        counts = np.bincount(key * width + column, minlength=(n_edges + 1) * width)
        groups.append(counts.reshape(-1, width))
    leaf_rows = leaves[first]
    for array in (opened, node_rows, leaf_rows, inverse, *groups):
        array.flags.writeable = False
    return opened, node_rows, leaf_rows, inverse, tuple(groups[:-1]), groups[-1]


def _exact_sum(counts: np.ndarray, values: np.ndarray) -> float:
    """Sum of counts * values rounded once, half to even, as ``math.fsum`` of
    the multiset rounds it: every finite float is an integer over a power of
    two, so the sum is one Python int over the largest, and int / int rounds."""
    mantissas, exponents = np.frexp(values.ravel())
    lo = int(exponents.min(initial=53))  # the sum's unit, 2^(lo - 53), is at most 1
    ints = (mantissas * 2.0**53).astype(np.int64).tolist()
    terms = zip(counts.ravel().tolist(), ints, (exponents - lo).tolist())
    return sum(c * m << e for c, m, e in terms) / (1 << (53 - lo))


def exact_enumeration(params: ModelParams, depth: int) -> ExactStats:
    """Exact expectations over all 2^E edge configurations (E = 2^(depth+1)-2).

    Each configuration is weighted by w_k = p^k q^(E-k) for its k open edges
    out of *all* edges of the truncated tree.  Its node and leaf counts come
    from its edge bits alone and do not depend on p, so they are worked out
    once per depth and kept in one table, grouped by (k, value); each
    distinct leaf-count row is measured by
    :func:`~perccode.infomeasure.row_measures`.  A mean is one exact sum of
    count * fl(w_k * value) over at most (E + 1) x 10 groups, rounded once:
    the bits ``math.fsum`` gives over all 2^E products.
    """
    if integer("depth", depth, 0) > MAX_ENUM_DEPTH:
        raise SizeError(f"depth {depth} exceeds cap {MAX_ENUM_DEPTH}")
    p, q = params.p, params.q
    opened, node_rows, leaf_rows, _, count_groups, row_groups = _enumerated_tallies(depth)
    # a configuration's weight depends only on how many of its E edges it opens
    n_edges = len(row_groups) - 1
    w = np.array([p**k * q ** (n_edges - k) for k in range(n_edges + 1)])
    weights = w[opened]  # bincount adds them in mask order, one configuration at a time
    node_hist = [np.bincount(column, weights=weights) for column in node_rows.T]
    # first and second moments of N_0..N_d, then of L_0..L_{d-1}
    means, squares = (
        [_exact_sum(c, np.outer(w, np.arange(c.shape[1]) ** j)) for c in count_groups]
        for j in (1, 2)
    )
    variances = [s - m**2 for m, s in zip(means, squares)]
    # entropy and length are NaN together, where Lambda = 0, and a leafless
    # row adds an exact 0 to the sums over those with leaves
    (measured,) = row_measures(leaf_rows, p, [depth])
    mass_with_leaves, lam_sum, entropy_sum, length_sum = (
        _exact_sum(row_groups, np.outer(w, v))
        for v in (~np.isnan(measured[:, 1]), measured[:, 0], *np.nan_to_num(measured[:, 1:]).T)
    )

    return ExactStats(
        p=p,
        depth=depth,
        node_mean=means[: depth + 1],
        node_var=variances[: depth + 1],
        leaf_mean=means[depth + 1 :],
        leaf_var=variances[depth + 1 :],
        node_distributions=node_hist,
        mean_normalization=lam_sum,
        mean_entropy_bits=entropy_sum / mass_with_leaves if mass_with_leaves else 0.0,
        mean_avg_length=length_sum / mass_with_leaves if mass_with_leaves else 0.0,
        leafless_probability=1.0 - mass_with_leaves,
    )
