"""Ground-truth engines for desk-scale cross-validation.

Two independent routes to exact answers:

* polynomial composition of the offspring generating function gives the
  exact law of the generation-n node count as a plain array, and binomial
  thinning of it (each node a leaf with probability q^2) the exact joint
  law of node and leaf counts as a matrix;
* exhaustive enumeration walks every open/closed assignment of a shallow
  truncated tree's edges, weighting each by p^(#open) q^(#closed).  The
  node and leaf counts of every assignment are read straight off its edge
  bits, all assignments at once, without building a cluster or calling the
  sampler's ``tally`` (a per-assignment test checks that ``tally`` against
  these counts); each leaf-count row is measured by the ensemble's own
  ``infomeasure.row_measures``.

Both are deliberately capped at small sizes; they exist to validate the
closed forms and the sampler, not to scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import ModelParams
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
    if n < 0:
        raise ValueError(f"generation must be >= 0, got {n}")
    if n > MAX_DIST_GENERATION:
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
    if n < 1:
        raise ValueError(f"generation must be >= 1, got {n}")
    if n > MAX_JOINT_GENERATION:
        raise SizeError(f"generation {n} exceeds cap {MAX_JOINT_GENERATION}")
    nodes = node_distribution(params, n)
    thinning, row = np.zeros((len(nodes), len(nodes))), np.array([1.0])
    for j in range(len(nodes)):
        thinning[j, : j + 1] = row
        row = np.convolve(row, [params.u0, params.u1])
    return nodes[:, None] * thinning


@functools.cache
def _enumerated_tallies(depth: int) -> tuple[np.ndarray, ...]:
    """What enumerations at ``depth`` share whatever p is, read-only: per
    configuration its open-edge count, its node-count row N_0..N_d
    and the index of its leaf-count row L_0..L_{d-1} among the distinct ones.

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
    leaf_rows = leaves[first]
    for array in (opened, node_rows, leaf_rows, inverse):
        array.flags.writeable = False
    return opened, node_rows, leaf_rows, inverse


def exact_enumeration(params: ModelParams, depth: int) -> ExactStats:
    """Exact expectations over all 2^E edge configurations (E = 2^(depth+1)-2).

    Each configuration is weighted by p^(#open) q^(#closed) over *all*
    edges of the truncated tree.  Its per-generation node and leaf counts
    come from its edge bits alone, with no cluster built and no call to the
    sampler's ``tally``; the leaf-count rows go through
    :func:`~perccode.infomeasure.row_measures` at the one cut ``[depth]``,
    which measures each distinct row once (10 at depth 3), with certified
    column sums and an fsum fallback.  The counts do not depend on p, so
    they are worked out once per depth and kept.  All sums run over the 2^E
    configurations in order.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth > MAX_ENUM_DEPTH:
        raise SizeError(f"depth {depth} exceeds cap {MAX_ENUM_DEPTH}")
    p, q = params.p, params.q
    n_edges = 2 ** (depth + 1) - 2
    opened, node_rows, leaf_rows, inverse = _enumerated_tallies(depth)
    # a configuration's weight depends only on how many edges it opens
    weights = np.array([p**k * q ** (n_edges - k) for k in range(n_edges + 1)])[opened]
    nodes = node_rows.astype(float)
    # distinct leaf-count rows, spread back to one per configuration
    leaves = leaf_rows.astype(float)[inverse]
    # entropy and length are NaN together, where Lambda = 0
    (measured,) = row_measures(leaf_rows, p, [depth])
    lams, entropies, lengths = measured[inverse].T
    # bincount adds the weights in mask order, one configuration at a time
    node_hist = [
        np.bincount(node_rows[:, g], weights=weights, minlength=2**g + 1)
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

    # a leafless configuration adds an exact 0 to the sums over those with leaves
    mass_with_leaves = wmean(~np.isnan(entropies))
    mean_entropy = mean_length = 0.0
    if mass_with_leaves > 0.0:
        mean_entropy = wmean(np.nan_to_num(entropies)) / mass_with_leaves
        mean_length = wmean(np.nan_to_num(lengths)) / mass_with_leaves

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
        leafless_probability=1.0 - mass_with_leaves,
    )
