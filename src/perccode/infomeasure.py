"""Per-cluster information quantities under the Bernoulli leaf measure.

A leaf at generation n carries un-normalized weight p^n.  For one cluster
(given as its :class:`~perccode.percolate.GenerationTally`) this module
computes the exact normalization Lambda = sum_n L_n p^n, the Shannon
entropy in bits of the normalized leaf distribution, and the average
codeword length (a leaf's codeword length equals its generation).

Only per-generation leaf counts matter.  :func:`measures` takes one
cluster's tally; :func:`row_measures` takes a matrix of leaf-count rows,
measures each distinct row once, and is the one path the ensemble and
the exact enumeration oracle turn their rows into numbers with.
A leafless tally has Lambda = 0 and no defined entropy or length;
:func:`measures` reports those as None, :func:`row_measures` as NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .percolate import GenerationTally

__all__ = ["ConfigMeasures", "measures", "row_measures"]


@dataclass(frozen=True)
class ConfigMeasures:
    """Normalization, entropy (bits) and average codeword length of one
    cluster; the latter two are None when the cluster has no leaves."""

    normalization: float
    entropy_bits: float | None
    avg_length: float | None
    leaf_total: int


def _leaf_measures(counts: list[int], powers: list[float]):
    """``(Lambda, entropy, average length)`` of the leaf counts L_0, L_1, ...
    given ``powers[n] = p**n``; entropy and length are None when Lambda = 0."""
    terms = [(n, count, powers[n]) for n, count in enumerate(counts) if count]
    lam = math.fsum([count * w for _, count, w in terms])
    if lam <= 0.0:
        return 0.0, None, None
    entropy = 0.0
    for _, count, w in terms:
        if w > 0.0:
            prob = w / lam
            entropy -= count * prob * math.log2(prob)
    return lam, entropy, math.fsum([n * count * w for n, count, w in terms]) / lam


def _checked_p(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    return float(p)


def measures(t: GenerationTally, p: float) -> ConfigMeasures:
    """Lambda, entropy and average codeword length of one cluster at once.

    Each of the L_n leaves at generation n has probability p^n / Lambda;
    the average length is sum_n n * L_n * p^n / Lambda.  Entropy and
    length are None when Lambda = 0.
    """
    p = _checked_p(p)
    lam, entropy, length = _leaf_measures(
        t.leaf_counts, [p**n for n in range(len(t.leaf_counts))]
    )
    return ConfigMeasures(
        normalization=lam, entropy_bits=entropy, avg_length=length, leaf_total=sum(t.leaf_counts)
    )


# Leaf-count rows turned into keys and lists at a time, which bounds the
# memory those Python objects take for a large matrix.
_KEYED_ROWS = 1 << 12


def row_measures(leaves: np.ndarray, p: float) -> np.ndarray:
    """``(Lambda, entropy, average length)`` of each row of an integer
    matrix of leaf counts L_0 ... L_{d-1}, as an ``(n, 3)`` float array
    equal to :func:`measures` row by row, with NaN for its None.

    Each distinct row is measured once, keyed by its bytes.  The arithmetic
    stays scalar: NumPy's log2 and power differ from the math module's in
    the last bit for a few inputs in a thousand.
    """
    p = _checked_p(p)
    leaves = np.ascontiguousarray(leaves, dtype=np.int64)
    n_rows, depth = leaves.shape
    out = np.empty((n_rows, 3))
    if depth == 0:
        # no generation above the bound holds a leaf, and a 0-byte row has no key
        out[:] = _leaf_measures([], [])
        return out
    powers = [p**g for g in range(depth)]
    row_bytes = np.dtype((np.void, leaves.itemsize * depth))
    measured = {}
    for lo in range(0, n_rows, _KEYED_ROWS):
        rows = leaves[lo : lo + _KEYED_ROWS]
        keys = rows.view(row_bytes).ravel().tolist()
        for key, row in zip(keys, rows.tolist()):
            if key not in measured:
                measured[key] = _leaf_measures(row, powers)
        # a leafless row's (0.0, None, None) is stored as (0.0, NaN, NaN)
        out[lo : lo + len(keys)] = [measured[key] for key in keys]
    return out
