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

from .analytic import unit_interval
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


def measures(t: GenerationTally, p: float) -> ConfigMeasures:
    """Lambda, entropy and average codeword length of one cluster at once.

    Each of the L_n leaves at generation n has probability p^n / Lambda;
    the average length is sum_n n * L_n * p^n / Lambda.  Entropy and
    length are None when Lambda = 0.
    """
    p = unit_interval("p", p)
    terms = [(n, count, p**n) for n, count in enumerate(t.leaf_counts) if count]
    lam = math.fsum([count * w for _, count, w in terms])
    entropy = length = None
    if lam > 0.0:
        entropy = 0.0
        for _, count, w in terms:
            prob = w / lam
            if prob > 0.0:
                entropy -= count * prob * math.log2(prob)
        length = math.fsum([n * count * w for n, count, w in terms]) / lam
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

    Each distinct row, keyed by its bytes, is measured once, and all of them
    a generation at a time, adding the terms in :func:`measures`' order.
    NumPy does only products, quotients and differences, which round as in
    Python; log2 and the powers stay the math module's and Python's, which
    NumPy's differ from in the last bit for a few inputs in a thousand.
    """
    p = unit_interval("p", p)
    leaves = np.ascontiguousarray(leaves, dtype=np.int64)
    if len(leaves) == 0:
        return np.empty((0, 3))
    if leaves.shape[1] == 0:
        # leafless, as a zero column says too, which unlike a 0-byte row has a key
        leaves = np.zeros((len(leaves), 1), dtype=np.int64)
    n_rows, depth = leaves.shape
    row_bytes = np.dtype((np.void, leaves.itemsize * depth))
    distinct, inverse = {}, np.empty(n_rows, dtype=np.intp)
    for lo in range(0, n_rows, _KEYED_ROWS):
        keys = leaves[lo : lo + _KEYED_ROWS].view(row_bytes).ravel().tolist()
        inverse[lo : lo + len(keys)] = [distinct.setdefault(key, len(distinct)) for key in keys]
    counts = np.frombuffer(b"".join(distinct), dtype=np.int64).reshape(-1, depth)
    if depth > 1 and counts.max(initial=0) > np.iinfo(np.int64).max // (depth - 1):
        raise ValueError(f"a leaf count past 2**63 / {depth - 1} overflows n * L_n in int64")
    powers = [p**n for n in range(depth)]
    parts = []
    for rows in np.array_split(counts, range(_KEYED_ROWS, len(counts), _KEYED_ROWS)):
        lam = np.fromiter(map(math.fsum, (rows * powers).tolist()), float)
        numerator = np.fromiter(map(math.fsum, (rows * np.arange(depth) * powers).tolist()), float)
        # a leafless row (Lambda = 0) has no generation with a term, so stays NaN
        entropy = np.where(lam > 0.0, 0.0, np.nan)
        for n, w in enumerate(powers):
            at = np.flatnonzero(rows[:, n] * w)
            prob = w / lam[at]
            at, prob = at[prob > 0.0], prob[prob > 0.0]
            entropy[at] -= rows[at, n] * prob * np.fromiter(map(math.log2, prob.tolist()), float)
        length = np.divide(numerator, lam, out=np.full(len(lam), np.nan), where=lam > 0.0)
        parts.append(np.column_stack([lam, entropy, length]))
    return np.concatenate(parts)[inverse]
