"""Per-cluster information quantities under the Bernoulli leaf measure.

A leaf at generation n carries un-normalized weight p^n.  For one cluster
(given as its :class:`~perccode.percolate.GenerationTally`) this module
computes the exact normalization Lambda = sum_n L_n p^n, the Shannon
entropy in bits of the normalized leaf distribution, and the average
codeword length (a leaf's codeword length equals its generation).

Only per-generation leaf counts matter.  :func:`measures` takes one
cluster's tally; :func:`row_measures` takes a matrix of leaf-count rows and
the depths to cut it at, and measures each distinct row once (certified
column sums with an fsum fallback, every cut in one pass).  It is the one
path the ensemble and the exact enumeration oracle measure rows with.
A leafless tally has Lambda = 0 and no defined entropy or length;
:func:`measures` reports those as None, :func:`row_measures` as NaN.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .analytic import integer, unit_interval

__all__ = ["ConfigMeasures", "measures", "row_measures"]


@dataclass(frozen=True)
class ConfigMeasures:
    """Normalization, entropy (bits) and average codeword length of one
    cluster; the latter two are None when the cluster has no leaves."""

    normalization: float
    entropy_bits: float | None
    avg_length: float | None
    leaf_total: int


def measures(t, p: float) -> ConfigMeasures:
    """Lambda, entropy and average codeword length of one cluster at once,
    from the ``leaf_counts`` of its tally ``t``.

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


# Leaf-count rows keyed, and distinct rows measured, at a time, which bounds
# the memory their Python objects and float temporaries take.
_KEYED_ROWS = 1 << 12


def _certified_sums(terms: np.ndarray, cuts: list[int]) -> np.ndarray:
    """``math.fsum(terms[:d, j])`` of every column j of terms >= 0 at each d of
    the ascending ``cuts``, as a ``(len(cuts), columns)`` array.

    TwoSum runs down the rows (Ogita, Rump and Oishi's Sum2, SIAM J. Sci.
    Comput. 2005): the sum S of the first d terms is s plus TwoSum's errors
    q_i, which e adds up.  With k = d - 1, u = 2**-53 and g_k = ku / (1 - ku),
    sum |q_i| <= g_k S and |e - sum q_i| <= g_{k-1} sum |q_i|, so
    S = s + e + eps with |eps| <= g_k^2 S.  As |e| <= s, r = fl(s + e) leaves
    delta = (s - r) + e equal to s + e - r exactly (Fast2Sum), and
    S - r = delta + eps.  So r is S rounded to nearest if |delta| + |eps| is
    below half the gap from r down to the next float, the narrower of r's two
    gaps (half the other below a power of two).  The bound
    b = 3 d^2 u^2 max(r, 2**-900) is >= |eps| wherever |delta| + b < gap / 2,
    as S <= r (1 + 2u) there, with room for b's own rounding, which the floor
    keeps off subnormals.  A sum failing that test, such as an exact tie or a
    zero, tiny or non-finite sum, is math.fsum's.
    """
    s, e = np.zeros(terms.shape[1]), np.zeros(terms.shape[1])
    sums, done = np.empty((len(cuts), terms.shape[1])), 0
    for i, d in enumerate(cuts):
        for t in terms[done:d]:
            total = s + t
            virtual = total - s
            e += (s - (total - virtual)) + (t - virtual)
            s = total
        done = d
        r = sums[i] = s + e
        bound = 3 * d * d * 2.0**-106 * np.maximum(r, 2.0**-900)
        redo = np.flatnonzero(~(np.abs((s - r) + e) + bound < (r - np.nextafter(r, 0.0)) / 2))
        sums[i, redo] = list(map(math.fsum, terms[:d, redo].T.tolist()))
    return sums


def _measured(rows: np.ndarray, lam: np.ndarray, num: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """``(Lambda, entropy, average length)`` of rows L_0 ... L_{d-1} from their
    sums, with one log2 map over every (row, generation) cell with a term."""
    entropy = np.where(lam > 0.0, 0.0, np.nan)
    gen, at = np.nonzero(rows.T * powers[: rows.shape[1], None])
    prob = powers[gen] / lam[at]
    gen, at, prob = gen[prob > 0.0], at[prob > 0.0], prob[prob > 0.0]
    terms = rows[at, gen] * prob * np.fromiter(map(math.log2, prob.tolist()), float, len(prob))
    # the terms come generation-major and ufunc.at applies them in index order,
    # so each row subtracts its terms in measures' order
    np.subtract.at(entropy, at, terms)
    length = np.divide(num, lam, out=np.full(len(lam), np.nan), where=lam > 0.0)
    return np.column_stack([lam, entropy, length])


def row_measures(leaves: np.ndarray, p: float, depths: Iterable[int]) -> Iterator[np.ndarray]:
    """``(Lambda, entropy, average length)`` of each row of an integer matrix
    of leaf counts L_0 ... L_{d-1} cut to its first d columns, for each d of
    ``depths`` in turn: an ``(n, 3)`` float array made as it is asked for,
    equal to :func:`measures` row by row, with NaN for its None.  A depth
    past the matrix's columns raises ValueError, as do counts that are not
    integers (bool included), a negative count, and a count whose n * L_n
    overflows int64.

    Each distinct row, keyed by its bytes in the matrix's own dtype and
    widened to int64, is measured once.  One cascade of
    :func:`_certified_sums` gives Lambda and the length numerator at every
    cut, and a cut below the deepest re-measures only the rows with a leaf
    past it.  NumPy does only products, quotients and differences, which round
    as in Python; log2 and the powers stay the math module's and Python's,
    which NumPy's differ from in the last bit for a few inputs in a thousand.
    """
    p = unit_interval("p", p)
    depths = [integer("depth", d, 0) for d in depths]
    cuts = sorted(set(depths)) or [0]
    if cuts[-1] > leaves.shape[1]:
        raise ValueError(f"depth {cuts[-1]} cuts past the matrix's {leaves.shape[1]} leaf columns")
    if leaves.dtype.kind not in "iu":  # a float would be truncated, and bool is no count
        raise ValueError(f"leaf counts must be integers, got dtype {leaves.dtype}")
    # a depth-0 cut is leafless, as a zero column says, which unlike a 0-byte row has a key
    leaves = np.ascontiguousarray(leaves[:, : cuts[-1]]) if cuts[-1] else np.zeros((len(leaves), 1), np.int64)
    n_rows, depth = leaves.shape
    row_bytes = np.dtype((np.void, leaves.itemsize * depth))
    distinct, inverse = {}, np.empty(n_rows, dtype=np.intp)
    for lo in range(0, n_rows, _KEYED_ROWS):
        keys = leaves[lo : lo + _KEYED_ROWS].view(row_bytes).ravel().tolist()
        inverse[lo : lo + len(keys)] = [distinct.setdefault(key, len(distinct)) for key in keys]
    counts = np.frombuffer(b"".join(distinct), leaves.dtype).reshape(-1, depth)
    del distinct  # its keys, joined in counts
    if counts.min(initial=0) < 0:
        raise ValueError(f"leaf counts must be >= 0, got {counts.min()}")
    if counts.max(initial=0) > np.iinfo(np.int64).max // max(depth - 1, 1):
        raise ValueError(f"a leaf count past 2**63 / {max(depth - 1, 1)} overflows n * L_n in int64")
    powers = np.array([p**n for n in range(depth)])
    weights, lengths = powers[:, None], np.arange(depth)[:, None]
    measured = np.empty((len(cuts), len(counts), 3))
    for lo in range(0, len(counts), _KEYED_ROWS):
        rows = counts[lo : lo + _KEYED_ROWS].astype(np.int64)  # widened a chunk at a time
        out = measured[:, lo : lo + _KEYED_ROWS]
        # Lambda's terms L_n p^n beside the length numerator's n L_n p^n
        terms = np.concatenate([rows.T * weights, rows.T * lengths * weights], axis=1)
        lam, num = np.split(_certified_sums(terms, cuts), 2, axis=1)
        out[:] = _measured(rows[:, : cuts[-1]], lam[-1], num[-1], powers)
        for i, d in enumerate(cuts[:-1]):
            # zero counts add no term to a measure: only rows with a leaf past d change
            past = np.flatnonzero(rows[:, d:].any(axis=1))
            out[i, past] = _measured(rows[past, :d], lam[i, past], num[i, past], powers)
    return (measured[cuts.index(d)].take(inverse, axis=0) for d in depths)
