"""Per-cluster information quantities under the Bernoulli leaf measure.

A leaf at generation n carries un-normalized weight p^n.  For one cluster
(given as its :class:`~perccode.percolate.GenerationTally`) this module
computes the exact normalization Lambda = sum_n L_n p^n, the Shannon
entropy in bits of the normalized leaf distribution, and the average
codeword length (a leaf's codeword length equals its generation).

Only per-generation leaf counts matter, which is what lets the exact
enumeration oracle cross-check these paths without cluster geometry.
A leafless tally has Lambda = 0 and no defined entropy or length;
:func:`measures` reports those as None and the ensemble skips and
counts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .percolate import GenerationTally

__all__ = ["ConfigMeasures", "measures"]


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


def measures(t: GenerationTally, p: float) -> ConfigMeasures:
    """Lambda, entropy and average codeword length of one cluster at once.

    Each of the L_n leaves at generation n has probability p^n / Lambda;
    the average length is sum_n n * L_n * p^n / Lambda.  Entropy and
    length are None when Lambda = 0.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    p = float(p)
    lam, entropy, length = _leaf_measures(
        t.leaf_counts, [p**n for n in range(len(t.leaf_counts))]
    )
    return ConfigMeasures(
        normalization=lam, entropy_bits=entropy, avg_length=length, leaf_total=sum(t.leaf_counts)
    )
