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


def _entropy_given_lam(t: GenerationTally, p: float, lam: float) -> float:
    total = 0.0
    for n, count in enumerate(t.leaf_counts):
        w = p**n
        if count and w > 0.0:
            prob = w / lam
            total -= count * prob * math.log2(prob)
    return total


def _avg_length_given_lam(t: GenerationTally, p: float, lam: float) -> float:
    return math.fsum(n * count * p**n for n, count in enumerate(t.leaf_counts) if count) / lam


def measures(t: GenerationTally, p: float) -> ConfigMeasures:
    """Lambda, entropy and average codeword length of one cluster at once.

    Each of the L_n leaves at generation n has probability p^n / Lambda;
    the average length is sum_n n * L_n * p^n / Lambda.  Entropy and
    length are None when Lambda = 0.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    p = float(p)
    lam = math.fsum(count * p**n for n, count in enumerate(t.leaf_counts) if count)
    leaf_total = sum(t.leaf_counts)
    if lam <= 0.0:
        return ConfigMeasures(
            normalization=0.0, entropy_bits=None, avg_length=None, leaf_total=leaf_total
        )
    return ConfigMeasures(
        normalization=lam,
        entropy_bits=_entropy_given_lam(t, p, lam),
        avg_length=_avg_length_given_lam(t, p, lam),
        leaf_total=leaf_total,
    )
