"""Monte Carlo ensembles over (p, depth) cells with CSV emission.

Each cell draws ``samples`` independent clusters through the counter-based
streams of :mod:`perccode.percolate` (sample i uses the stream keyed by
``(seed, i)``), tallies them, and estimates means and standard errors of
the final-generation node count, per-generation leaf counts, per-cluster
entropy and average codeword length, plus the extinction frequency.

Clusters without leaves have no defined entropy/length; they are excluded
from those two averages and counted in ``skipped_leafless``.  Standard
errors are sample standard deviation / sqrt(count used).

A cell is tallied in one call of :func:`~perccode.percolate.sample_tallies`
and its entropy and length found once per distinct leaf-count row; every
number is the one the per-sample path gives.

Determinism: every per-sample result lands in a slot of a preallocated
array indexed by sample, and reductions always run over the full arrays.
A call shares no mutable state with other calls, so cells run
concurrently give byte-identical output.  The stream key ignores cell
position, so a (p, depth, samples, seed) row is the same whether run
alone or inside any sweep.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import analytic
from .analytic import DomainError, ModelParams
from .infomeasure import _leaf_measures
from .percolate import RNG_VERSION, sample_tallies

__all__ = [
    "CSV_COLUMNS",
    "EnsembleConfig",
    "EnsembleStats",
    "run_ensemble",
    "sweep",
    "csv_text",
]

CSV_COLUMNS = [
    "p",
    "depth",
    "samples",
    "used",
    "skipped_leafless",
    "extinct_frac",
    "mean_N_final",
    "se_N_final",
    "mean_H_bits",
    "se_H_bits",
    "mean_L",
    "se_L",
    "analytic_H_bits",
    "analytic_L",
    "analytic_lambda",
]


@dataclass(frozen=True)
class EnsembleConfig:
    """A (p, depth) grid to sweep: cells are all combinations, row order is
    p-major then depth."""

    p_values: list[float]
    depths: list[int]
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        for p in self.p_values:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"p must lie in [0, 1], got {p!r}")
        for d in self.depths:
            if d < 1:
                raise ValueError(f"depth must be >= 1, got {d}")


@dataclass(frozen=True)
class EnsembleStats:
    """Estimates for one (p, depth) cell.

    ``used + skipped_leafless == samples``; entropy/length means are 0.0
    with ``used == 0`` when every sample was leafless.  The analytic
    columns hold the closed-form large-depth values where their series
    converge, else None.
    """

    p: float
    depth: int
    samples: int
    seed: int
    used: int
    skipped_leafless: int
    extinct_frac: float
    mean_N_final: float
    se_N_final: float
    mean_H_bits: float
    se_H_bits: float
    mean_L: float
    se_L: float
    mean_leaf_counts: list[float] = field(repr=False)
    se_leaf_counts: list[float] = field(repr=False)
    analytic_H_bits: float | None = None
    analytic_L: float | None = None
    analytic_lambda: float | None = None


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = float(values.mean())
    if n < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(n))


# Leaf-count rows turned into keys and lists at a time, which bounds the
# memory those Python objects take in a large cell.
_KEYED_ROWS = 1 << 12


def run_ensemble(params: ModelParams, depth: int, samples: int, seed: int) -> EnsembleStats:
    """Estimate one (p, depth) cell from ``samples`` independent clusters;
    ``seed`` and every sample index must lie in [0, 2**64)."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    n_final, leaf_counts = sample_tallies(params, depth, seed, samples)
    # Entropy and length depend on the leaf counts alone, so they are found
    # once per distinct row, keyed by the row's bytes.  They stay scalar:
    # NumPy's log2 and power differ from the math module's in the last bit
    # for a few inputs in a thousand.
    per_sample = np.empty((samples, 2))
    powers = [params.p**n for n in range(depth)]
    row_bytes = np.dtype((np.void, leaf_counts.itemsize * depth))
    measured = {}
    for lo in range(0, samples, _KEYED_ROWS):
        rows = leaf_counts[lo : lo + _KEYED_ROWS]
        keys = rows.view(row_bytes).ravel().tolist()
        for key, row in zip(keys, rows.tolist()):
            if key not in measured:
                measured[key] = _leaf_measures(row, powers)[1:]
        # a leafless row's (None, None) is stored as NaN
        per_sample[lo : lo + len(keys)] = [measured[key] for key in keys]
    entropy, length = per_sample.T
    alive = n_final > 0

    usable = ~np.isnan(entropy)
    used = int(np.count_nonzero(usable))
    mean_n, se_n = _mean_se(n_final.astype(float))
    mean_h, se_h = _mean_se(entropy[usable])
    mean_l, se_l = _mean_se(length[usable])
    leaf_mean = [float(x) for x in leaf_counts.mean(axis=0)]
    leaf_se = [
        float(leaf_counts[:, g].std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
        for g in range(depth)
    ]

    try:
        a_h = analytic.expected_entropy(params)
        a_l = analytic.expected_code_length(params)
        a_lam = analytic.lambda_mean(params)
    except DomainError:
        a_h = a_l = a_lam = None

    return EnsembleStats(
        p=params.p,
        depth=depth,
        samples=samples,
        seed=seed,
        used=used,
        skipped_leafless=samples - used,
        extinct_frac=float(np.count_nonzero(~alive)) / samples,
        mean_N_final=mean_n,
        se_N_final=se_n,
        mean_H_bits=mean_h,
        se_H_bits=se_h,
        mean_L=mean_l,
        se_L=se_l,
        mean_leaf_counts=leaf_mean,
        se_leaf_counts=leaf_se,
        analytic_H_bits=a_h,
        analytic_L=a_l,
        analytic_lambda=a_lam,
    )


def _cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def csv_text(rows: list[EnsembleStats]) -> str:
    """The fixed-column CSV (leading comment row carries the RNG tag)."""
    lines = [f"# rng_version={RNG_VERSION}", ",".join(CSV_COLUMNS)]
    for r in rows:
        fields = [
            repr(r.p),
            str(r.depth),
            str(r.samples),
            str(r.used),
            str(r.skipped_leafless),
            repr(r.extinct_frac),
            repr(r.mean_N_final),
            repr(r.se_N_final),
            repr(r.mean_H_bits),
            repr(r.se_H_bits),
            repr(r.mean_L),
            repr(r.se_L),
            _cell(r.analytic_H_bits),
            _cell(r.analytic_L),
            _cell(r.analytic_lambda),
        ]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def sweep(config: EnsembleConfig, log=sys.stderr) -> list[EnsembleStats]:
    """Run every (p, depth) cell of the grid."""
    rows = []
    for p in config.p_values:
        params = ModelParams(p)
        for depth in config.depths:
            start = time.perf_counter()
            rows.append(run_ensemble(params, depth, config.samples, config.seed))
            wall = time.perf_counter() - start
            if log is not None:
                print(
                    f"[sweep] p={p} depth={depth} samples={config.samples} done"
                    f" in {wall:.3g} s ({config.samples / wall:.0f} samples/s)",
                    file=log,
                )
    return rows

