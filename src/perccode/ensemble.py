"""Monte Carlo ensembles over (p, depth) cells with CSV emission.

Each cell draws ``samples`` independent clusters through the counter-based
streams of :mod:`perccode.percolate` (sample i uses the stream keyed by
``(seed, i)``), tallies them, and estimates means and standard errors of
the final-generation node count, per-generation leaf counts, per-cluster
entropy and average codeword length, plus the extinction frequency.

Clusters without leaves have no defined entropy/length; they are excluded
from those two averages and counted in ``skipped_leafless``.  Standard
errors are sample standard deviation / sqrt(count used).

Every cell is a row of :func:`sweep`, and :func:`run_ensemble` is the sweep
of one cell.  A sweep draws its grid once, at its deepest depth, through
:func:`~perccode.percolate.grid_tallies`, and measures each p's leaf-count
rows by :func:`~perccode.infomeasure.row_measures`, once per distinct row,
with certified column sums and an fsum fallback, every cut in one pass;
every number is the one the per-sample path gives.  A cluster cut at
generation ``d`` is the cluster grown to bound ``d``, so every shallower
cell is read off the same tallies and measures.

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
from .analytic import DomainError, ModelParams, integer, unit_interval
from .infomeasure import row_measures
from .percolate import RNG_VERSION, grid_tallies

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
_REDUCE_ELEMENTS = 1 << 20  # leaf counts a cell copies at a time to reduce them


@dataclass(frozen=True)
class EnsembleConfig:
    """A (p, depth) grid to sweep: cells are all combinations, row order is
    p-major then depth."""

    p_values: list[float]
    depths: list[int]
    samples: int
    seed: int

    def __post_init__(self):
        integer("samples", self.samples, 1)
        for p in self.p_values:
            unit_interval("p", p)
        for d in self.depths:
            integer("depth", d, 1)


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
    analytic_H_bits: float | None
    analytic_L: float | None
    analytic_lambda: float | None
    mean_leaf_counts: list[float] = field(repr=False)
    se_leaf_counts: list[float] = field(repr=False)


def run_ensemble(params: ModelParams, depth: int, samples: int, seed: int) -> EnsembleStats:
    """Estimate one (p, depth) cell from ``samples`` independent clusters;
    ``seed`` and every sample index must lie in [0, 2**64).  It is the
    one-cell :func:`sweep`, run without a log."""
    return sweep(EnsembleConfig([params.p], [depth], samples, seed), log=None)[0]


def _column_stats(block: np.ndarray) -> tuple[list[float], list[float]]:
    """Mean and standard error of each column of ``block``, a block of columns at a time:
    NumPy reduces each contiguous row in the order it gives that column alone.  Both are
    0.0 with no rows, and the SE is 0.0 with one."""
    rows, width = block.shape
    mean, se = [0.0] * width, [0.0] * width
    if not rows:
        return mean, se
    step = max(1, _REDUCE_ELEMENTS // rows)
    for g in range(0, width, step):
        columns = np.ascontiguousarray(block[:, g : g + step].T)
        mean[g : g + step] = columns.mean(axis=1).tolist()
        if rows > 1:
            se[g : g + step] = (columns.std(axis=1, ddof=1) / math.sqrt(rows)).tolist()
    return mean, se


def _cell_stats(params, seed: int, nodes, leaf_stats, depth: int, measured) -> EnsembleStats:
    """The row of the ``depth`` cell from one p's node tallies and the ``_column_stats``
    of its leaf counts at a depth bound of ``depth`` or deeper, cut to ``depth``, and
    ``row_measures`` of the cut."""
    n_final = nodes[:, depth]
    samples = len(n_final)
    _, entropy, length = measured.T
    usable = ~np.isnan(entropy)
    used = int(np.count_nonzero(usable))
    # reduced as float64; an int32 column gives the same bits only while its sum is exact
    (mean_n,), (se_n,) = _column_stats(n_final[:, None].astype(float))
    # the 1-D selections take a few µs, and measured[usable, 1:] takes several times as long
    (mean_h, mean_l), (se_h, se_l) = _column_stats(np.column_stack((entropy[usable], length[usable])))

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
        extinct_frac=float(np.count_nonzero(n_final == 0)) / samples,
        mean_N_final=mean_n,
        se_N_final=se_n,
        mean_H_bits=mean_h,
        se_H_bits=se_h,
        mean_L=mean_l,
        se_L=se_l,
        analytic_H_bits=a_h,
        analytic_L=a_l,
        analytic_lambda=a_lam,
        mean_leaf_counts=leaf_stats[0][:depth],
        se_leaf_counts=leaf_stats[1][:depth],
    )


def _cell(value: float | int | None) -> str:
    # str of a Python float is its repr, the shortest form that reads back
    return "" if value is None else str(value)


def csv_text(rows: list[EnsembleStats]) -> str:
    """The fixed-column CSV (leading comment row carries the RNG tag)."""
    lines = [f"# rng_version={RNG_VERSION}", ",".join(CSV_COLUMNS)]
    lines += [",".join(_cell(getattr(r, c)) for c in CSV_COLUMNS) for r in rows]
    return "\n".join(lines) + "\n"


# sweep's default log, the sys.stderr of the call: a redirect_stderr may have replaced it
_STDERR = object()


def sweep(config: EnsembleConfig, log=_STDERR) -> list[EnsembleStats]:
    """Run every (p, depth) cell of the grid, with a line per cell to ``log``
    (``None`` for none).

    The grid is drawn once, at the deepest depth, and each p's rows measured
    at every depth in one pass; a cell's row is the same in any grid.  A
    cell's line books the time since the line before, or since the sweep
    began, so the shared draw falls on the first cell and the lines add up to
    the sweep's wall time."""
    log = sys.stderr if log is _STDERR else log
    rows = []
    if not config.depths:
        return rows
    grid = [ModelParams(p) for p in config.p_values]
    start = time.perf_counter()
    tallies = grid_tallies(grid, max(config.depths), config.seed, config.samples)
    for p, params, (nodes, leaves) in zip(config.p_values, grid, tallies):
        leaf_stats = _column_stats(leaves)
        for depth, measured in zip(config.depths, row_measures(leaves, params.p, config.depths)):
            rows.append(_cell_stats(params, config.seed, nodes, leaf_stats, depth, measured))
            now = time.perf_counter()
            wall, start = now - start, now
            if log is not None:
                print(
                    f"[sweep] p={p} depth={depth} samples={config.samples} done"
                    f" in {wall:.3g} s ({config.samples / wall:.0f} samples/s)",
                    file=log,
                )
    return rows
