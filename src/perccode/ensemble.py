"""Monte Carlo ensembles over (p, depth) cells with CSV emission.

Each cell draws ``samples`` independent clusters through the counter-based
streams of :mod:`perccode.percolate` (sample i uses the stream keyed by
``(seed, i)``), tallies them, and estimates means and standard errors of
the final-generation node count, per-generation leaf counts, per-cluster
entropy and average codeword length, plus the extinction frequency.

Clusters without leaves have no defined entropy/length; they are excluded
from those two averages and counted in ``skipped_leafless``.  Standard
errors are sample standard deviation / sqrt(count used).

Sampling in blocks: one generator is re-keyed to ``(seed, i)`` before each
sample, which draws its first ``k`` uniforms in one call.  Drawing ``a``
numbers and then ``b`` reads what drawing ``a + b`` reads, so a block holds
the per-generation batches of :func:`~perccode.percolate.sample_tally`
back to back, and a chunk of samples is tallied one generation at a time
for all of them at once.  A cluster that needs more than ``k`` uniforms is
drawn again by ``sample_tally`` itself.  ``measures`` runs once per
distinct leaf-count row.  Every number is the one the per-sample path gives.

Determinism: every per-sample result lands in a slot of a preallocated
array indexed by sample, and reductions always run over the full arrays.
A call shares no mutable state with other calls, so cells run
concurrently give byte-identical output.  The stream key ignores cell
position, so a (p, depth, samples, seed) row is the same whether run
alone or inside any sweep.
"""

from __future__ import annotations

import io
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import analytic
from .analytic import DomainError, ModelParams
from .infomeasure import measures
from .percolate import RNG_VERSION, GenerationTally, SampleStreams, sample_tally

__all__ = [
    "CSV_COLUMNS",
    "EnsembleConfig",
    "EnsembleStats",
    "run_ensemble",
    "sweep",
    "write_csv",
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


# A block holds about this many times the cell's expected uniform count
# 2 * sum_{g < depth} (2p)^g, which fits most clusters whole.
_BLOCK_FACTOR = 4
# Past this expected count nearly every cluster outgrows any block worth
# drawing, so the block only catches those that die out early.
_BLOCK_CAP = 512
_SMALL_BLOCK = 32
# Uniforms held at once (chunk x block): with their flags and running
# counts, a working set of about 1 MB.
_CHUNK_UNIFORMS = 1 << 16


def _block_size(p: float, depth: int) -> int:
    """Uniforms drawn up front per sample, a multiple of 4 (two per node)."""
    expected, batch = 0.0, 2.0
    for _ in range(depth):
        expected += batch
        # stopping here keeps (2p)^g of a deep supercritical cell finite
        if expected > _BLOCK_CAP:
            return _SMALL_BLOCK
        batch *= 2.0 * p
    return 4 * math.ceil(_BLOCK_FACTOR * expected / 4)


def _chunk_tallies(params: ModelParams, depth: int, streams: SampleStreams):
    """Yield ``(start, nodes, leaves)`` for consecutive chunks of samples:
    node counts N_0..N_depth and leaf counts L_0..L_{depth-1}, one row per
    sample from ``start`` on.  The arrays are reused by the next chunk.

    Generation g of a sample reads flags s_g .. s_g + 2 N_g - 1 of its
    block, so with C[j] the open flags among the first j,
    N_{g+1} = C[s_g + 2 N_g] - C[s_g]; L_g counts closed pairs the same way.
    """
    p = params.p
    samples = streams.count
    k = _block_size(p, depth)
    chunk = min(samples, _CHUNK_UNIFORMS // k)
    uniforms = np.empty((chunk, k))
    open_before = np.zeros((chunk, k + 1), dtype=np.int32)
    leaves_before = np.zeros((chunk, k // 2 + 1), dtype=np.int32)
    nodes = np.zeros((chunk, depth + 1), dtype=np.int64)
    leaves = np.zeros((chunk, depth), dtype=np.int64)
    nodes[:, 0] = 1
    for start in range(0, samples, chunk):
        n = min(chunk, samples - start)
        for r in range(n):
            streams.at(start + r).random(out=uniforms[r])
        flags = uniforms[:n] < p
        np.cumsum(flags, axis=1, out=open_before[:n, 1:])
        # a node's two flags read as one 16-bit word are zero iff it is a leaf
        np.cumsum(flags.view(np.uint16) == 0, axis=1, out=leaves_before[:n, 1:])
        open_flat = open_before[:n].ravel()
        leaf_flat = leaves_before[:n].ravel()
        open_row = np.arange(n) * (k + 1)
        leaf_row = np.arange(n) * (k // 2 + 1)
        first = np.zeros(n, dtype=np.int64)
        count = np.ones(n, dtype=np.int64)
        overflow = np.zeros(n, dtype=bool)
        for g in range(depth):
            end = first + 2 * count
            overflow |= end > k
            # rows past their block read garbage here and are redone below
            np.minimum(end, k, out=end)
            leaves[:n, g] = leaf_flat[leaf_row + end // 2] - leaf_flat[leaf_row + first // 2]
            count = open_flat[open_row + end] - open_flat[open_row + first]
            nodes[:n, g + 1] = count
            first = end
        for r in np.flatnonzero(overflow).tolist():
            t = sample_tally(params, depth, streams.at(start + r))
            nodes[r] = t.node_counts
            leaves[r] = t.leaf_counts
        yield start, nodes[:n], leaves[:n]


def run_ensemble(params: ModelParams, depth: int, samples: int, seed: int) -> EnsembleStats:
    """Estimate one (p, depth) cell from ``samples`` independent clusters;
    ``seed`` and every sample index must lie in [0, 2**64)."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    streams = SampleStreams(seed, samples)
    n_final = np.zeros(samples, dtype=np.int64)
    leaf_counts = np.zeros((samples, depth), dtype=np.int64)
    entropy = np.full(samples, np.nan)
    length = np.full(samples, np.nan)
    # Entropy and length depend on the leaf counts alone, so measures runs
    # once per distinct row.  It stays scalar: NumPy's log2 and power differ
    # from the math module's in the last bit for a few inputs in a thousand.
    measured = {}
    for start, nodes, leaves in _chunk_tallies(params, depth, streams):
        n_final[start : start + len(nodes)] = nodes[:, depth]
        leaf_counts[start : start + len(leaves)] = leaves
        for i, (node_row, leaf_row) in enumerate(zip(nodes, leaves), start):
            key = leaf_row.tobytes()
            value = measured.get(key)
            if value is None:
                m = measures(GenerationTally(depth, node_row.tolist(), leaf_row.tolist()), params.p)
                value = measured[key] = (
                    (m.entropy_bits, m.avg_length) if m.entropy_bits is not None else (np.nan, np.nan)
                )
            entropy[i], length[i] = value
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


def write_csv(rows: list[EnsembleStats], out) -> None:
    """Emit the fixed-column CSV (leading comment row carries the RNG tag)."""
    out.write(f"# rng_version={RNG_VERSION}\n")
    out.write(",".join(CSV_COLUMNS) + "\n")
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
        out.write(",".join(fields) + "\n")


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


def csv_text(rows: list[EnsembleStats]) -> str:
    """CSV as a string (handy for stdout emission and byte-level tests)."""
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()
