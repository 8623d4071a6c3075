"""The benchmark's workloads, the checks on their outputs, and a reference sampler.

A workload is a *pass*: a fixed sequence of calls into perccode whose
inputs come from the run's seed and the pass number ``k``, so each pass
draws new clusters.  Only these calls are timed, each on its own (see
:class:`Clock`); checks run between them, untimed, and each checked call
counts into :class:`Checker`.

Each pass also times single clusters one call at a time (the "probe" in
the Monte Carlo workloads, the whole geometry pipeline in
``cluster-geometry``), so every workload reports per-cluster latency.

Every call into the program goes through a module attribute
(``percolate.sample_tally``, never a local alias), so the wrappers that
:mod:`perfbench.tracing` installs on those attributes see it.
"""

from __future__ import annotations

import bisect
import gc
import math
import time
from collections import Counter

import numpy as np

from perccode import analytic, cli, codec, ensemble, infomeasure, oracle, percolate

# The stream contract the reference sampler implements (README, "Sampling").
REFERENCE_RNG_VERSION = "philox-key64x2/v1"

# README, "Sweep CSV".
CSV_HEADER = [
    "p", "depth", "samples", "used", "skipped_leafless", "extinct_frac",
    "mean_N_final", "se_N_final", "mean_H_bits", "se_H_bits", "mean_L", "se_L",
    "analytic_H_bits", "analytic_L", "analytic_lambda",
]

# mean_N_final must lie this many standard errors from (2p)^depth.
SE_TOLERANCE = 5.0

# Times are scaled to the host speed at which calibration() takes this long.
REFERENCE_CALIBRATION_S = 0.005
# A clock calibrates before a call when its last calibration is older than this.
CALIBRATE_EVERY_S = 0.2
# A probe takes tens of microseconds, so one interrupt can double it; each is
# timed this many times back to back and keeps the shortest.
PROBE_BEST_OF = 3


def pass_seed(seed: int, k: int) -> int:
    """Master seed of pass ``k``: a 63-bit mix of the run seed and the pass."""
    state = np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


def warm_up() -> None:
    """First calls into every layer, so lazy set-up is done before timing."""
    params = analytic.ModelParams(0.6)
    cli.build_parser()
    ensemble.csv_text([ensemble.run_ensemble(params, 4, 8, 0)])
    for index in range(4):
        _cluster_pipeline(params, 6, 0, index, np.arange(8))
    oracle.exact_enumeration(params, 2)


# --------------------------------------------------------------------------
# Reference: written from the README's RNG contract, not from the sampler.


def reference_tally(p: float, depth: int, seed: int, index: int) -> tuple[list[int], list[int]]:
    """Node counts N_0..N_depth and leaf counts L_0..L_{depth-1} of one cluster.

    Philox keyed ``(seed, index)``; per generation one batch of ``2 * N_g``
    uniforms, nodes breadth-first, left edge value before right; an edge is
    open iff its value is < p; nodes at the depth bound are never leaves.
    """
    stream = np.random.Generator(np.random.Philox(key=[seed, index]))
    nodes = [1] + [0] * depth
    leaves = [0] * depth
    count = 1
    for gen in range(depth):
        u = stream.random(2 * count)
        left = u[0::2] < p
        right = u[1::2] < p
        leaves[gen] = int(np.count_nonzero(~left & ~right))
        count = int(np.count_nonzero(left)) + int(np.count_nonzero(right))
        nodes[gen + 1] = count
        if count == 0:
            break
    return nodes, leaves


def measure_problems(m, leaves: list[int], p: float) -> list[str]:
    """Compare ``infomeasure.measures`` output with the closed identities
    Lambda = sum L_n p^n and H = log2(Lambda) - Lbar * log2(p)."""
    lam = math.fsum(c * p**n for n, c in enumerate(leaves))
    problems = []
    if not math.isclose(m.normalization, lam, rel_tol=1e-12, abs_tol=0.0):
        problems.append(f"normalization {m.normalization!r} != {lam!r}")
    if m.leaf_total != sum(leaves):
        problems.append(f"leaf_total {m.leaf_total} != {sum(leaves)}")
    if lam == 0.0:
        if m.entropy_bits is not None or m.avg_length is not None:
            problems.append("leafless cluster has an entropy or length")
        return problems
    if m.entropy_bits is None or m.avg_length is None:
        return problems + ["cluster with leaves has no entropy or length"]
    avg = math.fsum(n * c * p**n for n, c in enumerate(leaves)) / lam
    entropy = math.log2(lam) - avg * math.log2(p)
    if not math.isclose(m.avg_length, avg, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"avg_length {m.avg_length!r} != {avg!r}")
    if not math.isclose(m.entropy_bits, entropy, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"entropy_bits {m.entropy_bits!r} != {entropy!r}")
    return problems


def node_count_se(p: float, depth: int, samples: int) -> float:
    """Exact standard error of a mean of ``samples`` generation-``depth`` node
    counts: Galton-Watson variance s2 m^(n-1) (m^n - 1) / (m - 1), with mean
    m = 2p and variance s2 = 2pq of the Binomial(2, p) offspring count
    (s2 * n at m = 1).

    The sample standard error the CSV reports is not used: below p = 1/2
    few samples survive, and it understates the error (at 400 samples of
    (0.45, 16) |z| > 5 occurs in 0.2% of cells, against 0.003% here).
    """
    m, s2 = 2.0 * p, 2.0 * p * (1.0 - p)
    var = s2 * depth if m == 1.0 else s2 * m ** (depth - 1) * (m**depth - 1.0) / (m - 1.0)
    return math.sqrt(var / samples)


def tally_problems(t, nodes: list[int], leaves: list[int]) -> list[str]:
    problems = []
    if list(t.node_counts) != nodes:
        problems.append(f"node counts {list(t.node_counts)} != reference {nodes}")
    if list(t.leaf_counts) != leaves:
        problems.append(f"leaf counts {list(t.leaf_counts)} != reference {leaves}")
    return problems


# --------------------------------------------------------------------------
# Bookkeeping shared by the workloads.


class Checker:
    """Counts checked calls and those whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: " + "; ".join(problems))


class _Slot:
    __slots__ = ("left", "right")

    def __init__(self):
        self.left = self.right = None


def calibration() -> float:
    """Seconds taken by a fixed piece of the benchmark's own work, of the
    kinds the program does: NumPy draws and small-array operations (the
    reference sampler), and building Python objects, dicts and strings.

    The collector is off meanwhile, so the program's heap does not change it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for index in range(20):
            reference_tally(0.6, 16, 12345, index)
        nodes = [_Slot() for _ in range(4000)]
        for i in range(1, len(nodes)):
            setattr(nodes[(i - 1) // 2], "left" if i % 2 else "right", nodes[i])
        docs = [{"gen": i, "left": {"gen": i + 1}} for i in range(3000)]
        text = "".join(str(i) for i in range(3000))
        del nodes, docs, text
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times each call one pass makes into the program, and between calls
    calibrates the host's speed (see :func:`calibration`).

    The host this runs on is shared and changes speed by up to 2x, for
    seconds to minutes at a time; a call's time divided by the calibrations
    on either side of it varies far less (see README).
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.calls: list[tuple[float, float, bool]] = []  # (start, seconds, one cluster?)
        self.calibrations: list[tuple[float, float]] = []  # (start, seconds)

    def calibrate(self) -> None:
        self.calibrations.append((time.perf_counter(), calibration()))

    def run(self, fn, *args, cluster: bool = False, best_of: int = 1):
        """Call ``fn(*args)`` ``best_of`` times and keep the shortest time."""
        if self.tracer is None and (
            not self.calibrations or time.perf_counter() - self.calibrations[-1][0] > CALIBRATE_EVERY_S
        ):
            self.calibrate()
        start, best = time.perf_counter(), math.inf
        for _ in range(best_of):
            if self.tracer is not None:
                out, dt = self.tracer.op(fn, args)
            else:
                t0 = time.perf_counter()
                out = fn(*args)
                dt = time.perf_counter() - t0
            best = min(best, dt)
        self.calls.append((start, best, cluster))
        return out

    def scaled(self) -> list[tuple[float, bool]]:
        """Each call's time at the reference speed: its seconds times
        REFERENCE_CALIBRATION_S over the mean of the calibrations just
        before and just after it."""
        self.calibrate()
        starts = [t for t, _ in self.calibrations]
        out = []
        for start, dt, cluster in self.calls:
            j = bisect.bisect_right(starts, start)
            around = (self.calibrations[j - 1][1] + self.calibrations[j][1]) / 2.0
            out.append((dt * REFERENCE_CALIBRATION_S / around, cluster))
        return out

    @property
    def wall(self) -> float:
        return sum(dt for _, dt, _ in self.calls)


def _probe(params, depth: int, seed: int, index: int):
    # the ensemble's per-sample path, called for one cluster
    t = percolate.sample_tally(params, depth, percolate.cluster_stream(seed, index))
    return t, infomeasure.measures(t, params.p)


# --------------------------------------------------------------------------
# Monte Carlo workloads.


def parse_csv(text: str) -> tuple[list[dict], list[str]]:
    """Rows of a sweep CSV as dicts, plus any format problems."""
    lines = text.splitlines()
    if len(lines) < 2:
        return [], ["CSV has fewer than two lines"]
    problems = []
    if lines[0] != f"# rng_version={REFERENCE_RNG_VERSION}":
        problems.append(f"first line {lines[0]!r} does not carry rng {REFERENCE_RNG_VERSION}")
    if lines[1].split(",") != CSV_HEADER:
        problems.append(f"header {lines[1]!r} differs from the README columns")
    rows = [dict(zip(CSV_HEADER, line.split(","))) for line in lines[2:]]
    return rows, problems


def cell_problems(row: dict, p: float, depth: int, samples: int) -> list[str]:
    """Seed-independent checks on one CSV row."""
    try:
        got = (float(row["p"]), int(row["depth"]), int(row["samples"]))
        used, skipped = int(row["used"]), int(row["skipped_leafless"])
        extinct = float(row["extinct_frac"])
        mean_n = float(row["mean_N_final"])
    except (KeyError, ValueError) as exc:
        return [f"malformed row {row!r}: {exc}"]
    problems = []
    if got != (p, depth, samples):
        problems.append(f"cell {got} != requested {(p, depth, samples)}")
    if used + skipped != samples:
        problems.append(f"used {used} + skipped {skipped} != samples {samples}")
    if not 0.0 <= extinct <= 1.0:
        problems.append(f"extinct_frac {extinct} outside [0, 1]")
    expected = (2.0 * p) ** depth
    se = node_count_se(p, depth, samples)
    if not abs(mean_n - expected) <= SE_TOLERANCE * se:
        problems.append(f"mean_N_final {mean_n} not within {SE_TOLERANCE} SE ({se}) of {expected}")
    converges = 2.0 * p * p < 1.0
    analytic_cells = [row["analytic_H_bits"], row["analytic_L"], row["analytic_lambda"]]
    if not converges and any(analytic_cells):
        problems.append("analytic columns filled outside 2p^2 < 1")
    if converges:
        if not all(analytic_cells):
            problems.append("analytic columns empty inside 2p^2 < 1")
        else:
            lam = (1.0 - p) ** 2 / (1.0 - 2.0 * p * p)
            if not math.isclose(float(row["analytic_lambda"]), lam, rel_tol=1e-12):
                problems.append(f"analytic_lambda {row['analytic_lambda']} != {lam!r}")
    return problems


def reference_cell_problems(row: dict, p: float, depth: int, samples: int, seed: int) -> list[str]:
    """Recompute a whole cell with the reference sampler; integer columns and
    extinct_frac must match exactly."""
    used = extinct = 0
    for i in range(samples):
        nodes, leaves = reference_tally(p, depth, seed, i)
        used += any(leaves)
        extinct += nodes[depth] == 0
    want = {
        "samples": str(samples),
        "used": str(used),
        "skipped_leafless": str(samples - used),
        "extinct_frac": repr(extinct / samples),
    }
    return [
        f"{key} {row.get(key)!r} != reference {value!r}"
        for key, value in want.items()
        if row.get(key) != value
    ]


class MonteCarlo:
    """A pass makes the cells' CSV, then draws ``probes`` clusters of each
    cell one call at a time (best of ``PROBE_BEST_OF``).  Every pass checks
    the CSV row by row and each probe against the reference sampler; pass 0
    also recomputes every cell with it."""

    name = ""
    cells: tuple[tuple[float, int], ...] = ()

    def __init__(self, seed: int, checker: Checker, run_dir, samples: int, probes: int):
        self.seed = seed
        self.checker = checker
        self.run_dir = run_dir
        self.samples = samples
        self.probes = probes
        self.params = {p: analytic.ModelParams(p) for p, _ in self.cells}
        self.samples_per_pass = len(self.cells) * (samples + probes)

    def _cells_csv(self, clock: Clock, seed: int) -> str:
        raise NotImplementedError

    def run_pass(self, clock: Clock, k: int) -> None:
        seed = pass_seed(self.seed, k)
        text = self._cells_csv(clock, seed)
        rows, problems = parse_csv(text)
        if len(rows) != len(self.cells):
            problems.append(f"{len(rows)} rows for {len(self.cells)} cells")
        self.checker.record(f"{self.name} pass {k} CSV", problems)
        for row, (p, depth) in zip(rows, self.cells):
            problems = cell_problems(row, p, depth, self.samples)
            if k == 0:
                problems += reference_cell_problems(row, p, depth, self.samples, seed)
            self.checker.record(f"{self.name} pass {k} cell ({p}, {depth})", problems)
        for p, depth in self.cells:
            params = self.params[p]
            for i in range(self.probes):
                t, m = clock.run(_probe, params, depth, seed, i, cluster=True, best_of=PROBE_BEST_OF)
                nodes, leaves = reference_tally(p, depth, seed, i)
                self.checker.record(
                    f"{self.name} pass {k} probe ({p}, {depth}, {i})",
                    tally_problems(t, nodes, leaves) + measure_problems(m, leaves, p),
                )


class MCSaturating(MonteCarlo):
    """``perccode sweep`` over a grid of small clusters, CSV to a file."""

    name = "mc-saturating"
    cells = tuple((p, d) for p in (0.45, 0.55, 0.6) for d in (12, 14, 16))

    def __init__(self, seed, checker, run_dir, samples=1000, probes=20):
        super().__init__(seed, checker, run_dir, samples, probes)

    def _cells_csv(self, clock: Clock, seed: int) -> str:
        out = self.run_dir / "sweep.csv"
        argv = ["sweep"]
        for p in dict.fromkeys(p for p, _ in self.cells):
            argv += ["--p", repr(p)]
        for d in dict.fromkeys(d for _, d in self.cells):
            argv += ["--depth", str(d)]
        argv += ["--samples", str(self.samples), "--seed", str(seed), "--out", str(out)]
        code = clock.run(cli.main, argv)
        return out.read_text(encoding="ascii") if code == 0 else f"perccode sweep exited {code}"


class MCSupercritical(MonteCarlo):
    """Direct ``run_ensemble`` cells with large frontiers, then ``csv_text``."""

    name = "mc-supercritical"
    cells = ((0.7, 18), (0.9, 14))

    def __init__(self, seed, checker, run_dir, samples=800, probes=30):
        super().__init__(seed, checker, run_dir, samples, probes)

    def _cells_csv(self, clock: Clock, seed: int) -> str:
        rows = [
            clock.run(ensemble.run_ensemble, self.params[p], depth, self.samples, seed)
            for p, depth in self.cells
        ]
        return clock.run(ensemble.csv_text, rows)


# --------------------------------------------------------------------------
# Cluster geometry.


def _cluster_pipeline(params, depth: int, seed: int, index: int, message_raw: np.ndarray):
    """One cluster through every geometry path: sample, tally and measure it,
    cut its code book, write and read the book's text, send a message through
    the book, and round-trip the cluster's JSON document."""
    cluster = percolate.sample_cluster(params, depth, percolate.cluster_stream(seed, index))
    t = percolate.tally(cluster)
    m = infomeasure.measures(t, params.p)
    book = codec.extract_codebook(cluster)
    parsed = message = bits = decoded = None
    # The text format cannot hold the empty codeword (a root-only cluster):
    # it writes an empty line, or " <weight>", which reads back wrong.
    if "" not in book.words:
        weights = codec.bernoulli_weights(book, params.p) if book.words else None
        parsed = codec.parse_codebook(codec.format_codebook(book, weights))
    if parsed is not None and parsed.words:
        message = (message_raw % len(parsed.words)).tolist()
        bits = codec.encode(parsed, message)
        decoded = codec.decode(parsed, bits)
    back = percolate.cluster_from_json(percolate.cluster_to_json(cluster))
    return t, m, book, parsed, message, bits, decoded, back


def book_problems(book, leaves: list[int]) -> list[str]:
    """Kraft sum, prefix-freeness, order, and one word per leaf at its generation."""
    words = book.words
    problems = []
    if list(words) != sorted(set(words)):
        problems.append("words not sorted and unique")
    if math.fsum(2.0 ** -len(w) for w in words) > 1.0:
        problems.append("Kraft sum exceeds 1")
    word_set = set(words)
    if any(w[:j] in word_set for w in words for j in range(len(w))):
        problems.append("a codeword is a proper prefix of another")
    lengths = Counter(len(w) for w in words)
    if [lengths.get(n, 0) for n in range(len(leaves))] != leaves or sum(lengths.values()) != sum(leaves):
        problems.append("codeword lengths do not match the leaf counts")
    return problems


def _enum_summary(stats) -> tuple:
    return (
        tuple(stats.node_mean), tuple(stats.node_var), tuple(stats.leaf_mean),
        tuple(stats.leaf_var), stats.mean_normalization, stats.mean_entropy_bits,
        stats.mean_avg_length, stats.leafless_probability,
    )


class ClusterGeometry:
    """Materialised clusters (trees, books, text, JSON) plus exhaustive enumeration.

    Clusters come one at (0.6, 16) per four at (0.7, 18), so the median
    latency falls inside the larger population rather than in the gap
    between the two (with one per two, the median's spread over seeds was
    9%; with one per four, simulated from cluster sizes, 5%).  The enumeration is the same work in every pass; each
    pass must reproduce the first one's result.
    """

    name = "cluster-geometry"
    cells = ((0.6, 16),) + ((0.7, 18),) * 4
    enum_p = (0.3, 0.5, 0.6)
    enum_depth = 3  # the oracle's cap: 16384 configurations per p

    def __init__(self, seed, checker, run_dir, clusters=225, message_len=256):
        self.seed = seed
        self.checker = checker
        self.clusters = clusters
        self.message_len = message_len
        self.samples_per_pass = clusters
        self.params = {p: analytic.ModelParams(p) for p in {p for p, _ in self.cells} | set(self.enum_p)}
        self.empty_word_books = 0  # clusters whose book text was not written (see _cluster_pipeline)
        self._first_enumeration: dict[float, tuple] = {}

    def run_pass(self, clock: Clock, k: int) -> None:
        seed = pass_seed(self.seed, k)
        messages = np.random.default_rng(seed).integers(0, 2**62, size=(self.clusters, self.message_len))
        for i in range(self.clusters):
            p, depth = self.cells[i % len(self.cells)]
            out = clock.run(_cluster_pipeline, self.params[p], depth, seed, i, messages[i], cluster=True)
            self.checker.record(f"{self.name} pass {k} cluster ({p}, {depth}, {i})",
                                self._cluster_problems(out, p, depth, seed, i))
        for p in self.enum_p:
            stats = clock.run(oracle.exact_enumeration, self.params[p], self.enum_depth)
            summary = _enum_summary(stats)
            first = self._first_enumeration.setdefault(p, summary)
            problems = [] if summary == first else ["differs from the first pass's enumeration"]
            if k == 0:
                problems += self._enum_problems(stats, p)
            self.checker.record(f"{self.name} pass {k} enumeration p={p}", problems)

    def _cluster_problems(self, out, p: float, depth: int, seed: int, index: int) -> list[str]:
        t, m, book, parsed, message, bits, decoded, back = out
        nodes, leaves = reference_tally(p, depth, seed, index)
        problems = tally_problems(t, nodes, leaves) + measure_problems(m, leaves, p)
        problems += book_problems(book, leaves)
        if parsed is None:
            self.empty_word_books += 1
        elif parsed.words != book.words:
            problems.append("code book text does not read back to the same words")
        if message is not None:
            if bits != "".join(book.words[s] for s in message):
                problems.append("encoding is not the concatenation of codewords")
            if decoded != message:
                problems.append("decode(encode(message)) != message")
        back_t = percolate.tally(back)
        if (back_t.node_counts, back_t.leaf_counts) != (t.node_counts, t.leaf_counts):
            problems.append("JSON round trip changed the tally")
        return problems

    def _enum_problems(self, stats, p: float) -> list[str]:
        params = self.params[p]
        problems = []
        for g, mean in enumerate(stats.node_mean):
            want = analytic.node_moments(params, g).mean
            if not math.isclose(mean, want, rel_tol=1e-12, abs_tol=1e-15):
                problems.append(f"node_mean[{g}] {mean!r} != node_moments {want!r}")
            if not math.isclose(mean, (2.0 * p) ** g, rel_tol=1e-12, abs_tol=1e-15):
                problems.append(f"node_mean[{g}] {mean!r} != (2p)^{g}")
        if not 0.0 <= stats.leafless_probability <= 1.0:
            problems.append(f"leafless_probability {stats.leafless_probability} outside [0, 1]")
        return problems


WORKLOADS = {w.name: w for w in (MCSaturating, MCSupercritical, ClusterGeometry)}
