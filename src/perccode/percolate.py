"""Sampling of root-anchored percolation clusters on a perfect binary tree.

A cluster is grown generation by generation: each node of generation
``g < depth_bound`` keeps its left and right edge open independently with
probability ``p``, and open edges spawn child nodes.  Off-cluster parts of
the tree are never materialized.  A node sitting exactly at ``depth_bound``
spawns nothing and never counts as a leaf.

Randomness comes from counter-based streams: sample ``i`` of master seed
``s`` draws from an independent Philox stream keyed by ``(s, i)``, so a
cluster is a pure function of ``(seed, index, p, depth_bound)`` however
calls are scheduled.  Per generation a single batch of ``2 * N_g`` uniforms
is consumed, nodes in breadth-first order, each node's left edge value before
its right edge value; an edge is open iff its value is < p.
:func:`grid_tallies` tallies samples ``0 .. n - 1`` of a seed at a grid of p
at once, from the same streams, with the same numbers as :func:`sample_tally`;
the README's Sampling section states its block plan.
"""

from __future__ import annotations

import inspect
import math
import os
from dataclasses import dataclass

import numpy as np

from .analytic import ModelParams, integer

__all__ = [
    "RNG_VERSION",
    "MAX_GENERATION_UNIFORMS",
    "Cluster",
    "GenerationTally",
    "cluster_stream",
    "SampleStreams",
    "sample_cluster",
    "sample_tally",
    "grid_tallies",
    "tally",
    "cluster_to_json",
    "cluster_from_json",
    "cluster_to_dot",
]

# Bump when the stream scheme or consumption order changes; emitted in all
# CSV/metadata output so old runs stay attributable.
RNG_VERSION = "philox-key64x2/v1"

# Most uniforms sample_cluster draws for one generation, two per node: the
# draw alone is 128 MiB, and a supercritical frontier (p = 0.9 grows about
# 1.8x per generation) would otherwise grow until memory runs out.
MAX_GENERATION_UNIFORMS = 1 << 24

# The counter of a new stream, ready-made: NumPy converts a Python int to 4 words slowly.
_ZERO_COUNTER = np.zeros(4, np.uint64)
_ZERO_COUNTER.flags.writeable = False
# A node's two edge flags as one little-endian word, left flag low: a dtype, which a view
# need not convert like a type.
_PAIR = np.dtype("<u2")
# NumPy's own count, past the __array_function__ dispatch that on a frontier of 8-40 flags
# costs about as much as the count itself: 130-370 against 300-790 ns a call, once or twice
# a generation (NumPy 2.4, a shared 2-vCPU host).  Safe: every array counted here is one
# this module made or a Cluster's bool array, which no __array_function__ override claims,
# and unwrap returns the function itself where NumPy does not wrap it.
_count_nonzero = inspect.unwrap(np.count_nonzero)


# compared by identity: a generated == on lists of arrays would raise
@dataclass(eq=False)
class Cluster:
    """A root-anchored open cluster truncated at ``depth_bound``, stored
    level by level.

    ``opens[g]`` is a contiguous boolean array holding two flags per node of
    generation ``g``, nodes in breadth-first order, each node's left edge
    before its right: the order in which the sampler draws them.  The
    nodes of generation ``g + 1`` are the open edges of ``opens[g]``, in
    order.  There is one array for each generation below ``depth_bound``
    that has nodes, so the list ends early when the cluster dies out.
    """

    depth_bound: int
    opens: list[np.ndarray]


@dataclass
class GenerationTally:
    """Per-generation node counts N_0..N_depth and leaf counts L_0..L_{depth-1}.

    A node counts as a leaf only if it is childless *and* lies strictly
    above the depth bound.
    """

    depth_bound: int
    node_counts: list[int]
    leaf_counts: list[int]


def _check_key(seed: int, index: int) -> None:
    # each is one 64-bit word of the Philox key
    if not (0 <= integer("seed", seed) < 2**64 and 0 <= integer("index", index) < 2**64):
        raise ValueError(f"seed and index must lie in [0, 2**64), got {seed}, {index}")


class _Key(np.random.bit_generator.ISeedSequence):
    # Philox reads its key from generate_state(2, uint64): the state of
    # Philox(key=...) without the SeedSequence it first draws from OS entropy
    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (2, np.uint64):  # any other request would key another stream
            raise RuntimeError(f"Philox asked for {n_words} words of {dtype}, not its 2-word key")
        return self.key


def _philox_stream(seed: int, index: int) -> np.random.Generator:
    # a uint64 key stays exact: NumPy converts a list's ints >= 2**63 through float64
    key = _Key(np.array([seed, index], dtype=np.uint64))
    return np.random.Generator(np.random.Philox(key, counter=_ZERO_COUNTER))


def cluster_stream(seed: int, index: int) -> np.random.Generator:
    """Independent uniform stream for sample ``index`` of master ``seed``;
    both must lie in [0, 2**64)."""
    _check_key(seed, index)
    return _philox_stream(seed, index)


class SampleStreams:
    """The streams of samples ``0 .. count - 1`` of master ``seed``, served by
    one reused generator.

    ``at(index, position)`` resets that generator in place to the stream
    ``cluster_stream(seed, index)`` returns, past its first ``position``
    uniforms, and returns it, for a fraction of the cost of a new generator.
    A stream is good until the next ``at``, so give each thread its own.
    """

    def __init__(self, seed: int, count: int):
        _check_key(seed, max(integer("count", count) - 1, 0))
        self.count = count
        self._generator = _philox_stream(seed, 0)
        self._key = [seed, 0]
        self._counter = [0, 0, 0, 0]
        # with counter 0 and an empty buffer, the state of a new generator
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def at(self, index: int, position: int = 0) -> np.random.Generator:
        if not 0 <= integer("index", index) < self.count:
            raise IndexError(f"sample index {index} outside [0, {self.count})")
        self._key[1] = index
        # Philox makes 4 uniforms per counter step, stepping the counter
        # first: after 4c of them the counter reads c and the buffer is spent
        self._counter[0] = integer("position", position, 0) // 4
        try:
            self._generator.bit_generator.state = self._state
        except OverflowError:
            # c past the counter's first 64-bit word, the one state value not checked
            # before: NumPy's refusal costs nothing until it fires, where comparing here
            # cost 55 of a 175 ns call (CPython 3.11, a shared 2-vCPU host)
            raise ValueError(f"position must be < 2**66, got {position}") from None
        if position % 4:
            self._generator.random(position % 4)
        return self._generator


def sample_cluster(params: ModelParams, depth_bound: int, stream) -> Cluster:
    """Grow one cluster from a uniform stream (see module docstring for the
    exact consumption order).  ``stream`` needs only a ``random(n)`` method
    returning n floats in [0, 1).

    Raises ``ValueError`` before drawing a generation that would need more
    than ``MAX_GENERATION_UNIFORMS`` uniforms."""
    integer("depth_bound", depth_bound, 0)
    p, draw, opens, count = np.array(params.p), stream.random, [], 1
    for gen in range(depth_bound):
        if 2 * count > MAX_GENERATION_UNIFORMS:
            raise _over_cap(gen, count)
        opens.append(flags := draw(2 * count) < p)
        count = int(_count_nonzero(flags))
        if count == 0:
            break
    return Cluster(depth_bound=depth_bound, opens=opens)


def _over_cap(gen: int, count: int) -> ValueError:
    """The refusal of a generation of ``count`` nodes, over ``MAX_GENERATION_UNIFORMS``."""
    return ValueError(
        f"generation {gen} of the cluster needs {2 * count} uniforms, over the cap "
        f"MAX_GENERATION_UNIFORMS = {MAX_GENERATION_UNIFORMS} per generation"
    )


def _raw_threshold(p: float) -> int:
    """The largest raw Philox word ``w`` whose uniform ``(w >> 11) * 2**-53``
    is below ``p``: as p * 2**53 is exact, ``w >> 11`` below its ceiling."""
    return (math.ceil(p * 2**53) << 11) - 1


def sample_tally(params: ModelParams, depth_bound: int, stream) -> GenerationTally:
    """Per-generation counts of one sampled cluster:
    ``tally(sample_cluster(params, depth_bound, stream))``."""
    return tally(sample_cluster(params, depth_bound, stream))


# A first block holds about this many times the cell's expected uniform
# count 2 * sum_{g < depth} (2p)^g, the mean Galton-Watson cluster size;
# a cluster that outgrows it continues into a block four times larger.
_FIRST_FACTOR = 2
# No block holds more uniforms: a supercritical cluster outgrows any block
# worth drawing, so only its first generations are tallied in lockstep.
_BLOCK_CAP = 1024
# Uniforms drawn and flags tallied at once (chunk x largest block): with
# their running counts, about 1 MB in all.
_CHUNK_UNIFORMS = 1 << 16


def _block_sizes(p: float, depth: int) -> tuple[int, ...]:
    """Uniforms drawn per sample in each batch pass, multiples of 4 (two per
    node); a cluster outgrowing the last resumes where it ran past it."""
    expected, batch = 0.0, 2.0
    for _ in range(depth):
        expected += batch
        # stopping here keeps (2p)^g of a deep supercritical cell finite
        if expected > _BLOCK_CAP:
            break
        batch *= 2.0 * p
    k = min(4 * max(1, math.ceil(_FIRST_FACTOR * expected / 4)), _BLOCK_CAP)
    return (k,) if k == _BLOCK_CAP else (k, min(4 * k, _BLOCK_CAP))


def _tally_blocks(jobs, depth, streams, rows, start, held):
    """Tally the samples ``rows``, at least one, for each job ``(p, k, nodes, leaves, last)``
    from their first ``k`` uniforms, drawn once for all, into ``nodes[:, 1:]`` and ``leaves``;
    the pass before ``held`` the first ``start`` as packed flags.  Return per job the rows
    that ran past their block and their packed flags or, when ``last``, each one's ``(gen,
    offset, N_gen)``: generation ``gen``, the first to run past, starts ``offset`` in.

    Rows are drawn in chunks sized by the largest block, and each job tallies a chunk as it
    is drawn, one generation at a time for all its rows.  Generation g of a sample reads
    nodes s_g .. s_g + N_g - 1 of its block, so with S[j] = C + 2^16 D for the open edges
    C < 2^16 and the leaves D among its first j nodes, N_{g+1} + 2^16 L_g is S at s_g + N_g
    less S at s_g.  The chunk's sums lie flat, row r's from r (k/2 + 1), and each row holds
    s_g there, clamped at its block's end: a generation is one ``take``.  A row's counts are
    exact up to the first generation whose batch ends past the block,
    2 (N_0 + .. + N_gen) > k, so each chunk reads off which rows ran past and where; gen >= 1,
    as the root fits any block.  A live row spends a node a generation, so by generation
    k/2 each row is extinct or past its block, and the rest count zero untallied.
    """
    top = max(k for _, k, *_ in jobs)
    chunk = min(len(rows), _CHUNK_UNIFORMS // top)
    flags, uniforms = np.empty((chunk, top), bool), np.empty((chunk, top - start))
    work, weight = [([], []) for _ in jobs], np.zeros(258, np.int32)
    # a node's two flags read as one 16-bit word: its open edges, plus 2**16 if it is a leaf
    weight[[0, 1, 256, 257]] = 1 << 16, 1, 1, 2
    for lo in range(0, len(rows), chunk):
        hi = min(lo + chunk, len(rows))
        for r, i in enumerate(rows[lo:hi].tolist()):
            streams.at(i, start).random(out=uniforms[r])
        n, batch = hi - lo, rows[lo:hi]
        for (p, k, nodes, leaves, last), (outgrown, carry) in zip(jobs, work):
            f, gens = flags[:n, :k], min(depth, k // 2)
            if start:
                f[:, :start] = np.unpackbits(held[lo:hi], axis=1, count=start)
            np.less(uniforms[:n, : k - start], p, out=f[:, start:])
            sums, counts = np.empty((n, k // 2 + 1), np.int32), np.empty((n, gens), np.int32)
            np.cumsum(weight.take(f.view(_PAIR)), axis=1, out=sums[:, 1:])
            first = np.arange(n) * (k // 2 + 1)
            # S[0] = 0 is never gathered: every sample reads its root's flags
            before, stops, count = 0, first + k // 2, np.ones(n, dtype=np.int32)
            for g in range(gens):
                # rows past their block read garbage here, redone by a later pass or the resume
                first = np.minimum(first + count, stops)
                at_end = sums.take(first)
                np.subtract(at_end, before, out=counts[:, g])
                count, before = counts[:, g] & 0xFFFF, at_end
            nodes[batch, 1 : gens + 1] = counts & 0xFFFF
            leaves[batch, :gens] = counts >> 16
            nodes[batch, gens + 1 :] = leaves[batch, gens:] = 0
            ends = 2 * np.cumsum(nodes[batch, : min(depth, gens + 1)], axis=1)
            past = ends[:, -1] > k
            outgrown.append(batch[past])
            if last:
                gen = np.argmax(ends[past] > k, axis=1)
                carry.append(np.stack([gen, ends[past, gen - 1], nodes[batch[past], gen]], axis=1))
            else:
                carry.append(np.packbits(f[past], axis=1))
    return [(np.concatenate(outgrown), np.concatenate(carry)) for outgrown, carry in work]


def grid_tallies(grid: list[ModelParams], depth_bound: int, seed: int, samples: int):
    """Tallies of samples ``0 .. samples - 1`` of master ``seed`` at each ``params`` of
    ``grid``: a list of int32 ``(nodes, leaves)``, the node counts N_0 .. N_depth_bound and
    leaf counts L_0 .. L_{depth_bound - 1}, row ``i`` those ``sample_tally(params,
    depth_bound, cluster_stream(seed, i))`` counts; no count exceeds 2^24, under
    ``MAX_GENERATION_UNIFORMS``.  Generation g reads from uniform ``2 * sum_{h<g} N_h``
    whatever the bound, so ``nodes[:, :d + 1]`` and ``leaves[:, :d]`` are the tallies at
    depth bound ``d``.  Depth bound 0, an empty grid or no samples draws nothing.

    Each sample is keyed once and draws the grid's largest first block K.  Each p tallies
    its first ``min(last, K)`` uniforms, ``last`` its own last block; only a p with
    ``last > K`` continues from uniform K into its last block, and then outgrown samples
    resume alone (README, Sampling).  Tallies that, with the row keys ``row_measures``
    makes of one p's, exceed physical memory raise ``MemoryError`` before any keying."""
    integer("depth_bound", depth_bound, 0)
    # a bad key is reported before the size
    _check_key(seed, max(integer("samples", samples, 0) - 1, 0))
    try:  # physical memory in bytes, 0 where os.sysconf cannot report it
        memory = max(os.sysconf("SC_PHYS_PAGES"), 0) * max(os.sysconf("SC_PAGE_SIZE"), 0)
    except (AttributeError, ValueError, OSError):
        memory = 0
    need = 4 * samples * (len(grid) * (2 * depth_bound + 1) + depth_bound) if grid else 0
    if need > memory > 0:
        raise MemoryError(f"the tallies need {need} bytes, over the {memory} of physical memory")
    depth, streams = depth_bound, SampleStreams(seed, samples)
    out = [(np.ones((samples, depth + 1), np.int32), np.empty((samples, depth), np.int32))
           for _ in grid]
    if depth == 0 or not grid or samples == 0:
        return out
    blocks = [_block_sizes(params.p, depth) for params in grid]
    shared = max(s[0] for s in blocks)
    jobs = [(m.p, min(s[-1], shared), *t, s[-1] <= shared) for m, s, t in zip(grid, blocks, out)]
    passes = _tally_blocks(jobs, depth, streams, np.arange(samples), 0, None)
    for (p, _, nodes, leaves, fits), (rest, carry), s in zip(jobs, passes, blocks):
        if not fits and len(rest):
            job = p, s[-1], nodes, leaves, True
            [(rest, carry)] = _tally_blocks([job], depth, streams, rest, shared, carry)
        # T(0) = -1 is no uint64, but p = 0 never resumes: its root's two uniforms fit any block
        top = np.uint64(_raw_threshold(p)) if p else None
        for i, (gen, offset, count) in zip(rest.tolist(), carry.tolist()):
            draw, counts, row = streams.at(i, offset).bit_generator.random_raw, [], []
            # a cluster that dies draws no more words and counts zeros
            for g in range(gen, depth):
                if 2 * count > MAX_GENERATION_UNIFORMS:
                    raise _over_cap(g, count)
                flags = draw(2 * count) <= top
                row.append(count - _count_nonzero(flags.view(_PAIR)))
                count = _count_nonzero(flags)
                counts.append(count)
            nodes[i, gen + 1 :] = counts
            leaves[i, gen:] = row
    return out


def tally(cluster: Cluster) -> GenerationTally:
    """Count nodes and leaves per generation of one cluster."""
    depth = cluster.depth_bound
    node_counts, leaf_counts = [1] + [0] * depth, [0] * depth
    for gen, flags in enumerate(cluster.opens):
        count = len(flags) // 2
        node_counts[gen] = count
        # a node's two flags read as one 16-bit word are nonzero iff it has a child
        leaf_counts[gen] = count - int(_count_nonzero(flags.view(_PAIR)))
    if cluster.opens:
        node_counts[len(cluster.opens)] = int(_count_nonzero(cluster.opens[-1]))
    return GenerationTally(depth_bound=depth, node_counts=node_counts, leaf_counts=leaf_counts)


def cluster_to_json(cluster: Cluster) -> dict:
    """JSON-serializable cluster dump: depth bound plus the nested
    ``{gen, left?, right?}`` node structure (absent child => absent key).

    Built bottom-up with no recursion: a node's two flags, read as one ``"<u2"`` word
    (257 both, 1 left, 256 right, 0 leaf: at p >= 1/2 the commonest first), pick its dict,
    made whole in one literal that takes its children, in order, off the level below."""
    opens = cluster.opens
    level = [{"gen": len(opens)} for _ in range(_count_nonzero(opens[-1]) if opens else 1)]
    for gen in reversed(range(len(opens))):
        nxt = iter(level).__next__
        level = [
            {"gen": gen, "left": nxt(), "right": nxt()} if k == 257
            else {"gen": gen, "left": nxt()} if k == 1
            else {"gen": gen, "right": nxt()} if k == 256
            else {"gen": gen}
            for k in opens[gen].view(_PAIR).tolist()
        ]
    return {"depth_bound": cluster.depth_bound, "root": level[0]}


def cluster_from_json(doc: dict) -> Cluster:
    """Parse and validate a cluster dump produced by ``cluster_to_json``, in
    one pass per level: each node is checked, then its flags and children kept."""
    try:
        depth_bound, root = doc["depth_bound"], doc["root"]
    except (KeyError, TypeError) as exc:
        raise ValueError("cluster document needs 'depth_bound' and 'root'") from exc
    # bool is an int subclass; floats and strings are never coerced
    if type(depth_bound) is not int or depth_bound < 0:
        raise ValueError(f"depth_bound must be an integer >= 0, got {depth_bound!r}")
    opens = []
    level = [root]
    while level:
        gen = len(opens)
        flags, below = [], []
        for node in level:
            if not isinstance(node, dict):
                raise ValueError(f"cluster node must be an object, got {type(node).__name__}")
            declared = node.get("gen", gen)
            # as for depth_bound: 0.0, true or "1" is not the integer it resembles
            if type(declared) is not int or declared != gen:
                raise ValueError(f"node declares generation {declared!r} but sits at {gen}")
            flags.append(left := "left" in node)
            flags.append(right := "right" in node)
            if left:
                below.append(node["left"])
            if right:
                below.append(node["right"])
        if gen == depth_bound:
            if below:
                raise ValueError(f"cluster node at generation {gen + 1} exceeds depth bound {gen}")
            break
        # a bytearray takes the flags in one bulk copy, a byte each, and unlike bytes
        # leaves the level writable
        opens.append(np.frombuffer(bytearray(flags), bool))
        level = below
    return Cluster(depth_bound=depth_bound, opens=opens)


def cluster_to_dot(cluster: Cluster) -> str:
    """DOT rendering for graph viewers; node names are root-to-node paths."""
    lines = ["digraph cluster {", "  node [shape=circle];", '  "" [label="root"];']
    level = [""]
    for flags in cluster.opens:
        flags = flags.tolist()
        children = []
        for path, left, right in zip(level, flags[0::2], flags[1::2]):
            for bit, is_open in (("0", left), ("1", right)):
                if is_open:
                    child = path + bit
                    lines.append(f'  "{child}" [label="{child}"];')
                    lines.append(f'  "{path}" -> "{child}" [label="{bit}"];')
                    children.append(child)
        level = children
    lines.append("}")
    return "\n".join(lines) + "\n"
