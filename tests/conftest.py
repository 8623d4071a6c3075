"""Shared fixtures: hand-built clusters, the cluster of an edge mask,
scripted uniform streams and a caller-side thread pool over ensemble cells."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from perccode.analytic import ModelParams
from perccode.ensemble import run_ensemble
from perccode.percolate import Cluster

# Hand-checked seven-leaf cluster at depth bound 5.  Its tally is
# N = [1, 2, 4, 4, 5, 0], L = [0, 0, 1, 1, 5]; the words are exactly the
# prefix-free code the cluster's leaves spell out.
SEVEN_LEAF_WORDS = ("00", "0100", "0101", "1010", "1011", "110", "1110")
SEVEN_LEAF_DEPTH = 5


def cluster_from_codewords(words, depth_bound: int) -> Cluster:
    """Build the prefix closure of a prefix-free word set as a cluster."""
    nodes = {word[:n] for word in words for n in range(len(word) + 1)}
    opens = []
    level = [""]
    for _ in range(depth_bound):
        flags = [path + bit in nodes for path in level for bit in "01"]
        opens.append(np.array(flags, dtype=bool))
        level = [path + bit for path in level for bit in "01" if path + bit in nodes]
        if not level:
            break
    return Cluster(depth_bound=depth_bound, opens=opens)


def cluster_from_mask(mask: int, depth: int) -> Cluster:
    """Root cluster of one full edge assignment; edge 2k/2k+1 is the
    left/right edge of heap-indexed node k, open iff its bit is set, and
    leads to node 2k+1/2k+2, one past the edge's own index."""
    opens = []
    live = [0]
    for _ in range(depth):
        edges = [e for k in live for e in (2 * k, 2 * k + 1)]
        flags = [(mask >> e) & 1 for e in edges]
        opens.append(np.array(flags, dtype=bool))
        live = [e + 1 for e, is_open in zip(edges, flags) if is_open]
        if not live:
            break
    return Cluster(depth_bound=depth, opens=opens)


class FixtureStream:
    """Scripted stand-in for a Generator: hands out preset uniforms."""

    def __init__(self, values):
        self.values = list(values)
        self.cursor = 0

    def random(self, n: int):
        if self.cursor + n > len(self.values):
            raise AssertionError(
                f"fixture stream exhausted: wanted {n} more values at {self.cursor}"
            )
        out = np.array(self.values[self.cursor : self.cursor + n])
        self.cursor += n
        return out


def sweep_on_threads(config, workers: int = 4):
    """The rows of ``sweep(config)``, each cell run concurrently by
    ``run_ensemble`` on a thread of this caller's own pool."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(run_ensemble, ModelParams(p), depth, config.samples, config.seed)
            for p in config.p_values
            for depth in config.depths
        ]
        return [f.result() for f in futures]


@pytest.fixture
def seven_leaf_cluster() -> Cluster:
    return cluster_from_codewords(SEVEN_LEAF_WORDS, SEVEN_LEAF_DEPTH)
