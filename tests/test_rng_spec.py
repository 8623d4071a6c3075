"""The RNG contract against the Philox4x64-10 specification, not against NumPy.

Every stream, every re-keyed position, the raw-word edge rule and the
clusters and tallies the samplers draw are rebuilt here from the pure-Python
reference in ``philox_reference``: uniform j of sample i of seed s is
``(w_j >> 11) * 2**-53``, with ``w_{4c+m}`` word m of Philox4x64-10 at
counter c + 1 and key (s, i).
"""

import random

import numpy as np
import pytest

import philox_reference as ref
from perccode import percolate
from perccode.analytic import ModelParams
from perccode.percolate import SampleStreams, cluster_stream, grid_tallies, sample_cluster

TOP = 2**64 - 1
# the extremes, both halves of each word, the CLI's default seed and 15 keys drawn at random
KEYS = [
    (0, 0), (TOP, TOP), (2**63, 2**63 + 1), (2**63 - 1, 2**63), (TOP, 0), (0, TOP),
    (20127, 0), (7, 5), (0, 123456789), (99, 7),
]
_rng = random.Random(2021)
KEYS += [(_rng.randrange(2**64), _rng.randrange(2**64)) for _ in range(15)]


def test_reference_matches_the_published_known_answer():
    # Random123's kat_vectors: philox4x64_10 of a zero counter and key, and of all ones
    assert ref.block(0, (0, 0)) == [
        0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B,
    ]
    ones = sum(TOP << (64 * m) for m in range(4))
    assert ref.block(ones, (TOP, TOP)) == [
        0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0,
    ]


@pytest.mark.parametrize("seed, index", KEYS)
def test_stream_is_the_specified_philox_words(seed, index):
    # words 0-11 are three counter steps; uniforms 0-9 cross two of them
    assert cluster_stream(seed, index).bit_generator.random_raw(12).tolist() == ref.words(
        seed, index, 0, 12
    )
    assert cluster_stream(seed, index).random(10).tolist() == ref.uniforms(seed, index, 0, 10)


@pytest.mark.parametrize("seed, index", [(0, 0), (7, 5), (2**63, 2**63 + 1), (TOP, TOP)])
def test_keyed_stream_state_is_a_fresh_philox_keyed_by_seed_and_index(seed, index):
    # the state NumPy's own Philox(key=...) starts from: counter 0, empty buffer
    def plain(state):
        return {
            k: plain(v) if isinstance(v, dict) else np.asarray(v).tolist()
            for k, v in state.items()
        }

    key = np.array([seed, index], dtype=np.uint64)
    assert plain(cluster_stream(seed, index).bit_generator.state) == plain(
        np.random.Philox(key=key).state
    )
    # a drawn stream leaves the next one at counter 0
    cluster_stream(seed, index).random(9)
    assert cluster_stream(seed, index).bit_generator.state["state"]["counter"].tolist() == [0] * 4


@pytest.mark.parametrize("position", [1, 2, 3, 5, 6, 7, 10, 1023, 1025, 4097, 2**20 + 3])
def test_sample_streams_at_a_position_off_a_counter_step(position):
    streams = SampleStreams(99, 10)
    streams.at(3, 5).random(2)  # a part-used stream is reset by the next at()
    assert streams.at(7, position).random(9).tolist() == ref.uniforms(99, 7, position, 9)


def test_sample_streams_at_random_keys_and_positions():
    rng = random.Random(7)
    for _ in range(40):
        seed, index, position = rng.randrange(2**64), rng.randrange(50), rng.randrange(5000)
        drawn = SampleStreams(seed, 50).at(index, position).random(6).tolist()
        assert drawn == ref.uniforms(seed, index, position, 6)


@pytest.mark.parametrize("p", [2**-53, 0.3, 0.5, 1 - 2**-53, 1.0])
def test_raw_threshold_is_the_last_word_whose_uniform_is_below_p(p):
    top = percolate._raw_threshold(p)
    assert 0 <= top <= TOP and ref.uniform(top) < p
    # the word after it, if any, stands for p or more
    assert top == TOP or ref.uniform(top + 1) >= p
    for seed, index in KEYS[:8]:
        stream = ref.words(seed, index, 0, 40)
        assert [w <= top for w in stream] == [ref.uniform(w) < p for w in stream]


@pytest.mark.parametrize("p, depth", [(0.5, 8), (0.6, 10)])
def test_clusters_are_rebuilt_from_the_specification(p, depth):
    for seed, index in [(20127, 0), (7, 5), (2**63, 2**63 + 1), (TOP, TOP), (11, 3)]:
        cluster = sample_cluster(ModelParams(p), depth, cluster_stream(seed, index))
        _, _, opens = ref.grow(p, depth, seed, index)
        assert [flags.tolist() for flags in cluster.opens] == opens


# rows that outgrow the first block at each cell, and at (0.8, 12) rows resumed past the last
@pytest.mark.parametrize(
    "p, depth, seed, samples", [(0.5, 8, 3, 150), (0.6, 10, TOP, 150), (0.8, 12, 5, 40)]
)
def test_grid_tallies_are_rebuilt_from_the_specification(p, depth, seed, samples):
    nodes, leaves = grid_tallies([ModelParams(p)], depth, seed, samples)[0]
    sizes, needs = percolate._block_sizes(p, depth), []
    for i in range(samples):
        want_nodes, want_leaves, _ = ref.grow(p, depth, seed, i)
        assert (nodes[i].tolist(), leaves[i].tolist()) == (want_nodes, want_leaves)
        needs.append(2 * sum(want_nodes[:depth]))
    assert max(needs) > sizes[0]
    assert (max(needs) > sizes[-1]) == (p == 0.8)


@pytest.mark.parametrize("n_words, dtype", [(2, np.uint32), (4, np.uint64), (1, np.uint64)])
def test_key_serves_only_philox_s_two_word_request(n_words, dtype):
    key = percolate._Key(np.array([3, 4], dtype=np.uint64))
    assert key.generate_state(2, np.uint64).tolist() == [3, 4]
    with pytest.raises(RuntimeError, match="2-word key"):
        key.generate_state(n_words, dtype)
