import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from perccode import percolate
from perccode.analytic import ModelParams, pgf_iterate
from perccode.percolate import (
    Cluster,
    SampleStreams,
    cluster_from_json,
    cluster_stream,
    cluster_to_dot,
    cluster_to_json,
    grid_tallies,
    sample_cluster,
    sample_tally,
    tally,
)

import philox_reference
from conftest import FixtureStream


def reference_tally(p, depth, stream):
    """Per-generation counts drawn straight from the README's RNG contract:
    per generation 2 * N_g uniforms, left edges at even positions, right
    edges at odd ones, an edge open iff its value is < p, a leaf a node
    with both edges closed."""
    node_counts = [1] + [0] * depth
    leaf_counts = [0] * depth
    for g in range(depth):
        if node_counts[g] == 0:
            break
        u = stream.random(2 * node_counts[g])
        left, right = u[0::2] < p, u[1::2] < p
        leaf_counts[g] = int(np.count_nonzero(~left & ~right))
        node_counts[g + 1] = int(np.count_nonzero(left) + np.count_nonzero(right))
    return node_counts, leaf_counts



def reference_cluster_json(cluster):
    """The top-down writer ``cluster_to_json`` replaced: each level's dicts
    made first, then each child hung on its parent's ``left``/``right``."""
    root = {"gen": 0}
    level = [root]
    for gen, flags in enumerate(cluster.opens, start=1):
        flags = flags.tolist()
        children = []
        for node, left, right in zip(level, flags[0::2], flags[1::2]):
            for side, is_open in (("left", left), ("right", right)):
                if is_open:
                    node[side] = child = {"gen": gen}
                    children.append(child)
        level = children
    return {"depth_bound": cluster.depth_bound, "root": root}


def node_records(doc):
    """Each node's keys, in order, and its gen, breadth-first and without
    recursion: documents with equal records dump to the same bytes."""
    records, level = [doc["depth_bound"]], [doc["root"]]
    while level:
        records += [(list(node), node["gen"]) for node in level]
        level = [node[side] for node in level for side in ("left", "right") if side in node]
    return records

def test_p_zero_gives_root_only():
    c = sample_cluster(ModelParams(0.0), 6, cluster_stream(1, 0))
    assert [flags.tolist() for flags in c.opens] == [[False, False]]
    assert tally(c).node_counts == [1, 0, 0, 0, 0, 0, 0]


def test_p_one_gives_perfect_tree():
    c = sample_cluster(ModelParams(1.0), 3, cluster_stream(1, 0))
    t = tally(c)
    assert t.node_counts == [1, 2, 4, 8]
    assert t.leaf_counts == [0, 0, 0]


def test_fixture_stream_trace():
    # values consumed left-then-right, breadth-first; open iff value < p
    stream = FixtureStream([0.3, 0.7, 0.4, 0.6, 0.9, 0.2])
    c = sample_cluster(ModelParams(0.5), 2, stream)
    assert c.opens[0].tolist() == [True, False]  # only the root's left edge
    assert c.opens[1].tolist() == [True, False]  # its child has one child
    assert tally(c).node_counts == [1, 1, 1]


def test_opens_are_the_drawn_flags():
    # the README contract, read off directly: generation g's flags are the
    # next 2 * N_g uniforms of the keyed stream compared with p
    c = sample_cluster(ModelParams(0.6), 12, cluster_stream(4, 2))
    stream = cluster_stream(4, 2)
    for flags in c.opens:
        assert np.array_equal(flags, stream.random(len(flags)) < 0.6)


@pytest.mark.parametrize("p", [2.0**-53, 0.5, 0.6, 1.0 - 2.0**-53])
def test_an_edge_whose_uniform_equals_p_is_closed(p):
    # open iff strictly below p, whatever operand the comparison is handed:
    # the root keeps its right edge, its child its left, and the grandchild is a leaf
    below = np.nextafter(p, 0.0)
    stream = FixtureStream([p, below, below, p, p, p])
    c = sample_cluster(ModelParams(p), 3, stream)
    assert [flags.tolist() for flags in c.opens] == [[False, True], [True, False], [False, False]]
    assert stream.cursor == 6
    t = tally(c)
    assert t.node_counts == [1, 1, 1, 0]
    assert t.leaf_counts == [0, 0, 1]


def test_fixture_stream_consumption_is_per_live_node():
    # only the root (2 values) and its single child (2 values) draw
    stream = FixtureStream([0.3, 0.7, 0.4, 0.6, 0.9, 0.2])
    sample_cluster(ModelParams(0.5), 2, stream)
    assert stream.cursor == 4


def test_frontier_cap_refuses_before_drawing(monkeypatch):
    # with the cap at 64 uniforms, generation 5 of a full tree (32 nodes)
    # still draws, and generation 6 (64 nodes) is refused; the stream holds
    # exactly the 2 + 4 + ... + 64 values drawn below the cap, so a draw
    # past it would exhaust the stream instead of raising ValueError
    monkeypatch.setattr(percolate, "MAX_GENERATION_UNIFORMS", 64)
    full = sample_cluster(ModelParams(1.0), 6, FixtureStream([0.0] * 126))
    assert tally(full).node_counts == [1, 2, 4, 8, 16, 32, 64]
    stream = FixtureStream([0.0] * 126)
    with pytest.raises(ValueError, match="MAX_GENERATION_UNIFORMS = 64"):
        sample_cluster(ModelParams(1.0), 7, stream)
    assert stream.cursor == 126


def test_tally_root_only():
    c = sample_cluster(ModelParams(0.0), 4, cluster_stream(5, 0))
    t = tally(c)
    assert t.node_counts == [1, 0, 0, 0, 0]
    assert t.leaf_counts == [1, 0, 0, 0]
    assert not t.node_counts[t.depth_bound] > 0


def test_tally_seven_leaf_fixture(seven_leaf_cluster):
    t = tally(seven_leaf_cluster)
    assert t.node_counts == [1, 2, 4, 4, 5, 0]
    assert t.leaf_counts == [0, 0, 1, 1, 5]
    assert not t.node_counts[t.depth_bound] > 0


def test_full_tree_has_no_leaves():
    t = tally(sample_cluster(ModelParams(1.0), 3, cluster_stream(1, 0)))
    assert t.leaf_counts == [0, 0, 0]
    assert t.node_counts[t.depth_bound] > 0


def test_depth_zero_cluster():
    t = tally(sample_cluster(ModelParams(0.7), 0, cluster_stream(1, 0)))
    assert t.node_counts == [1]
    assert t.leaf_counts == []
    assert t.node_counts[t.depth_bound] > 0  # the root itself sits at the depth bound


def test_tally_stores_python_ints():
    # NumPy's count returns numpy.int64, which json.dumps refuses: tally converts each
    clusters = [
        sample_cluster(ModelParams(p), 10, cluster_stream(3, i))
        for p in (0.0, 0.5, 0.9, 1.0)
        for i in range(4)
    ]
    clusters.append(sample_cluster(ModelParams(0.5), 2, FixtureStream([0.3, 0.7, 0.4, 0.6])))
    for c in clusters:
        t = tally(c)
        assert {type(x) for x in t.node_counts + t.leaf_counts} == {int}
        assert json.loads(json.dumps(vars(t))) == vars(t)


def test_determinism_and_stream_independence():
    m = ModelParams(0.55)
    t1 = sample_tally(m, 10, cluster_stream(99, 3))
    t2 = sample_tally(m, 10, cluster_stream(99, 3))
    assert t1 == t2
    t3 = sample_tally(m, 10, cluster_stream(99, 4))
    t4 = sample_tally(m, 10, cluster_stream(100, 3))
    assert t1 != t3 or t1 != t4  # neighboring streams are not clones


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    index=st.integers(min_value=0, max_value=1000),
    p=st.sampled_from([0.0, 0.2, 0.5, 0.6, 0.8, 1.0]),
    depth=st.integers(min_value=0, max_value=8),
)
def test_sample_tally_matches_cluster_tally(seed, index, p, depth):
    t = sample_tally(ModelParams(p), depth, cluster_stream(seed, index))
    node_counts, leaf_counts = reference_tally(p, depth, cluster_stream(seed, index))
    assert t.depth_bound == depth
    assert t.node_counts == node_counts
    assert t.leaf_counts == leaf_counts


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    p=st.sampled_from([0.1, 0.5, 0.6, 0.9]),
    depth=st.integers(min_value=1, max_value=10),
)
def test_tally_invariants(seed, p, depth):
    m = ModelParams(p)
    c = sample_cluster(m, depth, cluster_stream(seed, 0))
    t = tally(c)
    assert t.node_counts[0] == 1
    for n in range(depth):
        assert 0 <= t.node_counts[n + 1] <= 2 * t.node_counts[n]
        assert t.leaf_counts[n] <= t.node_counts[n]
        with_child = t.node_counts[n] - t.leaf_counts[n]
        assert with_child >= math.ceil(t.node_counts[n + 1] / 2)
    # no node deeper than the bound; each generation holds two flags per
    # node, whose open edges are the nodes of the next; one open edge per
    # non-root node
    assert len(c.opens) <= depth
    assert all(flags.dtype == bool for flags in c.opens)
    assert len(c.opens[0]) == 2
    for upper, lower in zip(c.opens, c.opens[1:]):
        assert len(lower) == 2 * np.count_nonzero(upper)
    assert sum(int(np.count_nonzero(flags)) for flags in c.opens) == sum(t.node_counts) - 1


def test_sample_means_match_closed_forms():
    # mean N_8 ~ mu^8 = 1 and mean L_3 ~ q^2 (2p)^3 = 0.25 at p = 0.5
    m = ModelParams(0.5)
    samples = 100_000
    nodes, leaves = grid_tallies([m], 8, 424242, samples)[0]
    n8 = nodes[:, -1].astype(float)
    l3 = leaves[:, 3].astype(float)
    se_n = n8.std(ddof=1) / math.sqrt(samples)
    se_l = l3.std(ddof=1) / math.sqrt(samples)
    assert abs(n8.mean() - 1.0) <= 3 * se_n
    assert abs(l3.mean() - 0.25) <= 3 * se_l


def test_death_frequency_matches_pgf_iterate():
    m = ModelParams(0.6)
    depth, samples = 12, 20000
    nodes, _ = grid_tallies([m], depth, 777, samples)[0]
    frac = int(np.count_nonzero(nodes[:, -1] == 0)) / samples
    target = pgf_iterate(m, depth, 0.0)
    se = math.sqrt(target * (1 - target) / samples)
    assert abs(frac - target) <= 3 * se


def test_json_round_trip(seven_leaf_cluster):
    doc = cluster_to_json(seven_leaf_cluster)
    again = cluster_from_json(doc)
    assert tally(again) == tally(seven_leaf_cluster)
    assert cluster_to_json(again) == doc


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    p=st.sampled_from([0.0, 0.4, 0.6, 0.8, 1.0]),
    depth=st.integers(min_value=0, max_value=9),
)
def test_json_round_trip_keeps_opens(seed, p, depth):
    c = sample_cluster(ModelParams(p), depth, cluster_stream(seed, 0))
    again = cluster_from_json(cluster_to_json(c))
    assert again.depth_bound == c.depth_bound
    assert [f.tolist() for f in again.opens] == [f.tolist() for f in c.opens]



@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    p=st.sampled_from([0.0, 0.4, 0.6, 0.8, 1.0]),
    depth=st.integers(min_value=0, max_value=12),
)
def test_json_dump_is_the_top_down_writers_bytes(seed, p, depth):
    c = sample_cluster(ModelParams(p), depth, cluster_stream(seed, 0))
    assert json.dumps(cluster_to_json(c)) == json.dumps(reference_cluster_json(c))


@pytest.mark.parametrize(
    "cluster",
    [
        Cluster(0, []),
        Cluster(3, [np.array([True, True]), np.array([False, False, False, False])]),
        Cluster(
            7,
            [np.array([g % 2 == 0, g % 2 == 1]) for g in range(6)] + [np.array([False, False])],
        ),
    ],
    ids=["root-only", "dead-after-generation-1", "alternating-chain"],
)
def test_json_dump_of_hand_clusters_is_the_top_down_writers_bytes(cluster):
    assert json.dumps(cluster_to_json(cluster)) == json.dumps(reference_cluster_json(cluster))

def test_deep_chain_walks_without_recursion():
    # far deeper than the interpreter's recursion limit
    depth = 5000
    last = np.array([False, False])
    chain = Cluster(depth, [np.array([True, False])] * (depth - 1) + [last])
    t = tally(chain)
    assert t.node_counts == [1] * depth + [0]
    assert t.leaf_counts == [0] * (depth - 1) + [1]
    doc = cluster_to_json(chain)
    assert node_records(doc) == node_records(reference_cluster_json(chain))
    again = cluster_from_json(doc)
    assert tally(again) == t
    assert cluster_to_dot(again).count("->") == depth - 1


def test_json_schema_shape():
    c = sample_cluster(ModelParams(1.0), 1, cluster_stream(0, 0))
    doc = cluster_to_json(c)
    assert doc["depth_bound"] == 1
    assert doc["root"]["gen"] == 0
    assert doc["root"]["left"]["gen"] == 1
    assert doc["root"]["right"]["gen"] == 1
    assert "left" not in doc["root"]["left"]


@pytest.mark.parametrize("p", [0.3, 0.6, 0.7, 0.9])
def test_json_reader_levels_are_writable_bool_arrays(p):
    # samples 1 and 3 of seed 37 reach generation 2 at each p
    clusters = [sample_cluster(ModelParams(p), 8, cluster_stream(37, i)) for i in (1, 3)]
    read = [cluster_from_json(cluster_to_json(c)) for c in clusters]
    for c, again in zip(clusters, read):
        assert len(again.opens) == len(c.opens)
        for level, flags in zip(again.opens, c.opens):
            assert level.dtype == np.bool_
            assert level.flags.c_contiguous and level.flags.writeable
            assert np.array_equal(level, flags)
    read[0].opens[0][:] = ~read[0].opens[0]
    # a write lands in that level alone: not in the same cluster's others, nor another's
    assert [f.tolist() for f in read[0].opens[1:]] == [f.tolist() for f in clusters[0].opens[1:]]
    assert [f.tolist() for f in read[1].opens] == [f.tolist() for f in clusters[1].opens]


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        cluster_from_json({"depth_bound": 2})
    with pytest.raises(ValueError):
        cluster_from_json({"depth_bound": 0, "root": {"gen": 0, "left": {"gen": 1}}})
    with pytest.raises(ValueError):
        cluster_from_json({"depth_bound": 2, "root": {"gen": 1}})


@pytest.mark.parametrize("text", ["2.7", "true", '"3"', "-0.5", "Infinity", "1e400"])
def test_json_rejects_non_integer_depth_bound(text):
    doc = json.loads(f'{{"depth_bound": {text}, "root": {{"gen": 0}}}}')
    with pytest.raises(ValueError, match="depth_bound"):
        cluster_from_json(doc)


@pytest.mark.parametrize(
    "root_gen, child_gen", [(0.0, 1), (0, True), (False, 1), (0, "1")]
)
def test_json_rejects_non_integer_gen(root_gen, child_gen):
    doc = {"depth_bound": 2, "root": {"gen": root_gen, "left": {"gen": child_gen}}}
    with pytest.raises(ValueError, match="generation"):
        cluster_from_json(doc)



# the message, and so the node it names, is pinned for each malformed document
@pytest.mark.parametrize(
    "depth_bound, root, message",
    [
        (2, [1], "cluster node must be an object, got list"),
        (3, {"gen": 0, "left": None}, "cluster node must be an object, got NoneType"),
        (3, {"left": {"gen": 1}, "right": {"gen": 2}}, "node declares generation 2 but sits at 1"),
        (3, {"left": {}, "right": {"gen": 2}}, "node declares generation 2 but sits at 1"),
        (3, {"gen": 0, "right": {"gen": True}}, "node declares generation True but sits at 1"),
        (0, {"gen": 0, "right": {"gen": 1}}, "cluster node at generation 1 exceeds depth bound 0"),
        (
            2,
            {"gen": 0, "left": {"gen": 1, "right": {"gen": 2, "left": {"gen": 3}}}},
            "cluster node at generation 3 exceeds depth bound 2",
        ),
        # a level's nodes are checked before a child past the bound is refused ...
        (
            2,
            {"left": {"left": {"left": {"gen": 3}}, "right": {"gen": 7}}},
            "node declares generation 7 but sits at 2",
        ),
        # ... and a child past the bound is refused without being checked
        (1, {"left": {"left": 5}}, "cluster node at generation 2 exceeds depth bound 1"),
    ],
)
def test_json_reader_errors(depth_bound, root, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        cluster_from_json({"depth_bound": depth_bound, "root": root})


def test_json_reader_accepts_nodes_without_gen_or_with_extra_keys():
    doc = {"depth_bound": 2, "root": {"left": {"x": 1, "gen": 1}, "extra": [1], "right": {}}}
    again = cluster_from_json(doc)
    assert [f.tolist() for f in again.opens] == [[True, True], [False] * 4]

def test_dot_output(seven_leaf_cluster):
    dot = cluster_to_dot(seven_leaf_cluster)
    assert dot.startswith("digraph cluster {")
    assert '"" -> "0" [label="0"];' in dot
    assert '"11" -> "110" [label="0"];' in dot
    assert dot.rstrip().endswith("}")


def test_cluster_stream_rejects_negative():
    with pytest.raises(ValueError):
        cluster_stream(-1, 0)
    with pytest.raises(ValueError):
        cluster_stream(0, -2)


@pytest.mark.parametrize("seed, index", [(2**64, 0), (0, 2**64), (2**70, 3)])
def test_cluster_stream_rejects_keys_past_64_bits(seed, index):
    with pytest.raises(ValueError, match="2\\*\\*64"):
        cluster_stream(seed, index)


@pytest.mark.parametrize("seed, index", [(1.5, 0), (0, 2.0), (True, 0), (0, np.float64(3))])
def test_cluster_stream_refuses_non_integer_keys(seed, index):
    # a float would be truncated to another stream's key word
    bad = seed if type(seed) is not int else index
    with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {bad!r}")):
        cluster_stream(seed, index)
    drawn = cluster_stream(np.uint64(2**64 - 1), np.int32(3)).random(4)
    assert drawn.tolist() == cluster_stream(2**64 - 1, 3).random(4).tolist()


def test_large_seeds_key_distinct_streams():
    # each seed is one exact 64-bit key word: no rounding, no wrap to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [cluster_stream(s, 0).random(4).tolist() for s in (0, 2**63, 2**63 + 1, 2**64 - 1)]
    assert len({tuple(d) for d in draws}) == 4


@pytest.mark.parametrize("seed", [0, 7, 2**62 + 5, 2**63 + 1, 2**64 - 1])
def test_sample_streams_match_cluster_stream(seed):
    streams = SampleStreams(seed, 50)
    for index in (3, 0, 49, 3):
        streams.at(index).random(5)  # a part-used stream is reset by the next at()
        assert streams.at(index).random(9).tolist() == cluster_stream(seed, index).random(9).tolist()


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_keyed_stream_state_is_philox_keyed(seed):
    # the key handed over as seed state sets what Philox(key=...) sets
    def plain(state):
        return {
            k: plain(v) if isinstance(v, dict) else np.asarray(v).tolist()
            for k, v in state.items()
        }

    key = np.array([seed, 5], dtype=np.uint64)
    keyed = percolate._philox_stream(seed, 5).bit_generator.state
    assert plain(keyed) == plain(np.random.Philox(key=key).state)


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 1, 2**64 - 1])
@pytest.mark.parametrize("position", [0, 2, 4, 6, 1022, 1024, 4098])
def test_sample_streams_at_a_position(seed, position):
    streams = SampleStreams(seed, 8)
    streams.at(6, 9).random(3)  # a part-used stream is reset by the next at()
    drawn = streams.at(5, position).random(11)
    assert drawn.tolist() == cluster_stream(seed, 5).random(position + 11)[position:].tolist()


@settings(max_examples=200, deadline=None)
@given(p=st.floats(min_value=0.0, max_value=1.0), depth=st.integers(min_value=0, max_value=200))
def test_block_sizes_are_whole_counter_steps_under_the_cap(p, depth):
    sizes = percolate._block_sizes(p, depth)
    assert all(k % 4 == 0 and 4 <= k <= percolate._BLOCK_CAP for k in sizes)
    assert list(sizes) == sorted(set(sizes))


def test_sample_streams_reject_out_of_range_keys():
    with pytest.raises(ValueError):
        SampleStreams(2**64, 1)
    with pytest.raises(ValueError):
        SampleStreams(1, 2**64 + 1)
    with pytest.raises(IndexError):
        SampleStreams(1, 4).at(4)


# the counter's first 64-bit word holds position // 4, so every position below 2**66
# is reachable, and the ones past it are refused by name, not by NumPy's OverflowError
@pytest.mark.parametrize("position", [2**66 - 4, 2**66 - 1])
def test_sample_streams_reach_the_last_positions(position):
    drawn = SampleStreams(3, 2).at(1, position).random(6).tolist()
    assert drawn == philox_reference.uniforms(3, 1, position, 6)


@pytest.mark.parametrize("position", [2**66, 2**66 + 3, 2**70])
def test_sample_streams_refuse_positions_past_the_counter_word(position):
    with pytest.raises(ValueError, match=f"^position must be < 2\\*\\*66, got {position}$"):
        SampleStreams(3, 2).at(1, position)


@pytest.mark.parametrize("seed, count", [(1.5, 4), (1, 4.0), (False, 4), (1, np.float32(2))])
def test_sample_streams_refuse_non_integer_seeds_and_counts(seed, count):
    bad = seed if type(seed) is not int else count
    with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {bad!r}")):
        SampleStreams(seed, count)
    streams = SampleStreams(np.int64(7), np.uint16(4))
    assert streams.at(3).random(4).tolist() == cluster_stream(7, 3).random(4).tolist()
    with pytest.raises(ValueError, match=re.escape("must be an integer, got 2.5")):
        streams.at(2.5)


# depth 0, the boundary densities, one block only, and the escalated block
@pytest.mark.parametrize(
    "p, depth, seed, samples",
    [(0.6, 0, 3, 5), (0.0, 4, 3, 7), (1.0, 5, 3, 3), (0.8, 12, 2**64 - 60, 60), (0.45, 30, 2, 400)],
)
def test_one_p_grid_tallies_match_sample_tally(p, depth, seed, samples):
    m = ModelParams(p)
    nodes, leaves = grid_tallies([m], depth, seed, samples)[0]
    assert nodes.dtype == leaves.dtype == np.int32
    assert nodes.shape == (samples, depth + 1) and leaves.shape == (samples, depth)
    for i in range(samples):
        t = sample_tally(m, depth, cluster_stream(seed, i))
        assert (nodes[i, depth], leaves[i].tolist()) == (t.node_counts[depth], t.leaf_counts)
        assert nodes[i].tolist() == t.node_counts


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    p=st.floats(min_value=0.55, max_value=1.0),
    depth=st.integers(min_value=0, max_value=14),
    samples=st.integers(min_value=1, max_value=30),
)
def test_one_p_grid_tallies_match_sample_tally_supercritical(seed, p, depth, samples):
    # near p = 1 and depth 14 the clusters outgrow their last block and resume
    m = ModelParams(p)
    nodes, leaves = grid_tallies([m], depth, seed, samples)[0]
    assert nodes.shape == (samples, depth + 1) and leaves.shape == (samples, depth)
    for i in range(samples):
        t = sample_tally(m, depth, cluster_stream(seed, i))
        assert (nodes[i, depth], leaves[i].tolist()) == (t.node_counts[depth], t.leaf_counts)
        assert nodes[i].tolist() == t.node_counts


# some samples of (0.9, 14) at seed 2**64 - 27 resume past their last block
# (test_reference_cells_reach_every_pass); at depth 5 all fit the first
@example(p=0.9, depths=(5, 14), seed=2**64 - 27, samples=60)
@example(p=0.9, depths=(0, 14), seed=2**64 - 27, samples=60)
@settings(max_examples=60, deadline=None)
@given(
    p=st.one_of(st.sampled_from([0.0, 2.0**-53, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    depths=st.tuples(st.integers(min_value=0, max_value=16), st.integers(min_value=0, max_value=16)),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    samples=st.integers(min_value=1, max_value=40),
)
def test_one_p_grid_tallies_cut_to_a_shallower_depth_are_its_tallies(p, depths, seed, samples):
    # generation g reads the same uniforms whatever the depth bound, so the
    # deeper tallies cut to depth d are the tallies at d
    d, deep = sorted(depths)
    m = ModelParams(p)
    nodes, leaves = grid_tallies([m], deep, seed, samples)[0]
    shallow_nodes, shallow_leaves = grid_tallies([m], d, seed, samples)[0]
    assert np.array_equal(nodes[:, : d + 1], shallow_nodes)
    assert np.array_equal(leaves[:, :d], shallow_leaves)


def test_depth_zero_tallies_draw_nothing(monkeypatch):
    # depth 0 reads no generation, so no stream is keyed
    calls = []
    at = SampleStreams.at
    monkeypatch.setattr(SampleStreams, "at", lambda self, *a: calls.append(a) or at(self, *a))
    m = ModelParams(0.6)
    nodes, leaves = grid_tallies([m], 0, 3, 1000)[0]
    assert calls == []
    assert nodes.shape == (1000, 1) and leaves.shape == (1000, 0)
    for i in range(0, 1000, 97):
        t = sample_tally(m, 0, cluster_stream(3, i))
        assert (nodes[i].tolist(), leaves[i].tolist()) == (t.node_counts, t.leaf_counts)
    assert grid_tallies([], 8, 3, 1000) == []
    assert calls == []


_EDGE_PS = [0.0, 5e-324, 2.0**-53, 0.45, 0.6, 1 - 2.0**-53, 1.0]


# p = 0.6 at depth 16 has a first block of 352 uniforms, 186 samples a chunk
# when drawn alone; p = 1's first block is the 1024 cap, so the first pass
# they share takes 64 a chunk, and p = 0.6 tallies its whole last block from it
@example(ps=[0.6, 0.45, 0.6, 1.0, 0.0], depth=16, seed=2**64 - 1, samples=187)
# p = 0.45's blocks (36, 144) fit in p = 0.6's shared 352: one pass, then the resume
@example(ps=[0.45, 0.6], depth=16, seed=7, samples=1000)
# p = 0.55's (144, 576) does not: it tallies 352 and continues from there
@example(ps=[0.55, 0.6], depth=16, seed=7, samples=1000)
# p = 0.45 tallies its last block, 128, of p = 0.75's 1024 in spans of 512 rows, 8
# chunks of 64: one row short of a span, a whole span, and one row into the next
@example(ps=[0.45, 0.75], depth=12, seed=7, samples=2047)
@example(ps=[0.45, 0.75], depth=12, seed=7, samples=2048)
@example(ps=[0.45, 0.75], depth=12, seed=7, samples=2049)
@example(ps=[1.0, 0.9, 1.0], depth=9, seed=0, samples=65)
@settings(max_examples=40, deadline=None)
@given(
    ps=st.lists(st.one_of(st.sampled_from(_EDGE_PS), st.floats(min_value=0.0, max_value=1.0)), max_size=5),
    depth=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    samples=st.one_of(st.sampled_from([63, 64, 65, 186, 187]), st.integers(min_value=1, max_value=200)),
)
def test_grid_tallies_are_each_p_drawn_alone(ps, depth, seed, samples):
    # each p of a grid, repeated or not, whatever the shared first block,
    # gets the tallies it gets by itself
    grid = [ModelParams(p) for p in ps]
    got = grid_tallies(grid, depth, seed, samples)
    assert len(got) == len(grid)
    for m, (nodes, leaves) in zip(grid, got):
        alone_nodes, alone_leaves = grid_tallies([m], depth, seed, samples)[0]
        assert np.array_equal(nodes, alone_nodes) and np.array_equal(leaves, alone_leaves)


def record_keyings(monkeypatch):
    """Every keying of a stream from here on, as ``[index, position, uniforms then drawn]``."""
    calls = []
    at = SampleStreams.at

    class Recording:
        def __init__(self, stream):
            self.stream = stream
            # the resume draws raw words through the stream's bit generator
            self.bit_generator = self

        def random(self, n=None, out=None):
            calls[-1][2] += n if out is None else out.size
            return self.stream.random(n, out=out)

        def random_raw(self, n):
            calls[-1][2] += n
            return self.stream.bit_generator.random_raw(n)

    def recording_at(self, index, position=0):
        calls.append([index, position, 0])
        return Recording(at(self, index, position))

    monkeypatch.setattr(SampleStreams, "at", recording_at)
    return calls


# two blocks with samples at both edges; two blocks with sample 177 reading
# exactly its last block of 80; two blocks at (0.6, 16); one block
@pytest.mark.parametrize(
    "p, depth, seed, samples",
    [(0.4, 30, 18, 200), (0.4, 30, 2, 200), (0.6, 16, 7, 300), (0.9, 14, 2**64 - 27, 60)],
)
def test_lockstep_passes_key_each_stream_once_per_block(monkeypatch, p, depth, seed, samples):
    calls = record_keyings(monkeypatch)
    m = ModelParams(p)
    nodes, leaves = grid_tallies([m], depth, seed, samples)[0]
    sizes = percolate._block_sizes(p, depth)
    needed, resumes, resumed_words = [], [], []
    for i in range(samples):
        t = sample_tally(m, depth, cluster_stream(seed, i))
        assert (nodes[i, depth], leaves[i].tolist()) == (t.node_counts[depth], t.leaf_counts)
        assert nodes[i].tolist() == t.node_counts
        ends = np.cumsum([2 * n for n in t.node_counts[:depth]]).tolist() or [0]
        needed.append(ends[-1])
        past = [g for g, end in enumerate(ends) if end > sizes[-1]]
        if past:
            resumes.append([i, ends[past[0]] - 2 * t.node_counts[past[0]]])
            resumed_words.append(sum(2 * n for n in t.node_counts[past[0] : depth]))
    # the first pass keys each sample once, at position 0, for the first block
    assert calls[:samples] == [[i, 0, sizes[0]] for i in range(samples)]
    rest = calls[samples:]
    if len(sizes) == 2:
        # the second continues each sample outgrowing the first at its end,
        # drawing only the uniforms the first block lacks
        first, second = sizes
        continued = [[i, first, second - first] for i in range(samples) if needed[i] > first]
        assert continued and rest[: len(continued)] == continued
        rest = rest[len(continued) :]
    # a sample outgrowing the last block resumes at the generation that ran past it
    assert [call[:2] for call in rest] == resumes
    # and draws exactly the words of generations g .. depth - 1, two per node
    assert [call[2] for call in rest] == resumed_words
    assert sorted(i for i, position, _ in calls if position == 0) == list(range(samples))


# the benchmark's sweep grid: p = 0.6's first block of 352 is shared, which holds all of
# p = 0.45's blocks (36, 144) and the first of p = 0.55's (144, 576); p = 0.75's single
# block of 1024 holds all of p = 0.45's (32, 128) and p = 0.6's (160, 640) at depth 12;
# without p = 0.6 the shared block is p = 0.55's first, 144, which is p = 0.45's last
@pytest.mark.parametrize(
    "ps, depth, seed, samples",
    [
        ([0.45, 0.55, 0.6], 16, 7, 1000),
        ([0.6, 0.45, 0.75], 12, 2**64 - 1, 600),
        ([0.45, 0.55], 16, 7, 1000),
    ],
)
def test_grid_passes_key_no_sample_below_the_shared_block(monkeypatch, ps, depth, seed, samples):
    calls = record_keyings(monkeypatch)
    grid = [ModelParams(p) for p in ps]
    got = grid_tallies(grid, depth, seed, samples)
    shared = max(percolate._block_sizes(p, depth)[0] for p in ps)
    # the first pass keys each sample once, for the shared block
    assert calls[:samples] == [[i, 0, shared] for i in range(samples)]
    want, fitting_resumes = [], 0
    for m, (nodes, leaves) in zip(grid, got):
        last = percolate._block_sizes(m.p, depth)[-1]
        continued, resumed = [], []
        for i in range(samples):
            t = sample_tally(m, depth, cluster_stream(seed, i))
            assert (nodes[i].tolist(), leaves[i].tolist()) == (t.node_counts, t.leaf_counts)
            ends = np.cumsum([2 * n for n in t.node_counts[:depth]]).tolist()
            if ends[-1] > shared:
                continued.append([i, shared, last - shared])
            past = [g for g, end in enumerate(ends) if end > last]
            if past:
                g = past[0]
                resumed.append([i, ends[g] - 2 * t.node_counts[g], 2 * sum(t.node_counts[g:depth])])
        # a p whose last block fits in the shared one continues no sample and goes
        # straight to the resume; any other continues each outgrowing sample from its end
        if last > shared:
            assert continued
            want += continued
        else:
            fitting_resumes += len(resumed)
        want += resumed
    assert fitting_resumes > 0
    assert calls[samples:] == want


@pytest.mark.parametrize("depth", [0, 12])
def test_grid_of_no_samples_keys_no_stream(monkeypatch, depth):
    calls = record_keyings(monkeypatch)
    got = grid_tallies([ModelParams(0.45), ModelParams(0.9)], depth, 7, 0)
    shapes = [(n.shape, n.dtype, l.shape, l.dtype) for n, l in got]
    assert shapes == [((0, depth + 1), np.int32, (0, depth), np.int32)] * 2
    assert calls == []


def test_grid_continues_no_sample_when_none_outgrows_the_shared_block(monkeypatch):
    # p = 0.55's last block of 576 is past the shared block of 144, but the most any
    # of these 8 samples reads is 142 uniforms, so none is continued or resumed
    calls = record_keyings(monkeypatch)
    grid, depth, seed, samples = [ModelParams(0.45), ModelParams(0.55)], 16, 18, 8
    got = grid_tallies(grid, depth, seed, samples)
    assert [percolate._block_sizes(m.p, depth) for m in grid] == [(36, 144), (144, 576)]
    for m, (nodes, leaves) in zip(grid, got):
        for i in range(samples):
            t = sample_tally(m, depth, cluster_stream(seed, i))
            assert (nodes[i].tolist(), leaves[i].tolist()) == (t.node_counts, t.leaf_counts)
            assert 2 * sum(t.node_counts[:depth]) <= 144
    assert calls == [[i, 0, 144] for i in range(samples)]


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_deep_tallies_hold_little_beyond_the_tallies(p):
    # a live row spends a node a generation, so a block of k uniforms is tallied for
    # k/2 generations at most: no buffer of a chunk spans all 300
    tracemalloc.start()
    try:
        [(nodes, leaves)] = grid_tallies([ModelParams(p)], 300, 7, 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < nodes.nbytes + leaves.nbytes + 8 * 2**20


def test_lockstep_last_block_edge_cell_has_a_sample_reading_exactly_its_last_block():
    # the (0.4, 30, 2, 200) cell above: a `>= k` slip would resume sample 177
    m, depth = ModelParams(0.4), 30
    t = sample_tally(m, depth, cluster_stream(2, 177))
    assert 2 * sum(t.node_counts[:depth]) == percolate._block_sizes(0.4, depth)[-1] == 80


@settings(max_examples=300, deadline=None)
@given(
    p=st.one_of(
        st.sampled_from([0.0, 5e-324, 2.0**-53, 0.5, 1 - 2.0**-53, 1.0]),
        st.integers(min_value=0, max_value=2**53).map(lambda m: m * 2.0**-53),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    words=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=8),
)
def test_raw_threshold_opens_the_words_random_reads_below_p(p, words):
    # random() on Philox reads a raw word w as (w >> 11) * 2**-53
    top = percolate._raw_threshold(p)
    for w in [top, top + 1, *words]:
        if 0 <= w < 2**64:
            assert (w <= top) == ((w >> 11) * 2.0**-53 < p)


@pytest.mark.parametrize("p", [0.7, 0.9])
def test_raw_words_give_the_flags_of_the_uniforms(p):
    words = cluster_stream(20127, 5).bit_generator.random_raw(2**20)
    uniforms = cluster_stream(20127, 5).random(2**20)
    assert np.array_equal(words <= np.uint64(percolate._raw_threshold(p)), uniforms < p)


def test_one_p_grid_tallies_reject_bad_arguments():
    with pytest.raises(ValueError):
        grid_tallies([ModelParams(0.5)], -1, 0, 4)[0]
    with pytest.raises(ValueError):
        grid_tallies([ModelParams(0.5)], 4, 2**64, 4)[0]


@pytest.mark.parametrize(
    "depth, seed, samples", [(4.0, 0, 4), (4, 2.9, 4), (4, 0, 2.5), (True, 0, 4), (4, 0, True)]
)
def test_grid_tallies_refuse_non_integer_arguments(depth, seed, samples):
    bad = next(v for v in (depth, seed, samples) if type(v) is not int)
    with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {bad!r}")):
        grid_tallies([ModelParams(0.5)], depth, seed, samples)
    [(nodes, leaves)] = grid_tallies([ModelParams(0.5)], np.int8(4), np.uint64(2), np.int64(4))
    [(want_nodes, want_leaves)] = grid_tallies([ModelParams(0.5)], 4, 2, 4)
    assert (nodes.tolist(), leaves.tolist()) == (want_nodes.tolist(), want_leaves.tolist())


def test_rng_version_is_pinned():
    assert isinstance(percolate.RNG_VERSION, str) and percolate.RNG_VERSION
