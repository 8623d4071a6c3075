import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from perccode.analytic import ModelParams
from perccode.infomeasure import _KEYED_ROWS, _certified_sums, measures, row_measures
from perccode.percolate import (
    GenerationTally,
    cluster_stream,
    grid_tallies,
    sample_cluster,
    tally,
)

from conftest import cluster_from_codewords
from test_golden import CASES, golden_rows


def make_tally(leaf_counts, depth_bound=None, node_counts=None):
    depth = depth_bound if depth_bound is not None else len(leaf_counts)
    nodes = node_counts if node_counts is not None else [1] + [0] * depth
    return GenerationTally(depth_bound=depth, node_counts=nodes, leaf_counts=leaf_counts)


@pytest.fixture
def seven_leaf_tally(seven_leaf_cluster):
    return tally(seven_leaf_cluster)


def test_normalization_examples(seven_leaf_tally):
    # 1 * 0.25 + 1 * 0.125 + 5 * 0.0625
    m = measures(seven_leaf_tally, 0.5)
    assert m.normalization == pytest.approx(0.6875, abs=1e-12)
    assert m.leaf_total == 7
    root_only = make_tally([1, 0, 0])
    for p in (0.0, 0.3, 1.0):
        assert measures(root_only, p).normalization == 1.0
    leafless = make_tally([0, 0, 0])
    assert measures(leafless, 0.5).normalization == 0.0


def test_config_entropy_examples(seven_leaf_tally):
    assert measures(seven_leaf_tally, 0.5).entropy_bits == pytest.approx(2.5503, abs=1e-3)
    assert measures(make_tally([1, 0]), 0.9).entropy_bits == 0.0
    assert measures(make_tally([0, 0, 4]), 0.5).entropy_bits == pytest.approx(
        2.0, abs=1e-12
    )


def test_config_entropy_hand_value(seven_leaf_tally):
    # independent evaluation of the same sum with explicit weights
    lam = 0.6875
    weights = [0.25 / lam] + [0.125 / lam] + [0.0625 / lam] * 5
    by_hand = -math.fsum(w * math.log2(w) for w in weights)
    assert measures(seven_leaf_tally, 0.5).entropy_bits == pytest.approx(by_hand, abs=1e-12)


def test_config_avg_length_examples(seven_leaf_tally):
    ell = measures(seven_leaf_tally, 0.5).avg_length
    assert ell == pytest.approx(3.0909, abs=1e-3)
    assert ell == pytest.approx(2.125 / 0.6875, abs=1e-12)
    assert measures(make_tally([1, 0]), 0.4).avg_length == 0.0
    assert measures(make_tally([0, 0, 4]), 0.5).avg_length == pytest.approx(2.0, abs=1e-12)


def test_undefined_when_no_leaves():
    leafless = make_tally([0, 0])
    for p in (0.0, 0.5):
        m = measures(leafless, p)
        assert m.normalization == 0.0
        assert m.entropy_bits is None and m.avg_length is None


def test_p_zero_keeps_only_the_root_term():
    m = measures(make_tally([1, 2, 3]), 0.0)
    assert m.normalization == 1.0
    assert m.entropy_bits == 0.0
    assert m.avg_length == 0.0


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    p=st.sampled_from([0.2, 0.5, 0.6, 0.8]),
)
def test_normalized_weights_sum_to_one(seed, p):
    t = tally(sample_cluster(ModelParams(p), 10, cluster_stream(seed, 2)))
    m = measures(t, p)
    lam = m.normalization
    if lam == 0.0:
        return
    total = math.fsum(
        count * p**n / lam for n, count in enumerate(t.leaf_counts) if count
    )
    assert total == pytest.approx(1.0, abs=1e-12)
    assert m.entropy_bits <= math.log2(sum(t.leaf_counts)) + 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_entropy_bounded_by_length_at_half(seed):
    # at p = 1/2 the normalized weights are the Kraft-weighted code
    # distribution, and H = L + log2(Lambda) with Lambda <= 1
    t = tally(sample_cluster(ModelParams(0.5), 10, cluster_stream(seed, 3)))
    m = measures(t, 0.5)
    lam = m.normalization
    if lam == 0.0:
        return
    h, ell = m.entropy_bits, m.avg_length
    assert h <= ell + 1e-9
    assert h - ell == pytest.approx(math.log2(lam), abs=1e-9)


def test_entropy_depends_only_on_tally():
    # mirrored geometry, same per-generation counts
    a = tally(cluster_from_codewords(["00", "01", "1"], 3))
    b = tally(cluster_from_codewords(["0", "10", "11"], 3))
    assert a.leaf_counts == b.leaf_counts
    for p in (0.3, 0.5, 0.7):
        assert measures(a, p) == measures(b, p)


def test_new_leaf_shifts_normalization_by_its_weight():
    base = make_tally([1, 0, 0, 0])
    grown = make_tally([1, 0, 2, 0])
    p = 0.6
    shift = measures(grown, p).normalization - measures(base, p).normalization
    assert shift == pytest.approx(2 * p**2, abs=1e-12)


def test_rejects_bad_p(seven_leaf_tally):
    with pytest.raises(ValueError):
        measures(seven_leaf_tally, -0.2)
    with pytest.raises(ValueError):
        measures(seven_leaf_tally, 1.0001)


def by_measures(leaves: np.ndarray, p: float) -> np.ndarray:
    """``measures`` of each row on its own, None written as NaN."""
    return np.array(
        [
            [m.normalization, m.entropy_bits, m.avg_length]
            for m in (measures(make_tally(row), p) for row in leaves.tolist())
        ],
        dtype=float,
    ).reshape(len(leaves), 3)


def at_own_depth(leaves: np.ndarray, p: float) -> np.ndarray:
    """``row_measures`` of the whole matrix, cut at its own depth alone."""
    (got,) = row_measures(leaves, p, [leaves.shape[1]])
    return got


@pytest.mark.parametrize("depth", [1, 16])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.7, 1.0])
def test_row_measures_equal_measures_row_by_row(p, depth):
    _, leaves = grid_tallies([ModelParams(p)], depth, 5, 400)[0]
    got = at_own_depth(leaves, p)
    assert got.shape == (400, 3)
    # ==, with NaN exactly where measures gives None
    assert np.array_equal(got, by_measures(leaves, p), equal_nan=True)


def test_row_measures_of_depth_zero_rows():
    # no generation lies above a depth-0 bound, so no row has a leaf
    got = at_own_depth(np.zeros((3, 0), dtype=np.int64), 0.5)
    assert np.array_equal(got, [[0.0, math.nan, math.nan]] * 3, equal_nan=True)
    # whatever the matrix holds past the cut, once per depth asked for
    leaves = np.arange(15, dtype=np.int32).reshape(3, 5)
    for depths in ([0], [0, 0]):
        got = list(row_measures(leaves, 0.5, depths))
        assert len(got) == len(depths)
        for cut in got:
            assert np.array_equal(cut, [[0.0, math.nan, math.nan]] * 3, equal_nan=True)


def test_row_measures_across_key_chunks():
    # rows repeat on both sides of every chunk boundary, in shuffled order
    _, sampled = grid_tallies([ModelParams(0.6)], 10, 9, 300)[0]
    order = np.random.default_rng(4).integers(0, len(sampled), 2 * _KEYED_ROWS + 7)
    leaves = sampled[order]
    got = at_own_depth(leaves, 0.6)
    assert got.shape == (len(leaves), 3)
    assert np.array_equal(got, by_measures(leaves, 0.6), equal_nan=True)


def test_row_measures_across_key_chunks_of_distinct_rows():
    # nearly all rows differ, so that the distinct rows span several chunks too
    rng = np.random.default_rng(4)
    sampled = rng.integers(0, 60, (2 * _KEYED_ROWS + 7, 10)) * (rng.random((1, 10)) < 0.8)
    leaves = sampled[rng.integers(0, len(sampled), 2 * _KEYED_ROWS + 7)]
    got = at_own_depth(leaves, 0.6)
    assert got.shape == (len(leaves), 3)
    assert np.array_equal(got, by_measures(leaves, 0.6), equal_nan=True)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(want)
    return bool(np.array_equal(np.isnan(got), nan)) and got[~nan].tobytes() == want[~nan].tobytes()


@st.composite
def leaf_rows(draw):
    # rows drawn from a small pool, so that some repeat, with zero counts
    # common and now and then a count past 2**53, which rounds as a float,
    # up to the largest whose n * L_n fits in int64
    depth = draw(st.integers(min_value=1, max_value=40))
    largest = np.iinfo(np.int64).max // max(depth - 1, 1)
    count = st.one_of(st.just(0), st.integers(0, 40), st.integers(0, largest), st.just(largest))
    pool = draw(st.lists(st.lists(count, min_size=depth, max_size=depth), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    return np.array([pool[i] for i in picks], dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(
    p=st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(min_value=0.0, max_value=1.0)),
    leaves=leaf_rows(),
)
@example(p=0.0, leaves=np.array([[0], [3], [0]], dtype=np.int64))
@example(p=1.0, leaves=np.array([[0, 0, 0], [2, 0, 5], [0, 0, 0]], dtype=np.int64))
@example(p=0.5, leaves=np.zeros((4, 7), dtype=np.int64))
@example(p=1e-200, leaves=np.array([[0, 1, 1], [1, 0, 1]], dtype=np.int64))
# p^1 / Lambda underflows to 0: that leaf adds nothing to the entropy
@example(p=5e-324, leaves=np.array([[2, 1], [0, 1]], dtype=np.int64))
# one leaf: probability 1, so the entropy is 0.0 - 1 * 1.0 * 0.0 = +0.0
@example(p=0.7, leaves=np.array([[0, 0, 1, 0]], dtype=np.int64))
# a leaf in every generation: the longest run of terms each row subtracts in order
@example(p=0.9, leaves=np.array([np.arange(1, 41), np.arange(40, 0, -1)], dtype=np.int64))
def test_row_measures_are_measures_bit_for_bit(p, leaves):
    assert same_bits(at_own_depth(leaves, p), by_measures(leaves, p))


@settings(max_examples=100, deadline=None)
@given(
    p=st.one_of(
        st.sampled_from([0.0, 5e-324, 2.0**-53, 0.5, 1 - 2.0**-53, 1.0]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    leaves=leaf_rows(),
    data=st.data(),
)
@example(p=0.5, leaves=np.array([[1, 0, 2], [0, 0, 0], [0, 3, 0]], dtype=np.int64), data=None)
def test_row_measures_of_rows_cut_where_no_leaf_lies_past_are_the_deep_ones(p, leaves, data):
    # every cut of one call, in order and with repeats, is row_measures of the
    # matrix cut to that depth alone, NaN included; zero counts add no term to
    # Lambda, the length numerator or the entropy, so a row with no leaf past
    # the first cut measures there as it does uncut
    depth = leaves.shape[1]
    if data is None:
        depths, zeroed = [1, 3, 0, 1], np.array([True, True, False])
    else:
        depths = data.draw(st.lists(st.integers(min_value=0, max_value=depth), min_size=1, max_size=4))
        zeroed = np.array(data.draw(st.lists(st.booleans(), min_size=len(leaves), max_size=len(leaves))))
    leaves[zeroed, depths[0] :] = 0
    cuts = list(row_measures(leaves, p, depths))
    assert len(cuts) == len(depths)
    for d, cut in zip(depths, cuts):
        assert cut.tobytes() == at_own_depth(leaves[:, :d], p).tobytes()
    assert at_own_depth(leaves, p)[zeroed].tobytes() == cuts[0][zeroed].tobytes()


@settings(max_examples=300, deadline=None)
@given(
    p=st.one_of(
        st.sampled_from([0.0, 5e-324, 2.0**-53, 2.0**-27, 0.25, 0.5, 0.75, 1 - 2.0**-53, 1.0]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    leaves=leaf_rows(),
)
# Lambda's terms 2**53, 1 and 2**-53: the running sum stays 2**53 and its
# errors 1 + 2**-53 round to 1 in e, so s + e is a tie that rounds down, where
# the sum rounds up to 2**53 + 2; only the fallback gets it
@example(p=2.0**-27, leaves=np.array([[2**53, 2**27, 2]], dtype=np.int64))
# sums that are powers of two: 1 + 2 * 0.5 = 2, 2**53 + 0.5 rounds down to
# 2**53, whose gap below is half the one above, and the tie 2**53 + 1 rounds
# to the even 2**53
@example(p=0.5, leaves=np.array([[1, 2], [2**53, 1], [2**53, 2]], dtype=np.int64))
# 1 + (1 - 2**-53) = 2 - 2**-53 ties between 2 and the float below it
@example(p=1 - 2.0**-53, leaves=np.array([[1, 1]], dtype=np.int64))
# 0.1 + 0.01 + 0.001 added in turn is 0.11100000000000002, not 0.111
@example(p=0.1, leaves=np.array([[0, 1, 1, 1]], dtype=np.int64))
@example(p=5e-324, leaves=np.array([[0, 3], [1, 3]], dtype=np.int64))
def test_certified_sums_are_fsum_bit_for_bit(p, leaves):
    # Lambda's terms L_n p^n and the length numerator's n L_n p^n, as row_measures
    # sums them, at every cut from 0 to the depth
    depth = leaves.shape[1]
    weights = np.array([p**n for n in range(depth)])[:, None]
    terms = np.concatenate([leaves.T * weights, leaves.T * np.arange(depth)[:, None] * weights], axis=1)
    cuts = list(range(depth + 1))
    want = [[math.fsum(column[:d]) for column in terms.T.tolist()] for d in cuts]
    assert _certified_sums(terms, cuts).tobytes() == np.array(want).reshape(len(cuts), -1).tobytes()


@pytest.mark.parametrize("depth", [0, 1, 18])
def test_row_measures_of_no_rows(depth):
    got = at_own_depth(np.zeros((0, depth), dtype=np.int64), 0.7)
    assert got.shape == (0, 3) and got.dtype == np.float64
    with pytest.raises(ValueError):
        at_own_depth(np.zeros((0, depth), dtype=np.int64), 1.5)


@pytest.mark.parametrize("depths", [[10], [4, 5]])
def test_row_measures_refuses_depths_past_its_columns(depths):
    # a cut past the last column has no counts to read
    with pytest.raises(ValueError, match=f"depth {max(depths)} cuts past the matrix's 4 leaf"):
        list(row_measures(np.zeros((3, 4), dtype=np.int32), 0.5, depths))
    # a depth-0 cut of a matrix with no columns, as the oracle's depth 0 makes, still answers
    (got,) = row_measures(np.zeros((3, 0), dtype=np.int64), 0.5, [0])
    assert np.array_equal(got, [[0.0, math.nan, math.nan]] * 3, equal_nan=True)


def test_row_measures_refuses_counts_whose_length_terms_overflow():
    largest = np.iinfo(np.int64).max // 4
    assert not np.isnan(at_own_depth(np.array([[0, 0, 0, 0, largest]]), 0.5)).any()
    with pytest.raises(ValueError, match="overflows"):
        at_own_depth(np.array([[0, 0, 0, 0, largest + 1]]), 0.5)
    # at depth 1 the bound is int64's own, which a uint64 count can pass
    widest = np.array([[np.iinfo(np.int64).max]], dtype=np.uint64)
    assert np.array_equal(at_own_depth(widest, 0.5), by_measures(widest, 0.5))


@pytest.mark.parametrize(
    "leaves, depth, message",
    [
        # truncated, its Lambda would read 0.5 where measures gives 1.35
        (np.array([[0.5, 1.7]]), 2, "must be integers, got dtype float64"),
        (np.array([[True, False]]), 2, "must be integers, got dtype bool"),
        # its entropy would be NaN, with a divide-by-zero warning
        (np.array([[1, -1]]), 2, "must be >= 0, got -1"),
        # widened to int64 it would wrap, to Lambda = -9.2e18
        (np.array([[2**63]], dtype=np.uint64), 1, r"past 2\*\*63 / 1 overflows"),
    ],
)
def test_row_measures_refuses_counts_that_are_no_leaf_counts(leaves, depth, message):
    with pytest.raises(ValueError, match=message):
        row_measures(leaves, 0.5, [depth])


def test_row_measures_rejects_bad_p():
    with pytest.raises(ValueError):
        at_own_depth(np.ones((2, 3), dtype=np.int64), 1.5)


# Gibbs: with leaf weights w_i = p^n_i / Lambda and the Kraft sum K = sum_n L_n 2^-n,
# L - H + log2 K = D(w || 2^-n / K) >= 0, with equality at p = 1/2, where Lambda = K.  Counted
# in ulps of m = max(L, H, 1), rounding moves the computed value by at most (k + 41) ulps for
# k generations holding leaves: each leaf probability is off by at most 7 roundings, moving H
# by 7u (H + 1/ln 2); log2, two products and the running sum add (k + 3)u H; L carries 9u,
# log2 K 1.5u + 2u |log2 K| with |log2 K| <= 2m wherever the gap is small, and the two final
# sums 6u m.  So 128 ulps hold for every row below, k <= 32.
_GIBBS_ULPS = 128


def kraft_gaps(leaves, p, depth):
    """``(L - H + log2 K, b)`` of each row with a leaf, from ``row_measures``' H and L at
    ``depth``, with b = 128 ulps of max(L, H, 1)."""
    (measured,) = row_measures(leaves, p, [depth])
    gaps = []
    for row, (_, entropy, length) in zip(leaves[:, :depth].tolist(), measured.tolist()):
        if not math.isnan(entropy):
            kraft = math.fsum(count * 2.0**-n for n, count in enumerate(row))
            bound = _GIBBS_ULPS * math.ulp(max(length, entropy, 1.0))
            gaps.append((length - entropy + math.log2(kraft), bound))
    return gaps


@pytest.mark.parametrize("name", ["sweep.csv", "sweep-block.csv"])
def test_every_golden_sweep_row_spends_at_least_its_kraft_deficit(name):
    # the rows behind each cell of the golden sweep, drawn again as sweep draws them
    argv = CASES[name]
    ps, depths, (samples,), (seed,) = (
        [float(v) for a, v in zip(argv, argv[1:]) if a == flag]
        for flag in ("--p", "--depth", "--samples", "--seed")
    )
    depths = [int(d) for d in depths]
    grid = grid_tallies([ModelParams(p) for p in ps], max(depths), int(seed), int(samples))
    cells = {(float(row["p"]), int(row["depth"])): int(row["used"]) for row in golden_rows(name)}
    for p, (_, leaves) in zip(ps, grid):
        for depth in depths:
            gaps = kraft_gaps(leaves, p, depth)
            assert len(gaps) == cells[p, depth]  # the cell's rows with a leaf
            assert all(gap >= -bound for gap, bound in gaps)
            if p == 0.5:
                assert all(abs(gap) <= bound for gap, bound in gaps)


@settings(max_examples=200, deadline=None)
@given(
    p=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=2.0**-20, max_value=1.0)),
    row=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**24)), min_size=1, max_size=32),
)
@example(p=0.5, row=[0, 1, 1, 2**24])
@example(p=0.5, row=[0] * 31 + [1])
# K > 1: no prefix code, yet Gibbs' inequality holds
@example(p=0.3, row=[2**24, 2**24, 2**24])
def test_every_leaf_count_row_spends_at_least_its_kraft_deficit(p, row):
    for gap, bound in kraft_gaps(np.array([row]), p, len(row)):
        assert gap >= -bound
        if p == 0.5:
            assert abs(gap) <= bound
