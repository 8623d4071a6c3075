import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perccode import codec, infomeasure
from perccode.analytic import ModelParams
from perccode.codec import (
    CodeBook,
    DecodeError,
    bernoulli_weights,
    decode,
    encode,
    extract_codebook,
    format_codebook,
    is_prefix_free,
    kraft_sum,
    parse_codebook,
    symbol_labels,
)
from perccode.percolate import cluster_stream, grid_tallies, sample_cluster, tally

from conftest import SEVEN_LEAF_WORDS, cluster_from_codewords


@pytest.fixture
def seven_leaf_book(seven_leaf_cluster):
    return extract_codebook(seven_leaf_cluster)


def test_extract_seven_leaf_fixture(seven_leaf_book):
    assert seven_leaf_book.words == SEVEN_LEAF_WORDS


def test_extract_root_only():
    c = sample_cluster(ModelParams(0.0), 4, cluster_stream(3, 0))
    book = extract_codebook(c)
    assert book.words == ("",)
    assert kraft_sum(book) == 1.0


def test_extract_complete_depth_two_code():
    c = cluster_from_codewords(["00", "01", "10", "11"], depth_bound=3)
    assert extract_codebook(c).words == ("00", "01", "10", "11")


def test_extract_excludes_depth_bound_nodes():
    # same geometry, but the bound sits on the deepest nodes: no codewords there
    c = cluster_from_codewords(["00", "01", "10", "11"], depth_bound=2)
    assert extract_codebook(c).words == ()


def test_kraft_sum_examples(seven_leaf_book):
    assert kraft_sum(seven_leaf_book) == pytest.approx(0.6875, abs=1e-12)
    assert kraft_sum(CodeBook(("00", "01", "10", "11"))) == pytest.approx(1.0, abs=1e-12)
    assert kraft_sum(CodeBook(("0",))) == 0.5
    assert kraft_sum(CodeBook(())) == 0.0


def test_is_prefix_free(seven_leaf_book):
    assert is_prefix_free(seven_leaf_book)
    assert not is_prefix_free(CodeBook(("0", "01")))
    assert not is_prefix_free(CodeBook(("01", "0")))
    assert is_prefix_free(CodeBook(()))
    assert is_prefix_free(CodeBook(("",)))
    assert not is_prefix_free(CodeBook(("", "1")))


def test_repeated_word_is_not_prefix_free():
    # a repeat would map both lines to one parse, so the first is never decoded
    book = parse_codebook("0\n0\n1\n")
    assert kraft_sum(book) == 1.5
    assert not is_prefix_free(book)
    assert not is_prefix_free(CodeBook(("", "")))
    with pytest.raises(DecodeError, match="prefix-free"):
        decode(book, "001")


def test_decode_examples(seven_leaf_book):
    # 00 | 0100 | 110 -> s1, s2, s6
    assert decode(seven_leaf_book, "000100110") == [0, 1, 5]
    assert decode(seven_leaf_book, "") == []
    with pytest.raises(DecodeError):
        decode(seven_leaf_book, "01")  # dangling prefix
    with pytest.raises(DecodeError):
        decode(seven_leaf_book, "1111")  # no codeword starts 1111
    with pytest.raises(DecodeError):
        decode(seven_leaf_book, "00x")


def reference_decode(book, bits):
    """``decode`` as it was before the length-set parse: grow the slice at
    each position one bit at a time, up to the longest word."""
    if not bits:
        return []
    if not book.words:
        raise DecodeError("cannot decode with an empty codebook")
    if not is_prefix_free(book):
        raise DecodeError("codebook is not prefix-free; greedy parsing is ambiguous")
    index = {w: i for i, w in enumerate(book.words)}
    if "" in index:
        raise DecodeError("codebook contains the empty codeword; non-empty input cannot parse")
    bad = set(bits) - {"0", "1"}
    if bad:
        raise DecodeError(f"bitstring contains non-bit characters: {sorted(bad)}")
    max_len = max(len(w) for w in book.words)
    out = []
    pos = 0
    n = len(bits)
    while pos < n:
        end = pos + 1
        while True:
            word = bits[pos:end]
            hit = index.get(word)
            if hit is not None:
                out.append(hit)
                pos = end
                break
            if end >= n:
                raise DecodeError(f"input ends mid-codeword after position {pos}")
            if end - pos >= max_len:
                raise DecodeError(f"no codeword matches input at position {pos}")
            end += 1
    return out


def decode_outcome(decoder, book, bits):
    try:
        return decoder(book, bits)
    except DecodeError as exc:
        return str(exc)


@pytest.mark.parametrize("p, depth", [(0.6, 12), (0.7, 14)])
def test_decode_matches_the_bit_by_bit_reference(p, depth):
    rng = np.random.default_rng(depth)
    books = 0
    for seed in range(40):
        book = extract_codebook(sample_cluster(ModelParams(p), depth, cluster_stream(seed, 0)))
        if len(book) < 2:
            continue  # leafless and root-only books carry no messages
        books += 1
        symbols = rng.integers(len(book), size=12).tolist()
        bits = encode(book, symbols)
        last = len(bits) - len(book.words[symbols[-1]])
        messages = [bits] + [bits[:cut] for cut in range(last, len(bits))]
        messages += [bits[:i] + "10"[int(bits[i])] + bits[i + 1 :] for i in range(len(bits))]
        # a non-bit character first, in the middle and last
        messages += ["2" + bits, bits[: len(bits) // 2] + "x" + bits[len(bits) // 2 :], bits + " "]
        for message in messages:
            want = decode_outcome(reference_decode, book, message)
            assert decode_outcome(decode, book, message) == want
        assert decode(book, bits) == symbols
    assert books >= 10


def test_decode_unsorted_book_returns_its_own_indices():
    book = CodeBook(("110", "00", "0100", "1111", "0101", "10", "1110", "011"))
    # 110 | 00 | 011 | 1110 | 10
    assert decode(book, "11000011111010") == [0, 1, 7, 6, 5]
    assert decode(book, "0100") == [2]


@settings(max_examples=300, deadline=None)
@given(
    words=st.lists(st.text("01", max_size=6), max_size=12),
    order=st.randoms(use_true_random=False),
    message=st.lists(st.integers(min_value=0, max_value=100), max_size=12),
    noise=st.text("01x", max_size=8),
    cut=st.integers(min_value=0, max_value=80),
)
def test_decode_matches_the_reference_on_any_book_and_input(words, order, message, noise, cut):
    # shuffled, repeated, empty and non-prefix-free books; encoded messages cut
    # short or run on with arbitrary characters, and bare noise
    order.shuffle(words)
    book = CodeBook(tuple(words))
    bits = "".join(words[i % len(words)] for i in message) if words else ""
    for text in (bits, bits[:cut], bits + noise, noise):
        assert decode_outcome(decode, book, text) == decode_outcome(reference_decode, book, text)


def test_decode_guards():
    with pytest.raises(DecodeError):
        decode(CodeBook(()), "0")
    with pytest.raises(DecodeError):
        decode(CodeBook(("",)), "0")
    with pytest.raises(DecodeError):
        decode(CodeBook(("0", "01")), "001")


def test_encode_examples(seven_leaf_book):
    assert encode(seven_leaf_book, [0, 5]) == "00110"
    assert encode(seven_leaf_book, []) == ""
    with pytest.raises(IndexError):
        encode(seven_leaf_book, [7])
    with pytest.raises(IndexError):
        encode(seven_leaf_book, [-1])


def test_symbol_labels(seven_leaf_book):
    assert symbol_labels(seven_leaf_book) == ["s1", "s2", "s3", "s4", "s5", "s6", "s7"]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    p=st.sampled_from([0.2, 0.5, 0.6]),
    message=st.lists(st.integers(min_value=0, max_value=10**6), max_size=30),
)
def test_random_books_prefix_free_and_round_trip(seed, p, message):
    c = sample_cluster(ModelParams(p), 12, cluster_stream(seed, 0))
    book = extract_codebook(c)
    assert is_prefix_free(book)
    assert kraft_sum(book) <= 1.0 + 1e-12
    t = tally(c)
    assert len(book) == sum(t.leaf_counts)
    if len(book) == 0 or book.words == ("",):
        return  # leafless and root-only books cannot carry messages
    symbols = [i % len(book) for i in message]
    assert decode(book, encode(book, symbols)) == symbols


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), p=st.sampled_from([0.3, 0.5, 0.6]))
def test_kraft_equals_normalization_at_half(seed, p):
    c = sample_cluster(ModelParams(p), 10, cluster_stream(seed, 1))
    book = extract_codebook(c)
    t = tally(c)
    assert kraft_sum(book) == pytest.approx(
        infomeasure.measures(t, 0.5).normalization, abs=1e-12
    )


def test_format_golden(seven_leaf_book):
    assert format_codebook(seven_leaf_book) == (
        "00\n0100\n0101\n1010\n1011\n110\n1110\n"
    )


def test_format_with_weights(seven_leaf_book):
    weights = bernoulli_weights(seven_leaf_book, 0.5)
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
    assert weights[0] == pytest.approx(0.25 / 0.6875, abs=1e-12)
    text = format_codebook(seven_leaf_book, weights)
    lines = text.splitlines()
    assert lines[0].split() == ["00", repr(weights[0])]
    assert parse_codebook(text).words == seven_leaf_book.words


def test_format_writes_numpy_weights_as_floats(seven_leaf_book):
    # NumPy 2's repr of its own float is "np.float64(0.5)"
    assert format_codebook(CodeBook(("0", "1")), [np.float64(0.5)] * 2) == "0 0.5\n1 0.5\n"
    weights = bernoulli_weights(seven_leaf_book, 0.5)
    assert format_codebook(seven_leaf_book, np.array(weights)) == format_codebook(
        seven_leaf_book, weights
    )


def test_format_refuses_the_empty_codeword():
    # a root-only book would write a blank line, or a bare weight, that
    # parse_codebook drops or rejects
    book = CodeBook(("",))
    with pytest.raises(ValueError, match="root-only"):
        format_codebook(book)
    with pytest.raises(ValueError, match="root-only"):
        format_codebook(book, bernoulli_weights(book, 0.5))


def test_parse_codebook_round_trip(seven_leaf_book):
    assert parse_codebook(format_codebook(seven_leaf_book)) == seven_leaf_book
    with pytest.raises(ValueError):
        parse_codebook("01\n02\n")


def test_parse_codebook_skips_comments_and_reads_any_whitespace():
    text = "   # a comment after leading spaces\r\n1\t0.25\r\n\r\n  01  0.5 extra\r\n#00\n00\n"
    assert parse_codebook(text).words == ("00", "01", "1")


@pytest.mark.parametrize(
    "text, lineno, word",
    [("01\n02\n", 2, "02"), ("# c\n\n  0#1 0.5\n", 3, "0#1"), ("1\r\n0x\t1.0\r\n", 2, "0x")],
)
def test_parse_codebook_names_the_line_of_a_bad_codeword(text, lineno, word):
    with pytest.raises(ValueError) as info:
        parse_codebook(text)
    assert str(info.value) == f"line {lineno}: codeword {word!r} is not a 0/1 string"


def test_bernoulli_weights_guards(seven_leaf_book):
    with pytest.raises(ValueError):
        bernoulli_weights(seven_leaf_book, 1.5)
    with pytest.raises(ValueError):
        bernoulli_weights(CodeBook(("01", "1")), 0.0)  # all weights vanish


def test_generations_equal_word_lengths(seven_leaf_book):
    assert seven_leaf_book.generations() == (2, 4, 4, 4, 4, 3, 4)


def kraft_split(p, depth: int):
    """``(E[K_d], E[K_d; N_d = 0], P(N_d = 0))`` for the Kraft sum K_d = sum_n L_n 2^-n of a
    cluster at depth bound d.  E[L_n] = q^2 (2p)^n gives E[K_d] = q (1 - p^d).  The root is
    a leaf with K = 1 w.p. q^2, else K is half each side's, a closed side 0 and dead, so
    A_d = q^2 + p A_{d-1} (q + p rho_{d-1}) and rho_d = q^2 + 2pq rho_{d-1} + p^2 rho_{d-1}^2,
    from A_0 = rho_0 = 0."""
    q, dead_mean, dead = 1 - p, 0, 0
    for _ in range(depth):
        dead_mean, dead = q * q + p * dead_mean * (q + p * dead), (q + p * dead) ** 2
    return q * (1 - p**depth), dead_mean, dead


def enumerated_kraft_split(p, depth: int):
    """``kraft_split`` summed over every configuration of the 2^(d+1) - 2 edges of the
    depth-d tree: edge e joins heap node e // 2 to node e + 1, node v lies at generation
    bit_length(v + 1) - 1, and a live node above the bound with both edges closed is a leaf."""
    n_edges = 2 ** (depth + 1) - 2
    gen = [(v + 1).bit_length() - 1 for v in range(n_edges + 1)]
    groups = {}  # (open edges, 2^d K, dead at d) -> configurations
    for mask in range(1 << n_edges):
        live = [True] + [False] * n_edges
        for e in range(n_edges):
            live[e + 1] = live[e // 2] and bool(mask >> e & 1)
        kraft = sum(
            2 ** (depth - gen[v])
            for v in range(n_edges // 2)
            if live[v] and not mask >> 2 * v & 3
        )
        dead = not any(live[n_edges // 2 :])
        key = (bin(mask).count("1"), kraft, dead)
        groups[key] = groups.get(key, 0) + 1
    mean = dead_mean = dead_mass = 0
    for (opened, kraft, dead), count in groups.items():
        weight = count * p**opened * (1 - p) ** (n_edges - opened)
        mean += weight * Fraction(kraft, 2**depth)
        dead_mean += dead * weight * Fraction(kraft, 2**depth)
        dead_mass += dead * weight
    return mean, dead_mean, dead_mass


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("p", ["0", "0.3", "0.5", "0.6", "0.9", "1"])
def test_kraft_split_by_survival_is_the_enumerated_one(p, depth):
    p = Fraction(p)
    assert kraft_split(p, depth) == enumerated_kraft_split(p, depth)


@pytest.mark.parametrize("p, depth", [(0.6, 30), (0.55, 40)])
def test_sampled_kraft_split_by_survival_is_the_exact_one(p, depth):
    nodes, leaves = grid_tallies([ModelParams(p)], depth, 11, 10000)[0]
    kraft = leaves @ 2.0 ** -np.arange(depth)
    dead = nodes[:, depth] == 0
    for sampled, exact in zip([kraft, dead * kraft, dead], kraft_split(p, depth)):
        se = sampled.std(ddof=1) / math.sqrt(len(sampled))
        assert abs(sampled.mean() - exact) <= 4 * se, (sampled.mean(), exact, se)


def test_kraft_sum_of_a_sampled_book_is_its_tallys():
    m, depth, seed = ModelParams(0.55), 16, 11
    _, leaves = grid_tallies([m], depth, seed, 200)[0]
    for i, row in enumerate(leaves.tolist()):
        book = extract_codebook(sample_cluster(m, depth, cluster_stream(seed, i)))
        # a sum of multiples of 2^-16 up to 1 is exact in floating point
        assert kraft_sum(book) == sum(Fraction(count, 2**n) for n, count in enumerate(row))
