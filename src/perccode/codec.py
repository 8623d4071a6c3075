"""Prefix codes cut out of a cluster: extraction, checks, and bitstreams.

Every leaf of a cluster names one codeword: the root-to-leaf path with
left edges written as 0 and right edges as 1, so a codeword's length is
the leaf's generation.  The cluster's geometry *is* the code; nothing is
rebalanced or optimized.  Because the leaves of a tree are prefix-free,
the resulting code is instantaneous and greedy left-to-right parsing
decodes it.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

from .analytic import integer, unit_interval
from .percolate import Cluster

__all__ = [
    "DecodeError",
    "CodeBook",
    "extract_codebook",
    "kraft_sum",
    "is_prefix_free",
    "encode",
    "decode",
    "bernoulli_weights",
    "symbol_labels",
    "format_codebook",
    "parse_codebook",
]


class DecodeError(ValueError):
    """A bitstring does not parse as a concatenation of codewords."""


@dataclass(frozen=True)
class CodeBook:
    """Codewords as 0/1 strings in lexicographic order.

    A word's generation is its length; the empty word (the root itself is
    the only leaf) is legal but cannot coexist with any other word.
    """

    words: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.words)

    def generations(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.words)


def extract_codebook(cluster: Cluster) -> CodeBook:
    """Collect one codeword per leaf (childless node above the depth bound)."""
    words = []
    level = [""]
    # nodes at the depth bound carry no flags, so they never count as
    # leaves: the same rule as percolate.tally
    for flags in cluster.opens:
        # one iterator read twice per node: its left flag, then its right
        flag = iter(flags.tolist())
        children = []
        for path, left, right in zip(level, flag, flag):
            if left:
                children.append(path + "0")
            if right:
                children.append(path + "1")
            if not (left or right):
                words.append(path)
        level = children
    return CodeBook(words=tuple(sorted(words)))


def kraft_sum(book: CodeBook) -> float:
    """Sum of 2^-len over codewords; <= 1 for any prefix-free binary code."""
    return sum(2.0 ** -len(w) for w in book.words)


def is_prefix_free(book: CodeBook) -> bool:
    """True iff no codeword is a prefix of another, a repeated word
    included (empty book: True)."""
    ordered = sorted(book.words)
    for a, b in zip(ordered, ordered[1:]):
        # in sorted order a prefix, or a repeat, lands immediately before its extension
        if b.startswith(a):
            return False
    return True


def encode(book: CodeBook, symbols: list[int]) -> str:
    """Concatenate the codewords of the given entry indices."""
    words = book.words
    n = len(words)
    out = []
    for i in symbols:
        # integer() passes a plain int unchanged: only other types, bool among them, need it
        if type(i) is not int:
            integer("symbol index", i)
        if not 0 <= i < n:
            raise IndexError(f"symbol index {i} out of range for {n} codewords")
        out.append(words[i])
    return "".join(out)


def decode(book: CodeBook, bits: str) -> list[int]:
    """Greedy left-to-right parse of ``bits`` into entry indices.

    Each position bisects the sorted book for the one word that can match.
    Consumes the whole input; raises :class:`DecodeError` when a position
    matches no codeword or the input ends mid-codeword.
    """
    if not bits:
        return []
    if not book.words:
        raise DecodeError("cannot decode with an empty codebook")
    if not is_prefix_free(book):
        raise DecodeError("codebook is not prefix-free; greedy parsing is ambiguous")
    index = {w: i for i, w in enumerate(book.words)}
    if "" in index:
        raise DecodeError("codebook contains the empty codeword; non-empty input cannot parse")
    if not re.fullmatch("[01]*", bits):
        bad = sorted(set(bits) - {"0", "1"})
        raise DecodeError(f"bitstring contains non-bit characters: {bad}")
    ordered = sorted(book.words)
    longest = max(map(len, ordered))
    out = []
    pos = 0
    n = len(bits)
    while pos < n:
        # a word prefixing ahead sorts at or before it, and in a prefix-free book no
        # word sorts between them; with none at or before, -1 picks one sorting after
        ahead = bits[pos : pos + longest]
        word = ordered[bisect_right(ordered, ahead) - 1]
        if not ahead.startswith(word):
            if n - pos <= longest:
                raise DecodeError(f"input ends mid-codeword after position {pos}")
            raise DecodeError(f"no codeword matches input at position {pos}")
        out.append(index[word])
        pos += len(word)
    return out


def bernoulli_weights(book: CodeBook, p: float) -> list[float]:
    """Normalized leaf weights p^len / sum(p^len) for the book's codewords."""
    p = unit_interval("p", p)
    raw = [p ** len(w) for w in book.words]
    total = sum(raw)
    if total <= 0.0:
        raise ValueError("all codeword weights are zero; cannot normalize")
    return [w / total for w in raw]


def symbol_labels(book: CodeBook) -> list[str]:
    """Presentation labels s1, s2, ... in lexicographic codeword order."""
    return [f"s{i + 1}" for i in range(len(book.words))]


def format_codebook(book: CodeBook, weights: list[float] | None = None) -> str:
    """Stable text form: one codeword per line, lexicographic order, with an
    optional second column holding the normalized probability.

    The root-only book holds just the empty codeword, which this form cannot
    write: its line would be blank, or a bare weight."""
    if "" in book.words:
        raise ValueError(
            "the code book of a root-only cluster is the empty codeword, "
            "which the text form cannot hold"
        )
    if weights is None:
        return "".join(w + "\n" for w in book.words)
    if len(weights) != len(book.words):
        raise ValueError("need exactly one weight per codeword")
    values = [float(x) for x in weights]
    # repr, float to shortest decimal, is the dear step, and a book holds about one
    # distinct weight per codeword length: repr each once.  A zero prints by its own
    # repr, because 0.0 == -0.0 yet they print apart
    text = {x: repr(x) for x in dict.fromkeys(values)}
    return "".join(f"{w} {text[x] if x else repr(x)}\n" for w, x in zip(book.words, values))


def parse_codebook(text: str) -> CodeBook:
    """Read the text form back (the optional weight column is ignored)."""
    words = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split(None, 1)
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0].strip("01"):
            raise ValueError(f"line {lineno}: codeword {fields[0]!r} is not a 0/1 string")
        words.append(fields[0])
    return CodeBook(words=tuple(sorted(words)))
