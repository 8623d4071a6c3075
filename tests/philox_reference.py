"""A pure-Python Philox4x64-10 and the uniform stream perccode reads off it.

Philox4x64-10 is the counter-based generator of Salmon, Moraes, Dror and
Shaw, *Parallel random numbers: as easy as 1, 2, 3* (SC'11).  It maps a
counter (c0, c1, c2, c3) and a key (k0, k1) of 64-bit words to four 64-bit
words in 10 rounds.  A round multiplies c0 and c2 by fixed constants into
128-bit products and mixes their halves with c1, c3 and the key, and the
key takes a Weyl step between rounds.

Sample ``i`` of master seed ``s`` reads word ``w_j``, ``j = 4c + m``, as word
``m`` of the block at counter ``c + 1`` (the first block is at 1) under key
``(s, i)``, and turns it into the uniform ``(w_j >> 11) * 2**-53``.  Nothing
here calls NumPy, so the tests check NumPy's Philox against the
specification rather than against itself.
"""

from __future__ import annotations

MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
ROUNDS = 10
MASK = (1 << 64) - 1


def block(counter: int, key: tuple[int, int]) -> list[int]:
    """The four words Philox4x64-10 makes of a counter below 2**256 and a key."""
    c = [(counter >> (64 * m)) & MASK for m in range(4)]
    k0, k1 = key
    for r in range(ROUNDS):
        if r:
            k0, k1 = (k0 + WEYL[0]) & MASK, (k1 + WEYL[1]) & MASK
        lo, hi = MULTIPLIERS[0] * c[0], MULTIPLIERS[1] * c[2]
        c = [(hi >> 64) ^ c[1] ^ k0, hi & MASK, (lo >> 64) ^ c[3] ^ k1, lo & MASK]
    return c


def words(seed: int, index: int, start: int, count: int) -> list[int]:
    """Words ``start .. start + count - 1`` of the stream of sample ``index`` of ``seed``."""
    out = []
    for c in range(start // 4, (start + count + 3) // 4):
        out += block(c + 1, (seed, index))
    skip = start % 4
    return out[skip : skip + count]


def uniform(word: int) -> float:
    """The uniform in [0, 1) a word stands for: its top 53 bits over 2**53."""
    return (word >> 11) * 2.0**-53


def uniforms(seed: int, index: int, start: int, count: int) -> list[float]:
    return [uniform(w) for w in words(seed, index, start, count)]


def grow(p: float, depth: int, seed: int, index: int):
    """Node counts N_0 .. N_depth, leaf counts L_0 .. L_{depth - 1} and each generation's
    edge flags of sample ``index`` of ``seed``: generation g reads the next 2 N_g uniforms,
    left edge before right, nodes in order, and an edge is open iff its uniform is below p."""
    nodes, leaves, opens, used = [1] + [0] * depth, [0] * depth, [], 0
    for g in range(depth):
        flags = [u < p for u in uniforms(seed, index, used, 2 * nodes[g])]
        used += len(flags)
        opens.append(flags)
        nodes[g + 1] = sum(flags)
        leaves[g] = sum(1 for left, right in zip(flags[::2], flags[1::2]) if not left | right)
        if not nodes[g + 1]:
            break
    return nodes, leaves, opens
