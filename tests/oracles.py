"""Independent brute-force oracles used only by the test suite.

Everything here is deliberately naive (per-point loops, O(4^n) transforms,
exhaustive enumerations) and shares no code path with the library routines
it checks.  The same goes for the inputs built here: linear_table gives the
linear functions l_w(x) = w.x, random_table random functions.
"""

from __future__ import annotations

import itertools
import random
from math import comb

import numpy as np

from rotsym import (
    BitString,
    OpCounter,
    TruthTable,
    complement_first_half,
    hat,
    tilde,
)


def slow_table(monomials, n: int) -> list[int]:
    """Tabulate an XOR of monomials by per-point evaluation."""
    out = []
    for point in itertools.product((0, 1), repeat=n):
        v = 0
        for mono in monomials:
            term = 1
            for k in mono:
                term &= point[k - 1]
            v ^= term
        out.append(v)
    return out


def table_from_list(bits: list[int]) -> TruthTable:
    """Pack index i into bit i % 8 of byte i // 8, one point at a time."""
    n = len(bits).bit_length() - 1
    assert 1 << n == len(bits)
    packed = bytearray(max(1, len(bits) // 8))
    for i, b in enumerate(bits):
        packed[i // 8] |= b << (i % 8)
    return TruthTable(n, bytes(packed))


def table_from_int(n: int, bits: int) -> TruthTable:
    """The table whose bit i is bit i of the int."""
    return TruthTable(n, bits.to_bytes(max(1, (1 << n) // 8), "little"))


def table_to_list(tt: TruthTable) -> list[int]:
    return [tt[i] for i in range(tt.size)]


def slow_walsh(bits: list[int]) -> list[int]:
    """Quadratic-time transform straight from the definition."""
    size = len(bits)
    out = []
    for w in range(size):
        acc = 0
        for x in range(size):
            acc += -1 if (bits[x] ^ (bin(w & x).count("1") & 1)) else 1
        out.append(acc)
    return out


def _butterfly(v: np.ndarray) -> np.ndarray:
    """The plain radix-2 butterfly over every index bit of v, in place."""
    size = v.size
    h = 1
    while h < size:
        v = v.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        v[:, :h] = left + v[:, h:]
        v[:, h:] = left - v[:, h:]
        h *= 2
    return v.reshape(size)


def butterfly_walsh(tt: TruthTable) -> np.ndarray:
    """The plain radix-2 integer butterfly, one pass per index bit.

    Works on a copy of the unpacked bits in int32: every partial sum is a
    signed count of at most 2^n <= 2^26 < 2^31 terms.
    """
    bits = np.unpackbits(tt.data, bitorder="little", count=tt.size)
    return _butterfly(1 - 2 * bits.astype(np.int32))


def zero_count(values) -> int:
    """How many spectrum values are 0."""
    return int(np.count_nonzero(np.asarray(values) == 0))


def parseval_sum(values) -> int:
    """The sum of the squared spectrum values, in int64."""
    return int(np.sum(np.asarray(values, dtype=np.int64) ** 2))


def spectrum_reductions(values) -> tuple[int, int, int, int, int]:
    """W(0), max, min, the zero count and the count of |W| = amp of a whole
    spectrum, where amp is 2^(n/2) for even n and 2^((n+1)/2) for odd n."""
    v = np.asarray(values)
    n = v.size.bit_length() - 1
    amp = 1 << (n // 2 if n % 2 == 0 else (n + 1) // 2)
    return (int(v[0]), int(v.max()), int(v.min()), zero_count(v),
            int(np.count_nonzero(v == amp) + np.count_nonzero(v == -amp)))


def autocorrelation_pc_profile(values) -> dict[int, tuple[int, int]]:
    """{w: (satisfied, total)} from a spectrum, through an int64 butterfly.

    The autocorrelation is the transform of W^2; every partial sum is at most
    sum W^2 = 2^(2n) <= 2^52 (Parseval), so int64 is exact.  Direction c is
    balanced iff its autocorrelation is 0, and falls in class popcount(c).
    """
    auto = _butterfly(np.asarray(values, dtype=np.int64) ** 2)
    n = auto.size.bit_length() - 1
    weights = np.zeros(auto.size, dtype=np.int64)
    for p in range(n):  # indices 2^p..2^(p+1)-1 add one bit to 0..2^p-1
        weights[1 << p:2 << p] = weights[:1 << p] + 1
    zero_weights = weights[auto == 0]
    return {w: (int(np.count_nonzero(zero_weights == w)), comb(n, w))
            for w in range(1, n + 1)}


def line_by_line_csv(values) -> str:
    """The spectrum CSV written one formatted line per value."""
    return "w,value\n" + "".join(f"{w},{int(v)}\n" for w, v in enumerate(values))


def packbits_hex(tt: TruthTable) -> str:
    """The table's hex line built through a 2^n-element uint8 unpack."""
    width = -(-tt.size // 4)
    packed = np.packbits(tt.to_array(), bitorder="big")
    h = int.from_bytes(packed.tobytes(), "big") >> (8 * len(packed) - tt.size)
    return f"{h:0{width}x}"


def mobius_anf(tt: TruthTable) -> set[frozenset[int]]:
    """Interpolate the ANF from a table with the XOR butterfly.

    Test scaffolding only: the library never converts tables back to ANFs.
    """
    a = table_to_list(tt)
    n = tt.n
    step = 1
    while step < len(a):
        for start in range(0, len(a), 2 * step):
            for i in range(start, start + step):
                a[i + step] ^= a[i]
        step *= 2
    monos = set()
    for mask in range(len(a)):
        if a[mask]:
            monos.add(frozenset(k for k in range(1, n + 1)
                                if (mask >> (n - k)) & 1))
    return monos


def _linear_tables(n: int) -> list[int]:
    """Packed tables of every l_w, built by XORing single-variable patterns."""
    size = 1 << n
    var = []
    for p in range(n):  # pattern of index bit p: 2^p zeros then 2^p ones
        block = ((1 << (1 << p)) - 1) << (1 << p)
        pat = 0
        for r in range(size >> (p + 1)):
            pat |= block << (r << (p + 1))
        var.append(pat)
    tables = [0] * size
    for w in range(1, size):
        low = w & -w
        tables[w] = tables[w ^ low] ^ var[low.bit_length() - 1]
    return tables


def linear_table(n: int, w: int) -> TruthTable:
    """Table of l_w(x) = w.x."""
    return table_from_int(n, _linear_tables(n)[w])


def affine_nonlinearity(tt: TruthTable) -> int:
    """Minimum distance to every affine function, by direct enumeration."""
    size = tt.size
    best = size
    for lw in _linear_tables(tt.n):
        d = (tt.bits ^ lw).bit_count()
        best = min(best, d, size - d)
    return best


def derivative_sum(tt: TruthTable, c: int) -> int:
    return sum(tt[x] ^ tt[x ^ c] for x in range(tt.size))


def random_table(rng: random.Random, n: int) -> TruthTable:
    return table_from_int(n, rng.getrandbits(1 << n))


def dot2(u: int, v: int) -> int:
    """GF(2) inner product of two masks."""
    return (u & v).bit_count() & 1


# GF(2) matrices as tuples of row masks (bit n-k of a row = coefficient of x_k)

def gf2_apply(rows, x: int) -> int:
    n = len(rows)
    y = 0
    for j, row in enumerate(rows):
        y |= dot2(row, x) << (n - 1 - j)
    return y


def gf2_transpose(rows) -> tuple[int, ...]:
    n = len(rows)
    return tuple(
        sum((((rows[k] >> (n - 1 - j)) & 1) << (n - 1 - k)) for k in range(n))
        for j in range(n)
    )


def random_invertible_rows(rng: random.Random, n: int) -> tuple[int, ...]:
    from rotsym.core import gf2_invert

    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        try:
            gf2_invert(rows)
            return rows
        except ValueError:
            continue


def operator_component(seeds: tuple[str, ...], i: int, level: int,
                       counter: OpCounter | None = None) -> BitString:
    """Segment i of a doubling build at its level, by the string operators.

    Two seeds (8 bits) mean the degree-2 build, doubled by u || tilde(u);
    three (16 bits) the degree-3 build, doubled by u || hat(u).  Segment
    len(seeds) + 1 is the last one derived: its first half complemented,
    after hat for degree 3.  Charges what the published construction does.
    """
    step = tilde if len(seeds) == 2 else hat
    u = BitString.from_blocks(seeds[min(i, len(seeds)) - 1])
    while len(u) < 1 << level:
        u = u + step(u, counter)
    if i > len(seeds):
        if step is hat:
            u = hat(u, counter)
        u = complement_first_half(u, counter)
    return u
