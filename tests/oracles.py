"""Reference code and scaffolding used only by the test suite.

Three kinds of code live here, none of which the CLI or its benchmark runs:

- Brute-force oracles.  They are deliberately naive (per-point loops,
  O(4^n) transforms, exhaustive enumerations) and share no code path with
  the library routines they check.  The same goes for the inputs built
  here: linear_table gives the linear functions l_w(x) = w.x, random_table
  random functions, and zeros_table, ones_table, complement_table and
  xor_tables the constant, complemented and summed tables.  orbit_table
  is the one exception: it spells a rotation orbit's n terms for the
  library's ANF tabulation, anf_to_truth_table, which slow_table checks.
- The paper's bit strings (BitString, a Python int and a length) with its
  sixteen named 4-bit blocks (BLOCKS, parsed by BitString.from_blocks and
  rendered back by to_blocks_str), the string operators on them
  (complement, tilde, hat, complement_first_half), and operator_component,
  the published doubling construction they spell.  The byte builders are
  checked against them, through as_bitstring.
- The affine tools behind the degree-2 semi-bent argument (gf2_invert,
  AffineTransform, apply_affine_transform, concatenate), and published forms
  that only the tests check (wt_f2_recurrence, nl_f2 and
  f3_block_complements_measured).
"""

from __future__ import annotations

import itertools
import random
import unicodedata
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

import numpy as np

from rotsym import OpCounter, TruthTable, anf_to_truth_table
from rotsym.builders import MACRON


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


def orbit_table(gen: Iterable[int], n: int) -> TruthTable:
    """The rotation orbit of the monomial of gen: the XOR of its n
    rotations x_k -> x_(k+d), tabulated from the ANF."""
    return anf_to_truth_table(n, [[(k - 1 + d) % n + 1 for k in gen]
                                  for d in range(n)])


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


def zeros_table(n: int) -> TruthTable:
    return TruthTable(n, np.zeros(max(1, (1 << n) // 8), dtype=np.uint8))


def complement_table(tt: TruthTable) -> TruthTable:
    flipped = np.invert(tt.data)
    if tt.size < 8:
        flipped &= (1 << tt.size) - 1
    return TruthTable(tt.n, flipped)


def ones_table(n: int) -> TruthTable:
    return complement_table(zeros_table(n))


def xor_tables(t: TruthTable, u: TruthTable) -> TruthTable:
    if t.n != u.n:
        raise ValueError(f"dimension mismatch: {t.n} != {u.n}")
    return TruthTable(t.n, t.data ^ u.data)


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


def spectrum_reductions(values) -> tuple[int, int, int]:
    """W(0), max |W| and the count of |W| = amp of a whole spectrum, in
    int64, where amp is 2^(n/2) for even n and 2^((n+1)/2) for odd n."""
    v = np.asarray(values, dtype=np.int64)
    n = v.size.bit_length() - 1
    amp = 1 << (n // 2 if n % 2 == 0 else (n + 1) // 2)
    a = np.abs(v)
    return int(v[0]), int(a.max()), int(np.count_nonzero(a == amp))


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


def gf2_invert(rows: Sequence[int]) -> tuple[int, ...]:
    """Inverse over GF(2) via Gauss-Jordan; raises ValueError if singular."""
    n = len(rows)
    m = list(rows)
    inv = [1 << (n - 1 - i) for i in range(n)]
    r = 0
    for col in reversed(range(n)):
        pivot = next((i for i in range(r, n) if (m[i] >> col) & 1), None)
        if pivot is None:
            raise ValueError("matrix is singular over GF(2)")
        m[r], m[pivot] = m[pivot], m[r]
        inv[r], inv[pivot] = inv[pivot], inv[r]
        for i in range(n):
            if i != r and (m[i] >> col) & 1:
                m[i] ^= m[r]
                inv[i] ^= inv[r]
        r += 1
    return tuple(inv)


def random_invertible_rows(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        try:
            gf2_invert(rows)
            return rows
        except ValueError:
            continue


@dataclass(frozen=True)
class AffineTransform:
    """x -> h(Ax + a) + b.x + c with A invertible over GF(2).

    Rows are GF(2) masks in the table index convention: bit n-k of rows[j-1]
    is the coefficient of x_k in output variable j.
    """

    n: int
    rows: tuple[int, ...]
    a: int = 0
    b: int = 0
    c: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != self.n:
            raise ValueError(f"need {self.n} rows, got {len(self.rows)}")
        top = 1 << self.n
        if any(not 0 <= r < top for r in self.rows):
            raise ValueError("row mask out of range")
        if not (0 <= self.a < top and 0 <= self.b < top):
            raise ValueError("vector mask out of range")
        if self.c not in (0, 1):
            raise ValueError("c must be a single bit")
        gf2_invert(self.rows)  # raises if singular

    @classmethod
    def identity(cls, n: int, a: int = 0, b: int = 0, c: int = 0) -> "AffineTransform":
        return cls(n, tuple(1 << (n - 1 - j) for j in range(n)), a, b, c)


def apply_affine_transform(h: TruthTable, t: AffineTransform) -> TruthTable:
    """Pointwise g(x) = h(Ax + a) + b.x + c."""
    if t.n != h.n:
        raise ValueError(f"dimension mismatch: transform {t.n} != table {h.n}")
    n = h.n
    x = np.arange(h.size, dtype=np.uint32)
    y = np.zeros(h.size, dtype=np.uint32)
    for j, row in enumerate(t.rows):
        y |= (np.bitwise_count(x & np.uint32(row)) & 1) << np.uint32(n - 1 - j)
    arr = h.to_array()[y ^ np.uint32(t.a)]
    if t.b:
        arr = arr ^ (np.bitwise_count(x & np.uint32(t.b)) & 1)
    if t.c:
        arr = arr ^ np.uint8(1)
    return TruthTable(n, np.packbits(arr, bitorder="little"))


def concatenate(g0: TruthTable, g1: TruthTable) -> TruthTable:
    """Join two n-variable tables into one on n+1 variables.

    The new variable is x_1 (the most significant index bit): the first half
    of the result is g0, the second half g1.
    """
    if g0.n != g1.n:
        raise ValueError(f"dimension mismatch: {g0.n} != {g1.n}")
    if g0.size < 8:  # both halves share the one byte
        return TruthTable(g0.n + 1, g0.data | (g1.data << g0.size))
    return TruthTable(g0.n + 1, np.concatenate((g0.data, g1.data)))


# ---------------------------------------------------------------------------
# the paper's bit strings, string operators and published forms
# ---------------------------------------------------------------------------

_BASE_PATTERNS: dict[str, tuple[int, int, int, int]] = {
    "A": (0, 0, 1, 1),
    "B": (0, 1, 0, 1),
    "C": (0, 1, 1, 0),
    "D": (0, 0, 0, 0),
    "U": (1, 0, 0, 0),
    "V": (0, 0, 0, 1),
    "X": (0, 1, 0, 0),
    "Y": (0, 0, 1, 0),
}


def _pattern_to_int(pattern: Sequence[int]) -> int:
    # first element of the written string = lowest bit (table index order)
    return sum(b << i for i, b in enumerate(pattern))


@dataclass(frozen=True)
class BitString:
    """A packed bit string; element 0 of the written string is bit 0."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("empty bit string")
        if not 0 <= self.bits < (1 << self.length):
            raise ValueError("packed bits do not fit the stated length")

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __add__(self, other: "BitString") -> "BitString":
        """Concatenation u || v."""
        return BitString(self.length + other.length,
                         self.bits | (other.bits << self.length))

    def weight(self) -> int:
        return self.bits.bit_count()

    @classmethod
    def from_bits(cls, seq: Iterable[int]) -> "BitString":
        seq = list(seq)
        return cls(len(seq), _pattern_to_int(seq))

    @classmethod
    def from_blocks(cls, notation: str) -> "BitString":
        """Parse block-letter notation, e.g. "VY" or "XŪ" (overbars)."""
        notation = unicodedata.normalize("NFD", notation)
        acc = 0
        count = 0
        i = 0
        while i < len(notation):
            name = notation[i]
            if i + 1 < len(notation) and notation[i + 1] == MACRON:
                name += MACRON
                i += 1
            i += 1
            if name not in BLOCKS:
                raise ValueError(f"unknown block {name!r}")
            acc |= BLOCKS[name].bits << (4 * count)
            count += 1
        if count == 0:
            raise ValueError("empty block string")
        return cls(4 * count, acc)


# the sixteen named 4-bit strings; each barred block is its base XOR 0xF
BLOCKS: dict[str, BitString] = {}
for _name, _pat in _BASE_PATTERNS.items():
    BLOCKS[_name] = BitString.from_bits(_pat)
    BLOCKS[_name + MACRON] = BitString(4, BLOCKS[_name].bits ^ 0xF)


def as_bitstring(tt: TruthTable) -> BitString:
    """The table's 2^n bits as a bit string, bit i = f at index i."""
    return BitString(tt.size, tt.bits)


def complement(u: BitString, counter: OpCounter | None = None) -> BitString:
    """All bits flipped; charges length/4 blocks."""
    if counter is not None:
        counter.charge_bits(u.length)
    return BitString(u.length, u.bits ^ ((1 << u.length) - 1))


def tilde(u: BitString, counter: OpCounter | None = None) -> BitString:
    """Second half complemented; charges length/8 blocks."""
    if u.length % 2:
        raise ValueError("tilde needs an even length")
    half = u.length // 2
    if counter is not None:
        counter.charge_bits(half)
    mask = ((1 << half) - 1) << half
    return BitString(u.length, u.bits ^ mask)


def hat(u: BitString, counter: OpCounter | None = None) -> BitString:
    """Last quarter complemented; charges length/16 blocks."""
    if u.length % 4:
        raise ValueError("hat needs a length divisible by 4")
    quarter = u.length // 4
    if counter is not None:
        counter.charge_bits(quarter)
    mask = ((1 << quarter) - 1) << (u.length - quarter)
    return BitString(u.length, u.bits ^ mask)


def complement_first_half(u: BitString, counter: OpCounter | None = None) -> BitString:
    """First half complemented: bar(tilde(u)) in a single pass."""
    if u.length % 2:
        raise ValueError("needs an even length")
    half = u.length // 2
    if counter is not None:
        counter.charge_bits(half)
    return BitString(u.length, u.bits ^ ((1 << half) - 1))


_BLOCK_NAME_BY_VALUE = {blk.bits: name for name, blk in BLOCKS.items()}


def to_blocks_str(s: BitString) -> str:
    """Render in block-letter notation (the 16 blocks cover all nibbles)."""
    if s.length % 4:
        return "".join(str(s[i]) for i in range(s.length))
    return "".join(_BLOCK_NAME_BY_VALUE[(s.bits >> (4 * t)) & 0xF]
                   for t in range(s.length // 4))


def f3_block_complements_measured(n: int) -> int:
    """Closed form of the charges actually made by build_f3."""
    if n < 7:
        raise ValueError("fast degree-3 build needs n >= 7")
    return (1 << (n - 4)) + (1 << (n - 6)) - 3


def wt_f2_recurrence(n: int) -> int:
    """wt = 2*wt(n-2) + 2^(n-2) unrolled from the seeds 16 (n=5), 24 (n=6)."""
    if n < 5:
        raise ValueError("recurrence seeded at n = 5, 6")
    w = {5: 16, 6: 24}
    for s in range(7, n + 1):
        w[s] = 2 * w[s - 2] + (1 << (s - 2))
    return w[n]


def nl_f2(n: int) -> int:
    """Nonlinearity of the degree-2 function: 2^(n-1) - 2^((n-1)/2) for odd
    n, 2^(n-1) - 2^(n/2) for even n."""
    if n < 4:
        raise ValueError("formula validated for n >= 4")
    if n % 2:
        return (1 << (n - 1)) - (1 << ((n - 1) // 2))
    return (1 << (n - 1)) - (1 << (n // 2))


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
