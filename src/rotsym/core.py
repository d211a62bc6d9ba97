"""Bit-packed Boolean functions and their cryptographic criteria.

A function on n variables is stored as a packed truth table: bit i of an
arbitrary-precision integer holds f(x) for the assignment obtained by reading
i in binary with x_1 as the most significant bit.  Index 0 is the all-zeros
point, index 2^n - 1 the all-ones point.  Every type here is immutable and
every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

import numpy as np

MAX_VARS = 26          # 2^26-bit tables; the spectrum still fits int32
PC_PROFILE_MAX_VARS = 20

# The Walsh kernel (see walsh_transform).  float32 holds every integer of
# magnitude <= 2^24 exactly, so the low 24 index bits are transformed in
# float32 and any higher bits in int32.
_FLOAT_BITS = 24
_GROUP_BITS = 5        # index bits per GEMM stage, against one 32x32 matrix
_GEMM_MACS = 1 << 18   # multiply-adds per GEMM call (see _gemm_bits)
_CHUNK_BITS = 16       # low index bits done per chunk of walsh_transform's pass 1
_PANEL = 1 << 17       # values per panel of its pass 2, gathered into scratch
_SLAB = 1 << 16        # chunk length of the integer butterfly
_CSV_ROWS = 4096       # rows per formatted chunk of WalshSpectrum.write_csv

# Sylvester-Hadamard H[j, k] = (-1)^(j.k); its leading 2^g block is H_(2^g)
_GROUP = np.arange(1 << _GROUP_BITS)
_HADAMARD = 1 - 2 * (np.bitwise_count(np.bitwise_and.outer(_GROUP, _GROUP))
                     & 1).astype(np.float32)
# _SIGNS[byte, j] = (-1)^(bit j of byte): the +-1 values of 8 table positions
_SIGNS = (1 - 2 * ((np.arange(256)[:, None] >> np.arange(8)) & 1)).astype(np.float32)


# ---------------------------------------------------------------------------
# bit packing helpers
# ---------------------------------------------------------------------------

def pack_bits(arr: np.ndarray) -> int:
    """Pack a 0/1 array (index order) into an int with bit i = element i."""
    packed = np.packbits(np.asarray(arr, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def unpack_bits(bits: int, size: int) -> np.ndarray:
    """Inverse of pack_bits; returns a uint8 array of length size."""
    nbytes = max(1, (size + 7) // 8)
    raw = np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little", count=size)


def index_of_point(point: Sequence[int], n: int) -> int:
    """Index of the assignment (x_1, ..., x_n); x_1 is the MSB."""
    if len(point) != n:
        raise ValueError(f"point has {len(point)} bits, expected {n}")
    idx = 0
    for b in point:
        if b not in (0, 1):
            raise ValueError("point entries must be 0 or 1")
        idx = (idx << 1) | b
    return idx


def point_of_index(index: int, n: int) -> tuple[int, ...]:
    """The assignment (x_1, ..., x_n) encoded by an index."""
    return tuple((index >> (n - k)) & 1 for k in range(1, n + 1))


def _parity_u32(v: np.ndarray) -> np.ndarray:
    v = v ^ (v >> np.uint32(16))
    v ^= v >> np.uint32(8)
    v ^= v >> np.uint32(4)
    v ^= v >> np.uint32(2)
    v ^= v >> np.uint32(1)
    return v & np.uint32(1)


def dot2(u: int, v: int) -> int:
    """GF(2) inner product of two masks."""
    return (u & v).bit_count() & 1


# ---------------------------------------------------------------------------
# GF(2) matrices as tuples of row masks (bit n-k of a row = coefficient of x_k)
# ---------------------------------------------------------------------------

def gf2_apply(rows: Sequence[int], x: int) -> int:
    n = len(rows)
    y = 0
    for j, row in enumerate(rows):
        y |= dot2(row, x) << (n - 1 - j)
    return y


def gf2_transpose(rows: Sequence[int]) -> tuple[int, ...]:
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


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruthTable:
    """A Boolean function as a packed 2^n-bit vector (bit i = f at index i)."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VARS:
            raise ValueError(f"variable count must be in 1..{MAX_VARS}, got {self.n}")
        if not 0 <= self.bits < (1 << self.size):
            raise ValueError("packed bits do not fit in 2^n positions")

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def mask(self) -> int:
        return (1 << self.size) - 1

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise IndexError(index)
        return (self.bits >> index) & 1

    def value_at(self, point: Sequence[int]) -> int:
        return self[index_of_point(point, self.n)]

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_balanced(self) -> bool:
        return 2 * self.weight() == self.size

    def complement(self) -> "TruthTable":
        return TruthTable(self.n, self.bits ^ self.mask)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} != {other.n}")
        return TruthTable(self.n, self.bits ^ other.bits)

    def to_array(self) -> np.ndarray:
        return unpack_bits(self.bits, self.size)

    @classmethod
    def from_array(cls, n: int, arr: np.ndarray) -> "TruthTable":
        arr = np.asarray(arr)
        if arr.size != (1 << n):
            raise ValueError(f"array length {arr.size} != 2^{n}")
        return cls(n, pack_bits(arr))

    @classmethod
    def zeros(cls, n: int) -> "TruthTable":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "TruthTable":
        return cls(n, (1 << (1 << n)) - 1)

    # -- text format: "n=<k>" header, then the 2^n bits as hex, index-0 bit
    #    as the most significant bit of the string --

    def to_hex(self) -> str:
        width = -(-self.size // 4)
        packed = np.packbits(self.to_array(), bitorder="big")
        h = int.from_bytes(packed.tobytes(), "big") >> (8 * len(packed) - self.size)
        return f"{h:0{width}x}"

    def to_text(self) -> str:
        return f"n={self.n}\n{self.to_hex()}\n"

    @classmethod
    def from_text(cls, text: str) -> "TruthTable":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if len(lines) < 2:
            raise ValueError("truth-table text needs a header line and a hex line")
        header = lines[0]
        if not header.startswith("n="):
            raise ValueError(f"bad header line: {header!r}")
        try:
            n = int(header[2:])
        except ValueError:
            raise ValueError(f"bad header line: {header!r}") from None
        if not 1 <= n <= MAX_VARS:
            raise ValueError(f"bad header line: {header!r} (n out of range)")
        size = 1 << n
        hexstr = lines[1]
        width = -(-size // 4)
        if len(hexstr) != width:
            raise ValueError(f"bad hex line: {hexstr!r} (expected {width} digits)")
        try:
            h = int(hexstr, 16)
        except ValueError:
            raise ValueError(f"bad hex line: {hexstr!r}") from None
        if h >= (1 << size):
            raise ValueError(f"bad hex line: {hexstr!r} (value out of range)")
        nbytes = (size + 7) // 8
        raw = (h << (8 * nbytes - size)).to_bytes(nbytes, "big")
        arr = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="big",
                            count=size)
        return cls.from_array(n, arr)

    def __repr__(self) -> str:
        if self.size <= 64:
            return f"TruthTable(n={self.n}, hex={self.to_hex()!r})"
        return f"TruthTable(n={self.n}, weight={self.weight()})"


@dataclass(frozen=True)
class AnfPolynomial:
    """Algebraic normal form: an XOR of monomials over variables 1..n."""

    n: int
    monomials: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one variable")
        monos = frozenset(frozenset(m) for m in self.monomials)
        object.__setattr__(self, "monomials", monos)
        for m in monos:
            for k in m:
                if not 1 <= k <= self.n:
                    raise ValueError(f"variable index {k} outside 1..{self.n}")

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[Iterable[int]]) -> "AnfPolynomial":
        """Build from a term list with XOR semantics: repeated monomials cancel."""
        acc: set[frozenset[int]] = set()
        for t in terms:
            m = frozenset(t)
            acc.symmetric_difference_update({m})
        return cls(n, frozenset(acc))

    @classmethod
    def zero(cls, n: int) -> "AnfPolynomial":
        return cls(n, frozenset())

    def degree(self) -> int:
        return max((len(m) for m in self.monomials), default=0)

    def __xor__(self, other: "AnfPolynomial") -> "AnfPolynomial":
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} != {other.n}")
        return AnfPolynomial(self.n, self.monomials ^ other.monomials)

    def to_str(self) -> str:
        if not self.monomials:
            return "0"
        parts = []
        for m in sorted(self.monomials, key=lambda m: (len(m), sorted(m))):
            parts.append("1" if not m else "".join(f"x{k}" for k in sorted(m)))
        return " + ".join(parts)


def _monomial_mask(mono: frozenset[int], n: int) -> int:
    return sum(1 << (n - k) for k in mono)


def anf_evaluate(anf: AnfPolynomial, point: int | Sequence[int]) -> int:
    """Evaluate the normal form at one assignment (index or bit sequence)."""
    if isinstance(point, int):
        if not 0 <= point < (1 << anf.n):
            raise ValueError(f"index {point} outside 0..2^{anf.n}-1")
        idx = point
    else:
        idx = index_of_point(point, anf.n)
    acc = 0
    for mono in anf.monomials:
        mask = _monomial_mask(mono, anf.n)
        acc ^= (idx & mask) == mask
    return int(acc)


def anf_to_truth_table(anf: AnfPolynomial) -> TruthTable:
    """Tabulate an ANF over all 2^n points.

    This direct expansion is the correctness oracle that every fast builder
    is checked against.
    """
    if anf.n > MAX_VARS:
        raise ValueError(f"variable count must be in 1..{MAX_VARS}, got {anf.n}")
    size = 1 << anf.n
    idx = np.arange(size, dtype=np.uint32)
    acc = np.zeros(size, dtype=bool)
    for mono in anf.monomials:
        mask = np.uint32(_monomial_mask(mono, anf.n))
        acc ^= (idx & mask) == mask
    return TruthTable(anf.n, pack_bits(acc))


class WalshSpectrum:
    """The 2^n signed values of the Walsh-Hadamard transform of (-1)^f."""

    __slots__ = ("n", "values", "_max_abs")

    def __init__(self, n: int, values: np.ndarray | Sequence[int]):
        arr = np.array(values, dtype=np.int32)  # a private copy
        if arr.size != 1 << n:
            raise ValueError(f"spectrum length {arr.size} != 2^{n}")
        self._init(n, arr)

    @classmethod
    def _adopt(cls, n: int, arr: np.ndarray) -> "WalshSpectrum":
        """Wrap a 2^n int32 array nothing else references, without a copy."""
        spec = cls.__new__(cls)
        spec._init(n, arr)
        return spec

    def _init(self, n: int, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_max_abs", None)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("WalshSpectrum is immutable")

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, w: int) -> int:
        return int(self.values[w])

    def __eq__(self, other) -> bool:
        return (isinstance(other, WalshSpectrum) and self.n == other.n
                and bool(np.array_equal(self.values, other.values)))

    def max_abs(self) -> int:
        # taken once per spectrum: two reductions, no |W| array; -min is
        # taken on a Python int
        if self._max_abs is None:
            object.__setattr__(self, "_max_abs", max(int(self.values.max()),
                                                     -int(self.values.min())))
        return self._max_abs

    def _count_of(self, *targets: int) -> int:
        """How many values equal one of the (distinct) targets."""
        return sum(int(np.count_nonzero(self.values == t)) for t in targets)

    def nonlinearity(self) -> int:
        """Minimum distance to the 2^(n+1) affine functions."""
        return (1 << (self.n - 1)) - self.max_abs() // 2

    def is_bent(self) -> bool:
        """Flat spectrum |W| = 2^(n/2); always false for odd n.

        max|W| = 2^(n/2) is checked first; then the values equal to +2^(n/2)
        or -2^(n/2) are counted.  Both are exact for any values and build no
        |W| array.
        """
        if self.n % 2 == 1:
            return False
        amp = 1 << (self.n // 2)
        return self.max_abs() == amp and self._count_of(amp, -amp) == len(self)

    def is_semi_bent(self) -> bool:
        """Spectral semi-bent test for n = 2k+1; always false for even n.

        Requires values in {0, +-2^(k+1)} and a balanced function, W(0) = 0.
        By Parseval such a spectrum has exactly 2^(2k) zeros.
        """
        if self.n % 2 == 0:
            return False
        amp = 1 << ((self.n + 1) // 2)
        return (self[0] == 0 and self.max_abs() <= amp
                and self._count_of(0, amp, -amp) == len(self))

    def pc_profile(self) -> dict[int, tuple[int, int]]:
        """Per-weight-class tallies of balanced derivatives over all directions.

        Returns {w: (satisfied, total)} for w = 1..n.  PC(s) holds iff classes
        1..s are fully satisfied; SAC is class 1.  Computed through the
        autocorrelation spectrum (one extra butterfly) rather than 2^n calls
        to pc_check, so the 2^n - 1 directions cost O(n 2^n) total.  Every
        partial sum is bounded by sum W^2 = 2^(2n) <= 2^40 (Parseval), so
        int64 is exact.
        """
        check_pc_vars(self.n)
        auto = self.values.astype(np.int64)
        np.square(auto, out=auto)
        _fwht_inplace(auto)  # auto[c] = 2^n * sum_x (-1)^(f(x)+f(x+c))
        zero = auto == 0
        del auto
        wt_of_index = np.zeros(zero.size, dtype=np.uint8)
        for p in range(self.n):
            np.add(wt_of_index[:1 << p], 1, out=wt_of_index[1 << p:2 << p])
        zero_wts = wt_of_index[zero]  # weight classes of the balanced directions
        return {w: (int(np.count_nonzero(zero_wts == w)), comb(self.n, w))
                for w in range(1, self.n + 1)}

    def zero_count(self) -> int:
        return int(np.count_nonzero(self.values == 0))

    def parseval_sum(self) -> int:
        return int(np.sum(self.values.astype(np.int64) ** 2))

    def write_csv(self, fileobj) -> None:
        """CSV export with columns w, value.

        Rows are formatted _CSV_ROWS at a time, one %-format per chunk.
        """
        fileobj.write("w,value\n")
        pairs = np.empty((_CSV_ROWS, 2), dtype=np.int64)
        for start in range(0, len(self), _CSV_ROWS):
            chunk = self.values[start:start + _CSV_ROWS]
            m = chunk.size
            pairs[:m, 0] = np.arange(start, start + m)
            pairs[:m, 1] = chunk
            fileobj.write(("%d,%d\n" * m) % tuple(pairs[:m].ravel().tolist()))

    def __repr__(self) -> str:
        return f"WalshSpectrum(n={self.n}, max_abs={self.max_abs()})"


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

    def inverse_rows(self) -> tuple[int, ...]:
        return gf2_invert(self.rows)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def weight(tt: TruthTable) -> int:
    """Hamming weight: the number of ones in the table."""
    return tt.weight()


def distance(f: TruthTable, g: TruthTable) -> int:
    """Hamming distance between two functions on the same variables."""
    return (f ^ g).weight()


def _fwht_inplace(v: np.ndarray, h: int = 1,
                  slab: np.ndarray | None = None) -> None:
    """Integer butterfly over the index bits of weight h, 2h, ... of v.

    Each pass maps the pair (a, b) = (v[i], v[i + h]) to (a + b, a - b) in
    place, log2(size/h) passes of size/2 additions and size/2 subtractions.
    The old a is kept in a slab of at most _SLAB elements (or the one given,
    of v's dtype): copy a into the slab, a += b, b = slab - b.  So a pass
    makes no copy of half the array and no temporaries, and its chunks stay
    in cache.  walsh_transform runs it on each int32 panel of its second
    pass for index bits 24 and 25, with the panel's dead float32 scratch
    buffer as the slab; pc_profile runs it on the whole int64 array.
    """
    size = v.size
    if slab is None:
        slab = np.empty(min(size // 2, _SLAB), dtype=v.dtype)
    while h < size:
        pairs = v.reshape(-1, 2, h)
        cols = min(h, slab.size)
        rows = slab.size // cols
        for r in range(0, pairs.shape[0], rows):
            for c in range(0, h, cols):
                a = pairs[r:r + rows, 0, c:c + cols]
                b = pairs[r:r + rows, 1, c:c + cols]
                old_a = slab[:a.size].reshape(a.shape)
                np.copyto(old_a, a)
                a += b
                np.subtract(old_a, b, out=b)
        h *= 2


def _gemm_bits(src: np.ndarray, spare: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Transform index bits lo..hi-1 of the flat float32 array src.

    The bits go _GROUP_BITS at a time, each group one batched matmul against
    the leading block of _HADAMARD, from src into spare and back in turn.
    Returns whichever of the two holds the result.  Each GEMM call against
    H_(2^g) covers at most _GEMM_MACS / 4^g rows or columns, so at most
    _GEMM_MACS multiply-adds whose operands stay in cache.  OpenBLAS runs a
    call that small on the calling thread; on a 2-vCPU virtual machine
    larger calls were handed to its worker thread and often took 8 ms each
    instead of 0.1 ms.
    """
    size = src.size
    while lo < hi:
        g = min(_GROUP_BITS, hi - lo)
        group = 1 << g
        stride = 1 << lo
        h = _HADAMARD[:group, :group]
        most = _GEMM_MACS >> (2 * g)  # rows or columns per GEMM call
        if stride == 1:  # rows of `group` consecutive values: rows @ H
            rows = min(size // group, most)
            np.matmul(src.reshape(-1, rows, group), h,
                      out=spare.reshape(-1, rows, group))
        else:  # H @ (group x stride) blocks, split into column tiles
            tile = min(stride, most)
            shape = (-1, group, stride // tile, tile)
            np.matmul(h, src.reshape(shape).transpose(0, 2, 1, 3),
                      out=spare.reshape(shape).transpose(0, 2, 1, 3))
        src, spare = spare, src
        lo += g
    return src


def walsh_transform(tt: TruthTable) -> WalshSpectrum:
    """Spectrum values[w] = sum over x of (-1)^(f(x) + w.x), as int32.

    H_(2^n) is the Kronecker product of one H_2 per index bit, so the bits
    can be transformed in groups and in any order.  The spectrum is built in
    one 4*2^n-byte buffer, in two passes through two scratch buffers of at
    most _PANEL values that stay in cache:

    1. Chunks.  For each run of 2^_CHUNK_BITS values (256 KiB), the +-1
       values are read from the packed bytes through _SIGNS into scratch,
       the low min(n, 16) index bits are transformed there by _gemm_bits,
       and the chunk is stored in the buffer (for n <= 16 already as int32).
    2. Panels (n > 16).  The buffer is a 2^(n-16) x 2^16 grid whose row
       index holds bits 16..n-1.  A panel of all the rows and the next
       _PANEL / rows columns is gathered into contiguous scratch, bits
       16..min(n, 24)-1 are transformed there by _gemm_bits, the panel is
       cast to int32, for n = 25, 26 bits 24 and 25 follow as an int32
       butterfly inside it, and the int32 values are written back over the
       bytes they came from.

    So every GEMM runs on contiguous data in cache, and the grid's rows,
    256 KiB apart, are read and written once per panel only.  The buffer's
    int32 view becomes the spectrum, without a copy.  This is exact: after
    the bits below b are done every value, and every partial sum a GEMM
    forms, is a signed sum of at most 2^b <= 2^24 of the +-1 inputs, an
    integer float32 holds exactly in any summation order and with or
    without FMA; |W| <= 2^26 < 2^31 for the int32 bits.  Peak memory is the
    one buffer, the packed bytes and the 2 * 4 * _PANEL bytes of scratch.
    """
    n, size = tt.n, tt.size
    chunk = min(size, 1 << _CHUNK_BITS)
    rows = size // chunk  # of the grid of pass 2
    width = min(chunk, _PANEL // rows)  # of a panel
    raw = np.frombuffer(tt.bits.to_bytes(max(1, size // 8), "little"),
                        dtype=np.uint8)
    buf = np.empty(size, dtype=np.float32)
    ints = buf.view(np.int32)
    a, b = np.empty((2, max(8, rows * width)), dtype=np.float32)
    nb = max(1, chunk // 8)  # packed bytes per chunk; n < 3: a partial byte
    dest = ints if rows == 1 else buf
    for start in range(0, size, chunk):
        np.take(_SIGNS, raw[start // 8:start // 8 + nb], axis=0,
                out=a[:8 * nb].reshape(nb, 8), mode="clip")
        done = _gemm_bits(a[:chunk], b[:chunk], 0, min(n, _CHUNK_BITS))
        np.copyto(dest[start:start + chunk], done, casting="unsafe")
    del raw  # pass 2 reads only the buffer
    if rows > 1:  # a and b hold exactly one panel
        high = min(n, _FLOAT_BITS) - _CHUNK_BITS  # float bits of pass 2
        wbits = width.bit_length() - 1
        grid, igrid = buf.reshape(rows, chunk), ints.reshape(rows, chunk)
        for col in range(0, chunk, width):
            np.copyto(a.reshape(rows, width), grid[:, col:col + width])
            done = _gemm_bits(a, b, wbits, wbits + high)
            panel = (b if done is a else a).view(np.int32)
            np.copyto(panel, done, casting="unsafe")
            _fwht_inplace(panel, width << high, done.view(np.int32))
            np.copyto(igrid[:, col:col + width], panel.reshape(rows, width))
    return WalshSpectrum._adopt(n, ints)


def nonlinearity(tt: TruthTable) -> int:
    """Minimum distance to the 2^(n+1) affine functions, via the spectrum."""
    return walsh_transform(tt).nonlinearity()


def correlation(g: TruthTable, h: TruthTable) -> Fraction:
    """Exact dyadic correlation 1 - d(g,h)/2^(n-1)."""
    if g.n != h.n:
        raise ValueError(f"dimension mismatch: {g.n} != {h.n}")
    return 1 - Fraction(distance(g, h), 1 << (g.n - 1))


def linear_function_table(n: int, w: int) -> TruthTable:
    """Truth table of l_w(x) = w.x."""
    if not 0 <= w < (1 << n):
        raise ValueError(f"mask {w} outside 0..2^{n}-1")
    idx = np.arange(1 << n, dtype=np.uint32)
    return TruthTable(n, pack_bits(_parity_u32(idx & np.uint32(w)).astype(np.uint8)))


def pc_check(f: TruthTable, c: int) -> bool:
    """Whether the derivative x -> f(x) + f(x+c) is balanced."""
    if c == 0:
        raise ValueError("propagation direction must be nonzero")
    if not 0 < c < f.size:
        raise ValueError(f"direction {c} outside 1..2^{f.n}-1")
    arr = f.to_array()
    shifted = arr[np.arange(f.size, dtype=np.uint32) ^ np.uint32(c)]
    return int(np.sum(arr ^ shifted, dtype=np.int64)) == f.size // 2


def check_pc_vars(n: int) -> None:
    """Raise ValueError when a PC profile on n variables is over the cap."""
    if n > PC_PROFILE_MAX_VARS:
        raise ValueError(f"pc_profile capped at n <= {PC_PROFILE_MAX_VARS}")


def pc_profile(f: TruthTable) -> dict[int, tuple[int, int]]:
    """{w: (satisfied, total)} per direction weight; see WalshSpectrum.pc_profile.

    The cap is checked before the spectrum is taken.
    """
    check_pc_vars(f.n)
    return walsh_transform(f).pc_profile()


def is_bent(f: TruthTable) -> bool:
    """Flat spectrum test; always false for odd n."""
    return walsh_transform(f).is_bent()


def is_semi_bent_spectral(f: TruthTable) -> bool:
    """Spectral semi-bent test for n = 2k+1; always false for even n."""
    return walsh_transform(f).is_semi_bent()


def apply_affine_transform(h: TruthTable, t: AffineTransform) -> TruthTable:
    """Pointwise g(x) = h(Ax + a) + b.x + c."""
    if t.n != h.n:
        raise ValueError(f"dimension mismatch: transform {t.n} != table {h.n}")
    n = h.n
    x = np.arange(h.size, dtype=np.uint32)
    y = np.zeros(h.size, dtype=np.uint32)
    for j, row in enumerate(t.rows):
        y |= _parity_u32(x & np.uint32(row)) << np.uint32(n - 1 - j)
    arr = h.to_array()[y ^ np.uint32(t.a)]
    if t.b:
        arr = arr ^ _parity_u32(x & np.uint32(t.b)).astype(np.uint8)
    if t.c:
        arr = arr ^ np.uint8(1)
    return TruthTable(n, pack_bits(arr))


def concatenate(g0: TruthTable, g1: TruthTable) -> TruthTable:
    """Join two n-variable tables into one on n+1 variables.

    The new variable is x_1 (the most significant index bit): the first half
    of the result is g0, the second half g1.
    """
    if g0.n != g1.n:
        raise ValueError(f"dimension mismatch: {g0.n} != {g1.n}")
    return TruthTable(g0.n + 1, g0.bits | (g1.bits << g0.size))


def restrict(f: TruthTable, var: int, value: int) -> TruthTable:
    """Cofactor: fix x_var to value, producing a table on n-1 variables."""
    if f.n < 2:
        raise ValueError("cannot restrict a single-variable table")
    if not 1 <= var <= f.n:
        raise ValueError(f"variable index {var} outside 1..{f.n}")
    if value not in (0, 1):
        raise ValueError("value must be 0 or 1")
    p = f.n - var
    half = f.size // 2
    j = np.arange(half, dtype=np.uint32)
    low = j & np.uint32((1 << p) - 1)
    old = ((j >> np.uint32(p)) << np.uint32(p + 1)) | np.uint32(value << p) | low
    return TruthTable.from_array(f.n - 1, f.to_array()[old])
