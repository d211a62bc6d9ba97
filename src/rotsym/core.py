"""Bit-packed Boolean functions and their cryptographic criteria.

A function on n variables is stored as a packed truth table: bit i of a
little-endian byte buffer (bit i % 8 of byte i // 8) holds f(x) for the
assignment obtained by reading i in binary with x_1 as the most significant
bit.  Index 0 is the all-zeros point, index 2^n - 1 the all-ones point.
Every type here is immutable and every operation is a pure function.

This is the one module that imports numpy: the tables, the Walsh kernel,
the criteria, and the transfer matrices of a rotation orbit
(orbit_summary).  builders, theory and cli import it only where they call
it, so `analyze`, `tables`, `conjecture` and `bench` load numpy and `gf`
and `build f2|f3|t` do not.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from io import StringIO
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .builders import _generator, _table_size, read_text, write_text

# The GEMM kernel (see _two_pass).  float32 holds every integer of magnitude
# <= 2^24 exactly, so walsh_transform does the low 24 index bits in float32
# and any higher bits in float64 (exact to 2^53); pc_profile does all its
# bits in float32 when every W is a multiple of 2^(n - 12), else in
# float64; the transfer-matrix GEMM of orbit_summary runs in
# float32 while its bound on every partial sum is <= 2^24.
_FLOAT_BITS = 24
_GROUP_BITS = 5        # index bits per GEMM stage, against one 32x32 matrix
_GEMM_MACS = 1 << 18   # multiply-adds per GEMM call (see _gemm_bits)
_CHUNK = 1 << 16       # float32 values per chunk of walsh_transform's pass 1
_INT16_CHUNK = 1 << 14  # values per int16 chunk of walsh_summary's pass 1
_PANEL = 1 << 17       # values per panel of _two_pass's pass 2 (and _panels)
_PC_SCRATCH = 1 << 14  # values per scratch buffer of pc_profile
# index bits pc_profile transforms as it loads W^2 (see pc_profile): two
# halve its buffer against one bit's; a three-bit fold was measured 35%
# slower at n = 24 (each of its eight runs squares every value)
_PC_FOLD_BITS = 2
# rows per formatted block of WalshSpectrum.write_csv: 10^4, so that a
# block's indices share their digits above the lowest four
_CSV_ROWS = 10**4
# write_csv's translation: byte 1 of its sign column is "-"
_CSV_MINUS = bytes.maketrans(b"\1", b"-")

# Sylvester-Hadamard H[j, k] = (-1)^(j.k), one copy per GEMM dtype; its
# leading 2^g block is H_(2^g)
_GROUP = np.arange(1 << _GROUP_BITS)
_HADAMARD = {np.dtype(t): 1 - 2 * (np.bitwise_count(np.bitwise_and.outer(
    _GROUP, _GROUP)) & 1).astype(t) for t in (np.float32, np.float64)}
# _SIGNS[byte, j] = (-1)^(bit j of byte): the +-1 values of 8 table positions
_SIGNS = (1 - 2 * ((np.arange(256)[:, None] >> np.arange(8)) & 1)).astype(np.float32)
# _SUPERSETS[y] has bit x set for the x in 0..7 with y & x == y
_SUPERSETS = bytes(sum(1 << x for x in range(8) if y & x == y) for y in range(8))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TruthTable:
    """A Boolean function as 2^n packed bits (bit i = f at index i).

    data is a read-only uint8 array of max(1, 2^n/8) bytes; bit i is bit
    i % 8 of byte i // 8.  For n = 1, 2 the unused high bits of the one byte
    are 0.  The table is a view of the bytes it is given, not a copy: the
    caller hands them over and does not write to them again.
    """

    n: int
    data: np.ndarray

    def __post_init__(self) -> None:
        nbytes = _table_size(self.n)
        data = np.frombuffer(self.data, dtype=np.uint8)
        if data.size != nbytes:
            raise ValueError(f"need {nbytes} packed bytes for n={self.n},"
                             f" got {data.size}")
        if self.size < 8 and data[0] >> self.size:
            raise ValueError("packed bits do not fit in 2^n positions")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def bits(self) -> int:
        """The table as an int with bit i = f at index i."""
        return int.from_bytes(self.data, "little")

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruthTable) and self.n == other.n
                and bool(np.array_equal(self.data, other.data)))

    def __hash__(self) -> int:
        return hash((self.n, self.data.tobytes()))

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise IndexError(index)
        return (int(self.data[index >> 3]) >> (index & 7)) & 1

    def weight(self) -> int:
        # popcounts of 64-bit words: a uint8 count per 8 bytes of table
        words = self.data.view(np.uint64) if self.data.size >= 8 else self.data
        return int(np.bitwise_count(words).sum())

    def to_array(self) -> np.ndarray:
        """The 2^n values as a uint8 array in index order."""
        return np.unpackbits(self.data, bitorder="little", count=self.size)

    def to_hex(self) -> str:
        """The hex line of to_text, without its newline."""
        return self.to_text().split()[1]

    def to_text(self, fileobj=None) -> str | None:
        """The text form that write_text writes: the "n=<k>" header line
        and the hex line.

        Returned as a str; or, given a text file, written to it, and None
        returned.
        """
        out = StringIO() if fileobj is None else fileobj
        write_text(out, self.n, [([self.data], bytes(1))])
        return out.getvalue() if fileobj is None else None

    @classmethod
    def from_text(cls, text: str) -> "TruthTable":
        """The table of a text form (builders.read_text parses it)."""
        return cls(*read_text(text))

    def __repr__(self) -> str:
        if self.size <= 64:
            return f"TruthTable(n={self.n}, hex={self.to_hex()!r})"
        return f"TruthTable(n={self.n}, weight={self.weight()})"


def anf_to_truth_table(n: int, terms: Iterable[Iterable[int]]) -> TruthTable:
    """The table of an XOR of monomials over variables 1..n.

    Each term is an iterable of variable indices in 1..n; the empty term is
    the constant 1, a repeated index is the same variable and a repeated
    term cancels.  Over GF(2) the ANF is a 2^n-bit vector: the coefficient
    of a monomial is the bit at the index of its variables (x_k is index bit
    n - k), and the table is that vector's binary Moebius transform, bit x
    the XOR of the coefficients at the indices y with y & x == y.  This is
    the correctness oracle that every fast builder is checked against.
    """
    table = np.zeros(_table_size(n), dtype=np.uint8)
    for term in terms:
        index = 0
        for k in term:
            if not 1 <= k <= n:
                raise ValueError(f"variable index {k} outside 1..{n}")
            index |= 1 << (n - k)
        # index bits 0..2 lie in one byte: XOR in the coefficient bit's
        # transform over them, the byte's positions that contain it
        table[index >> 3] ^= _SUPERSETS[index & 7]
    # index bits 3.. are byte strides: the upper half of each pair of
    # blocks takes the XOR of the lower, in place
    step = 1
    while step < table.size:
        pairs = table.reshape(-1, 2, step)
        pairs[:, 1] ^= pairs[:, 0]
        step *= 2
    if n < 3:  # the one byte's positions from 2^n on are no points
        table[0] &= (1 << (1 << n)) - 1
    return TruthTable(n, table)


@functools.cache
def _csv_groups() -> np.ndarray:
    """The 4-character digit groups of write_csv, as 2 x 2*10^4 uint32s.

    Entry g < 10^4 is g with its leading zeros as NUL, entry 10^4 + g is g
    with them kept.  Row 0 writes "0" for 0, as a lowest group must; row 1
    writes nothing for it, as a higher one must.  Each group's 4 bytes are
    in text order in memory.  Read-only, since every caller shares it.
    """
    # int16 keeps the build's temporaries small: the table is built inside
    # write_csv, whose heap sets the peak RSS of `analyze --spectrum-csv`
    powers = np.array([1000, 100, 10, 1], dtype=np.int16)
    digits = np.arange(10**4, dtype=np.int16)[:, None] // powers
    text = (digits % 10 + ord("0")).astype(np.uint8)
    halves = np.concatenate([np.where(digits > 0, text, 0), text])
    groups = np.repeat(halves.view("<u4").T, 2, axis=0)
    groups[0, 0] = ord("0") << 24
    groups.setflags(write=False)
    return groups


@functools.cache
def _popcount_classes(count: int) -> np.ndarray:
    """float32 count x (log2(count) + 1): row i is 1 in column popcount(i).

    Read-only, since every caller shares the cached array.
    """
    classes = np.bitwise_count(np.arange(count))
    out = (classes[:, None] == np.arange(count.bit_length())).astype(np.float32)
    out.setflags(write=False)
    return out


class WalshSummary(NamedTuple):
    """What the criteria read from a Walsh spectrum W of n variables.

    w0 = W(0), max_abs = max |W|, and semi_bent: n = 2k+1, W(0) = 0 and
    every value in {0, +-2^(k+1)}.
    """

    n: int
    w0: int
    max_abs: int
    semi_bent: bool

    @classmethod
    def _of(cls, n: int, tallies) -> "WalshSummary":
        """Combine the _tally of blocks, the first starting at W(0).  Max and
        min fold into max_abs as Python ints: negated in an int32 block,
        -2^31 would wrap to itself.

        Semi-bent is read from the count of +-2^(k+1): by Parseval (the 2^n
        values of W^2 sum to 4^n) at most 2^(2k) values are +-2^(k+1), and
        exactly 2^(2k) only when every other value is 0.  So the test is
        exact when the blocks hold every value that can be +-2^(k+1), and
        blocks that leave some out can never reach the count by mistake.
        """
        w0, high, low, amps = zip(*tallies)
        w0 = int(w0[0])
        return cls(n, w0, max(int(max(high)), -int(min(low))),
                   n % 2 == 1 and w0 == 0 and int(sum(amps)) == 1 << (n - 1))

    def weight(self) -> int:
        """A table's weight, from W(0) = 2^n - 2 wt."""
        return ((1 << self.n) - self.w0) // 2

    def nonlinearity(self) -> int:
        """Minimum distance to the 2^(n+1) affine functions, 2^(n-1) - max|W|/2."""
        return (1 << (self.n - 1)) - self.max_abs // 2

    def is_bent(self) -> bool:
        """Flat spectrum |W| = 2^(n/2); always false for odd n.  By Parseval
        (the mean of W^2 is 2^n) the spectrum is flat exactly when
        max|W| = 2^(n/2)."""
        return self.n % 2 == 0 and self.max_abs == 1 << (self.n // 2)


def _tally(n: int, block: np.ndarray) -> tuple:
    """A block's first value, max and min, and at odd n its count of
    +-2^((n+1)/2), semi-bent's amplitude (0 at even n), for
    WalshSummary._of."""
    amp = 1 << ((n + 1) // 2)
    return (block.flat[0], block.max(), block.min(), n % 2 and (
        np.count_nonzero(block == amp) + np.count_nonzero(block == -amp)))


class WalshSpectrum:
    """The 2^n signed values of the Walsh-Hadamard transform of (-1)^f."""

    __slots__ = ("n", "values", "_summary")

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
        object.__setattr__(self, "_summary", None)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("WalshSpectrum is immutable")

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, w: int) -> int:
        return int(self.values[w])

    def __eq__(self, other) -> bool:
        return (isinstance(other, WalshSpectrum) and self.n == other.n
                and bool(np.array_equal(self.values, other.values)))

    def summary(self) -> WalshSummary:
        """The criteria's reductions, taken once per spectrum over blocks of
        _PANEL values, so no temporary is spectrum-sized."""
        if self._summary is None:
            object.__setattr__(self, "_summary", WalshSummary._of(self.n, (
                _tally(self.n, self.values[start:start + _PANEL])
                for start in range(0, len(self), _PANEL))))
        return self._summary

    def max_abs(self) -> int:
        return self.summary().max_abs

    def pc_profile(self) -> dict[int, tuple[int, int]]:
        """Per-weight-class tallies of balanced derivatives over all directions.

        Returns {w: (satisfied, total)} for w = 1..n.  PC(s) holds iff classes
        1..s are fully satisfied; SAC is class 1.  Computed through the
        autocorrelation spectrum, the transform of W^2, rather than one
        2^n-point derivative per direction, so the 2^n - 1 directions cost
        O(n 2^n) total.
        The top f = min(_PC_FOLD_BITS, n - 1) index bits are transformed as
        the values are loaded: with W^2 read in its 2^f parts W_t^2 (top
        bits t), the part of the autocorrelation whose top bits are s is a
        run of _two_pass over sum_t (-1)^popcount(s & t) W_t^2, through one
        2^(n-f)-value buffer, two scratch buffers of _PC_SCRATCH values and
        one more for the loaded squares, all of one float dtype: float32
        when every W is a multiple of 2^(n - 12), else float64.  A scan of
        _PANEL-value blocks decides it and stops at the first block with a
        value off that grid.
        Each panel _two_pass yields has its zeros tallied by weight class,
        since the weight of index s * 2^(n-f) + r * chunk + col + j is
        the sum of the popcounts of s, r, col and j: the zeros of a panel
        are counted per row and column popcount class by two float32 GEMMs
        and added straight into one float32 tally zeros[k, b] of the
        directions whose bits above the panel's column bits have weight k
        and whose column bits have weight b, so weight w is the sum of the
        tally's antidiagonal k + b = w.
        This is exact for every n <= MAX_VARS.  Write every W as 2^g k, for
        the largest g with 2^g dividing them all.  Every square, every folded
        load and every partial sum of the transform is then 4^g times an
        integer, and its magnitude is at most sum W^2 = 4^n (Parseval), so
        that integer is at most 4^(n-g).  When n - g <= 12 it is at most
        2^24, and float32 holds every such multiple of 4^g exactly; else
        float64 holds every integer up to 4^n <= 2^52 < 2^53.  Both hold in
        any summation order, with or without FMA.  Every zero count, per
        panel, in the tally and summed over its antidiagonal, counts
        directions of one weight w, so it is at most
        C(n, w) <= C(26, 13) = 10400600 < 2^24, an integer float32 holds
        exactly.  At n = 26 the buffer is 64 MiB in float32 (f2) or 128 MiB
        in float64 (f3, t), beside the 256 MiB spectrum.
        """
        n = self.n
        fold = min(_PC_FOLD_BITS, n - 1)
        part = len(self) >> fold
        parts = [self.values[t * part:(t + 1) * part] for t in range(1 << fold)]
        off_grid = (1 << max(0, n - _FLOAT_BITS // 2)) - 1  # bits below 2^(n-12)
        dtype = np.float64 if any(
            np.bitwise_or.reduce(self.values[start:start + _PANEL]) & off_grid
            for start in range(0, len(self), _PANEL)) else np.float32
        squares = np.empty(_PC_SCRATCH, dtype=dtype)

        def load(start, count, out):
            # sum_t (-1)^popcount(s & t) W_t^2, the top bits s transformed
            acc, sq = out[:count], squares[:count]
            np.square(parts[0][start:start + count], out=acc, dtype=dtype)
            for t in range(1, len(parts)):
                np.square(parts[t][start:start + count], out=sq, dtype=dtype)
                combine = np.subtract if (s & t).bit_count() & 1 else np.add
                combine(acc, sq, out=acc)

        zeros = np.zeros((n + 1, n + 1), dtype=np.float32)
        buf = np.empty(part, dtype=dtype)
        for s in range(len(parts)):  # read by load
            for col, done in _two_pass(buf, dtype, n - fold, _PC_SCRATCH,
                                       _PC_SCRATCH, load):
                # done[r, j] = 2^n * sum_x (-1)^(f(x)+f(x+c)), zero iff the
                # derivative in direction c is balanced; c's weight is
                # popcount(s) + popcount(col) + popcount(r) + popcount(j)
                rows, width = done.shape
                high = s.bit_count() + col.bit_count()
                zeros[high:high + rows.bit_length(), :width.bit_length()] += (
                    _popcount_classes(rows).T @ (done == 0)
                    @ _popcount_classes(width))  # [row class, column class]
            del done  # a view of this run's scratch: free it before the next's
        mirror = np.fliplr(zeros)  # its diagonal n - w: zeros's k + b = w
        return {w: (int(mirror.trace(n - w)), comb(n, w)) for w in range(1, n + 1)}

    def write_csv(self, fileobj) -> None:
        """CSV export with columns w, value, written to a text file.

        Rows are formatted _CSV_ROWS at a time in numpy, each as one packed
        record: the 8 characters of w, ",", a sign byte, 4 characters per
        digit group of |value| (as many groups as max_abs() needs) and
        "\\n".  Each digit group of |value| is one np.take from
        _csv_groups(); below the top group the index is min(a, r + 10^4),
        for r the group and a the digits from it up, so the zeros are kept
        exactly when a digit stands above them.  w costs no arithmetic: its
        high group is one constant per block and its low group a slice of
        the table (n <= MAX_VARS keeps w below 10^8).  One bytes.translate
        per block turns the sign byte 1 into "-" and deletes every NUL.
        """
        fileobj.write("w,value\n")
        groups = _csv_groups()
        low_w = groups[0].astype(np.uint64) << 32  # bytes 4..7 of w's field
        width = -(-len(str(self.max_abs())) // 4)  # digit groups of |value|
        block = np.empty(min(len(self), _CSV_ROWS), [
            ("w", "<u8"), ("comma", "u1"), ("sign", "u1"),
            ("value", "<u4", width), ("newline", "u1")])
        block["comma"] = ord(",")
        block["newline"] = ord("\n")
        for start in range(0, len(self), _CSV_ROWS):
            values = self.values[start:start + _CSV_ROWS]
            rows = block[:len(values)]
            np.add(low_w[10**4 if start else 0:][:len(values)],
                   groups[1, start // 10**4], out=rows["w"])
            np.less(values, 0, out=rows["sign"])
            a = np.abs(values).view(np.uint32)  # |-2^31| wraps to 2^31
            # every index is in range; mode="wrap" skips take's out buffer
            table = groups[0]
            for k in range(width - 1, 0, -1):
                q = a // 10**4
                r = a - q * 10**4 + 10**4
                np.take(table, np.minimum(r, a, out=r), mode="wrap",
                        out=rows["value"][:, k])
                a, table = q, groups[1]
            np.take(table, a, mode="wrap", out=rows["value"][:, 0])
            text = rows.tobytes().translate(_CSV_MINUS, b"\0")
            fileobj.write(str(text, "ascii"))

    def __repr__(self) -> str:
        return f"WalshSpectrum(n={self.n}, max_abs={self.max_abs()})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _gemm_bits(src: np.ndarray, spare: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Transform index bits lo..hi-1 of the flat float array src.

    The bits go _GROUP_BITS at a time, each group one batched matmul against
    the leading block of the _HADAMARD of src's dtype, from src into spare
    and back in turn.  Returns whichever of the two holds the result.  Each
    GEMM call against H_(2^g) covers at most _GEMM_MACS / 4^g rows or
    columns, so at most _GEMM_MACS multiply-adds whose operands stay in
    cache.  OpenBLAS runs a call that small on the calling thread; on a
    2-vCPU virtual machine larger calls were handed to its worker thread and
    often took 8 ms each instead of 0.1 ms.
    """
    size = src.size
    hadamard = _HADAMARD[src.dtype]
    while lo < hi:
        g = min(_GROUP_BITS, hi - lo)
        group = 1 << g
        stride = 1 << lo
        h = hadamard[:group, :group]
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


def _two_pass(buf: np.ndarray, dtype, float_bits: int, chunk: int,
              panel: int, load) -> Iterator[tuple[int, np.ndarray]]:
    """Transform the low float_bits index bits of 2^n values through buf,
    yielding each finished panel as (col, done).

    H_(2^n) is the Kronecker product of one H_2 per index bit, so the bits
    can be transformed in groups and in any order.  buf is an array of the
    2^n values' length; the values go through it in two passes, and
    through two scratch buffers of the GEMM dtype and at most
    max(chunk, panel) values that stay in cache:

    1. Chunks.  The values are loaded a panel's worth of whole chunks at a
       time: load(start, count, a) writes the inputs start..start+count-1
       into a[:count] (it may use a beyond that), and the low log2(chunk)
       index bits of each chunk are transformed there by _gemm_bits.  The
       chunks are stored in buf, cast to buf's dtype.
    2. Panels.  buf is a (2^n / chunk) x chunk grid whose row index holds
       the bits above the chunk's.  A panel of all the rows and the next
       panel / rows columns is gathered into contiguous scratch, cast to
       the GEMM dtype, and the remaining float bits are transformed there.

    The casts are exact when buf's dtype holds every value after the
    chunk's bits: after k bits every value is a signed sum of at most 2^k
    inputs of magnitude <= M, so |v| <= 2^k M (int16 holds the +-1 values
    after log2(chunk) <= 14 bits, since 2^14 < 2^15).

    done[r, j] is output value r * chunk + col + j.  It lives in the
    scratch, so it stays valid until the next panel is requested; the
    consumer may write it back over buf's columns col..col+width-1, which
    no later panel reads.  When one chunk holds all 2^n values, it is the
    one panel (col 0, one row) and is never stored in buf.  So every GEMM
    runs on contiguous data in cache, and the grid's rows are read once
    per panel only.  Beyond buf, the pass allocates only the two scratch
    buffers; a consumer that transforms further bits brings its own
    (_walsh_panels's 2 * 8 * _PANEL bytes of float64 when n > 24).
    """
    size = buf.size
    chunk = min(size, chunk)
    rows = size // chunk  # of the grid of pass 2
    width = min(chunk, panel // rows)  # of a panel
    a, b = np.empty((2, max(8, rows * width)), dtype=dtype)
    cbits = chunk.bit_length() - 1
    block = rows * width  # whole chunks per load: one panel's worth
    x, y = a[:block], b[:block]
    for start in range(0, size, block):
        load(start, block, a)
        done = _gemm_bits(x, y, 0, min(float_bits, cbits))
        if rows == 1:
            yield 0, done.reshape(1, chunk)
        else:
            np.copyto(buf[start:start + block], done, casting="unsafe")
    if rows > 1:  # a and b hold exactly one panel
        wbits = width.bit_length() - 1
        # a panel's row is one void item, so the gather is one strided copy
        # (a 2-d copy runs its inner loop once per row); a buf of another
        # dtype is staged in b and then cast into a
        row = np.dtype((np.void, width * buf.itemsize))
        grid = buf.view(row).reshape(rows, -1)
        staged = a if buf.dtype == a.dtype else b.view(buf.dtype)[:a.size]
        for k in range(chunk // width):
            np.copyto(staged.view(row), grid[:, k])
            if staged is not a:
                np.copyto(a, staged, casting="unsafe")
            done = _gemm_bits(a, b, wbits, wbits + float_bits - cbits)
            yield k * width, done.reshape(rows, width)


def _walsh_panels(tt: TruthTable, buf: np.ndarray,
                  chunk: int) -> Iterator[tuple[int, np.ndarray]]:
    """The finished panels (col, done) of the transform of (-1)^tt, taken
    through buf by _two_pass.

    The chunks' +-1 values are read from the packed bytes through _SIGNS;
    the low min(n, 24) index bits are transformed as float32 GEMMs.  For
    n = 25, 26 each finished panel is copied into a float64 panel scratch,
    and bits 24 and 25 follow there as float64 GEMMs; that float64 panel
    is the one yielded, valid until the next is requested.

    This is exact: after the bits below b are done every value, and every
    partial sum a GEMM forms, is a signed sum of at most 2^b of the +-1
    inputs, an integer that float32 holds exactly for b <= 24 and float64
    for b <= 53, in any summation order and with or without FMA.  Beyond
    the table and buf, peak memory is the 2 * 4 * _PANEL bytes of float32
    scratch, plus 2 * 8 * _PANEL bytes (2 MiB) of float64 scratch when
    n > 24.
    """
    n, raw = tt.n, tt.data

    def load(start, count, out):
        nb = max(1, count // 8)  # packed bytes; n < 3: a partial byte
        np.take(_SIGNS, raw[start // 8:start // 8 + nb], axis=0,
                out=out[:8 * nb].reshape(nb, 8), mode="clip")

    if n > _FLOAT_BITS:
        wide = np.empty((2, _PANEL), dtype=np.float64)
    for col, done in _two_pass(buf, np.float32, min(n, _FLOAT_BITS), chunk,
                               _PANEL, load):
        if n > _FLOAT_BITS:
            # the panel's row bits sit above its log2(width) column bits and
            # start at global bit log2(chunk), so global bits 24..n-1 are
            # panel bits lo..lo+n-25
            rows, width = done.shape
            lo = width.bit_length() + _FLOAT_BITS - chunk.bit_length()
            x, y = wide[:, :done.size]
            np.copyto(x, done.reshape(-1))
            done = _gemm_bits(x, y, lo, lo + n - _FLOAT_BITS).reshape(rows, width)
        yield col, done


def walsh_transform(tt: TruthTable) -> WalshSpectrum:
    """Spectrum values[w] = sum over x of (-1)^(f(x) + w.x), as int32.

    The spectrum is built in one 4*2^n-byte float32 buffer by
    _walsh_panels, with chunks of _CHUNK values (256 KiB) and panels of
    _PANEL values (512 KiB).  Each panel it yields, float32 or float64, is
    cast straight into the int32 view of the bytes it came from, and that
    view becomes the spectrum, without a copy.  Exact, as _walsh_panels
    says; the result |W| <= 2^26 < 2^31 fits int32.  Beyond the table,
    peak memory is the one buffer and _walsh_panels's scratch.
    """
    buf = np.empty(tt.size, dtype=np.float32)
    ints = buf.view(np.int32)
    for col, done in _walsh_panels(tt, buf, _CHUNK):
        rows, width = done.shape
        np.copyto(ints.reshape(rows, -1)[:, col:col + width], done,
                  casting="unsafe")
    return WalshSpectrum._adopt(tt.n, ints)


def walsh_summary(tt: TruthTable) -> WalshSummary:
    """The WalshSummary of tt's spectrum, without a stored spectrum.

    _walsh_panels runs with an int16 buf and chunks of _INT16_CHUNK
    values: pass 1 stores each chunk's 14 transformed bits as int16, exact
    since then |v| <= 2^14 < 2^15, and pass 2 gathers int16 panels into
    float32 scratch and finishes bits 14..n-1 there (24..n-1 in float64).
    Each panel it yields is reduced by _tally and never written back.  So
    beside the table the peak is the 2*2^n-byte int16 buffer and
    _walsh_panels's scratch: 131 MiB at n = 26, where the int32
    spectrum alone is 256 MiB.
    """
    panels = _walsh_panels(tt, np.empty(tt.size, dtype=np.int16), _INT16_CHUNK)
    return WalshSummary._of(tt.n, (_tally(tt.n, done) for _, done in panels))


# ---------------------------------------------------------------------------
# the transfer matrices of a rotation orbit
# ---------------------------------------------------------------------------

def _transfer(generator: Iterable[int], n: int) -> np.ndarray:
    """The transfer matrices M_0, M_1 of a rotation orbit, as int64 2 x D x D.

    The orbit of the monomial of generator is the cyclic sum over i of one
    local term phi of the L bits x_i..x_(i+L-1), where the window starts
    after the generator's largest cyclic gap, so L is least.  A state is
    L-1 consecutive bits (D = 2^(L-1)), and the L-bit window w (x_i as its
    top bit) steps from state w >> 1 to state w mod D with the sign
    (-1)^(phi(w) + b x_i) in M_b.  For L = 1 both windows step from the one
    state to itself, so its entry is their sum.  n and the generator are
    checked here, by _generator.
    """
    gen = sorted(_generator(generator, n))
    gaps = [(b - a - 1) % n + 1 for a, b in zip(gen, gen[1:] + gen[:1])]
    start = gen[(gaps.index(max(gaps)) + 1) % len(gen)]
    offsets = [(k - start) % n for k in gen]
    span = max(offsets) + 1
    mask = sum(1 << (span - 1 - o) for o in offsets)
    w = np.arange(1 << span)
    d = 1 << (span - 1)
    m = np.zeros((2, d, d), dtype=np.int64)
    for b in (0, 1):
        signs = 1 - 2 * (((w & mask) == mask) ^ (b & (w >> (span - 1))))
        np.add.at(m[b], (w >> 1, w & (d - 1)), signs)
    return m


def _walks(generator: Iterable[int], n: int
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, type, int]:
    """The prefix and suffix products P and S of orbit_summary, and
    S_max[t, s] = max over a_lo of |S(a_lo)[t, s]|, in the float dtype
    whose GEMM of P and S is exact, and the bound B it is chosen by.

    The products are taken in float32, which is exact: an entry of a
    product of j transfer matrices, and every partial sum forming it, is a
    signed count of at most 2^j walks, and j <= n - n // 2 <= 13 for
    n <= 26 (float32 holds integers to 2^24, so up to n = 48).
    B = sum over s, t of max_a |P[s, t]| max_b |S[t, s]| bounds every
    product and every partial sum of the GEMM, in any summation order, so
    the GEMM runs in float32 when B <= 2^_FLOAT_BITS (2^24); else P and S
    are cast to float64, which is exact to 2^53.  B <= 2^n, because
    max_a |P[s, t]| is at most the number of k-step walks from s to t, and
    the products of these counts sum to the 2^n closed walks of n steps.
    """
    m = _transfer(generator, n).astype(np.float32)
    d = m.shape[1]
    k = n // 2
    # [a_hi, s D + t] = P(a_hi)[s, t] and [s D + t, a_lo] = S(a_lo)[t, s]
    pre = _products(m, k).transpose(1, 0, 2).reshape(-1, d * d)
    suf = _products(m, n - k).transpose(2, 0, 1).reshape(d * d, -1)
    # the largest |entry| of each column of P and row of S (S_max), exact
    suf_max = _max_abs(suf, axis=1)
    bound = int(_max_abs(pre, axis=0).astype(np.int64)
                @ suf_max.astype(np.int64))
    dtype = np.float32 if bound <= 1 << _FLOAT_BITS else np.float64
    return (pre.astype(dtype, copy=False), suf.astype(dtype, copy=False),
            suf_max.astype(dtype, copy=False), dtype, bound)


def _products(m: np.ndarray, j: int) -> np.ndarray:
    """[s, a, t] = (M_(a_1) ... M_(a_j))[s, t] for the 2^j indices a of j
    bits, a_1 the top one, from the 2 x D x D transfer matrices m.

    Each step is one GEMM against [M_0 M_1], which appends a low bit b to
    every a: the rows (s, a) times the columns (b, t) are the rows
    (s, 2a + b) of the next step, so no step moves its result.
    """
    d = m.shape[1]
    right = m.transpose(1, 0, 2).reshape(d, 2 * d)  # [r, b D + t] = M_b[r, t]
    prod = np.eye(d, dtype=m.dtype)
    for _ in range(j):
        prod = prod.reshape(-1, d) @ right
    return prod.reshape(d, -1, d)


def _max_abs(a: np.ndarray, axis=None):
    """max |a| along axis, without an |a| temporary."""
    return np.maximum(a.max(axis=axis), -a.min(axis=axis))


def _row_bounds(pre: np.ndarray, suf_max: np.ndarray) -> np.ndarray:
    """U(a_hi) = sum over s, t of |P(a_hi)[s, t]| S_max[t, s] for every row
    of P, which bounds |W(a_hi, a_lo)| for every a_lo.

    |P| is taken a slice of rows (about _PANEL / 8 values) at a time, so no
    second P-sized array is formed.  Each partial sum is at most _walks's
    bound B, so this is exact in P's dtype.
    """
    rows = max(1, (_PANEL // 8) // pre.shape[1])
    return np.concatenate([np.abs(pre[r:r + rows]) @ suf_max
                           for r in range(0, len(pre), rows)])


def _panels(pre: np.ndarray, suf: np.ndarray):
    """The GEMM of rows of P against S, a panel at a time.

    Returns (height, gemm): gemm(rows), for at most height indices a_hi,
    is the panel of W(a_hi, a_lo), one row per index, written into one
    reused buffer of about _PANEL values.  Each matmul call is tiled to at
    most _GEMM_MACS multiply-adds.
    """
    dd, cols = suf.shape  # cols = 2^(n-k) <= 2^13: a panel is whole rows
    height = min(len(pre), _PANEL // cols)
    tile = min(cols, max(1, _GEMM_MACS // (height * dd)))
    tiles = suf.reshape(dd, -1, tile).transpose(1, 0, 2)
    panel = np.empty((height, cols), dtype=suf.dtype)

    def gemm(rows: np.ndarray) -> np.ndarray:
        block = panel[:len(rows)]
        np.matmul(pre[rows], tiles,
                  out=block.reshape(len(rows), -1, tile).transpose(1, 0, 2))
        return block

    return height, gemm


def orbit_summary(generator: Iterable[int], n: int) -> WalshSummary:
    """The WalshSummary of the rotation orbit of one monomial, from its
    transfer matrices instead of its table, and from only the GEMM rows
    that could change it.

    With M_b = _transfer(generator, n), every x is one closed walk of n
    steps, so W(a) = tr(M_(a_1) ... M_(a_n)), x_1 and a_1 being the top
    index bits as in the table.  Split a into its top k = n // 2 bits a_hi
    and the n - k others a_lo: with the prefix products
    P(a_hi) = M_(a_1) ... M_(a_k) and suffix products
    S(a_lo) = M_(a_(k+1)) ... M_(a_n), W(a) = sum over s, t of
    P[s, t] S[t, s].  So the spectrum is one GEMM, rows a_hi of
    (2^k x D^2) @ (D^2 x 2^(n-k)), run by _panels in panels of whole rows
    of about _PANEL values, each reduced by _tally.

    The bound of row a_hi, U(a_hi) = sum over s, t of |P(a_hi)[s, t]|
    S_max[t, s], is at least |W(a_hi, a_lo)| for every a_lo (the triangle
    inequality).  Row 0 gives W(0) and a first maximum top; the other rows
    run in descending U while U > top, so max|W| is exact.  Where the
    function can be semi-bent (odd n and W(0) = 0), they run while
    U >= top: a row left out then has U < top <= max|W|, so if max|W| is
    the semi-bent 2^((n+1)/2) it holds no value of that magnitude, and the
    count WalshSummary._of reads is whole.  For f3 at n = 24..26 only 4
    rows of 4096..8192 run, row 0 among them; f2 at even n runs row 0
    alone, and f2 at odd n every row.

    This is exact: the GEMM runs in float32 when the bound B of _walks is
    at most 2^24, which f2 and f3 meet at every n <= 26 (f3: B = 2^21.86
    at n = 26), and in float64 otherwise (B <= 2^n <= 2^26).  U is formed
    in the GEMM's dtype, and each of its partial sums is at most B, so it
    too is an exact integer.  Memory is P and S, D^2 (2^k + 2^(n-k))
    values of the GEMM dtype, and one panel with its rows of P: under
    2 MiB at n = 26 for degree 3 (D = 4), and no 2^n buffer.  The cost
    grows as 4^(L-1), so this suits short windows such as those of f2
    and f3.
    """
    pre, suf, suf_max, _, _ = _walks(generator, n)
    height, gemm = _panels(pre, suf)
    tallies = [_tally(n, gemm(np.zeros(1, dtype=np.intp)))]
    w0, high, low, _ = tallies[0]
    top = max(int(high), -int(low))
    runs = np.greater_equal if n % 2 and w0 == 0 else np.greater
    bound = _row_bounds(pre, suf_max)
    rows = np.flatnonzero(runs(bound[1:], top)) + 1
    rows = rows[np.argsort(-bound[rows])]
    for row in range(0, len(rows), height):
        part = rows[row:row + height]
        part = part[runs(bound[part], top)]  # rows run in descending U: a prefix
        if not len(part):
            break
        tallies.append(_tally(n, gemm(part)))
        _, high, low, _ = tallies[-1]
        top = max(top, int(high), -int(low))
    return WalshSummary._of(n, tallies)


def nonlinearity(tt: TruthTable) -> int:
    """Minimum distance to the 2^(n+1) affine functions, via the spectrum."""
    return walsh_summary(tt).nonlinearity()


def pc_profile(f: TruthTable) -> dict[int, tuple[int, int]]:
    """{w: (satisfied, total)} per direction weight; see WalshSpectrum.pc_profile."""
    return walsh_transform(f).pc_profile()


def is_bent(f: TruthTable) -> bool:
    """Flat spectrum test; always false for odd n."""
    return walsh_summary(f).is_bent()


def is_semi_bent_spectral(f: TruthTable) -> bool:
    """Spectral semi-bent test for n = 2k+1; always false for even n."""
    return walsh_summary(f).semi_bent
