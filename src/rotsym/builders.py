"""Fast string-concatenation builders for rotation-symmetric truth tables.

Tables are assembled from named 4-bit blocks by doubling: u || step(u), where
step complements the second half (tilde) or the last quarter (hat) of the
copy.  Copies are free; an OpCounter charges only complemented bits, reported
as 4-bit blocks.  The doubling constructions reach a 2^n-bit table in
O(2^n) work with roughly 2^(n-3) block complements, versus the (3n-1)/2 * 2^n
operations of direct pointwise evaluation.  build_f2, build_f3, their
components and the open chain t_chain grow the base of each segment, at most
two (tilde) or four (hat) pieces of 16 KiB, by those doublings in place; past
the base a doubling copies and complements whole pieces, so the segment is
its base pieces, some complemented.  The builds fill one 2^n/8-byte buffer
from those pieces, which the table then holds; doubled_pieces hands the same
segments to write_text, which hexes each distinct piece of a segment once,
so `build` writes these tables without one.
monomial_table_general doubles in place in one buffer of the table's size.
Any other rotation orbit is no doubling: theory.family_table
tabulates its ANF with core.anf_to_truth_table, in a buffer of the same
size.  The seeds are written in the paper's block notation and parsed
straight into bytes; the published string operators, stated on bit strings in
tests/oracles.py, are the tests' reference.

The doublings and the text writer work on bytes and bytearrays alone, so
this module imports neither numpy nor core, and `build f2|f3|t` writes its
table without loading them.  The functions that return a TruthTable import
core when they make one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

    from .core import TruthTable

MAX_VARS = 26          # 2^26-bit tables; the spectrum still fits int32
FAST_MIN_N = {"f2": 5, "f3": 7}  # the least n of build_f2 and build_f3
_TEXT_BYTES = 1 << 14  # packed bytes per write_text hex slice and builders piece

# _BIT_REVERSED[b] is the byte b with its 8 bits in reverse order
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_BIT_REVERSED_FLIPPED = bytes(b ^ 0xFF for b in _BIT_REVERSED)  # and complemented
_COMPLEMENT = bytes(b ^ 0xFF for b in range(256))  # each byte's 8 bits flipped

MACRON = "̄"  # combining overbar used in block names

# the eight base blocks as nibbles, the first written bit lowest (table index
# order): A = 0011, B = 0101, C = 0110, D = 0000, U = 1000, V = 0001,
# X = 0100, Y = 0010; a barred block is its base XOR 0xF
_NIBBLES = {"A": 0xC, "B": 0xA, "C": 0x6, "D": 0x0,
            "U": 0x1, "V": 0x8, "X": 0x2, "Y": 0x4}


class OpCounter:
    """Counts complemented bits during a build; reported as 4-bit blocks."""

    def __init__(self, bits_complemented: int = 0) -> None:
        self.bits_complemented = bits_complemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, OpCounter):
            return NotImplemented
        return self.bits_complemented == other.bits_complemented

    def __repr__(self) -> str:
        return f"OpCounter(bits_complemented={self.bits_complemented})"

    def charge_bits(self, nbits: int) -> None:
        if nbits < 0:
            raise ValueError("negative charge")
        self.bits_complemented += nbits

    @property
    def block_complements(self) -> int | Fraction:
        q, r = divmod(self.bits_complemented, 4)
        if r == 0:
            return q
        # imported only here: _flip charges whole blocks, so no build
        # reaches this line, and importing fractions (which loads decimal)
        # would cost every CLI start-up ~0.4 MiB and ~3 ms
        from fractions import Fraction
        return Fraction(self.bits_complemented, 4)


def _table_size(n: int) -> int:
    """The packed bytes of a 2^n-bit table; n is checked to lie in
    1..MAX_VARS, so an oversized n allocates nothing."""
    if not 1 <= n <= MAX_VARS:
        raise ValueError(f"variable count must be in 1..{MAX_VARS}, got {n}")
    return max(1, (1 << n) >> 3)


# ---------------------------------------------------------------------------
# monomial truth tables by block composition
# ---------------------------------------------------------------------------

def monomial_table_general(indices: Sequence[int], n: int) -> TruthTable:
    """Table of a degree-s monomial (s >= 2) assembled from blocks.

    The seed byte is the paper's block pair on the last three variables:
    D-bar D-bar, D D-bar, AA, BB, VV, DA, DB or DV.  Each earlier x_v then
    doubles it in place: pattern || pattern, or D^r || pattern if x_v is in.
    The pattern grows at the end of one zeroed buffer, so D^r is the zeros
    already before it and only pattern || pattern copies.
    """
    idx = tuple(indices)
    s = len(idx)
    if s < 2:
        raise ValueError("need degree >= 2")
    if s > n:
        raise ValueError(f"degree {s} exceeds {n} variables")
    if any(not 1 <= k <= n for k in idx):
        raise ValueError(f"indices outside 1..{n}: {idx}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"indices must be strictly increasing: {idx}")

    buf = bytearray(_table_size(n))
    seed = 0xFF if n >= 3 else 0x0F
    # the byte of positions 0..7 where x_n, x_(n-1) or x_(n-2) is 1
    for v, pattern in ((n, 0xAA), (n - 1, 0xCC), (n - 2, 0xF0)):
        if v in idx:
            seed &= pattern
    end = len(buf)
    buf[end - 1] = seed
    k = 1
    with memoryview(buf) as view:  # copies between its slices take no temporary
        for v in range(n - 3, 0, -1):
            if v not in idx:
                view[end - 2 * k:end - k] = view[end - k:]
            k *= 2
    from .core import TruthTable
    return TruthTable(n, buf)


def _generator(generator: Iterable[int], n: int) -> frozenset[int]:
    """The variable indices of a rotation orbit's monomial, checked after
    n, as _table_size checks it."""
    _table_size(n)
    gen = frozenset(generator)
    if not gen:
        raise ValueError("empty generator")
    if any(not 1 <= k <= n for k in gen):
        raise ValueError(f"generator indices outside 1..{n}")
    return gen


# ---------------------------------------------------------------------------
# the doubling algorithms, in place in one byte buffer
# ---------------------------------------------------------------------------

def _seed_bytes(notation: str) -> bytes:
    """A seed in block notation as bytes: the first block is the low nibble
    of byte 0, and a MACRON after a letter bars it."""
    nibbles: list[int] = []
    for c in notation:
        if c == MACRON:
            nibbles[-1] ^= 0xF
        else:
            nibbles.append(_NIBBLES[c])
    return bytes(lo | hi << 4 for lo, hi in zip(nibbles[::2], nibbles[1::2]))


# the seeds of each family's segments: degree 2 at level 3 (8 bits), doubled
# by tilde; degree 3 at level 4 (16 bits), doubled by hat
_F2_SEEDS = tuple(map(_seed_bytes, ("VY", "XU" + MACRON)))
_F3_SEEDS = tuple(map(_seed_bytes, ("DVDY", "VDVA", "XBXC")))
_TILDE, _HAT = 1, 2  # a doubling complements the last 2^-shift of the copy


def _flip(seg: bytearray, lo: int, hi: int, counter: OpCounter | None) -> None:
    """Complement bits lo..hi-1 of seg and charge them.

    Every part complemented here is a power of two of at least 4 bits,
    aligned to its size: a part under a byte is one nibble of one byte.
    """
    if counter is not None:
        counter.charge_bits(hi - lo)
    if hi - lo >= 8:
        seg[lo // 8:hi // 8] = seg[lo // 8:hi // 8].translate(_COMPLEMENT)
    else:
        seg[lo // 8] ^= ((1 << (hi - lo)) - 1) << (lo % 8)


def _grow(seg: bytearray, seed: bytes, shift: int,
          counter: OpCounter | None) -> None:
    """Fill seg with seed doubled in place up to seg's length.

    Each doubling u -> u || step(u) copies the finished bytes into the next
    half and complements the last 2^-shift of that copy: step is tilde for
    shift 1 and hat for shift 2, and charges what they charge.
    """
    k = len(seed)
    seg[:k] = seed
    with memoryview(seg) as view:  # copies between its slices take no temporary
        while k < len(seg):
            view[k:2 * k] = view[:k]
            _flip(seg, 16 * k - (8 * k >> shift), 16 * k, counter)
            k *= 2


def _derive(seg: bytearray, shift: int, counter: OpCounter | None) -> None:
    """Turn a copy of the last doubled segment into the derived one in place.

    Degree 2 complements its first half; degree 3 (shift 2) first takes hat,
    its last quarter.
    """
    bits = 8 * len(seg)
    if shift == _HAT:
        _flip(seg, bits - bits // 4, bits, counter)
    _flip(seg, 0, bits // 2, counter)


def _on_flags(step, flags: bytearray, *args, counter: OpCounter | None) -> None:
    """Run a doubling step on the flags of pieces, a byte each, and charge
    counter for the pieces' bits: _TEXT_BYTES times the flags'."""
    tally = OpCounter()
    step(flags, *args, tally)
    if counter is not None:
        counter.charge_bits(tally.bits_complemented * _TEXT_BYTES)


_Segment = tuple[list[bytearray], bytearray]  # distinct parts, flags


def _segment(seed: bytes, shift: int, nbytes: int,
             counter: OpCounter | None) -> _Segment:
    """seed doubled to nbytes, as its distinct pieces and a flag per piece.

    _grow makes the base: the whole segment, one piece, when it is shorter
    than 2^shift pieces of _TEXT_BYTES, else its first 2^shift pieces.
    Each later doubling complements whole pieces of its copy, so piece i is
    base piece i mod 2^shift, complemented where flag i is set, and the
    flags double by the same _grow: flag i is the parity of i & i>>1
    (tilde) or i & i>>1 & i>>2 (hat).  The charges are one whole _grow's.
    """
    base = bytearray(min(nbytes, _TEXT_BYTES << shift))
    _grow(base, seed, shift, counter)
    if len(base) < _TEXT_BYTES << shift:
        return [base], bytearray(1)
    flags = bytearray(nbytes // _TEXT_BYTES)
    _on_flags(_grow, flags, bytes(1 << shift), shift, counter=counter)
    return [base[i:i + _TEXT_BYTES] for i in range(0, len(base), _TEXT_BYTES)], flags


def _derived(segment: _Segment, shift: int, counter: OpCounter | None) -> _Segment:
    """A _segment's derived copy (see _derive): in its one piece or its flags."""
    parts, flags = segment
    if len(flags) == 1:
        parts = [bytearray(parts[0])]
        _derive(parts[0], shift, counter)
    else:
        flags = bytearray(flags)
        _on_flags(_derive, flags, shift, counter=counter)
    return parts, flags


def _pieces(segment: _Segment, form: Callable[[bytearray, bool], object]
            ) -> Iterator:
    """A segment's pieces in order, each as form(part, complemented) makes
    it: piece i is part i mod len(parts), complemented where flag i is set.

    form runs once for each part and each flag value the flags hold, and
    what it made is dropped when the segment's last piece is read.
    """
    parts, flags = segment
    made = {flag: [form(part, flag != 0) for part in parts] for flag in set(flags)}
    for i, flag in enumerate(flags):
        yield made[flag][i % len(parts)]


def _table(n: int, segments: list[_Segment]) -> TruthTable:
    """The table of segments, filled from their pieces in one buffer, which
    becomes the table's bytes without a copy; each segment's parts are
    complemented once, as its flags need."""
    buf = bytearray(_table_size(n))
    at = 0
    for segment in segments:
        for piece in _pieces(segment, lambda part, flipped:
                             part.translate(_COMPLEMENT) if flipped else part):
            buf[at:at + len(piece)] = piece
            at += len(piece)
    from .core import TruthTable
    return TruthTable(n, buf)


def _layout(n: int, seeds: Sequence[bytes], shift: int,
            counter: OpCounter | None) -> list[_Segment]:
    """The segments of a 2^n-bit build.

    Segment i = 1..len(seeds) is seed i doubled to 2^(n-i) bits; the last
    segment, as long as the one before it, is that one derived.
    """
    size = _table_size(n)
    segs = [_segment(seed, shift, size >> i, counter)
            for i, seed in enumerate(seeds, 1)]
    return segs + [_derived(segs[-1], shift, counter)]


def _component(seeds: Sequence[bytes], shift: int, i: int, level: int,
               counter: OpCounter | None) -> list[_Segment]:
    """Segment i of a build at its level, alone in a list: a seed doubled,
    or the derived last one.  The least level is the seed's own, log2 of
    its bits."""
    if not 1 <= i <= len(seeds) + 1:
        raise ValueError(f"component index must be 1..{len(seeds) + 1}, got {i}")
    seed = seeds[min(i, len(seeds)) - 1]
    least = (8 * len(seed)).bit_length() - 1
    if level < least:
        raise ValueError(f"components start at level {least}, got {level}")
    seg = _segment(seed, shift, _table_size(level), counter)
    return [_derived(seg, shift, counter) if i > len(seeds) else seg]


def doubled_pieces(selector: str, n: int, counter: OpCounter | None = None
                   ) -> list[_Segment]:
    """The bytes of t_chain(n), build_f2(n) or build_f3(n) (selector "t",
    "f2" or "f3"; n at least the build's least) as write_text's segments,
    charged as those builds charge, from the segments' bases alone."""
    if selector == "t":
        return _component(_F2_SEEDS, _TILDE, 1, n, None)
    seeds, shift = {"f2": (_F2_SEEDS, _TILDE), "f3": (_F3_SEEDS, _HAT)}[selector]
    return _layout(n, seeds, shift, counter)


def _hex(part, flipped: bool) -> str:
    """The hex of part's packed bytes, each byte's bits reversed so that
    the bit of index 0 leads, and complemented if flipped."""
    return bytes(part).translate(
        _BIT_REVERSED_FLIPPED if flipped else _BIT_REVERSED).hex()


def write_text(fileobj, n: int,
               segments: Iterable[tuple[Sequence, Sequence[int]]]) -> None:
    """Write the text form of a 2^n-bit table to a text file: the "n=<k>"
    header line, then the 2^n bits as hex, the bit of index 0 the line's
    most significant bit; n = 1, 2 take one right-aligned digit.

    The table comes as its packed bytes in order, in the (parts, flags)
    segments the builds make: piece i of a segment is part i mod
    len(parts), complemented where flag i is set.  A part is any buffer of
    bytes, such as a bytearray or a TruthTable's data.  Of a segment of
    several parts, each at most _TEXT_BYTES, the hex of each part, plain
    and complemented as the flags need, is formed once at the segment's
    start and dropped at its end.  A segment of one part, which may be a
    whole table, is written in hex slices of _TEXT_BYTES packed bytes.  So
    the whole hex text, and the file's encoded copy of it, are never held
    at once.
    """
    fileobj.write(f"n={n}\n")
    for parts, flags in segments:
        if len(parts) > 1:
            for text in _pieces((parts, flags), _hex):
                fileobj.write(text)
            continue
        view = memoryview(parts[0])
        for flag in flags:
            if n < 3:  # the one byte's 2^n bits, at its top once reversed
                top = int(_hex(view[:1], flag != 0), 16)
                fileobj.write(f"{top >> (8 - (1 << n)):x}")
                continue
            for start in range(0, view.nbytes, _TEXT_BYTES):
                fileobj.write(_hex(view[start:start + _TEXT_BYTES], flag != 0))
    fileobj.write("\n")


def f2_component(i: int, level: int, counter: OpCounter | None = None) -> TruthTable:
    """g_i^level of the degree-2 build (i = 1, 2, or the derived 3; level >= 3)."""
    return _table(level, _component(_F2_SEEDS, _TILDE, i, level, counter))


def f3_component(i: int, level: int, counter: OpCounter | None = None) -> TruthTable:
    """h_i^level of the degree-3 build (i = 1..3, or the derived 4; level >= 4)."""
    return _table(level, _component(_F3_SEEDS, _HAT, i, level, counter))


def t_chain(n: int) -> TruthTable:
    """Table of the open-chain quadratic x1x2 + x2x3 + ... + x_(n-1)x_n.

    It is g1 of the degree-2 build at level n, the seed VY doubled by tilde:
    chain_n = u || tilde(u) with u = chain_(n-1), because fixing x1 = 1 adds
    x2, which complements the second half.  Bent for even n.  For odd
    n = 2k+1 the spectrum takes only the values {0, +-2^(k+1)} and the
    nonlinearity is 2^(2k) - 2^k, but the chain is not balanced, so it does
    not pass the strict semi-bent predicate.
    """
    return f2_component(1, n)


def build_f2(n: int, counter: OpCounter | None = None) -> TruthTable:
    """Fast table of the degree-2 rotation-symmetric function, n >= 5.

    Doubles the two seeds via u || tilde(u), then appends the second
    component with its first half complemented.  Exactly 2^(n-3) - 2 block
    complements are charged.  The table is built in one 2^n/8-byte buffer,
    which becomes the table's bytes without a copy.
    """
    if n < FAST_MIN_N["f2"]:
        raise ValueError(f"fast degree-2 build needs n >= {FAST_MIN_N['f2']}")
    return _table(n, _layout(n, _F2_SEEDS, _TILDE, counter))


def build_f3(n: int, counter: OpCounter | None = None) -> TruthTable:
    """Fast table of the degree-3 rotation-symmetric function, n >= 7.

    Doubles the three seeds via u || hat(u); the fourth segment is the third
    with its last quarter and then its first half complemented.  Built in one
    byte buffer, as build_f2 is.
    """
    if n < FAST_MIN_N["f3"]:
        raise ValueError(f"fast degree-3 build needs n >= {FAST_MIN_N['f3']}")
    return _table(n, _layout(n, _F3_SEEDS, _HAT, counter))


def f2_block_complements(n: int) -> int:
    """Closed form of the charges actually made by build_f2: 2^(n-3) - 2."""
    if n < FAST_MIN_N["f2"]:
        raise ValueError(f"fast degree-2 build needs n >= {FAST_MIN_N['f2']}")
    return (1 << (n - 3)) - 2


def f3_block_complements_claimed(n: int) -> int:
    """The published degree-3 operation count, kept verbatim for comparison.

    It is not a count of 4-bit blocks, the unit that matches the degree-2
    count: it equals the bits build_f3 complements, 2^(n-2) + 2^(n-4) - 12,
    plus 2^(n-5).  bench reports both values side by side instead of
    adjusting either.
    """
    return (1 << (n - 2)) + (1 << (n - 4)) + (1 << (n - 5)) - 12
