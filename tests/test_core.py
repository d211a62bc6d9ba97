import io
import os
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotsym import (
    TruthTable,
    anf_to_truth_table,
    build_f2,
    build_f3,
    family_table,
    is_bent,
    is_semi_bent_spectral,
    nonlinearity,
    orbit_summary,
    pc_profile,
    t_chain,
    walsh_summary,
    walsh_transform,
)
from rotsym.core import MAX_VARS, WalshSpectrum, _gemm_bits, _row_bounds, _walks
from rotsym.builders import _TEXT_BYTES
from rotsym import core
from rotsym.theory import FAMILY_GENERATORS

from oracles import (
    AffineTransform,
    affine_nonlinearity,
    apply_affine_transform,
    autocorrelation_pc_profile,
    butterfly_walsh,
    complement_table,
    concatenate,
    derivative_sum,
    dot2,
    gf2_apply,
    gf2_invert,
    gf2_transpose,
    line_by_line_csv,
    linear_table,
    mobius_anf,
    ones_table,
    orbit_table,
    packbits_hex,
    parseval_sum,
    random_invertible_rows,
    random_table,
    slow_table,
    slow_walsh,
    spectrum_reductions,
    table_from_int,
    table_from_list,
    table_to_list,
    xor_tables,
    zero_count,
    zeros_table,
)


# ---------------------------------------------------------------------------
# TruthTable basics
# ---------------------------------------------------------------------------

def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(0, b"\0")
    with pytest.raises(ValueError):
        TruthTable(27, b"\0")
    with pytest.raises(ValueError, match="packed bytes"):
        TruthTable(2, b"\0\0")
    with pytest.raises(ValueError, match="packed bytes"):
        TruthTable(4, b"\0")
    with pytest.raises(ValueError, match="do not fit"):
        TruthTable(2, b"\x10")
    with pytest.raises(ValueError, match="do not fit"):
        TruthTable(1, b"\xff")
    with pytest.raises(TypeError):
        TruthTable(3, 0b10000001)  # the constructor takes bytes, not an int
    assert TruthTable(2, b"\x0f").weight() == 4
    t = TruthTable(3, b"\x81")
    assert t[0] == 1 and t[7] == 1 and t[3] == 0
    assert t.weight() == 2 and t.bits == 0b10000001


def test_truth_table_from_a_2n_bit_buffer_copies_nothing():
    buf = np.full((1 << 26) // 8, 0xFF, dtype=np.uint8)  # 8 MiB
    tracemalloc.start()
    try:
        t = TruthTable(26, buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert np.shares_memory(t.data, buf) and not t.data.flags.writeable


def test_truth_table_weight_allocates_a_count_per_word():
    # one uint8 popcount per 8 table bytes, no table-sized temporary
    n = 24
    t = build_f3(n)
    tracemalloc.start()
    try:
        w = t.weight()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w == t.bits.bit_count()
    assert peak <= (1 << n) // 64 + (1 << 20)


def _value_lists(n: int, count: int):
    """count lists of 2^n values, each drawn as one 2^n-bit integer."""
    values = st.integers(0, (1 << (1 << n)) - 1).map(
        lambda bits: [(bits >> i) & 1 for i in range(1 << n)])
    return st.tuples(*[values] * count)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: _value_lists(n, 2)))
def test_byte_format_matches_the_list_oracles(pair):
    values, other = pair
    t, u = table_from_list(values), table_from_list(other)
    assert TruthTable.from_text(t.to_text()) == t
    assert TruthTable(t.n, t.data) == t
    assert hash(TruthTable(t.n, t.data)) == hash(t)
    assert (t == u) == (values == other)
    assert t.bits == sum(b << i for i, b in enumerate(values))
    assert [t[i] for i in range(t.size)] == values
    assert t.weight() == sum(values)
    assert table_to_list(complement_table(t)) == [1 - b for b in values]
    assert table_to_list(xor_tables(t, u)) == [a ^ b for a, b in zip(values, other)]
    assert table_to_list(concatenate(t, u)) == values + other


@given(st.integers(1, 2), st.integers(0, 255))
def test_small_tables_reject_nonzero_padding_bits(n, byte):
    # n = 1, 2 use the low 2^n bits of their one byte
    if byte >> (1 << n):
        with pytest.raises(ValueError, match="do not fit"):
            TruthTable(n, bytes([byte]))
    else:
        assert table_to_list(TruthTable(n, bytes([byte]))) == [
            (byte >> i) & 1 for i in range(1 << n)]


# ---------------------------------------------------------------------------
# ANF tabulation (the oracle)
# ---------------------------------------------------------------------------

def test_anf_xor_cancellation():
    assert anf_to_truth_table(3, [(1, 2), (1, 2)]) == zeros_table(3)
    assert anf_to_truth_table(3, [(1, 2), (2, 3), (1, 2)]) == \
        anf_to_truth_table(3, [(2, 3)])


def test_anf_index_validation():
    with pytest.raises(ValueError, match="index 4 outside 1..3"):
        anf_to_truth_table(3, [(1, 4)])
    with pytest.raises(ValueError, match="index 0 outside 1..3"):
        anf_to_truth_table(3, [(0,)])
    with pytest.raises(ValueError, match="must be in 1..26, got 0"):
        anf_to_truth_table(0, [])


def test_anf_to_truth_table_examples():
    # x_(n-1) x_n on 4 variables: the 4-bit pattern 0001 repeated
    t = anf_to_truth_table(4, [(3, 4)])
    assert table_to_list(t) == [0, 0, 0, 1] * 4
    # x_1 x_2 on 4 variables: ones exactly where both top bits are set
    t = anf_to_truth_table(4, [(1, 2)])
    assert table_to_list(t) == [0] * 12 + [1] * 4
    assert anf_to_truth_table(3, []) == zeros_table(3)
    assert anf_to_truth_table(3, [()]) == ones_table(3)


def anf_terms():
    """An n in 1..12 and a term list over 1..n.  A term may be empty (the
    constant 1), unsorted or repeat an index; the terms drawn second appear
    twice, so they must cancel."""
    def terms(n):
        term = st.lists(st.integers(1, n), max_size=n + 1)
        return st.tuples(st.just(n), st.lists(term, max_size=8),
                         st.lists(term, max_size=3))
    return st.integers(1, 12).flatmap(terms)


@settings(max_examples=80, deadline=None)
@given(anf_terms())
@example((1, [[1], []], []))                   # n = 1: one byte, masked to 2 bits
@example((2, [[2, 1], [2], []], [[1, 2, 2]]))  # n = 2: masked to 4 bits
@example((3, [[3, 1, 2], [3, 3], []], [[2]]))  # n = 3: the whole byte
def test_anf_to_truth_table_matches_pointwise(case):
    n, terms, twice = case
    table = anf_to_truth_table(n, terms + twice + twice)
    assert table_to_list(table) == slow_table(terms, n)


def test_anf_to_truth_table_memory_is_the_table():
    # the coefficients are XORed into the table's own bytes and transformed
    # there; no 2^n-element index or bool array
    n = 24
    terms = [[(k - 1 + d) % n + 1 for k in (1, 2, 4)] for d in range(n)]
    tracemalloc.start()
    try:
        anf_to_truth_table(n, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1 << n) // 8 + (1 << 20)


def test_mobius_interpolation_round_trip():
    rng = random.Random(99)
    for n in (3, 5, 8, 12):
        for _ in range(3):
            terms = [tuple(sorted(rng.sample(range(1, n + 1),
                                             rng.randint(0, min(n, 4)))))
                     for _ in range(6)]
            monomials = set()
            for term in terms:
                monomials ^= {frozenset(term)}
            table = anf_to_truth_table(n, terms)
            recovered = mobius_anf(table)
            assert recovered == monomials
            assert anf_to_truth_table(n, recovered) == table


# ---------------------------------------------------------------------------
# weight
# ---------------------------------------------------------------------------

def test_weight_examples():
    assert build_f2(5).weight() == 16
    assert zeros_table(5).weight() == 0
    assert build_f3(10).weight() == 360


# ---------------------------------------------------------------------------
# Walsh transform
# ---------------------------------------------------------------------------

def test_walsh_zero_function():
    spec = walsh_transform(zeros_table(3))
    assert spec[0] == 8
    assert all(spec[w] == 0 for w in range(1, 8))


def test_walsh_linear_functions():
    for n in (3, 5):
        for b in range(1 << n):
            spec = walsh_transform(linear_table(n, b))
            assert spec[b] == 1 << n
            assert parseval_sum(spec.values) == 1 << (2 * n)


def test_walsh_matches_slow_transform():
    # n = 1..8: every last-group size of the kernel and tables under a byte
    rng = random.Random(7)
    for n in range(1, 9):
        for _ in range(3):
            t = random_table(rng, n)
            assert list(walsh_transform(t).values) == slow_walsh(table_to_list(t))


def test_walsh_invariants_random():
    rng = random.Random(11)
    for n in range(1, 11):
        t = random_table(rng, n)
        spec = walsh_transform(t)
        assert parseval_sum(spec.values) == 1 << (2 * n)
        assert spec[0] == (1 << n) - 2 * t.weight()
        assert all(v % 2 == 0 for v in spec.values)
        summary = walsh_summary(t)
        assert summary.weight() == t.weight()
        assert (summary.w0 == 0) == (2 * t.weight() == 1 << n)


def _tables(max_n: int):
    """A random table with 1..max_n variables, drawn as one 2^n-bit int."""
    return st.integers(1, max_n).flatmap(lambda n: st.integers(
        0, (1 << (1 << n)) - 1).map(lambda bits: table_from_int(n, bits)))


@settings(max_examples=50, deadline=None)
@given(_tables(12))
def test_parseval_holds_for_every_table(t):
    assert parseval_sum(walsh_transform(t).values) == 1 << (2 * t.n)


@pytest.mark.parametrize("n", [9, 10, 11, 14, 15, 16, 17, 18, 20, 21, 22,
                               24, 25])
def test_walsh_kernel_matches_plain_butterfly(n):
    # 10 is a multiple of the 5-bit group, 9, 11 and 14 are not; 16 is the
    # largest table done in one chunk, 17 takes one panel, 18 the first of
    # several; the panel pass does 4 bits at 20, 5 at 21 and 5 + 1 at 22;
    # 24 is the last bit done in float32, 25 adds a float64 bit in the panel
    t = random_table(random.Random(n), n)
    got = walsh_transform(t).values
    assert got.dtype == np.int32
    assert np.array_equal(got, butterfly_walsh(t))


def test_walsh_n25_concatenation_identity():
    # bits 24 and 25 go through the float64 panel stage.  Quarter j of the
    # spectrum of the concatenation of 2^(n-24) tables g_k is
    # sum_k (-1)^popcount(j & k) W(g_k), [W0 + W1, W0 - W1] at n = 25; n = 26
    # pins where bits 24 and 25 land, which a symmetric spectrum cannot
    for n in (25, 26):
        rng = random.Random(n)
        tables = [random_table(rng, 24) for _ in range(1 << (n - 24))]
        parts = [walsh_transform(g).values for g in tables]
        while len(tables) > 1:
            tables = [concatenate(g0, g1)
                      for g0, g1 in zip(tables[::2], tables[1::2])]
        got = walsh_transform(tables[0]).values
        for j in range(len(parts)):
            want = sum(-w if (j & k).bit_count() % 2 else w
                       for k, w in enumerate(parts))
            assert np.array_equal(got[j << 24:(j + 1) << 24], want)


def test_walsh_zeros_25_reaches_the_exactness_limit():
    # the float32 stages end with W(0) = 2^24 in each half, the largest
    # value they must hold; bit 24 then doubles it in int32
    values = walsh_transform(zeros_table(25)).values
    assert values[0] == 1 << 25
    assert np.count_nonzero(values) == 1


def test_walsh_n26_needs_the_int32_top_bits():
    # f = 1 only at x = 0: W(0) = 2^26 - 2, every other W(w) = -2.  In
    # float32 the last bits would form partial sums above 2^25 that are
    # 2 mod 4, which float32 rounds; bits 24 and 25 are done in float64,
    # exact to 2^53, and the result is cast to int32.
    values = walsh_transform(table_from_int(26, 1)).values
    assert values[0] == (1 << 26) - 2
    assert np.count_nonzero(values[1:] != -2) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 18).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
def test_walsh_twice_is_scaled_identity(table):
    # W(W(s)) = 2^n s for s = (-1)^f; the second transform is the float64
    # GEMM loop over all n bits, exact as |values| <= 2^(2n) < 2^53
    n, bits = table
    once = walsh_transform(table_from_int(n, bits)).values.astype(np.float64)
    twice = _gemm_bits(once, np.empty_like(once), 0, n)
    signs = 1 - 2 * np.array([(bits >> i) & 1 for i in range(1 << n)])
    assert np.array_equal(twice, signs << n)


def test_walsh_transform_hands_off_read_only_int32():
    values = walsh_transform(build_f2(7)).values
    assert values.dtype == np.int32
    assert not values.flags.writeable
    arr = np.array(slow_walsh(table_to_list(build_f2(7))), dtype=np.int32)
    spec = WalshSpectrum(7, arr)
    assert spec.values is not arr and arr.flags.writeable
    arr[0] += 2
    assert spec[0] == values[0]


@pytest.mark.parametrize("n", [20, 22, 25])
def test_walsh_transform_memory_is_one_buffer(n):
    # one 4*2^n-byte buffer; the cache-sized scratch buffers of the two
    # passes fit in the 2 MiB beyond it, and from n = 25 the float64 top
    # bits take 2 MiB more.  The kernel reads the table's bytes in place
    extra = (2 << 20) if n <= 24 else (7 << 19)
    t = build_f2(n)
    tracemalloc.start()
    try:
        walsh_transform(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (1 << n) + extra


def _summary_fields(t: TruthTable) -> tuple[int, int, bool]:
    s = walsh_summary(t)
    return s.w0, s.max_abs, s.semi_bent


@settings(max_examples=60, deadline=None)
@given(_tables(16))
@example(t_chain(16))                     # bent: every |W| = 2^8
@example(build_f2(15))                    # semi-bent: W in {0, +-2^8}
def test_walsh_summary_matches_butterfly_reductions(t):
    assert _summary_fields(t) == spectrum_reductions(butterfly_walsh(t))
    assert walsh_transform(t).summary() == walsh_summary(t)


@pytest.mark.parametrize("n", [24, 25, 26])
@pytest.mark.parametrize("build", [build_f2, build_f3], ids=("f2", "f3"))
def test_walsh_summary_matches_transform_at_large_n(build, n):
    # 24 is the last bit done in float32; 25 and 26 finish in float64
    t = build(n)
    assert _summary_fields(t) == spectrum_reductions(walsh_transform(t).values)


@pytest.mark.parametrize("n", [15, 16])
def test_walsh_summary_of_constant_tables(n):
    # pass 1 stores +-2^14, the largest magnitude int16 must hold
    for t, sign in ((zeros_table(n), 1), (ones_table(n), -1)):
        assert _summary_fields(t) == (sign << n, 1 << n, False)


def test_walsh_summary_int16_store_has_a_witness(monkeypatch):
    # the zeros at n = 16 are four chunks of 2^14 values, each storing
    # W(0) = 2^14 in int16; chunks of 2^15 would store 2^15, which int16
    # wraps to -2^15, so the two chunks' W(0) would read -2^16
    t = zeros_table(16)
    assert walsh_summary(t) == walsh_transform(t).summary()
    monkeypatch.setattr(core, "_INT16_CHUNK", 1 << 15)
    assert walsh_summary(t).w0 == -(1 << 16)


def test_walsh_summary_one_constant_chunk():
    # chunk 5 of 2^14 values is all ones, so its pass-1 W(0) is -2^14; the
    # other chunks are random
    n, chunk = 20, 1 << 14
    rng = random.Random(5)
    bits = rng.getrandbits(1 << n) | (((1 << chunk) - 1) << (5 * chunk))
    t = table_from_int(n, bits)
    assert _summary_fields(t) == spectrum_reductions(butterfly_walsh(t))


@pytest.mark.parametrize("n", [17, 21])
def test_walsh_summary_semi_bent_odd_f2(n):
    # W in {0, +-2^((n+1)/2)}: by Parseval half the values are 0
    t = build_f2(n)
    s = walsh_summary(t)
    assert s.semi_bent and not s.is_bent()
    values = butterfly_walsh(t)
    assert zero_count(values) == 1 << (n - 1)
    assert _summary_fields(t) == spectrum_reductions(values) == (
        0, 1 << ((n + 1) // 2), True)


def test_walsh_summary_bent_even_t():
    s = walsh_summary(t_chain(20))
    assert s.is_bent() and not s.semi_bent
    assert s.max_abs == 1 << 10


@settings(max_examples=60, deadline=None)
@given(_tables(9))
@example(table_from_int(5, 0x32a4fb16))  # balanced, |W| in {0, 4, 8}: max|W|
                                         # = 8 alone would pass it
@example(build_f2(15))                   # semi-bent
@example(t_chain(15))                    # |W| in {0, 2^8}, but W(0) != 0
def test_is_semi_bent_is_its_definition(t):
    # odd n, W(0) = 0 and every value in {0, +-2^((n+1)/2)}, read from the
    # butterfly, against the summary's test by the count of +-2^((n+1)/2)
    values = butterfly_walsh(t)
    amp = 1 << ((t.n + 1) // 2)
    want = (t.n % 2 == 1 and values[0] == 0
            and set(np.abs(values).tolist()) <= {0, amp})
    assert walsh_summary(t).semi_bent == want
    assert walsh_transform(t).summary().semi_bent == want


# ---------------------------------------------------------------------------
# orbit_summary: the criteria from the transfer matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [*range(3, 21), 24, 25, 26])
@pytest.mark.parametrize("selector", ["f2", "f3"])
def test_orbit_summary_matches_the_family_table(selector, n):
    # every n runs the float32 GEMM over every row; 25 and 26 are the
    # largest bounds B (see test_orbit_gemm_bound_of_the_families)
    generator = FAMILY_GENERATORS[selector]
    s = orbit_summary(generator, n)
    assert s == walsh_summary(family_table(selector, n))


@st.composite
def _orbits(draw, max_n=14):
    """(generator, n): up to four indices within a window of five, turned
    to any position on the cycle, so the window may wrap past x_n."""
    n = draw(st.integers(1, max_n))
    window = draw(st.lists(st.integers(1, min(n, 5)), min_size=1, max_size=4))
    turn = draw(st.integers(0, n - 1))
    return tuple((k - 1 + turn) % n + 1 for k in window), n


@settings(max_examples=80, deadline=None)
@given(_orbits())
@example(((1,), 1))          # degree 1 (L = 1): the one state sums both windows
@example(((2,), 5))
@example(((1, 1, 2), 6))     # a repeated index
@example(((5, 1), 5))        # a window that wraps past x_n
@example(((1, 3), 4))        # the rotations cancel in pairs: f = 0
@example(((1, 3, 5, 7), 8))  # four equal rotations cancel: f = 0
@example(((1, 4, 7), 9))     # three equal rotations: one term left of each
@example(((1, 2, 4), 13))
@example(((1, 3, 5), 12))
@example(((1, 2, 4, 5), 11))  # its own mirror image, at odd n
def test_orbit_summary_matches_the_anf_table(orbit):
    generator, n = orbit
    s = orbit_summary(generator, n)
    assert s == walsh_summary(orbit_table(generator, n))


@settings(max_examples=80, deadline=None)
@given(_orbits())
@example(((1,), 1))              # one row of one value
@example(((1, 2, 3, 4, 5), 5))  # a window as long as the cycle: D^2 = 256
@example(((1, 2, 4), 13))
def test_orbit_row_bound_holds_every_value_of_its_row(orbit):
    # U(a_hi) >= |W(a_hi, a_lo)| for every a_lo, and U <= B, the bound
    # that makes the GEMM's dtype exact
    generator, n = orbit
    pre, _, suf_max, _, bound = _walks(frozenset(generator), n)
    rows = _row_bounds(pre, suf_max)
    values = walsh_transform(orbit_table(generator, n)).values
    assert np.all(rows >= np.abs(values.reshape(len(rows), -1)).max(axis=1))
    assert rows.max() <= bound


@settings(max_examples=150, deadline=None)
@given(_orbits(max_n=12),
       st.lists(st.integers(0, (1 << 12) - 1), min_size=1, max_size=8))
@example(((1, 2, 4), 8), [0b1011])  # not its own mirror: W(a) != W(a reversed)
def test_walsh_values_are_traces_of_transfer_products(orbit, indices):
    # W(a) = tr(M_(a_1) ... M_(a_n)), a_1 the top index bit: single values
    # of the table's spectrum against the int64 transfer matrices
    generator, n = orbit
    values = walsh_transform(orbit_table(generator, n)).values
    m = core._transfer(generator, n)
    for a in indices:
        a &= (1 << n) - 1
        product = np.eye(m.shape[1], dtype=np.int64)
        for bit in range(n - 1, -1, -1):
            product = product @ m[(a >> bit) & 1]
        assert values[a] == np.trace(product), a


@pytest.mark.parametrize("n", [20, 21])
def test_orbit_summary_of_an_unmirrored_orbit(n):
    # (1, 2, 4) is not its own mirror image; a degree-3 orbit other than
    # f3's, whose row bounds pass 7 rows beyond row 0
    table = family_table("orbit", n, (1, 2, 4))
    assert orbit_summary((1, 2, 4), n) == walsh_summary(table)


@settings(max_examples=80, deadline=None)
@given(_orbits(max_n=18))
def test_orbit_gemm_bound_is_at_most_the_closed_walks(orbit):
    # B <= 2^n, so the bound chooses float32 wherever n <= 24 would have
    generator, n = orbit
    dtype, bound = _walks(frozenset(generator), n)[3:]
    assert bound <= 1 << n
    assert dtype == (np.float32 if bound <= 1 << 24 else np.float64)


@pytest.mark.parametrize("generator, n, bound", [
    ((1, 2), 25, 1 << 14), ((1, 2), 26, 1 << 14),
    ((1, 2, 3), 25, 2155008), ((1, 2, 3), 26, 3810304)],
    ids=["f2-25", "f2-26", "f3-25", "f3-26"])
def test_orbit_gemm_bound_of_the_families(generator, n, bound):
    # f3 at n = 26: B = 2^21.86, under 2^24, so its GEMM runs in float32
    assert _walks(frozenset(generator), n)[3:] == (np.float32, bound)


def test_orbit_summary_in_float64_past_the_float32_bound():
    # (1, 2, 3, 4, 5) at n = 25 has B > 2^24, so the GEMM runs in float64,
    # a branch neither family takes within MAX_VARS
    generator, n = (1, 2, 3, 4, 5), 25
    dtype, bound = _walks(frozenset(generator), n)[3:]
    assert dtype == np.float64 and bound > 1 << 24
    assert orbit_summary(generator, n) == walsh_summary(orbit_table(generator, n))


def test_orbit_summary_rejects_bad_input():
    for generator, n, message in (((1, 6), 5, "outside 1..5"),
                                  ((), 5, "empty generator"),
                                  ((1,), 0, "must be in 1..26"),
                                  ((1, 2), 27, "must be in 1..26")):
        with pytest.raises(ValueError, match=message):
            orbit_summary(generator, n)


def test_orbit_summary_memory_has_no_spectrum_sized_buffer():
    # P and S, 16 * 2^13 float32 values each at n = 26, S's transposed
    # copy as _walks forms it, then one panel: no 2^n-value buffer
    tracemalloc.start()
    try:
        orbit_summary((1, 2, 3), 26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20


@pytest.mark.parametrize("generator, ns, most", [
    ((1, 2, 3), (24, 25, 26), 8),      # f3: row 0 and the few that pass
    ((1, 2), (26,), 1),                # f2 at even n: row 0 alone
    ((1, 2), range(3, 27, 2), None),   # f2 at odd n can be semi-bent: every row
], ids=("f3-24..26", "f2-26", "f2-odd"))
def test_orbit_summary_runs_only_the_rows_its_bounds_pass(
        monkeypatch, generator, ns, most):
    # counts the rows passed to the GEMM of core._panels
    calls = []
    panels = core._panels

    def counted(pre, suf):
        height, gemm = panels(pre, suf)

        def count(rows):
            calls.append(len(rows))
            return gemm(rows)

        return height, count

    monkeypatch.setattr(core, "_panels", counted)
    for n in ns:
        calls.clear()
        orbit_summary(generator, n)
        if most is None:
            assert sum(calls) == 1 << (n // 2), n
        else:
            assert sum(calls) <= most, n


def test_t4_is_flat():
    spec = walsh_transform(t_chain(4))
    assert sorted({abs(v) for v in spec.values}) == [4]


# ---------------------------------------------------------------------------
# nonlinearity
# ---------------------------------------------------------------------------

def test_nonlinearity_examples():
    assert nonlinearity(build_f3(9)) == 172
    assert nonlinearity(build_f2(5)) == 12
    for n in (3, 4):
        for w in range(1 << n):
            assert nonlinearity(linear_table(n, w)) == 0
            assert nonlinearity(complement_table(linear_table(n, w))) == 0


def test_nonlinearity_equals_affine_enumeration():
    rng = random.Random(13)
    for n in (3, 4, 6, 8, 10):
        for _ in range(3):
            t = random_table(rng, n)
            want = affine_nonlinearity(t)
            assert nonlinearity(t) == want
            assert walsh_transform(t).summary().nonlinearity() == want


# ---------------------------------------------------------------------------
# propagation criterion
# ---------------------------------------------------------------------------

def test_pc_check_full_weight_direction_even_n():
    f = build_f2(6)
    assert derivative_sum(f, 0b111111) == 0


def test_pc_profile_matches_derivative_sums():
    rng = random.Random(23)
    for n in (4, 5, 6):
        t = random_table(rng, n)
        profile = pc_profile(t)
        assert walsh_transform(t).pc_profile() == profile
        for w in range(1, n + 1):
            directions = [c for c in range(1, 1 << n) if c.bit_count() == w]
            sat = sum(1 for c in directions
                      if derivative_sum(t, c) == t.size // 2)
            assert profile[w] == (sat, len(directions))


def test_pc_profile_f2():
    profile = pc_profile(build_f2(7))
    for w in range(1, 7):
        sat, tot = profile[w]
        assert sat == tot
    assert profile[7][0] == 0


def test_pc_profile_f2_by_parity():
    # Odd n: every class 1..n-1 is fully satisfied (only the all-ones
    # direction has a constant derivative).  Even n: the two alternating
    # weight-n/2 directions also give constant derivatives (they span the
    # radical of the cyclic quadratic's bilinear form with the all-ones
    # vector), so class n/2 misses exactly those two.
    # n = 21..26: W^2 sums above 2^40 and zero counts above 2^20, up to the
    # exactness bounds; every W of f2 is a multiple of 2^(n-12), so n = 26
    # runs in float32 and peaks at about 360 MiB (the spectrum and the
    # float32 quarter buffer)
    for n in (5, 7, 9, 11, 21, 23, 25):
        profile = pc_profile(build_f2(n))
        assert all(profile[w] == (profile[w][1], profile[w][1])
                   for w in range(1, n))
        assert profile[n] == (0, 1)
    for n in (6, 8, 10, 12, 22, 24, 26):
        f = build_f2(n)
        profile = pc_profile(f)
        for w in range(1, n):
            sat, tot = profile[w]
            assert (sat, tot) == ((tot - 2, tot) if w == n // 2
                                  else (tot, tot)), (n, w)
        assert profile[n] == (0, 1)
        if n <= 12:
            alt = sum(1 << p for p in range(0, n, 2))  # 0101... as an index mask
            assert derivative_sum(f, alt) in (0, 1 << n)
            assert derivative_sum(f, alt ^ ((1 << n) - 1)) in (0, 1 << n)


def test_pc_profile_linear_function():
    profile = pc_profile(linear_table(4, 0b1010))
    for w in range(1, 5):
        assert profile[w][0] == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 22), st.sampled_from(["random", "f2", "f3"]),
       st.integers(0, 2**32 - 1))
@example(1, "random", 0)   # no folded bit: one run over both values
@example(2, "random", 0)   # one folded bit
@example(3, "random", 0)   # two folded bits, one transformed
@example(13, "random", 0)  # every W is even: float32 for any table
@example(14, "random", 0)  # even weight, so every W = 0 mod 4: float32
@example(14, "random", 1)  # odd weight, so every W = 2 mod 4: float64
@example(20, "f3", 0)      # every W a multiple of 2^8: float32 at its bound
@example(21, "f2", 0)
@example(21, "f3", 0)      # some W = 2^7 mod 2^8: float64
@example(22, "f2", 0)
@example(22, "f3", 0)
def test_pc_profile_matches_int64_autocorrelation(n, kind, seed):
    # the GEMM autocorrelation, float32 or float64, against the int64
    # butterfly; the orbit functions have many balanced directions, random
    # tables few; n = 1, 2, 3 are the edge cases of the fold of the top
    # index bits
    if kind == "random" or n < 5:
        t = random_table(random.Random(seed), n)
    else:
        t = build_f2(n) if kind == "f2" or n < 7 else build_f3(n)
    spec = walsh_transform(t)
    # float32 is exact when 2^g divides every W and 4^(n-g) <= 2^24
    gcd = int(np.gcd.reduce(spec.values))
    g = (gcd & -gcd).bit_length() - 1
    dtypes = []
    kernel = core._two_pass

    def recorded(buf, dtype, *args):
        dtypes.append(dtype)
        return kernel(buf, dtype, *args)

    with mock.patch.object(core, "_two_pass", recorded):
        assert spec.pc_profile() == autocorrelation_pc_profile(spec.values)
    assert set(dtypes) == {np.float32 if n - g <= 12 else np.float64}


def test_pc_profile_float64_has_a_witness():
    # f3 with two points flipped, adjacent or far apart, at n = 18: some W
    # is off the 2^(n-12) grid, so the rule takes float64 and matches the
    # int64 oracle; float32, forced by a test-local rule that puts every W
    # on the grid, miscounts the balanced directions, so the float64 path
    # is needed
    n = 18
    kernel = core._two_pass
    for points in ((0, 1), (211796, 122906)):
        data = build_f3(n).data.copy()
        for point in points:
            data[point >> 3] ^= 1 << (point & 7)
        spec = walsh_transform(TruthTable(n, data))
        oracle = autocorrelation_pc_profile(spec.values)
        dtypes = []

        def recorded(buf, dtype, *args):
            dtypes.append(dtype)
            return kernel(buf, dtype, *args)

        with mock.patch.object(core, "_two_pass", recorded):
            assert spec.pc_profile() == oracle, points
            assert set(dtypes) == {np.float64}, points
            dtypes.clear()
            with mock.patch.object(core, "_FLOAT_BITS", 64):
                forced = spec.pc_profile()
        assert set(dtypes) == {np.float32}, points
        assert forced != oracle, points


@pytest.mark.parametrize("kind, itemsize, beyond",
                         [("f2", 4, 512 << 10), ("random", 8, 1 << 20)],
                         ids=["f2-float32", "random-float64"])
def test_pc_profile_memory_is_one_buffer_of_a_quarter_of_the_values(
        kind, itemsize, beyond):
    # two index bits are folded into the load, so one buffer of 2^(n-2)
    # values: float32 for f2 (every W a multiple of 2^(n/2+1)), 2^n bytes,
    # with its two scratch buffers, the loaded squares and the zero masks
    # in the 512 KiB beyond it; float64 for a random table, 2*2^n bytes and
    # 1 MiB beyond it
    n = 20
    t = build_f2(n) if kind == "f2" else random_table(random.Random(0), n)
    spec = walsh_transform(t)
    tracemalloc.start()
    try:
        spec.pc_profile()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= itemsize * (1 << (n - 2)) + beyond


# ---------------------------------------------------------------------------
# bent / semi-bent
# ---------------------------------------------------------------------------

def test_is_bent():
    for bent in (is_bent, lambda f: walsh_transform(f).summary().is_bent()):
        assert bent(t_chain(6)) is True
        assert bent(build_f2(6)) is False
        assert bent(zeros_table(4)) is False
        assert bent(t_chain(5)) is False  # odd n short-circuits


def test_is_semi_bent():
    for semi_bent in (is_semi_bent_spectral,
                      lambda f: walsh_transform(f).summary().semi_bent):
        for n in (5, 7, 9):
            assert semi_bent(build_f2(n)) is True
        assert semi_bent(linear_table(5, 3)) is False
        assert semi_bent(t_chain(6)) is False  # even n short-circuits
        # spectrum {0, +-2^3} but W(0) != 0: unbalanced, so not semi-bent
        assert semi_bent(t_chain(5)) is False


def test_max_abs_int32_bound():
    # max_abs takes |W| in int32, exact while |W| <= 2^MAX_VARS < 2^31
    assert MAX_VARS <= 30
    for n in (1, 5, 12):
        for t in (zeros_table(n), ones_table(n),
                  linear_table(n, 1),
                  linear_table(n, (1 << n) - 1)):
            assert walsh_transform(t).max_abs() == 1 << n
    # an int32 spectrum whose one extreme is -2^31: negated in int32 it
    # wraps to itself, and write_csv would size |value| by the next largest
    values = np.full(8, 6, dtype=np.int32)
    values[5] = -2**31
    spec = WalshSpectrum(3, values)
    assert spec.max_abs() == 1 << 31
    buf = io.StringIO()
    spec.write_csv(buf)
    assert buf.getvalue() == line_by_line_csv(values)


def test_max_abs_is_taken_once_per_spectrum():
    class CountedMax(np.ndarray):
        calls = 0

        def max(self, *args, **kwargs):
            CountedMax.calls += 1
            return super().max(*args, **kwargs)

    values = walsh_transform(t_chain(6)).values.copy().view(CountedMax)
    spec = WalshSpectrum._adopt(6, values)
    summary = spec.summary()
    assert (summary.nonlinearity(), summary.is_bent()) == (28, True)
    assert spec.max_abs() == 8
    repr(spec)
    assert CountedMax.calls == 1


# ---------------------------------------------------------------------------
# affine transforms
# ---------------------------------------------------------------------------

def test_affine_identity_is_noop():
    rng = random.Random(29)
    t = random_table(rng, 5)
    assert apply_affine_transform(t, AffineTransform.identity(5)) == t


def test_affine_shift_matches_substituted_anf():
    # t_4 with x1 and x3 complemented equals (x1+1)x2 + x2(x3+1) + (x3+1)x4
    h = t_chain(4)
    moved = apply_affine_transform(
        h, AffineTransform.identity(4, a=0b1010))
    r = [(1, 2), (2,), (2, 3), (2,), (3, 4), (4,)]
    assert moved == anf_to_truth_table(4, r)


def test_affine_complement_input_preserves_weight():
    f = build_f2(5)
    moved = apply_affine_transform(f, AffineTransform.identity(5, a=31))
    assert moved.weight() == f.weight()


def test_affine_preserves_weight_and_nonlinearity():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.choice((3, 4, 5))
        h = random_table(rng, n)
        rows = random_invertible_rows(rng, n)
        a = rng.getrandbits(n)
        t0 = AffineTransform(n, rows, a=a)
        assert apply_affine_transform(h, t0).weight() == h.weight()
        t1 = AffineTransform(n, rows, a=a, b=rng.getrandbits(n),
                             c=rng.getrandbits(1))
        assert nonlinearity(apply_affine_transform(h, t1)) == nonlinearity(h)


def _check_affine_spectrum_identity(h, rows, a, b, c):
    # spectrum of h(Ax+a)+b.x+c at w, against the transformed spectrum of h
    n = h.n
    t = AffineTransform(n, rows, a=a, b=b, c=c)
    spec_g = walsh_transform(apply_affine_transform(h, t))
    spec_h = walsh_transform(h)
    inv = gf2_invert(rows)
    inv_t = gf2_transpose(inv)
    a_pre = gf2_apply(inv, a)
    for w in range(1 << n):
        sign = (-1) ** (c ^ dot2(a_pre, w ^ b))
        assert spec_g[w] == sign * spec_h[gf2_apply(inv_t, w ^ b)]


def test_affine_transform_spectrum_identity():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.choice((3, 4, 5, 6))
        h = random_table(rng, n)
        rows = random_invertible_rows(rng, n)
        a, b, c = rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(1)
        _check_affine_spectrum_identity(h, rows, a, b, c)


@st.composite
def _affine_cases(draw):
    """A table h on n = 1..8 variables and an invertible affine map of it.

    The rows start as the identity and take a list of row additions
    (transvections, which generate GL(n, 2)), so every invertible matrix
    can be drawn and an example shrinks towards the identity.
    """
    h = draw(_tables(8))
    n = h.n
    rows = [1 << (n - 1 - j) for j in range(n)]
    if n > 1:
        steps = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        for i, k in draw(st.lists(steps, max_size=3 * n * n)):
            rows[i] ^= rows[(i + k) % n]
    a, b = draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, (1 << n) - 1))
    return h, tuple(rows), a, b, draw(st.integers(0, 1))


@settings(max_examples=50, deadline=None)
@given(_affine_cases())
def test_affine_transform_spectrum_identity_property(case):
    _check_affine_spectrum_identity(*case)


# ---------------------------------------------------------------------------
# concatenate
# ---------------------------------------------------------------------------

def test_concatenate_basic():
    assert concatenate(zeros_table(3), zeros_table(3)) == zeros_table(4)


def test_concatenate_halves_recoverable():
    rng = random.Random(41)
    for n in (2, 4, 5):
        g0, g1 = random_table(rng, n), random_table(rng, n)
        joined = concatenate(g0, g1)
        assert joined.bits & ((1 << g0.size) - 1) == g0.bits
        assert joined.bits >> g0.size == g1.bits


def test_concatenate_builds_f2_5():
    # t_4(x) || (t_4(x+1)+1) is the degree-2 function on 5 variables
    t4 = t_chain(4)
    second = apply_affine_transform(
        t4, AffineTransform.identity(4, a=0b1111, c=1))
    assert concatenate(t4, second) == build_f2(5)


def test_concatenation_spectrum_identity():
    rng = random.Random(43)
    for n in (2, 3, 4):
        for _ in range(8):
            g0, g1 = random_table(rng, n), random_table(rng, n)
            s0, s1 = walsh_transform(g0), walsh_transform(g1)
            spec = walsh_transform(concatenate(g0, g1))
            for w1 in (0, 1):
                for w in range(1 << n):
                    expected = s0[w] + (-1) ** w1 * s1[w]
                    assert spec[(w1 << n) | w] == expected


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_text_round_trip():
    rng = random.Random(53)
    for n in (1, 2, 3, 4, 7, 10):
        t = random_table(rng, n)
        assert TruthTable.from_text(t.to_text()) == t


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
def test_text_codec_matches_packbits_and_round_trips(table):
    t = table_from_int(*table)
    assert t.to_hex() == packbits_hex(t)
    assert TruthTable.from_text(t.to_text()) == t


def test_text_format_shape():
    t = table_from_list([0, 0, 0, 1] * 4)
    assert t.to_text() == "n=4\n1111\n"
    f = build_f2(5)
    assert f.to_text() == "n=5\n121d47b7\n"


def test_streamed_text_matches_returned_text():
    # n = 1, 2 end in a partial byte; n = 20 is several _TEXT_BYTES slices
    rng = random.Random(67)
    tables = [random_table(rng, n) for n in (*range(1, 13), 20)]
    tables += [zeros_table(1), ones_table(2), build_f3(12)]
    for t in tables:
        buf = io.StringIO()
        assert t.to_text(buf) is None
        assert buf.getvalue() == t.to_text()
    assert (1 << 20) // 8 > _TEXT_BYTES  # several slices


def test_build_memory_is_the_buffer_and_the_table():
    # the byte buffer the segments are doubled in becomes the table: one
    # 2^n/8-byte object
    n = 24
    tracemalloc.start()
    try:
        build_f3(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1 << n) // 8 + (1 << 20)


def test_streamed_text_memory_is_the_packed_bytes_and_a_slice():
    n = 24
    t = build_f3(n)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            t.to_text(sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 1 << 20  # a slice and its hex; the table is read in place


def test_text_parse_errors():
    with pytest.raises(ValueError, match="header"):
        TruthTable.from_text("m=4\nffff\n")
    for header in ("n=+4", "n=0_4", "n=\u0664", "n=4.0"):  # int() took the first three
        with pytest.raises(ValueError, match="bad header line"):
            TruthTable.from_text(f"{header}\nffff\n")
    with pytest.raises(ValueError, match="hex"):
        TruthTable.from_text("n=4\nff\n")
    with pytest.raises(ValueError, match="hex"):
        TruthTable.from_text("n=4\nzzzz\n")
    # each has the width of a valid line; int(..., 16) took "0xab" and the
    # ones with "_", "+" or "-"
    for line in ("a_bc", "+abc", "0xab", "-abc", "ab c", "0x", "+f"):
        n = 4 if len(line) == 4 else 3
        with pytest.raises(ValueError, match="bad hex line"):
            TruthTable.from_text(f"n={n}\n{line}\n")
    with pytest.raises(ValueError, match="bad hex line"):
        TruthTable.from_text("n=5\nab cd ef\n")  # 8 characters, 3 bytes
    with pytest.raises(ValueError, match="bad hex line"):
        TruthTable.from_text("n=1\n-\n")
    with pytest.raises(ValueError, match="out of range"):
        TruthTable.from_text("n=1\nf\n")
    with pytest.raises(ValueError):
        TruthTable.from_text("n=4\n")
    with pytest.raises(ValueError, match="line after the hex line"):
        TruthTable.from_text("n=5\n121d47b7\nGARBAGE\n")
    assert TruthTable.from_text("n=5\n\n121d47b7\n\n \n").to_hex() == "121d47b7"
    # a long line is quoted by its first 32 characters and its length: an
    # n = 20 hex line has 2^18 digits
    hexstr = "0" * (1 << 18)
    for text in (f"n=20\n{hexstr[:-1]}z\n",   # one bad digit
                 f"n=20\n{hexstr[:-1]}\n",    # a digit short
                 f"{hexstr}\nn=20\n"):       # the hex line first
        with pytest.raises(ValueError, match=r"^bad (hex|header) line") as err:
            TruthTable.from_text(text)
        message = str(err.value)
        assert len(message.encode()) < 200, message
        assert "'" + "0" * 32 + "'..." in message


def test_spectrum_csv():
    buf = io.StringIO()
    walsh_transform(zeros_table(2)).write_csv(buf)
    assert buf.getvalue() == "w,value\n0,4\n1,0\n2,0\n3,0\n"


def test_spectrum_csv_matches_line_by_line_writer():
    # real spectra, n = 1..14 and 17: the indices cross 10^4 at n = 14 and
    # 10^5 at n = 17, over several _CSV_ROWS blocks
    rng = random.Random(59)
    for n in (*range(1, 15), 17):
        spec = walsh_transform(random_table(rng, n))
        buf = io.StringIO()
        spec.write_csv(buf)
        assert buf.getvalue() == line_by_line_csv(spec.values)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 17), st.integers(0, 31), st.integers(0, 2**32 - 1),
       st.data())
def test_spectrum_csv_matches_line_by_line_writer_on_any_values(n, bits, seed,
                                                                 data):
    # any int32: n = 15..17 spans several _CSV_ROWS blocks, and the planted
    # values are the int32 ends (10 digits, three 4-digit groups) and the
    # edges of one and two groups
    size = 1 << n
    values = np.random.default_rng(seed).integers(
        -(1 << bits), (1 << bits) - 1, size, endpoint=True, dtype=np.int32)
    for value in (-2**31, 2**31 - 1, 9999, 10**4, 10**8 - 1, 10**8):
        values[data.draw(st.integers(0, size - 1))] = value
    buf = io.StringIO()
    WalshSpectrum(n, values).write_csv(buf)
    assert buf.getvalue() == line_by_line_csv(values)


def test_spectrum_csv_memory_is_a_few_blocks():
    # the CSV is formatted a block of rows at a time, not as one string
    spec = walsh_transform(build_f2(20))
    with open(os.devnull, "w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            spec.write_csv(sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 4 << 20


def test_spectrum_csv_to_a_file_holds_a_few_copies_of_one_block(tmp_path):
    # the digit-group table, a block of _CSV_ROWS packed records, its bytes,
    # its NUL-free text and the file's encoded copy of that: ~0.9 MiB traced
    # at n = 20 with the table's build, so no 8-byte index of the block's
    # bytes and no copy of the whole text fits under the bound
    spec = walsh_transform(build_f2(20))
    path = tmp_path / "spectrum.csv"
    with open(path, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            spec.write_csv(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 1536 << 10
    with open(path, encoding="utf-8") as fh:
        assert fh.readline() == "w,value\n"
        assert fh.readline() == f"0,{spec[0]}\n"
