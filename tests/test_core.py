import io
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotsym import (
    AffineTransform,
    AnfPolynomial,
    TruthTable,
    anf_evaluate,
    anf_to_truth_table,
    apply_affine_transform,
    build_f2,
    build_f3,
    concatenate,
    correlation,
    distance,
    index_of_point,
    is_bent,
    is_semi_bent_spectral,
    linear_function_table,
    nonlinearity,
    pc_check,
    pc_profile,
    point_of_index,
    restrict,
    t_chain,
    walsh_transform,
    weight,
)
from rotsym.core import (
    MAX_VARS,
    WalshSpectrum,
    _fwht_inplace,
    dot2,
    gf2_apply,
    gf2_invert,
    gf2_transpose,
)

from oracles import (
    affine_nonlinearity,
    butterfly_walsh,
    derivative_sum,
    line_by_line_csv,
    mobius_anf,
    random_invertible_rows,
    random_table,
    slow_table,
    slow_walsh,
    table_from_list,
    table_to_list,
)


# ---------------------------------------------------------------------------
# TruthTable basics and the index convention
# ---------------------------------------------------------------------------

def test_index_convention():
    # x_1 is the most significant index bit; index 1 is (0,...,0,1)
    assert index_of_point((0, 0, 0, 1), 4) == 1
    assert index_of_point((1, 0, 0, 0), 4) == 8
    assert point_of_index(1, 4) == (0, 0, 0, 1)
    assert point_of_index(12, 4) == (1, 1, 0, 0)


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(0, 0)
    with pytest.raises(ValueError):
        TruthTable(27, 0)
    with pytest.raises(ValueError):
        TruthTable(2, 1 << 16)
    t = TruthTable(3, 0b10000001)
    assert t[0] == 1 and t[7] == 1 and t[3] == 0
    assert t.weight() == 2


def test_truth_table_xor_requires_same_n():
    with pytest.raises(ValueError):
        TruthTable.zeros(3) ^ TruthTable.zeros(4)


# ---------------------------------------------------------------------------
# ANF evaluation and tabulation (the oracle)
# ---------------------------------------------------------------------------

def test_anf_evaluate_examples():
    anf = AnfPolynomial.from_terms(4, [(1, 2)])
    assert anf_evaluate(anf, (1, 1, 0, 0)) == 1
    assert anf_evaluate(anf, (1, 0, 1, 1)) == 0
    zero = AnfPolynomial.zero(4)
    for idx in range(16):
        assert anf_evaluate(zero, idx) == 0
    cube = AnfPolynomial.from_terms(3, [(1, 2, 3)])
    assert anf_evaluate(cube, (1, 1, 1)) == 1
    assert sum(anf_evaluate(cube, i) for i in range(8)) == 1


def test_anf_xor_cancellation():
    anf = AnfPolynomial.from_terms(3, [(1, 2), (1, 2)])
    assert anf.monomials == frozenset()
    anf = AnfPolynomial.from_terms(3, [(1, 2), (2, 3), (1, 2)])
    assert anf.monomials == frozenset({frozenset({2, 3})})


def test_anf_index_validation():
    with pytest.raises(ValueError):
        AnfPolynomial.from_terms(3, [(1, 4)])


def test_anf_to_truth_table_examples():
    # x_(n-1) x_n on 4 variables: the 4-bit pattern 0001 repeated
    t = anf_to_truth_table(AnfPolynomial.from_terms(4, [(3, 4)]))
    assert table_to_list(t) == [0, 0, 0, 1] * 4
    # x_1 x_2 on 4 variables: ones exactly where both top bits are set
    t = anf_to_truth_table(AnfPolynomial.from_terms(4, [(1, 2)]))
    assert table_to_list(t) == [0] * 12 + [1] * 4
    assert anf_to_truth_table(AnfPolynomial.zero(3)) == TruthTable.zeros(3)


def test_anf_to_truth_table_matches_pointwise(seeded=4242):
    rng = random.Random(seeded)
    for n in (2, 4, 6, 8):
        for _ in range(5):
            terms = [tuple(sorted(rng.sample(range(1, n + 1),
                                             rng.randint(0, n))))
                     for _ in range(rng.randint(0, 8))]
            anf = AnfPolynomial.from_terms(n, terms)
            fast = anf_to_truth_table(anf)
            slow = slow_table(anf.monomials, n)
            assert table_to_list(fast) == slow
            for idx in range(1 << n):
                assert fast[idx] == anf_evaluate(anf, idx)


def test_mobius_interpolation_round_trip():
    rng = random.Random(99)
    for n in (3, 5, 8, 12):
        for _ in range(3):
            terms = [tuple(sorted(rng.sample(range(1, n + 1),
                                             rng.randint(0, min(n, 4)))))
                     for _ in range(6)]
            anf = AnfPolynomial.from_terms(n, terms)
            table = anf_to_truth_table(anf)
            recovered = mobius_anf(table)
            assert recovered == set(anf.monomials)
            rebuilt = anf_to_truth_table(AnfPolynomial(n, frozenset(recovered)))
            assert rebuilt == table


# ---------------------------------------------------------------------------
# weight / distance
# ---------------------------------------------------------------------------

def test_weight_examples():
    assert weight(build_f2(5)) == 16
    assert weight(TruthTable.zeros(5)) == 0
    assert weight(build_f3(10)) == 360


def test_distance_examples():
    f = build_f2(5)
    assert distance(f, f) == 0
    assert distance(f, f.complement()) == 32
    assert distance(f, TruthTable.zeros(5)) == 16
    with pytest.raises(ValueError):
        distance(f, TruthTable.zeros(4))


# ---------------------------------------------------------------------------
# Walsh transform
# ---------------------------------------------------------------------------

def test_walsh_zero_function():
    spec = walsh_transform(TruthTable.zeros(3))
    assert spec[0] == 8
    assert all(spec[w] == 0 for w in range(1, 8))


def test_walsh_linear_functions():
    for n in (3, 5):
        for b in range(1 << n):
            spec = walsh_transform(linear_function_table(n, b))
            assert spec[b] == 1 << n
            assert spec.parseval_sum() == 1 << (2 * n)


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
        assert spec.parseval_sum() == 1 << (2 * n)
        assert spec[0] == (1 << n) - 2 * weight(t)
        assert all(v % 2 == 0 for v in spec.values)
        assert t.is_balanced() == (spec[0] == 0)


@pytest.mark.parametrize("n", [9, 10, 11, 14, 15, 16, 17, 18, 20, 21, 22,
                               24, 25])
def test_walsh_kernel_matches_plain_butterfly(n):
    # 10 is a multiple of the 5-bit group, 9, 11 and 14 are not; 16 is the
    # largest table done in one chunk, 17 takes one panel, 18 the first of
    # several; the panel pass does 4 bits at 20, 5 at 21 and 5 + 1 at 22;
    # 24 is the last bit done in float32, 25 adds an int32 bit in the panel
    t = random_table(random.Random(n), n)
    got = walsh_transform(t).values
    assert got.dtype == np.int32
    assert np.array_equal(got, butterfly_walsh(t))


def test_walsh_n25_concatenation_identity():
    # bit 24 goes through the int32 butterfly: W(g0||g1) = [W0 + W1, W0 - W1]
    rng = random.Random(25)
    g0, g1 = random_table(rng, 24), random_table(rng, 24)
    w0, w1 = walsh_transform(g0).values, walsh_transform(g1).values
    got = walsh_transform(concatenate(g0, g1)).values
    assert np.array_equal(got[:1 << 24], w0 + w1)
    assert np.array_equal(got[1 << 24:], w0 - w1)


def test_walsh_zeros_25_reaches_the_exactness_limit():
    # the float32 stages end with W(0) = 2^24 in each half, the largest
    # value they must hold; bit 24 then doubles it in int32
    values = walsh_transform(TruthTable.zeros(25)).values
    assert values[0] == 1 << 25
    assert np.count_nonzero(values) == 1


def test_walsh_n26_needs_the_int32_top_bits():
    # f = 1 only at x = 0: W(0) = 2^26 - 2, every other W(w) = -2.  In
    # float32 the last bits would form partial sums above 2^25 that are
    # 2 mod 4, which float32 rounds; bits 24 and 25 are done in int32.
    values = walsh_transform(TruthTable(26, 1)).values
    assert values[0] == (1 << 26) - 2
    assert np.count_nonzero(values[1:] != -2) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 18).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
def test_walsh_twice_is_scaled_identity(table):
    # W(W(s)) = 2^n s for s = (-1)^f; the second transform is the int64
    # slab butterfly, which chunks its passes from n = 18
    n, bits = table
    twice = walsh_transform(TruthTable(n, bits)).values.astype(np.int64)
    _fwht_inplace(twice)
    signs = 1 - 2 * np.array([(bits >> i) & 1 for i in range(1 << n)])
    assert np.array_equal(twice, signs << n)


def test_slab_butterfly_chunks_rows_and_columns():
    # a 4-element slab splits the early passes by rows, the late by columns
    t = random_table(random.Random(17), 7)
    v = np.array(slow_walsh(table_to_list(t)), dtype=np.int64)
    _fwht_inplace(v, slab=np.empty(4, dtype=np.int64))
    assert np.array_equal(v, (1 - 2 * np.array(table_to_list(t))) << 7)


def test_walsh_transform_hands_off_read_only_int32():
    values = walsh_transform(build_f2(7)).values
    assert values.dtype == np.int32
    assert not values.flags.writeable
    arr = np.array(slow_walsh(table_to_list(build_f2(7))), dtype=np.int32)
    spec = WalshSpectrum(7, arr)
    assert spec.values is not arr and arr.flags.writeable
    arr[0] += 2
    assert spec[0] == values[0]


def test_walsh_transform_memory_is_two_buffers():
    # two float32 buffers of 2^n values; no unpacked copy, no third buffer
    n = 20
    t = build_f2(n)
    tracemalloc.start()
    try:
        walsh_transform(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 4 * (1 << n) + (1 << 20)


@pytest.mark.parametrize("n", [20, 22])
def test_walsh_transform_memory_is_one_buffer(n):
    # one 4*2^n-byte buffer; the packed bytes and the cache-sized scratch
    # buffers of the two passes fit in the 2 MiB beyond it
    t = build_f2(n)
    tracemalloc.start()
    try:
        walsh_transform(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (1 << n) + (2 << 20)


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
            assert nonlinearity(linear_function_table(n, w)) == 0
            assert nonlinearity(linear_function_table(n, w).complement()) == 0


def test_nonlinearity_equals_affine_enumeration():
    rng = random.Random(13)
    for n in (3, 4, 6, 8, 10):
        for _ in range(3):
            t = random_table(rng, n)
            want = affine_nonlinearity(t)
            assert nonlinearity(t) == want
            assert walsh_transform(t).nonlinearity() == want


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------

def test_correlation_examples():
    rng = random.Random(17)
    g = random_table(rng, 5)
    assert correlation(g, g) == 1
    assert correlation(g, g.complement()) == -1
    f25 = build_f2(5)
    vals = {correlation(f25, linear_function_table(5, w)) for w in range(32)}
    assert vals == {Fraction(0), Fraction(1, 4), Fraction(-1, 4)}
    with pytest.raises(ValueError):
        correlation(g, random_table(rng, 4))


def test_correlation_consistent_with_spectrum():
    rng = random.Random(19)
    for n in (3, 5, 6):
        g = random_table(rng, n)
        spec = walsh_transform(g)
        for w in range(1 << n):
            assert correlation(g, linear_function_table(n, w)) * (1 << n) == spec[w]


# ---------------------------------------------------------------------------
# propagation criterion
# ---------------------------------------------------------------------------

def test_pc_check_f2_7():
    f = build_f2(7)
    for c in range(1, 128):
        expected = 1 <= c.bit_count() <= 6
        assert pc_check(f, c) == expected


def test_pc_check_errors_and_edges():
    f = TruthTable.zeros(4)
    with pytest.raises(ValueError):
        pc_check(f, 0)
    with pytest.raises(ValueError):
        pc_check(f, 16)
    for c in range(1, 16):
        assert pc_check(f, c) is False


def test_pc_check_full_weight_direction_even_n():
    f = build_f2(6)
    c = 0b111111
    assert derivative_sum(f, c) == 0
    assert pc_check(f, c) is False


def test_pc_profile_matches_pc_check():
    rng = random.Random(23)
    for n in (4, 5, 6):
        t = random_table(rng, n)
        profile = pc_profile(t)
        assert walsh_transform(t).pc_profile() == profile
        for w in range(1, n + 1):
            directions = [c for c in range(1, 1 << n) if c.bit_count() == w]
            sat = sum(1 for c in directions if pc_check(t, c))
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
    for n in (5, 7, 9, 11):
        profile = pc_profile(build_f2(n))
        assert all(profile[w] == (profile[w][1], profile[w][1])
                   for w in range(1, n))
        assert profile[n] == (0, 1)
    for n in (6, 8, 10, 12):
        f = build_f2(n)
        profile = pc_profile(f)
        for w in range(1, n):
            sat, tot = profile[w]
            assert (sat, tot) == ((tot - 2, tot) if w == n // 2
                                  else (tot, tot)), (n, w)
        assert profile[n] == (0, 1)
        alt = sum(1 << p for p in range(0, n, 2))  # 0101... as an index mask
        assert pc_check(f, alt) is False
        assert pc_check(f, alt ^ ((1 << n) - 1)) is False


def test_pc_profile_linear_function():
    profile = pc_profile(linear_function_table(4, 0b1010))
    for w in range(1, 5):
        assert profile[w][0] == 0


def test_pc_profile_cap():
    with pytest.raises(ValueError):
        pc_profile(TruthTable.zeros(21))
    with pytest.raises(ValueError):
        walsh_transform(TruthTable.zeros(21)).pc_profile()


# ---------------------------------------------------------------------------
# bent / semi-bent
# ---------------------------------------------------------------------------

def test_is_bent():
    for bent in (is_bent, lambda f: walsh_transform(f).is_bent()):
        assert bent(t_chain(6)) is True
        assert bent(build_f2(6)) is False
        assert bent(TruthTable.zeros(4)) is False
        assert bent(t_chain(5)) is False  # odd n short-circuits


def test_is_semi_bent():
    for semi_bent in (is_semi_bent_spectral,
                      lambda f: walsh_transform(f).is_semi_bent()):
        for n in (5, 7, 9):
            assert semi_bent(build_f2(n)) is True
        assert semi_bent(linear_function_table(5, 3)) is False
        assert semi_bent(t_chain(6)) is False  # even n short-circuits
        # spectrum {0, +-2^3} but W(0) != 0: unbalanced, so not semi-bent
        assert semi_bent(t_chain(5)) is False


def test_max_abs_int32_bound():
    # max_abs takes |W| in int32, exact while |W| <= 2^MAX_VARS < 2^31
    assert MAX_VARS <= 30
    for n in (1, 5, 12):
        for t in (TruthTable.zeros(n), TruthTable.ones(n),
                  linear_function_table(n, 1),
                  linear_function_table(n, (1 << n) - 1)):
            assert walsh_transform(t).max_abs() == 1 << n


def test_max_abs_is_taken_once_per_spectrum():
    class CountedMax(np.ndarray):
        calls = 0

        def max(self, *args, **kwargs):
            CountedMax.calls += 1
            return super().max(*args, **kwargs)

    values = walsh_transform(t_chain(6)).values.copy().view(CountedMax)
    spec = WalshSpectrum._adopt(6, values)
    assert (spec.nonlinearity(), spec.is_bent(), spec.max_abs()) == (28, True, 8)
    repr(spec)
    assert CountedMax.calls == 1


# ---------------------------------------------------------------------------
# affine transforms
# ---------------------------------------------------------------------------

def test_affine_identity_is_noop():
    rng = random.Random(29)
    t = random_table(rng, 5)
    assert apply_affine_transform(t, AffineTransform.identity(5)) == t


def test_affine_singular_matrix_rejected():
    with pytest.raises(ValueError):
        AffineTransform(3, (0b100, 0b100, 0b001))


def test_affine_shift_matches_substituted_anf():
    # t_4 with x1 and x3 complemented equals (x1+1)x2 + x2(x3+1) + (x3+1)x4
    h = t_chain(4)
    moved = apply_affine_transform(
        h, AffineTransform.identity(4, a=index_of_point((1, 0, 1, 0), 4)))
    r = AnfPolynomial.from_terms(
        4, [(1, 2), (2,), (2, 3), (2,), (3, 4), (4,)])
    assert moved == anf_to_truth_table(r)


def test_affine_complement_input_preserves_weight():
    f = build_f2(5)
    moved = apply_affine_transform(f, AffineTransform.identity(5, a=31))
    assert weight(moved) == weight(f)


def test_affine_preserves_weight_and_nonlinearity():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.choice((3, 4, 5))
        h = random_table(rng, n)
        rows = random_invertible_rows(rng, n)
        a = rng.getrandbits(n)
        t0 = AffineTransform(n, rows, a=a)
        assert weight(apply_affine_transform(h, t0)) == weight(h)
        t1 = AffineTransform(n, rows, a=a, b=rng.getrandbits(n),
                             c=rng.getrandbits(1))
        assert nonlinearity(apply_affine_transform(h, t1)) == nonlinearity(h)


def test_affine_transform_spectrum_identity():
    # spectrum of h(Ax+a)+b.x+c at w, against the transformed spectrum of h
    rng = random.Random(37)
    for _ in range(40):
        n = rng.choice((3, 4, 5, 6))
        h = random_table(rng, n)
        rows = random_invertible_rows(rng, n)
        a, b, c = rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(1)
        t = AffineTransform(n, rows, a=a, b=b, c=c)
        g = apply_affine_transform(h, t)
        spec_g = walsh_transform(g)
        spec_h = walsh_transform(h)
        inv = gf2_invert(rows)
        inv_t = gf2_transpose(inv)
        a_pre = gf2_apply(inv, a)
        for w in range(1 << n):
            sign = (-1) ** (c ^ dot2(a_pre, w ^ b))
            assert spec_g[w] == sign * spec_h[gf2_apply(inv_t, w ^ b)]


# ---------------------------------------------------------------------------
# concatenate / restrict
# ---------------------------------------------------------------------------

def test_concatenate_basic():
    assert concatenate(TruthTable.zeros(3), TruthTable.zeros(3)) == TruthTable.zeros(4)
    with pytest.raises(ValueError):
        concatenate(TruthTable.zeros(3), TruthTable.zeros(4))


def test_concatenate_halves_recoverable():
    rng = random.Random(41)
    for n in (2, 4, 5):
        g0, g1 = random_table(rng, n), random_table(rng, n)
        joined = concatenate(g0, g1)
        assert restrict(joined, 1, 0) == g0
        assert restrict(joined, 1, 1) == g1


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


def test_restrict_examples():
    assert restrict(build_f2(5), 5, 0) == anf_to_truth_table(
        AnfPolynomial.from_terms(4, [(1, 2), (2, 3), (3, 4)]))
    assert restrict(TruthTable.zeros(6), 3, 1) == TruthTable.zeros(5)
    with pytest.raises(ValueError):
        restrict(TruthTable.zeros(4), 5, 0)
    with pytest.raises(ValueError):
        restrict(TruthTable.zeros(1), 1, 0)


def test_restrict_matches_pointwise():
    rng = random.Random(47)
    for _ in range(10):
        n = rng.choice((3, 4, 5))
        f = random_table(rng, n)
        var = rng.randint(1, n)
        val = rng.getrandbits(1)
        got = restrict(f, var, val)
        for j in range(1 << (n - 1)):
            pt = list(point_of_index(j, n - 1))
            pt.insert(var - 1, val)
            assert got[j] == f.value_at(pt)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_text_round_trip():
    rng = random.Random(53)
    for n in (1, 2, 3, 4, 7, 10):
        t = random_table(rng, n)
        assert TruthTable.from_text(t.to_text()) == t


def test_text_format_shape():
    t = table_from_list([0, 0, 0, 1] * 4)
    assert t.to_text() == "n=4\n1111\n"
    f = build_f2(5)
    assert f.to_text() == "n=5\n121d47b7\n"


def test_text_parse_errors():
    with pytest.raises(ValueError, match="header"):
        TruthTable.from_text("m=4\nffff\n")
    with pytest.raises(ValueError, match="hex"):
        TruthTable.from_text("n=4\nff\n")
    with pytest.raises(ValueError, match="hex"):
        TruthTable.from_text("n=4\nzzzz\n")
    with pytest.raises(ValueError):
        TruthTable.from_text("n=4\n")


def test_spectrum_csv():
    buf = io.StringIO()
    walsh_transform(TruthTable.zeros(2)).write_csv(buf)
    assert buf.getvalue() == "w,value\n0,4\n1,0\n2,0\n3,0\n"


def test_spectrum_csv_matches_line_by_line_writer():
    # n = 13 spans two 4096-row chunks
    rng = random.Random(59)
    for n in range(1, 14):
        spec = walsh_transform(random_table(rng, n))
        buf = io.StringIO()
        spec.write_csv(buf)
        assert buf.getvalue() == line_by_line_csv(spec.values)
