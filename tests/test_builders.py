import io
import itertools
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotsym import (
    OpCounter,
    anf_to_truth_table,
    build_f2,
    build_f3,
    f2_block_complements,
    f2_component,
    f3_block_complements_claimed,
    f3_component,
    monomial_table_general,
    t_chain,
    walsh_transform,
)
from rotsym import builders
from rotsym.builders import MACRON, _seed_bytes
from rotsym.core import write_text
from rotsym.theory import FAST_MIN_N, family_pieces, family_table

from oracles import (
    BLOCKS,
    AffineTransform,
    BitString,
    apply_affine_transform,
    as_bitstring,
    complement,
    complement_first_half,
    concatenate,
    f3_block_complements_measured,
    hat,
    mobius_anf,
    operator_component,
    orbit_table,
    packbits_hex,
    slow_table,
    table_from_int,
    table_to_list,
    tilde,
    to_blocks_str,
    zeros_table,
)

F2_SEEDS = ("VY", "XU" + MACRON)
F3_SEEDS = ("DVDY", "VDVA", "XBXC")


def f3_component_weights(n):
    """Weights of h1..h4, the four segments of the n-variable degree-3 build."""
    return tuple(f3_component(i, n - min(i, 3)).weight() for i in (1, 2, 3, 4))


def oracle_monomial(indices, n):
    return anf_to_truth_table(n, [indices])


# ---------------------------------------------------------------------------
# blocks and strings
# ---------------------------------------------------------------------------

def test_sixteen_blocks_distinct_and_closed():
    assert len(BLOCKS) == 16
    values = {b.bits for b in BLOCKS.values()}
    assert values == set(range(16))  # pairwise distinct, covering every nibble
    for x in "ABCDUVXY":
        assert BLOCKS[x + MACRON].bits == BLOCKS[x].bits ^ 0xF


def test_block_patterns():
    # written left to right: A=0011, B=0101, C=0110, D=0000,
    # U=1000, V=0001, X=0100, Y=0010
    expect = {"A": [0, 0, 1, 1], "B": [0, 1, 0, 1], "C": [0, 1, 1, 0],
              "D": [0, 0, 0, 0], "U": [1, 0, 0, 0], "V": [0, 0, 0, 1],
              "X": [0, 1, 0, 0], "Y": [0, 0, 1, 0]}
    for name, bits in expect.items():
        s = BLOCKS[name]
        assert [s[i] for i in range(4)] == bits


def test_bitstring_blocks_round_trip():
    for spec in ("VY", "XU" + MACRON, "DVDY", "VDVA", "XBXC"):
        s = BitString.from_blocks(spec)
        assert to_blocks_str(s) == spec
    # precomposed overbar characters normalize to the same string
    assert BitString.from_blocks("XŪ") == BitString.from_blocks("XU" + MACRON)


def test_seed_bytes_match_the_reference_parse():
    for spec, hexed in (("VY", "48"), ("XU" + MACRON, "e2"), ("DVDY", "8040"),
                        ("VDVA", "08c8"), ("XBXC", "a262")):
        ref = BitString.from_blocks(spec)
        assert _seed_bytes(spec) == ref.bits.to_bytes(len(ref) // 8, "little") \
            == bytes.fromhex(hexed), spec


def test_complement_tilde_hat_shapes():
    vy = BitString.from_blocks("VY")
    assert to_blocks_str(tilde(vy)) == "VY" + MACRON
    g14 = vy + tilde(vy)  # VYVȲ
    assert to_blocks_str(tilde(g14)) == "VYV" + MACRON + "Y"
    assert to_blocks_str(hat(BitString.from_blocks("DVDY"))) == "DVDY" + MACRON
    assert to_blocks_str(complement(vy)) == "V" + MACRON + "Y" + MACRON
    assert to_blocks_str(complement_first_half(
        BitString.from_blocks("XU" + MACRON))) == (
            "X" + MACRON + "U" + MACRON)


def test_operator_charges():
    u = BitString.from_blocks("DVDY")  # 16 bits
    for op, bits in ((complement, 16), (tilde, 8), (hat, 4),
                     (complement_first_half, 8)):
        counter = OpCounter()
        op(u, counter)
        assert counter.bits_complemented == bits
    counter = OpCounter()
    assert counter.block_complements == 0
    counter.charge_bits(6)
    from fractions import Fraction
    assert counter.block_complements == Fraction(3, 2)
    with pytest.raises(ValueError):
        counter.charge_bits(-1)


def test_operator_length_preconditions():
    with pytest.raises(ValueError):
        tilde(BitString.from_bits([1, 0, 1]))
    with pytest.raises(ValueError):
        hat(BitString.from_bits([1, 0]))


# ---------------------------------------------------------------------------
# monomial tables
# ---------------------------------------------------------------------------

def test_monomial_general_examples():
    # x_(n-2) x_(n-1) x_n at n=5: the 8-bit pattern DV repeated
    got = monomial_table_general((3, 4, 5), 5)
    assert table_to_list(got) == ([0] * 4 + [0, 0, 0, 1]) * 4
    assert got == oracle_monomial((3, 4, 5), 5)
    # x_(n-3) x_(n-2) x_(n-1) at n=6: twelve zeros then A, repeated
    got = monomial_table_general((3, 4, 5), 6)
    assert table_to_list(got) == ([0] * 12 + [0, 0, 1, 1]) * 4
    assert got == oracle_monomial((3, 4, 5), 6)
    # degree 2: x_(n-1) x_n is V repeated, x_1 x_2 the top quarter, and
    # x_1 x_n alternates in the top half
    assert table_to_list(monomial_table_general((4, 5), 5)) == [0, 0, 0, 1] * 8
    assert table_to_list(monomial_table_general((1, 2), 4)) == [0] * 12 + [1] * 4
    assert monomial_table_general((1, 4), 4).to_hex() == "0055"


def test_monomial_general_exhaustive():
    for n in range(2, 11):
        for s in range(2, n + 1):
            for combo in itertools.combinations(range(1, n + 1), s):
                assert monomial_table_general(combo, n) == \
                    oracle_monomial(combo, n), (combo, n)


def test_monomial_general_sampled_large():
    # past the exhaustive range: 16 to 19 doublings above the seed byte
    rng = random.Random(19)
    for n in range(19, 23):
        for s in (2, 3, n // 2, n):
            combo = tuple(sorted(rng.sample(range(1, n + 1), s)))
            assert monomial_table_general(combo, n) == \
                oracle_monomial(combo, n), (combo, n)


def monomial_cases():
    """An n in 2..14 and an increasing set of at least two indices in 1..n."""
    def indices(n):
        idx = st.lists(st.integers(1, n), min_size=2, max_size=n, unique=True)
        return idx.map(lambda i: (tuple(sorted(i)), n))
    return st.integers(2, 14).flatmap(indices)


@settings(max_examples=50, deadline=None)
@given(monomial_cases())
def test_monomial_general_matches_anf_property(case):
    idx, n = case
    assert monomial_table_general(idx, n) == oracle_monomial(idx, n)


def test_monomial_general_validation():
    with pytest.raises(ValueError):
        monomial_table_general((3,), 5)
    with pytest.raises(ValueError):
        monomial_table_general((2, 1), 5)
    with pytest.raises(ValueError):
        monomial_table_general((1, 6), 5)
    with pytest.raises(ValueError):
        monomial_table_general((2, 2), 4)
    with pytest.raises(ValueError):
        monomial_table_general((1, 5), 4)


# ---------------------------------------------------------------------------
# rotation orbits
# ---------------------------------------------------------------------------

def test_orbit_examples():
    terms = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    assert table_to_list(family_table("orbit", 5, (1, 2))) == slow_table(terms, 5)
    assert len(mobius_anf(family_table("orbit", 6, (1, 2, 3)))) == 6
    # the orbit of x_1 is the parity of the index
    assert table_to_list(family_table("orbit", 7, (1,))) == [
        bin(i).count("1") & 1 for i in range(1 << 7)]


def test_orbit_duplicates_cancel():
    # the shift-by-2 orbit of x1x3 on 4 variables covers each term twice
    assert family_table("orbit", 4, (1, 3)) == zeros_table(4)


def test_orbit_rotation_invariance():
    rng = random.Random(61)
    for _ in range(20):
        n = rng.randint(3, 9)
        gen = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        monomials = mobius_anf(family_table("orbit", n, gen))
        rotated = {frozenset((k % n) + 1 for k in m) for m in monomials}
        assert rotated == monomials


def test_orbit_validation():
    with pytest.raises(ValueError):
        family_table("orbit", 5, ())
    with pytest.raises(ValueError, match="generator indices outside 1..5"):
        family_table("orbit", 5, (0, 1))


# ---------------------------------------------------------------------------
# the degree-2 build
# ---------------------------------------------------------------------------

def test_build_f2_worked_example():
    counter = OpCounter()
    t = build_f2(5, counter)
    assert t.to_hex() == "121d47b7"
    s = (as_bitstring(f2_component(1, 4)) + as_bitstring(f2_component(2, 3))
         + as_bitstring(f2_component(3, 3)))
    assert to_blocks_str(s) == ("VYVY" + MACRON + "XU" + MACRON
                                + "X" + MACRON + "U" + MACRON)
    assert counter.block_complements == 2


def test_build_f2_matches_oracle():
    # n = 5, 6 double and derive segments whose complemented parts are
    # nibbles of one byte
    for n in range(FAST_MIN_N["f2"], 19):
        assert build_f2(n) == orbit_table((1, 2), n), n


def test_build_f2_cost():
    for n in range(5, 27):
        counter = OpCounter()
        build_f2(n, counter)
        assert counter.block_complements == f2_block_complements(n) \
            == (1 << (n - 3)) - 2
    counter = OpCounter()
    build_f2(10, counter)
    assert counter.block_complements == 126


def test_build_f2_minimum():
    with pytest.raises(ValueError):
        build_f2(4)


def test_build_f2_is_its_three_components():
    # the table is g1 at level n-1, then g2 and the derived g3 at level n-2
    for n in range(5, 17):
        parts = (f2_component(1, n - 1), f2_component(2, n - 2),
                 f2_component(3, n - 2))
        assert build_f2(n).data.tobytes() == \
            b"".join(p.data.tobytes() for p in parts), n


def test_f2_component_weight_recurrence():
    # wt(g_i^s) = 2 wt(g_i^(s-2)) + 2^(s-2) for each doubling sequence,
    # including the derived third segment
    for i in (1, 2, 3):
        w = {s: f2_component(i, s).weight() for s in range(3, 17)}
        for s in range(5, 17):
            assert w[s] == 2 * w[s - 2] + (1 << (s - 2)), (i, s)


def test_f2_concatenation_identity():
    # the odd-dimension table is the chain table joined with its
    # complemented input-shift
    for n in (5, 7, 9, 11):
        t = t_chain(n - 1)
        second = apply_affine_transform(
            t, AffineTransform.identity(n - 1, a=(1 << (n - 1)) - 1, c=1))
        assert concatenate(t, second) == build_f2(n)


# ---------------------------------------------------------------------------
# the degree-3 build
# ---------------------------------------------------------------------------

def test_build_f3_matches_oracle():
    # n = 7..9 have nibble-sized complemented parts in their short segments
    for n in range(FAST_MIN_N["f3"], 19):
        assert build_f3(n) == orbit_table((1, 2, 3), n), n


def test_build_f3_weight_examples():
    assert build_f3(8).weight() == 80
    assert f3_component_weights(9) == (72, 40, 26, 34)
    assert f3_component_weights(10) == (156, 84, 52, 68)
    assert f3_component_weights(12) == (712, 376, 220, 268)
    assert sum(f3_component_weights(11)) == 760 == build_f3(11).weight()


def test_build_f3_minimum():
    with pytest.raises(ValueError):
        build_f3(6)
    with pytest.raises(ValueError):  # h3 and h4 of n = 6 would sit at level 3
        f3_component_weights(6)


def test_build_f3_cost_closed_form():
    for n in range(7, 27):
        counter = OpCounter()
        build_f3(n, counter)
        assert counter.block_complements == f3_block_complements_measured(n) \
            == (1 << (n - 4)) + (1 << (n - 6)) - 3
        # the published count is the complemented bits plus 2^(n-5)
        assert f3_block_complements_claimed(n) \
            == counter.bits_complemented + (1 << (n - 5))


def test_f3_component_weight_recurrence():
    # wt(h_i^s) = 2 (wt(h_i^(s-2)) + wt(h_i^(s-3))) + 2^(s-3); the doubling
    # step complements 2^(s-3) bits, which fixes the additive constant
    for i in (1, 2, 3):
        w = {s: f3_component(i, s).weight() for s in range(4, 17)}
        for s in range(7, 17):
            assert w[s] == 2 * (w[s - 2] + w[s - 3]) + (1 << (s - 3)), (i, s)
    # the derived fourth segment satisfies the same recurrence
    h3 = {s: as_bitstring(f3_component(3, s)) for s in range(4, 17)}
    w4 = {s: complement_first_half(hat(h3[s])).weight() for s in range(4, 17)}
    for s in range(7, 17):
        assert w4[s] == 2 * (w4[s - 2] + w4[s - 3]) + (1 << (s - 3)), s


def test_component_level_validation():
    with pytest.raises(ValueError):
        f2_component(1, 2)
    with pytest.raises(ValueError):
        f2_component(4, 5)
    with pytest.raises(ValueError):
        f3_component(1, 3)
    with pytest.raises(ValueError):
        f3_component(5, 6)


@pytest.mark.parametrize("build, args", [
    (build_f2, (27,)), (build_f3, (27,)), (f3_component, (1, 27)),
    (monomial_table_general, ((1, 2), 27)), (anf_to_truth_table, (27, [()]))],
    ids=["build_f2", "build_f3", "f3_component", "monomial_table_general",
         "anf_to_truth_table"])
def test_oversized_n_is_rejected_before_the_buffer(build, args):
    # the 2^27-bit table would be 16 MiB; n is checked before its buffer
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="must be in 1..26, got 27"):
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_hat_step_output_matches_oracle_components():
    # the four assembled segments really are the four slices of the table
    for n in (7, 9, 10):
        table = build_f3(n)
        bits = table_to_list(table)
        h1 = as_bitstring(f3_component(1, n - 1))
        h2 = as_bitstring(f3_component(2, n - 2))
        h3 = as_bitstring(f3_component(3, n - 3))
        h4 = complement_first_half(hat(h3))
        glued = [h1[i] for i in range(len(h1))] + \
                [h2[i] for i in range(len(h2))] + \
                [h3[i] for i in range(len(h3))] + \
                [h4[i] for i in range(len(h4))]
        assert bits == glued


def test_components_match_string_operators():
    # the in-place byte doubling gives the segments, and charges the bits,
    # of the published construction by the BitString operators
    for n in range(5, 13):
        for i in (1, 2, 3):
            level = n - min(i, 2)
            ours, ref = OpCounter(), OpCounter()
            assert as_bitstring(f2_component(i, level, ours)) == \
                operator_component(F2_SEEDS, i, level, ref), (i, n)
            assert ours == ref
        for i in (1, 2, 3, 4):
            level = n - min(i, 3)
            if level < 4:
                continue
            ours, ref = OpCounter(), OpCounter()
            assert as_bitstring(f3_component(i, level, ours)) == \
                operator_component(F3_SEEDS, i, level, ref), (i, n)
            assert ours == ref
        if n >= 7:
            assert f3_component_weights(n) == tuple(
                operator_component(F3_SEEDS, i, n - min(i, 3)).weight()
                for i in (1, 2, 3, 4))


# ---------------------------------------------------------------------------
# the open chain, and rotation symmetry of the built tables
# ---------------------------------------------------------------------------

def test_t_chain_matches_oracle():
    for n in range(3, 19):
        chain = [(i, i + 1) for i in range(1, n)]
        assert t_chain(n) == anf_to_truth_table(n, chain), n


# each family selector's table from its ANF: an orbit, or the open chain
FAMILY_ANF = {
    "f2": lambda n: orbit_table((1, 2), n),
    "f3": lambda n: orbit_table((1, 2, 3), n),
    "t": lambda n: anf_to_truth_table(n, [(i, i + 1) for i in range(1, n)]),
}


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(FAMILY_ANF)), st.integers(3, 14))
def test_family_table_matches_anf_property(selector, n):
    assert family_table(selector, n) == FAMILY_ANF[selector](n)


# the least n each selector streams from: the fast builds', and t's
STREAMED = {"f2": FAST_MIN_N["f2"], "f3": FAST_MIN_N["f3"], "t": 3}


def streamed(selector, n):
    """build's text of a streamed selector, and what its stream charged."""
    counter, out = OpCounter(), io.StringIO()
    write_text(out, n, family_pieces(selector, n, counter=counter))
    return out.getvalue(), counter


def table_text(selector, n):
    """family_table's text and charges, for the streams to match."""
    counter = OpCounter()
    return family_table(selector, n, counter=counter).to_text(), counter


# with _TEXT_BYTES pieces (16 KiB) a segment is first a full base of
# 2^shift pieces at n = FULL_BASE (18) for t, one n later for f2 and two
# later for f3, where its 2^shift pieces first fill half the table
FULL_BASE = builders._TEXT_BYTES.bit_length() + 3


@pytest.mark.parametrize("piece", [1, 2, 4])
def test_streamed_text_is_the_table_text_with_small_pieces(monkeypatch, piece):
    # pieces of a few bytes take the full-base and past-the-base branches,
    # and the derived segment's flags, at small n.  The tables built from
    # them are the tables built without.
    cases = [(s, n) for s, least in STREAMED.items() for n in range(least, 17)]
    expected = {case: table_text(*case) for case in cases}
    monkeypatch.setattr(builders, "_TEXT_BYTES", piece)
    for case in cases:
        assert streamed(*case) == expected[case], case
        assert table_text(*case) == expected[case], case


@pytest.mark.parametrize("n", range(FULL_BASE, FULL_BASE + 6))
def test_streamed_text_is_the_table_text_past_the_base(n):
    # each selector's first full base, its first doublings past it, and
    # the ANF table besides
    for selector in STREAMED:
        text, counter = streamed(selector, n)
        assert (text, counter) == table_text(selector, n), selector
        assert text == FAMILY_ANF[selector](n).to_text(), selector


@pytest.mark.parametrize("n", [1, 2, 3])
def test_write_text_is_the_table_text_at_small_n(n):
    # n = 1, 2 are one right-aligned digit, not the one byte's two; a
    # complemented piece is the complemented table's text
    ones = (1 << (1 << n)) - 1
    for bits in range(ones + 1):
        t = table_from_int(n, bits)
        for flipped, want in ((False, t), (True, table_from_int(n, bits ^ ones))):
            out = io.StringIO()
            write_text(out, n, [([t.data], bytes([flipped]))])
            assert out.getvalue() == want.to_text() == f"n={n}\n{packbits_hex(want)}\n"


def test_streamed_text_memory_is_the_bases_and_one_segments_hex():
    # f3 at n = 26 holds three bases of four _TEXT_BYTES parts (12 parts)
    # and, of one segment at a time, each part's hex plain and complemented
    # (16 parts' worth), besides a slice in flight; 40 parts bound that.
    # Hex kept for the whole call (24 parts' hex, 48 parts' worth), or
    # 64 KiB parts, would not fit
    bound = 40 * builders._TEXT_BYTES
    assert bound <= 640 << 10
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for selector in STREAMED:
            tracemalloc.start()
            try:
                write_text(sink, 26, family_pieces(selector, 26))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (selector, peak)


def rotation_symmetric_tables():
    """A random generator's orbit table (n <= 12) or a fast build (n <= 18)."""
    def orbit(n):
        gen = st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
        return gen.map(lambda g: orbit_table(g, n))
    return st.one_of(
        st.integers(1, 12).flatmap(orbit),
        st.integers(FAST_MIN_N["f2"], 18).map(build_f2),
        st.integers(FAST_MIN_N["f3"], 18).map(build_f3),
    )


@settings(max_examples=60, deadline=None)
@given(rotation_symmetric_tables())
def test_rotation_symmetric_table_and_spectrum(table):
    # x_k -> x_(k+1) moves each index bit one place down, x_n's to x_1's;
    # that shift generates the cyclic group
    n = table.n
    idx = np.arange(1 << n)
    rot = (idx >> 1) | ((idx & 1) << (n - 1))
    values = table.to_array()
    assert np.array_equal(values[rot], values)
    spectrum = walsh_transform(table).values
    assert np.array_equal(spectrum[rot], spectrum)
