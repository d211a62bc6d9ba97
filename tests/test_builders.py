import itertools
import random

import pytest

from rotsym import (
    BLOCKS,
    BitString,
    OpCounter,
    anf_to_truth_table,
    build_f2,
    build_f3,
    complement,
    complement_first_half,
    component_weights_f3,
    f2_block_complements,
    f2_component,
    f3_block_complements_measured,
    f3_component,
    hat,
    monomial_table_degree2,
    monomial_table_general,
    repeat,
    rots_orbit_anf,
    tilde,
    weight,
)
from rotsym.builders import MACRON

from oracles import table_to_list


def orbit_table(gen, n):
    return anf_to_truth_table(rots_orbit_anf(gen, n))


def oracle_monomial(indices, n):
    return anf_to_truth_table(
        __import__("rotsym").AnfPolynomial.from_terms(n, [tuple(indices)]))


# ---------------------------------------------------------------------------
# blocks and strings
# ---------------------------------------------------------------------------

def test_sixteen_blocks_distinct_and_closed():
    assert len(BLOCKS) == 16
    values = {b.bits for b in BLOCKS.values()}
    assert values == set(range(16))  # pairwise distinct, covering every nibble
    for b in BLOCKS.values():
        assert b.complemented().bits == b.bits ^ 0xF
        assert b.complemented().complemented() is BLOCKS[b.name]


def test_block_patterns():
    # written left to right: A=0011, B=0101, C=0110, D=0000,
    # U=1000, V=0001, X=0100, Y=0010
    expect = {"A": [0, 0, 1, 1], "B": [0, 1, 0, 1], "C": [0, 1, 1, 0],
              "D": [0, 0, 0, 0], "U": [1, 0, 0, 0], "V": [0, 0, 0, 1],
              "X": [0, 1, 0, 0], "Y": [0, 0, 1, 0]}
    for name, bits in expect.items():
        s = BitString(4, BLOCKS[name].bits)
        assert [s[i] for i in range(4)] == bits


def test_bitstring_blocks_round_trip():
    for spec in ("VY", "XU" + MACRON, "DVDY", "VDVA", "XBXC"):
        s = BitString.from_blocks(spec)
        assert s.to_blocks_str() == spec
    # precomposed overbar characters normalize to the same string
    assert BitString.from_blocks("XŪ") == BitString.from_blocks("XU" + MACRON)
    with pytest.raises(ValueError):
        BitString.from_blocks("Q")


def test_bitstring_validation():
    with pytest.raises(ValueError):
        BitString(0, 0)
    with pytest.raises(ValueError):
        BitString(2, 0b100)
    s = BitString.from_bits([1, 0, 1])
    assert len(s) == 3 and s[0] == 1 and s[1] == 0 and s[2] == 1


def test_repeat():
    v = BitString(4, BLOCKS["V"].bits)
    r = repeat(v, 4)
    assert r.to_truth_table() == oracle_monomial((3, 4), 4)
    d = repeat(BitString(4, BLOCKS["D"].bits), 5)
    assert d.bits == 0 and len(d) == 20
    assert repeat(v, 1) == v
    with pytest.raises(ValueError):
        repeat(v, 0)


def test_complement_tilde_hat_shapes():
    vy = BitString.from_blocks("VY")
    assert tilde(vy).to_blocks_str() == "VY" + MACRON
    g14 = vy + tilde(vy)  # VYVȲ
    assert tilde(g14).to_blocks_str() == "VYV" + MACRON + "Y"
    assert hat(BitString.from_blocks("DVDY")).to_blocks_str() == "DVDY" + MACRON
    assert complement(vy).to_blocks_str() == "V" + MACRON + "Y" + MACRON
    assert complement_first_half(
        BitString.from_blocks("XU" + MACRON)).to_blocks_str() == (
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
    counter.reset()
    assert counter.bits_complemented == 0
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

def test_monomial_degree2_examples():
    assert table_to_list(monomial_table_degree2(4, 5, 5)) == [0, 0, 0, 1] * 8
    assert table_to_list(monomial_table_degree2(1, 2, 4)) == [0] * 12 + [1] * 4
    assert monomial_table_degree2(1, 4, 4).to_hex() == "0055"


def test_monomial_degree2_exhaustive():
    for n in range(3, 11):
        for i, j in itertools.combinations(range(1, n + 1), 2):
            assert monomial_table_degree2(i, j, n) == oracle_monomial((i, j), n)


def test_monomial_degree2_validation():
    with pytest.raises(ValueError):
        monomial_table_degree2(2, 2, 4)
    with pytest.raises(ValueError):
        monomial_table_degree2(1, 5, 4)
    with pytest.raises(ValueError):
        monomial_table_degree2(1, 2, 2)


def test_monomial_general_examples():
    # x_(n-2) x_(n-1) x_n at n=5: the 8-bit pattern DV repeated
    got = monomial_table_general((3, 4, 5), 5)
    assert table_to_list(got) == ([0] * 4 + [0, 0, 0, 1]) * 4
    assert got == oracle_monomial((3, 4, 5), 5)
    # x_(n-3) x_(n-2) x_(n-1) at n=6: twelve zeros then A, repeated
    got = monomial_table_general((3, 4, 5), 6)
    assert table_to_list(got) == ([0] * 12 + [0, 0, 1, 1]) * 4
    assert got == oracle_monomial((3, 4, 5), 6)


def test_monomial_general_matches_degree2():
    for n in range(3, 11):
        for i, j in itertools.combinations(range(1, n + 1), 2):
            assert monomial_table_general((i, j), n) == \
                monomial_table_degree2(i, j, n)


def test_monomial_general_exhaustive():
    for n in range(3, 11):
        for s in range(2, n + 1):
            for combo in itertools.combinations(range(1, n + 1), s):
                assert monomial_table_general(combo, n) == \
                    oracle_monomial(combo, n), (combo, n)


def test_monomial_general_validation():
    with pytest.raises(ValueError):
        monomial_table_general((3,), 5)
    with pytest.raises(ValueError):
        monomial_table_general((2, 1), 5)
    with pytest.raises(ValueError):
        monomial_table_general((1, 6), 5)


# ---------------------------------------------------------------------------
# rotation orbits
# ---------------------------------------------------------------------------

def test_orbit_examples():
    anf = rots_orbit_anf((1, 2), 5)
    assert anf.monomials == frozenset(
        frozenset(m) for m in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    anf = rots_orbit_anf((1, 2, 3), 6)
    assert len(anf.monomials) == 6
    anf = rots_orbit_anf((1,), 7)
    assert anf.monomials == frozenset(frozenset({k}) for k in range(1, 8))


def test_orbit_duplicates_cancel():
    # the shift-by-2 orbit of x1x3 on 4 variables covers each term twice
    assert rots_orbit_anf((1, 3), 4).monomials == frozenset()


def test_orbit_rotation_invariance():
    rng = random.Random(61)
    for _ in range(20):
        n = rng.randint(3, 9)
        gen = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        anf = rots_orbit_anf(gen, n)
        rotated = frozenset(
            frozenset((k % n) + 1 for k in m) for m in anf.monomials)
        assert rotated == anf.monomials


def test_orbit_validation():
    with pytest.raises(ValueError):
        rots_orbit_anf((), 5)
    with pytest.raises(ValueError):
        rots_orbit_anf((0, 1), 5)


# ---------------------------------------------------------------------------
# the degree-2 build
# ---------------------------------------------------------------------------

def test_build_f2_worked_example():
    counter = OpCounter()
    t = build_f2(5, counter)
    assert t.to_hex() == "121d47b7"
    s = (f2_component(1, 4) + f2_component(2, 3) + f2_component(3, 3))
    assert s.to_blocks_str() == ("VYVY" + MACRON + "XU" + MACRON
                                 + "X" + MACRON + "U" + MACRON)
    assert counter.block_complements == 2


def test_build_f2_matches_oracle():
    for n in range(5, 13):
        assert build_f2(n) == orbit_table((1, 2), n), n


def test_build_f2_cost():
    for n in range(5, 21):
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
    from rotsym import AffineTransform, apply_affine_transform, concatenate, t_chain

    for n in (5, 7, 9, 11):
        t = t_chain(n - 1)
        second = apply_affine_transform(
            t, AffineTransform.identity(n - 1, a=(1 << (n - 1)) - 1, c=1))
        assert concatenate(t, second) == build_f2(n)


# ---------------------------------------------------------------------------
# the degree-3 build
# ---------------------------------------------------------------------------

def test_build_f3_matches_oracle():
    for n in range(7, 13):
        assert build_f3(n) == orbit_table((1, 2, 3), n), n


def test_build_f3_weight_examples():
    assert weight(build_f3(8)) == 80
    assert component_weights_f3(9) == (72, 40, 26, 34)
    assert component_weights_f3(10) == (156, 84, 52, 68)
    assert component_weights_f3(12) == (712, 376, 220, 268)
    assert sum(component_weights_f3(11)) == 760 == weight(build_f3(11))


def test_build_f3_minimum():
    with pytest.raises(ValueError):
        build_f3(6)
    with pytest.raises(ValueError):
        component_weights_f3(6)


def test_build_f3_cost_closed_form():
    for n in range(7, 21):
        counter = OpCounter()
        build_f3(n, counter)
        assert counter.block_complements == f3_block_complements_measured(n) \
            == (1 << (n - 4)) + (1 << (n - 6)) - 3


def test_f3_component_weight_recurrence():
    # wt(h_i^s) = 2 (wt(h_i^(s-2)) + wt(h_i^(s-3))) + 2^(s-3); the doubling
    # step complements 2^(s-3) bits, which fixes the additive constant
    for i in (1, 2, 3):
        w = {s: f3_component(i, s).weight() for s in range(4, 17)}
        for s in range(7, 17):
            assert w[s] == 2 * (w[s - 2] + w[s - 3]) + (1 << (s - 3)), (i, s)
    # the derived fourth segment satisfies the same recurrence
    h3 = {s: f3_component(3, s) for s in range(4, 17)}
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


def test_hat_step_output_matches_oracle_components():
    # the four assembled segments really are the four slices of the table
    for n in (7, 9, 10):
        table = build_f3(n)
        bits = table_to_list(table)
        h1 = f3_component(1, n - 1)
        h2 = f3_component(2, n - 2)
        h3 = f3_component(3, n - 3)
        h4 = complement_first_half(hat(h3))
        glued = [h1[i] for i in range(len(h1))] + \
                [h2[i] for i in range(len(h2))] + \
                [h3[i] for i in range(len(h3))] + \
                [h4[i] for i in range(len(h4))]
        assert bits == glued
