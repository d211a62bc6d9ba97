import numpy as np
import pytest

import rotsym.theory
from rotsym import (
    OpCounter,
    anf_to_truth_table,
    build_f2,
    build_f3,
    builtin_gfs,
    conjecture_check,
    family_table,
    gf_series,
    is_bent,
    is_semi_bent_spectral,
    nonlinearity,
    monomial_table_general,
    t_chain,
    walsh_transform,
    wt_f2_closed,
    wt_f3_recurrence,
)
from rotsym.core import _transfer
from rotsym.refdata import load_reference_tables
from rotsym.theory import FAST_MIN_N

from oracles import nl_f2, orbit_table, wt_f2_recurrence, zero_count


# ---------------------------------------------------------------------------
# degree-2 weights
# ---------------------------------------------------------------------------

def test_wt_f2_closed_examples():
    assert wt_f2_closed(5) == 16
    assert wt_f2_closed(6) == 24
    assert wt_f2_closed(8) == 112
    assert wt_f2_closed(7) == 64  # odd n: exactly half
    with pytest.raises(ValueError):
        wt_f2_closed(3)


def test_wt_f2_recurrence_examples():
    assert wt_f2_recurrence(6) == 24
    assert wt_f2_recurrence(7) == 64
    assert wt_f2_recurrence(10) == 480
    with pytest.raises(ValueError):
        wt_f2_recurrence(4)


def test_f2_weight_chain_agrees():
    f2_gf, _ = builtin_gfs()
    coeffs = gf_series(*f2_gf, 18)
    for n in range(5, 19):
        c = wt_f2_closed(n)
        assert wt_f2_recurrence(n) == c
        assert coeffs[n] == c
        assert build_f2(n).weight() == c


def test_f2_weight_bounds_implied():
    # 2^(n-2) <= wt <= 2^n - 2^(n-2), and nonlinearity >= 2^(n-2)
    for n in range(4, 15):
        w = wt_f2_closed(n)
        assert (1 << (n - 2)) <= w <= (1 << n) - (1 << (n - 2))
        assert nl_f2(n) >= 1 << (n - 2)


# ---------------------------------------------------------------------------
# degree-3 weights
# ---------------------------------------------------------------------------

def test_wt_f3_recurrence_examples():
    assert wt_f3_recurrence(6) == 18
    assert wt_f3_recurrence(12) == 1576
    # one step past the tabulated range: 2*(wt(11) + wt(10)) + 2^10
    assert wt_f3_recurrence(13) == 2 * (760 + 360) + (1 << 10) == 3264
    with pytest.raises(ValueError):
        wt_f3_recurrence(2)


def test_f3_weight_chain_agrees():
    _, f3_gf = builtin_gfs()
    coeffs = gf_series(*f3_gf, 18)
    for n in range(3, 7):
        assert wt_f3_recurrence(n) == coeffs[n] == orbit_table((1, 2, 3), n).weight()
    for n in range(7, 19):
        assert wt_f3_recurrence(n) == coeffs[n] == build_f3(n).weight()


def test_wt_f3_recurrence_against_built_13():
    assert build_f3(13).weight() == 3264 == wt_f3_recurrence(13)


@pytest.mark.parametrize("generator, weight_at, n_from", [
    ((1, 2, 3), wt_f3_recurrence, 3), ((1, 2), wt_f2_closed, 4)],
    ids=("f3", "f2"))
def test_weight_is_the_trace_of_the_transfer_matrix(generator, weight_at, n_from):
    # W(0) = sum over x of (-1)^f(x) = tr(M_0^n) = 2^n - 2 wt, with no table
    for n in range(n_from, 27):
        m0 = _transfer(generator, n)[0]
        trace = int(np.trace(np.linalg.matrix_power(m0, n)))
        assert trace == (1 << n) - 2 * weight_at(n), n


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def test_gf_series_f3_printed_expansion():
    _, f3_gf = builtin_gfs()
    assert gf_series(*f3_gf, 12) == [0, 0, 0, 1, 4, 6, 18, 36, 80, 172, 360,
                                    760, 1576]


def test_gf_series_f2_low_degrees():
    f2_gf, _ = builtin_gfs()
    coeffs = gf_series(*f2_gf, 8)
    assert coeffs[:5] == [0, 0, 0, 0, 0]
    assert coeffs[5:] == [16, 24, 64, 112]


def test_gf_series_geometric():
    assert gf_series((1,), (1, -1), 6) == [1] * 7


def test_gf_series_negated_denominator():
    # -1 constant term: 1/(z - 1) = -(1 + z + z^2 + ...)
    assert gf_series((1,), (-1, 1), 4) == [-1] * 5


def test_gf_series_non_unit_constant():
    with pytest.raises(ValueError):
        gf_series((1,), (2, 1), 4)
    with pytest.raises(ValueError):
        gf_series((1,), (0, 1), 4)
    with pytest.raises(ValueError):
        gf_series((1,), (), 4)


def test_builtin_gf_denominators_are_cleared_products():
    def polymul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return tuple(out)

    f2_gf, f3_gf = builtin_gfs()
    assert f2_gf[1] == polymul((1, -2), (1, 0, -2)) == (1, -2, -2, 4)
    assert f3_gf[1] == polymul((1, -2), (1, 0, -2, -2)) \
        == (1, -2, -2, 2, 4)


# ---------------------------------------------------------------------------
# degree-2 nonlinearity
# ---------------------------------------------------------------------------

def test_nl_f2_examples():
    assert nl_f2(5) == 12
    assert nl_f2(6) == 24
    assert nl_f2(9) == 240
    with pytest.raises(ValueError):
        nl_f2(3)


def test_nl_f2_matches_spectrum():
    assert nonlinearity(orbit_table((1, 2), 4)) == nl_f2(4)
    for n in range(5, 15):
        assert nonlinearity(build_f2(n)) == nl_f2(n), n


def test_nl_lower_bound():
    # the degree-k family's nonlinearity is at least 2^(n-k)
    assert nonlinearity(build_f3(9)) == 172 >= 1 << (9 - 3)
    assert nonlinearity(orbit_table((1, 2), 6)) == 24 >= 1 << (6 - 2)
    assert nonlinearity(orbit_table(tuple(range(1, 6)), 5)) == 1 == 1 << (5 - 5)


def test_nl_lower_bound_holds_for_families():
    for k, gen in ((2, (1, 2)), (3, (1, 2, 3))):
        for n in range(k + 2, 15):
            assert nonlinearity(orbit_table(gen, n)) >= 1 << (n - k)


# ---------------------------------------------------------------------------
# the open chain
# ---------------------------------------------------------------------------

def test_t_chain():
    assert is_bent(t_chain(4)) is True
    spec = walsh_transform(t_chain(5))
    assert {abs(v) for v in spec.values} <= {0, 8}
    # x1x2 + x2x3 is one on exactly two of the eight points
    assert t_chain(3).weight() == 2
    with pytest.raises(ValueError):
        t_chain(2)


def test_t_chain_parity_classes():
    for n in (4, 6, 8, 10):
        assert is_bent(t_chain(n))
    # For odd n the chain has the semi-bent spectrum shape (values in
    # {0, +-2^(k+1)} with 2^(n-1) zeros) but is not balanced, so the strict
    # predicate stays false; the balanced degree-2 function is the semi-bent
    # one.
    for n in (5, 7, 9):
        t = t_chain(n)
        spec = walsh_transform(t)
        k = (n - 1) // 2
        assert {abs(int(v)) for v in spec.values} <= {0, 1 << (k + 1)}
        assert zero_count(spec.values) == 1 << (n - 1)
        assert nonlinearity(t) == (1 << (n - 1)) - (1 << k)
        assert 2 * t.weight() != t.size
        assert is_semi_bent_spectral(t) is False


# ---------------------------------------------------------------------------
# the weight-equals-nonlinearity scan
# ---------------------------------------------------------------------------

def test_conjecture_published_range():
    rows = conjecture_check(3, 9)
    assert [r["weight"] for r in rows] == [1, 4, 6, 18, 36, 80, 172]
    assert all(r["equal"] for r in rows)
    assert all(r["source"] == "reference-table" for r in rows)


def test_reference_range_is_the_published_nonlinearity_table():
    # `tables` looks up the reference of each row labelled reference-table,
    # so a wider range would fail with a KeyError, not a mismatch line
    lo, hi = rotsym.theory.F3_REFERENCE_NL_RANGE
    published = load_reference_tables()["f3_nonlinearity"]
    assert sorted(published) == list(range(lo, hi + 1)) == list(range(3, 10))


def test_conjecture_row_n10():
    (row,) = conjecture_check(10, 10)
    assert row == {"n": 10, "weight": 360, "nonlinearity": row["nonlinearity"],
                   "equal": row["nonlinearity"] == 360, "source": "computed"}
    assert list(row) == ["n", "weight", "nonlinearity", "equal", "source"]


def test_conjecture_single_n3():
    (row,) = conjecture_check(3, 3)
    assert row["weight"] == row["nonlinearity"] == 1


def test_conjecture_range_validation():
    with pytest.raises(ValueError):
        conjecture_check(2, 5)
    with pytest.raises(ValueError):
        conjecture_check(5, 27)
    with pytest.raises(ValueError):
        conjecture_check(9, 3)


def test_f3_table_dispatch():
    assert family_table("f3", 5) == orbit_table((1, 2, 3), 5)
    assert family_table("f3", 8) == build_f3(8)


def test_family_table_matches_anf_oracle():
    # f2/f3 on both sides of FAST_MIN_N; the other selectors at the same n
    cases = {"f2": (1, 2), "f3": (1, 2, 3), "orbit": (1, 2, 4),
             "monomial": (2, 3)}
    for selector, gen in cases.items():
        for n in range(max(3, max(gen)), 10):
            table = family_table(selector, n, gen)
            if selector == "monomial":
                assert table == anf_to_truth_table(n, [gen]), (selector, n)
            else:
                assert table == orbit_table(gen, n), (selector, n)
    for n in range(3, 10):
        chain = [(i, i + 1) for i in range(1, n)]
        assert family_table("t", n) == anf_to_truth_table(n, chain)


def test_family_table_counts_only_fast_builds():
    for selector, n_min in FAST_MIN_N.items():
        below, at = OpCounter(), OpCounter()
        family_table(selector, n_min - 1, counter=below)
        family_table(selector, n_min, counter=at)
        assert below.bits_complemented == 0
        assert at.bits_complemented > 0


def test_family_table_rejects_bad_selectors():
    for selector in ("monomial", "orbit"):
        with pytest.raises(ValueError, match="needs --generator"):
            family_table(selector, 5)
    with pytest.raises(ValueError, match="unknown selector"):
        family_table("f4", 5)
