"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All comparisons are exact; the stated wall-clock budgets are
asserted where a criterion pins one.
"""

import random
import time
from contextlib import contextmanager

from rotsym import (
    OpCounter,
    build_f2,
    build_f3,
    builtin_gfs,
    conjecture_check,
    f3_block_complements_claimed,
    gf_series,
    is_bent,
    is_semi_bent_spectral,
    nonlinearity,
    pc_profile,
    t_chain,
    walsh_transform,
    wt_f2_closed,
)
from rotsym.cli import main as cli_main
from rotsym.refdata import load_reference_tables, weight_table_columns

from oracles import (
    AffineTransform,
    affine_nonlinearity,
    apply_affine_transform,
    concatenate,
    dot2,
    f3_block_complements_measured,
    gf2_apply,
    gf2_invert,
    gf2_transpose,
    orbit_table,
    parseval_sum,
    random_invertible_rows,
    random_table,
    wt_f2_recurrence,
    zero_count,
)


@contextmanager
def criterion(name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed > budget_s:
        print(f"[ACCEPTANCE] {name}: FAIL (took {elapsed:.2f}s > {budget_s}s)")
        raise AssertionError(f"{name} exceeded {budget_s}s ({elapsed:.2f}s)")
    print(f"[ACCEPTANCE] {name}: PASS ({elapsed:.2f}s)")


def f3_table_any(n):
    return build_f3(n) if n >= 7 else orbit_table((1, 2, 3), n)


def test_table_reproduction_nonlinearity():
    with criterion("table reproduction: degree-3 nonlinearity", 5.0):
        computed = [nonlinearity(f3_table_any(n)) for n in range(3, 10)]
        assert computed == [1, 4, 6, 18, 36, 80, 172]
        ref = load_reference_tables()["f3_nonlinearity"]
        assert computed == [ref[n] for n in range(3, 10)]


def test_table_reproduction_weights():
    from rotsym.cli import _computed_rows

    with criterion("table reproduction: degree-3 weights and components", 10.0):
        ref = load_reference_tables()["f3_weights"]
        rows, _ = _computed_rows()
        assert [r["n"] for r in rows] == list(range(3, 13))
        for row in rows:
            expected = ref[row["n"]]
            for col in weight_table_columns():
                assert row.get(col) == expected.get(col), (row["n"], col)


def test_oracle_equivalence():
    with criterion("oracle equivalence of both fast builders", 30.0):
        for n in range(5, 15):
            assert build_f2(n) == orbit_table((1, 2), n), f"f2 at n={n}"
        for n in range(7, 15):
            assert build_f3(n) == orbit_table((1, 2, 3), n), f"f3 at n={n}"


def test_f2_cost_claim():
    with criterion("degree-2 cost: 2^(n-3) - 2 block complements"):
        for n in range(5, 21):
            counter = OpCounter()
            build_f2(n, counter)
            assert counter.block_complements == (1 << (n - 3)) - 2, n


def test_f3_cost_comparison(capsys):
    # The claimed degree-3 count is not a count of the 4-bit blocks that
    # match the degree-2 count exactly: it is the complemented bits plus
    # 2^(n-5).  The criterion is that the measured value is deterministic
    # and that bench reports both numbers verbatim.
    with criterion("degree-3 cost: measured vs claimed, reported verbatim"):
        deviations = []
        for n in range(8, 21):
            counter = OpCounter()
            build_f3(n, counter)
            measured = counter.block_complements
            assert measured == f3_block_complements_measured(n), n
            claimed = f3_block_complements_claimed(n)
            if measured != claimed:
                deviations.append((n, measured, claimed))
        exit_code = cli_main(["bench", "f3", "--n", "8..12"])
        out = capsys.readouterr().out
        assert exit_code == 0
        for n, measured, claimed in deviations[:5]:
            assert f"measured-blocks={measured}" in out or n > 12
            assert f"claimed-blocks={claimed}" in out or n > 12
        if deviations:
            assert "reported verbatim, not adjusted" in out
            print(f"[ACCEPTANCE]   known discrepancy at n=8..20: measured "
                  f"{deviations[0][1]} vs claimed {deviations[0][2]} at n=8, "
                  f"diverging with n (unit mismatch, reported not patched)")


def test_f2_weight_formulas():
    with criterion("degree-2 weights: closed form = recurrence = series = table"):
        f2_gf, _ = builtin_gfs()
        coeffs = gf_series(*f2_gf, 18)
        for n in range(5, 19):
            w = wt_f2_closed(n)
            assert wt_f2_recurrence(n) == w, n
            assert coeffs[n] == w, n
            assert build_f2(n).weight() == w, n


def test_f2_nonlinearity_formulas():
    with criterion("degree-2 nonlinearity formula, n = 4..18"):
        for n in range(4, 19):
            table = build_f2(n) if n >= 5 else orbit_table((1, 2), n)
            if n % 2:
                expected = (1 << (n - 1)) - (1 << ((n - 1) // 2))
            else:
                expected = (1 << (n - 1)) - (1 << (n // 2))
            assert nonlinearity(table) == expected, n


def test_bent_semibent_suite():
    with criterion("bent / semi-bent classification suite"):
        for n in range(4, 17, 2):
            assert is_bent(t_chain(n)) is True, n
        for n in range(5, 14, 2):
            f = build_f2(n)
            assert is_semi_bent_spectral(f) is True, n
            assert zero_count(walsh_transform(f).values) == 1 << (n - 1), n
        for n in range(6, 17, 2):
            assert is_bent(build_f2(n)) is False, n


def test_pc_suite():
    # KNOWN RED.  The criterion as stated asserts full satisfaction of every
    # weight class 1..n-1 for n = 5..12.  That is true for odd n, but for
    # even n the two alternating directions 0101... and 1010... (weight n/2)
    # give a constant derivative: the cyclic quadratic's bilinear form has a
    # two-dimensional radical containing them.  Verified against naive
    # per-point derivative sums; no affinely equivalent representative can
    # avoid it.  The criterion is kept faithful and left failing rather than
    # weakened; see the characterization test in test_core.py for the true
    # per-class behavior.
    with criterion("propagation criterion: all classes 1..n-1", 60.0):
        violations = []
        for n in range(5, 13):
            profile = pc_profile(build_f2(n))
            for w in range(1, n):
                sat, tot = profile[w]
                if sat != tot:
                    violations.append((n, w, sat, tot))
        for n, w, sat, tot in violations:
            print(f"[ACCEPTANCE]   violation: n={n} class={w}: {sat}/{tot}"
                  f" (the two alternating weight-n/2 directions)")
        assert not violations, violations


def test_structural_identities():
    rng = random.Random(20000810)
    with criterion("structural identities: concatenation and affine spectra"):
        # the odd-dimension degree-2 table is chain || complemented-shift
        for n in (5, 7, 9, 11):
            t = t_chain(n - 1)
            second = apply_affine_transform(
                t, AffineTransform.identity(n - 1, a=(1 << (n - 1)) - 1, c=1))
            assert concatenate(t, second) == build_f2(n), n

        # concatenation spectrum identity, 100 random pairs, all w
        for _ in range(100):
            n = rng.randint(2, 5)  # result lives on n+1 <= 6 variables
            g0, g1 = random_table(rng, n), random_table(rng, n)
            s0, s1 = walsh_transform(g0), walsh_transform(g1)
            spec = walsh_transform(concatenate(g0, g1))
            for w1 in (0, 1):
                for w in range(1 << n):
                    assert spec[(w1 << n) | w] == s0[w] + (-1) ** w1 * s1[w]

        # affine transform spectrum identity, 100 random instances, all w
        for _ in range(100):
            n = rng.randint(3, 6)
            h = random_table(rng, n)
            rows = random_invertible_rows(rng, n)
            a, b, c = rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(1)
            g = apply_affine_transform(h, AffineTransform(n, rows, a, b, c))
            spec_g, spec_h = walsh_transform(g), walsh_transform(h)
            inv = gf2_invert(rows)
            inv_t = gf2_transpose(inv)
            a_pre = gf2_apply(inv, a)
            for w in range(1 << n):
                sign = (-1) ** (c ^ dot2(a_pre, w ^ b))
                assert spec_g[w] == sign * spec_h[gf2_apply(inv_t, w ^ b)]


def test_gf_series_reproduction():
    with criterion("generating functions: printed expansion and weights"):
        f2_gf, f3_gf = builtin_gfs()
        assert gf_series(*f3_gf, 12) == [0, 0, 0, 1, 4, 6, 18, 36, 80, 172,
                                        360, 760, 1576]
        coeffs = gf_series(*f2_gf, 18)
        for n in range(5, 19):
            assert coeffs[n] == build_f2(n).weight(), n


def test_conjecture_scan():
    with criterion("weight = nonlinearity scan (hard 3..9, soft 10..16)", 180.0):
        rows = conjecture_check(3, 16)
        for r in rows:
            if r["n"] <= 9:
                assert r["equal"], f"published range broken at n={r['n']}"
            else:
                print(f"[ACCEPTANCE]   n={r['n']}: weight={r['weight']} "
                      f"nonlinearity={r['nonlinearity']} equal={r['equal']} "
                      f"(informational)")


def test_property_suite():
    rng = random.Random(271828)
    with criterion("property suite: Parseval x1000, affine enumeration x100"):
        ns = list(range(3, 15))
        for i in range(1000):
            n = ns[i % len(ns)]
            spec = walsh_transform(random_table(rng, n))
            assert parseval_sum(spec.values) == 1 << (2 * n)
        for i in range(100):
            n = 3 + (i % 8)  # 3..10
            t = random_table(rng, n)
            assert nonlinearity(t) == affine_nonlinearity(t)
