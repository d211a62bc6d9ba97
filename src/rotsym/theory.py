"""Weight and nonlinearity theory for the rotation-symmetric families.

The closed form of the degree-2 weight, the recurrence of the degree-3
weight, rational generating functions for both families, the one dispatch
from a selector to a table (family_table; builders makes the open chain t)
or to the segments `build` writes (family_pieces), and the
weight-equals-nonlinearity scan for the degree-3 family, whose
nonlinearity comes from the transfer matrices (core.orbit_summary).
All arithmetic is exact, in integers.

Like builders, this module imports neither numpy nor core at the top: the
series of `gf` and the pieces of `build f2|f3|t` need neither, and
family_table and conjecture_check import core where they call it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .builders import (
    FAST_MIN_N,
    MAX_VARS,
    OpCounter,
    _generator,
    build_f2,
    build_f3,
    doubled_pieces,
    monomial_table_general,
    t_chain,
)

if TYPE_CHECKING:
    from .core import TruthTable

F3_REFERENCE_NL_RANGE = (3, 9)  # range covered by the published table

# the monomial whose orbit defines each rotation-symmetric family
FAMILY_GENERATORS = {"f2": (1, 2), "f3": (1, 2, 3)}


def wt_f2_closed(n: int) -> int:
    """Closed-form weight of the degree-2 function: 2^(n-1), minus 2^(n/2)
    when n is even (the parity factor is handled by branching, so no
    fractional power is ever formed)."""
    if n < 4:
        raise ValueError("closed form validated for n >= 4")
    if n % 2:
        return 1 << (n - 1)
    return (1 << (n - 1)) - (1 << (n // 2))


def wt_f3_recurrence(n: int) -> int:
    """wt = 2*(wt(n-2) + wt(n-3)) + 2^(n-3) from the seeds 1, 4, 6."""
    if n < 3:
        raise ValueError("recurrence seeded at n = 3, 4, 5")
    w = {3: 1, 4: 4, 5: 6}
    for s in range(6, n + 1):
        w[s] = 2 * (w[s - 2] + w[s - 3]) + (1 << (s - 3))
    return w[n]


def gf_series(numerator: Sequence[int], denominator: Sequence[int],
              upto: int) -> list[int]:
    """Exact power-series coefficients of numerator/denominator through
    degree upto; each is an integer coefficient list, constant term first.

    Driven by the linear recurrence induced by the denominator, whose
    constant term must be a unit (+-1) for integer coefficients.
    """
    if upto < 0:
        raise ValueError("negative degree bound")
    if not denominator or denominator[0] not in (1, -1):
        raise ValueError("denominator constant term must be +-1")
    coeffs: list[int] = []
    for k in range(upto + 1):
        acc = numerator[k] if k < len(numerator) else 0
        for j in range(1, min(k, len(denominator) - 1) + 1):
            acc -= denominator[j] * coeffs[k - j]
        coeffs.append(acc * denominator[0])
    return coeffs


def builtin_gfs() -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The two weight generating functions in cleared polynomial form, each
    a (numerator, denominator) pair for gf_series.

    Both are normalized to a single polynomial fraction by clearing the
    embedded 1/(1-2z) factor and absorbing signs:
      degree 2: (16z^5 - 8z^6 - 16z^7) / ((1-2z)(1-2z^2))
      degree 3: (z^3 + 2z^4 - 4z^5)    / ((1-2z)(1-2z^2-2z^3))
    """
    f2 = ((0, 0, 0, 0, 0, 16, -8, -16), (1, -2, -2, 4))
    f3 = ((0, 0, 0, 1, 2, -4), (1, -2, -2, 2, 4))
    return f2, f3


def family_table(selector: str, n: int, generator: tuple[int, ...] = (),
                 counter: OpCounter | None = None) -> TruthTable:
    """The table a selector names, one per n.

    f2/f3 use the fast builder from FAST_MIN_N on (charging counter) and
    their orbit below it; t is the open chain; monomial and orbit need a
    generator (the CLI's --generator).  An orbit is the ANF of the n
    rotations of the generator's monomial, tabulated in place by
    anf_to_truth_table, so rotations that coincide cancel in pairs.
    """
    if selector in FAST_MIN_N:
        if n >= FAST_MIN_N[selector]:
            # read from the module globals on each call, so a wrapper set on
            # build_f2/build_f3 here (perfbench/bench_trace.py) sees the build
            build = build_f2 if selector == "f2" else build_f3
            return build(n, counter)
        selector, generator = "orbit", FAMILY_GENERATORS[selector]
    if selector == "t":
        return t_chain(n)
    if selector not in ("monomial", "orbit"):
        raise ValueError(f"unknown selector {selector!r}")
    if not generator:
        raise ValueError(f"{selector} needs --generator")
    if selector == "monomial":
        return monomial_table_general(generator, n)
    from .core import anf_to_truth_table
    gen = _generator(generator, n)
    return anf_to_truth_table(n, [[(k - 1 + d) % n + 1 for k in gen]
                                  for d in range(n)])


def family_pieces(selector: str, n: int, generator: tuple[int, ...] = (),
                  counter: OpCounter | None = None
                  ) -> list[tuple[Sequence, Sequence[int]]]:
    """family_table's bytes as write_text's (parts, flags) segments.

    t, and f2/f3 from FAST_MIN_N on, come straight from their doublings,
    as the distinct base pieces of each segment and a flag per piece, with
    no 2^n/8-byte table; any other table is built by family_table, one
    segment of one part.  Bad arguments raise here, before any piece is
    read.
    """
    if selector == "t" or n >= FAST_MIN_N.get(selector, n + 1):
        return doubled_pieces(selector, n, counter)
    return [([family_table(selector, n, generator, counter).data], bytes(1))]


def conjecture_check(n_lo: int, n_hi: int) -> list[dict]:
    """Weight vs nonlinearity of the degree-3 family, one row per n.

    Each row is {"n", "weight", "nonlinearity", "equal", "source"}, with
    source "reference-table" within the published range, else "computed".
    The weight is counted in the built table and the nonlinearity,
    2^(n-1) - max|W|/2, comes from the transfer matrices (orbit_summary),
    so the two sides of each comparison come from independent engines.
    Equality is reported, never asserted: it is only confirmed through n = 9,
    everything beyond is informational.
    """
    if not 3 <= n_lo <= n_hi <= MAX_VARS:
        raise ValueError(f"range must lie in 3..{MAX_VARS}, got {n_lo}..{n_hi}")
    from .core import orbit_summary
    rows = []
    lo, hi = F3_REFERENCE_NL_RANGE
    for n in range(n_lo, n_hi + 1):
        w = family_table("f3", n).weight()
        nl = orbit_summary(FAMILY_GENERATORS["f3"], n).nonlinearity()
        rows.append({"n": n, "weight": w, "nonlinearity": nl, "equal": w == nl,
                     "source": "reference-table" if lo <= n <= hi else "computed"})
    return rows
