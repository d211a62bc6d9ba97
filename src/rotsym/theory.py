"""Weight and nonlinearity theory for the rotation-symmetric families.

The closed form of the degree-2 weight, the recurrence of the degree-3
weight, rational generating functions for both families, and the
weight-equals-nonlinearity scan for the degree-3 family, whose weight is
counted in builders.family_table's table and whose nonlinearity comes from
the transfer matrices (core.orbit_summary).  All arithmetic is exact, in
integers.

Like builders, this module imports neither numpy nor core at the top: the
series of `gf` need neither, and conjecture_check imports core where it
calls it.
"""

from __future__ import annotations

from typing import Sequence

from .builders import FAMILY_GENERATORS, MAX_VARS, family_table

F3_REFERENCE_NL_RANGE = (3, 9)  # range covered by the published table


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
