"""Weight and nonlinearity theory for the rotation-symmetric families.

Closed forms and recurrences for the degree-2 weights, the recurrence and
rational generating functions for both families, the one dispatch from a
selector to a table (family_table; builders makes the open chain t), and
the weight-equals-nonlinearity scan for the degree-3 family.  All arithmetic
is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .builders import (
    OpCounter,
    build_f2,
    build_f3,
    monomial_table_general,
    rots_orbit_anf,
    t_chain,
)
from .core import (
    MAX_VARS,
    TruthTable,
    anf_to_truth_table,
    nonlinearity,
    weight,
)

F3_REFERENCE_NL_RANGE = (3, 9)  # range covered by the published table

# the two rotation-symmetric families: the monomial whose orbit defines each,
# and the least n at which its fast builder applies
FAMILY_GENERATORS = {"f2": (1, 2), "f3": (1, 2, 3)}
FAST_MIN_N = {"f2": 5, "f3": 7}


@dataclass(frozen=True)
class RationalGF:
    """A rational generating function as two integer coefficient lists."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "numerator", tuple(self.numerator))
        object.__setattr__(self, "denominator", tuple(self.denominator))
        if not self.denominator or self.denominator[0] == 0:
            raise ValueError("denominator needs a nonzero constant term")


def wt_f2_closed(n: int) -> int:
    """Closed-form weight of the degree-2 function: 2^(n-1), minus 2^(n/2)
    when n is even (the parity factor is handled by branching, so no
    fractional power is ever formed)."""
    if n < 4:
        raise ValueError("closed form validated for n >= 4")
    if n % 2:
        return 1 << (n - 1)
    return (1 << (n - 1)) - (1 << (n // 2))


def wt_f2_recurrence(n: int) -> int:
    """wt = 2*wt(n-2) + 2^(n-2) unrolled from the seeds 16 (n=5), 24 (n=6)."""
    if n < 5:
        raise ValueError("recurrence seeded at n = 5, 6")
    w = {5: 16, 6: 24}
    for s in range(7, n + 1):
        w[s] = 2 * w[s - 2] + (1 << (s - 2))
    return w[n]


def wt_f3_recurrence(n: int) -> int:
    """wt = 2*(wt(n-2) + wt(n-3)) + 2^(n-3) from the seeds 1, 4, 6."""
    if n < 3:
        raise ValueError("recurrence seeded at n = 3, 4, 5")
    w = {3: 1, 4: 4, 5: 6}
    for s in range(6, n + 1):
        w[s] = 2 * (w[s - 2] + w[s - 3]) + (1 << (s - 3))
    return w[n]


def gf_series(gf: RationalGF, upto: int) -> list[int]:
    """Exact power-series coefficients through degree upto.

    Driven by the linear recurrence induced by the denominator, whose
    constant term must be a unit (+-1) for integer coefficients.
    """
    if upto < 0:
        raise ValueError("negative degree bound")
    den = gf.denominator
    if den[0] not in (1, -1):
        raise ValueError("denominator constant term must be +-1")
    num = gf.numerator
    coeffs: list[int] = []
    for k in range(upto + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * coeffs[k - j]
        coeffs.append(acc * den[0])
    return coeffs


def builtin_gfs() -> tuple[RationalGF, RationalGF]:
    """The two weight generating functions in cleared polynomial form.

    Both are normalized to a single polynomial fraction by clearing the
    embedded 1/(1-2z) factor and absorbing signs:
      degree 2: (16z^5 - 8z^6 - 16z^7) / ((1-2z)(1-2z^2))
      degree 3: (z^3 + 2z^4 - 4z^5)    / ((1-2z)(1-2z^2-2z^3))
    """
    f2 = RationalGF((0, 0, 0, 0, 0, 16, -8, -16), (1, -2, -2, 4))
    f3 = RationalGF((0, 0, 0, 1, 2, -4), (1, -2, -2, 2, 4))
    return f2, f3


def nl_f2(n: int) -> int:
    """Nonlinearity of the degree-2 function: 2^(n-1) - 2^((n-1)/2) for odd
    n, 2^(n-1) - 2^(n/2) for even n."""
    if n < 4:
        raise ValueError("formula validated for n >= 4")
    if n % 2:
        return (1 << (n - 1)) - (1 << ((n - 1) // 2))
    return (1 << (n - 1)) - (1 << (n // 2))


def nl_lower_bound_fk(n: int, k: int) -> int:
    """Lower bound 2^(n-k) on the nonlinearity of the degree-k family."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return 1 << (n - k)


def family_table(selector: str, n: int, generator: tuple[int, ...] = (),
                 counter: OpCounter | None = None) -> TruthTable:
    """The table a selector names, one per n.

    f2/f3 use the fast builder from FAST_MIN_N on (charging counter) and the
    ANF expansion of their orbit below it; t is the open chain; monomial and
    orbit need a generator (the CLI's --generator).
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
    return anf_to_truth_table(rots_orbit_anf(generator, n))


def conjecture_check(n_lo: int, n_hi: int) -> list[dict]:
    """Weight vs nonlinearity of the degree-3 family, one row per n.

    Each row is {"n", "weight", "nonlinearity", "equal", "source"}, with
    source "reference-table" within the published range, else "computed".
    Equality is reported, never asserted: it is only confirmed through n = 9,
    everything beyond is informational.
    """
    if not 3 <= n_lo <= n_hi <= MAX_VARS:
        raise ValueError(f"range must lie in 3..{MAX_VARS}, got {n_lo}..{n_hi}")
    rows = []
    lo, hi = F3_REFERENCE_NL_RANGE
    for n in range(n_lo, n_hi + 1):
        tab = family_table("f3", n)
        w = weight(tab)
        nl = nonlinearity(tab)
        rows.append({"n": n, "weight": w, "nonlinearity": nl, "equal": w == nl,
                     "source": "reference-table" if lo <= n <= hi else "computed"})
    return rows
