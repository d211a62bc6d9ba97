"""Weight and nonlinearity theory for the rotation-symmetric families.

The closed form of the degree-2 weight, the recurrence of the degree-3
weight, rational generating functions for both families, the transfer
matrices of a rotation orbit and the Walsh criteria taken from them
(orbit_summary; W(0) and max|W| alone from orbit_extremes), the one
dispatch from a selector to a table (family_table; builders makes the open
chain t), and the weight-equals-nonlinearity scan for the degree-3 family.
All arithmetic is exact: in integers, or in floats within a stated bound.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .builders import (
    OpCounter,
    _generator,
    build_f2,
    build_f3,
    monomial_table_general,
    t_chain,
)
from .core import (
    _FLOAT_BITS,
    _GEMM_MACS,
    _PANEL,
    MAX_VARS,
    TruthTable,
    WalshSummary,
    _nonlinearity,
    _tally,
    anf_to_truth_table,
)

F3_REFERENCE_NL_RANGE = (3, 9)  # range covered by the published table

# the two rotation-symmetric families: the monomial whose orbit defines each,
# and the least n at which its fast builder applies
FAMILY_GENERATORS = {"f2": (1, 2), "f3": (1, 2, 3)}
FAST_MIN_N = {"f2": 5, "f3": 7}


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


def _transfer(generator: Iterable[int], n: int) -> np.ndarray:
    """The transfer matrices M_0, M_1 of a rotation orbit, as int64 2 x D x D.

    The orbit of the monomial of generator is the cyclic sum over i of one
    local term phi of the L bits x_i..x_(i+L-1), where the window starts
    after the generator's largest cyclic gap, so L is least.  A state is
    L-1 consecutive bits (D = 2^(L-1)), and the L-bit window w (x_i as its
    top bit) steps from state w >> 1 to state w mod D with the sign
    (-1)^(phi(w) + b x_i) in M_b.  For L = 1 both windows step from the one
    state to itself, so its entry is their sum.
    """
    gen = sorted(_generator(generator, n))
    gaps = [(b - a - 1) % n + 1 for a, b in zip(gen, gen[1:] + gen[:1])]
    start = gen[(gaps.index(max(gaps)) + 1) % len(gen)]
    offsets = [(k - start) % n for k in gen]
    span = max(offsets) + 1
    mask = sum(1 << (span - 1 - o) for o in offsets)
    w = np.arange(1 << span)
    d = 1 << (span - 1)
    m = np.zeros((2, d, d), dtype=np.int64)
    for b in (0, 1):
        signs = 1 - 2 * (((w & mask) == mask) ^ (b & (w >> (span - 1))))
        np.add.at(m[b], (w >> 1, w & (d - 1)), signs)
    return m


def _walks(generator: frozenset[int], n: int
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, type, int]:
    """The prefix and suffix products P and S of orbit_summary and
    orbit_extremes, and S_max[t, s] = max over a_lo of |S(a_lo)[t, s]|, in
    the float dtype whose GEMM of P and S is exact, and the bound B it is
    chosen by.

    The products are taken in float32, which is exact: an entry of a
    product of j transfer matrices, and every partial sum forming it, is a
    signed count of at most 2^j walks, and j <= n - n // 2 <= 13 for
    n <= 26 (float32 holds integers to 2^24, so up to n = 48).
    B = sum over s, t of max_a |P[s, t]| max_b |S[t, s]| bounds every
    product and every partial sum of the GEMM, in any summation order, so
    the GEMM runs in float32 when B <= 2^_FLOAT_BITS (2^24); else P and S
    are cast to float64, which is exact to 2^53.  B <= 2^n, because
    max_a |P[s, t]| is at most the number of k-step walks from s to t, and
    the products of these counts sum to the 2^n closed walks of n steps.
    """
    m = _transfer(generator, n).astype(np.float32)
    d = m.shape[1]
    k = n // 2
    # [a_hi, s D + t] = P(a_hi)[s, t] and [s D + t, a_lo] = S(a_lo)[t, s]
    pre = _products(m, k).transpose(1, 0, 2).reshape(-1, d * d)
    suf = _products(m, n - k).transpose(2, 0, 1).reshape(d * d, -1)
    # the largest |entry| of each column of P and row of S (S_max), exact
    suf_max = _max_abs(suf, axis=1)
    bound = int(_max_abs(pre, axis=0).astype(np.int64)
                @ suf_max.astype(np.int64))
    dtype = np.float32 if bound <= 1 << _FLOAT_BITS else np.float64
    return (pre.astype(dtype, copy=False), suf.astype(dtype, copy=False),
            suf_max.astype(dtype, copy=False), dtype, bound)


def _products(m: np.ndarray, j: int) -> np.ndarray:
    """[s, a, t] = (M_(a_1) ... M_(a_j))[s, t] for the 2^j indices a of j
    bits, a_1 the top one, from the 2 x D x D transfer matrices m.

    Each step is one GEMM against [M_0 M_1], which appends a low bit b to
    every a: the rows (s, a) times the columns (b, t) are the rows
    (s, 2a + b) of the next step, so no step moves its result.
    """
    d = m.shape[1]
    right = m.transpose(1, 0, 2).reshape(d, 2 * d)  # [r, b D + t] = M_b[r, t]
    prod = np.eye(d, dtype=m.dtype)
    for _ in range(j):
        prod = prod.reshape(-1, d) @ right
    return prod.reshape(d, -1, d)


def _max_abs(a: np.ndarray, axis=None):
    """max |a| along axis, without an |a| temporary."""
    return np.maximum(a.max(axis=axis), -a.min(axis=axis))


def _row_bounds(pre: np.ndarray, suf_max: np.ndarray) -> np.ndarray:
    """U(a_hi) = sum over s, t of |P(a_hi)[s, t]| S_max[t, s] for every row
    of P, which bounds |W(a_hi, a_lo)| for every a_lo.

    |P| is taken a slice of rows (about _PANEL / 8 values) at a time, so no
    second P-sized array is formed.  Each partial sum is at most _walks's
    bound B, so this is exact in P's dtype.
    """
    rows = max(1, (_PANEL // 8) // pre.shape[1])
    return np.concatenate([np.abs(pre[r:r + rows]) @ suf_max
                           for r in range(0, len(pre), rows)])


def _orbit(generator: Iterable[int], n: int) -> frozenset[int]:
    """The generator of a rotation orbit of n variables, checked."""
    if not 1 <= n <= MAX_VARS:
        raise ValueError(f"variable count must be in 1..{MAX_VARS}, got {n}")
    return _generator(generator, n)


def _panels(pre: np.ndarray, suf: np.ndarray):
    """The GEMM of rows of P against S, a panel at a time.

    Returns (height, gemm): gemm(rows), for at most height indices a_hi,
    is the panel of W(a_hi, a_lo), one row per index, written into one
    reused buffer of about _PANEL values.  Each matmul call is tiled to at
    most _GEMM_MACS multiply-adds.
    """
    dd, cols = suf.shape  # cols = 2^(n-k) <= 2^13: a panel is whole rows
    height = min(len(pre), _PANEL // cols)
    tile = min(cols, max(1, _GEMM_MACS // (height * dd)))
    tiles = suf.reshape(dd, -1, tile).transpose(1, 0, 2)
    panel = np.empty((height, cols), dtype=suf.dtype)

    def gemm(rows: np.ndarray) -> np.ndarray:
        block = panel[:len(rows)]
        np.matmul(pre[rows], tiles,
                  out=block.reshape(len(rows), -1, tile).transpose(1, 0, 2))
        return block

    return height, gemm


def orbit_summary(generator: Iterable[int], n: int) -> WalshSummary:
    """The WalshSummary of the rotation orbit of one monomial, from its
    transfer matrices instead of its table.

    Every value is formed and tallied.  analyze reads an f2/f3 row from
    it only where the semi-bent test needs the count at_amp (W(0) = 0 and
    max|W| = 2^((n+1)/2) at odd n: f2 at odd n); its other rows, conjecture
    and tables read orbit_extremes.  The tests take it as the oracle of
    orbit_extremes.

    With M_b = _transfer(generator, n), every x is one closed walk of n
    steps, so W(a) = tr(M_(a_1) ... M_(a_n)), x_1 and a_1 being the top
    index bits as in the table.  Split a into its top k = n // 2 bits a_hi
    and the n - k others a_lo: with the prefix products
    P(a_hi) = M_(a_1) ... M_(a_k) and suffix products
    S(a_lo) = M_(a_(k+1)) ... M_(a_n), W(a) = sum over s, t of
    P[s, t] S[t, s].  So the spectrum is one GEMM, rows a_hi of
    (2^k x D^2) @ (D^2 x 2^(n-k)), run by _panels in panels of whole rows
    of about _PANEL values, row 0 (which holds W(0)) first; each panel is
    reduced by _tally.

    This is exact: the GEMM runs in float32 when the bound B of _walks is
    at most 2^24, which f2 and f3 meet at every n <= 26 (f3: B = 2^21.86
    at n = 26), and in float64 otherwise (B <= 2^n <= 2^26).  Memory is P
    and S, D^2 (2^k + 2^(n-k)) values of the GEMM dtype, and one panel
    with its rows of P: under 2 MiB at n = 26 for degree 3 (D = 4), and
    no 2^n buffer.  The cost grows as 4^(L-1), so this suits short windows
    such as those of f2 and f3.
    """
    pre, suf, _, _, _ = _walks(_orbit(generator, n), n)
    height, gemm = _panels(pre, suf)
    rows = np.arange(len(pre))
    return WalshSummary._of(n, [_tally(n, gemm(rows[r:r + height]))
                                for r in range(0, len(rows), height)])


def orbit_extremes(generator: Iterable[int], n: int) -> tuple[int, int]:
    """(W(0), max |W|) of the rotation orbit of one monomial: exactly
    orbit_summary's w0 and max_abs, from only the GEMM rows that could
    still hold a larger |W|.

    With P, S and S_max from _walks, the bound of row a_hi,
    U(a_hi) = sum over s, t of |P(a_hi)[s, t]| S_max[t, s], is at least
    |W(a_hi, a_lo)| for every a_lo (the triangle inequality on
    W = sum of P[s, t] S[t, s]).  Row 0 gives W(0) and a first maximum;
    the other rows then run in descending U, a panel at a time, until the
    next U is at most the maximum found so far.  For f3 at n = 24..26 only
    4 rows of 4096..8192 pass; for f2 at n = 25 and 26 none does.

    This is exact.  U is formed in the GEMM's dtype, and each of its
    partial sums is at most B = sum over s, t of max_a |P[s, t]|
    S_max[t, s], the bound by which _walks chose that dtype; so U <= B and
    is an exact integer there, as is every W.  U costs 2^(n//2) 4^(L-1)
    multiply-adds; when no row can be skipped, the rest costs at most
    orbit_summary's GEMM panels, each with one max-abs reduction in place
    of _tally.  Memory is P and S and one panel, as in orbit_summary.
    """
    pre, suf, suf_max, _, _ = _walks(_orbit(generator, n), n)
    height, gemm = _panels(pre, suf)
    first = gemm(np.zeros(1, dtype=np.intp))
    w0, top = int(first[0, 0]), int(_max_abs(first))
    bound = _row_bounds(pre, suf_max)
    rows = np.flatnonzero(bound[1:] > top) + 1
    rows = rows[np.argsort(-bound[rows])]
    for row in range(0, len(rows), height):
        part = rows[row:row + height]
        part = part[bound[part] > top]  # rows run in descending U: a prefix
        if not len(part):
            break
        top = max(top, int(_max_abs(gemm(part))))
    return w0, top


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
    gen = _generator(generator, n)
    return anf_to_truth_table(n, [[(k - 1 + d) % n + 1 for k in gen]
                                  for d in range(n)])


def conjecture_check(n_lo: int, n_hi: int) -> list[dict]:
    """Weight vs nonlinearity of the degree-3 family, one row per n.

    Each row is {"n", "weight", "nonlinearity", "equal", "source"}, with
    source "reference-table" within the published range, else "computed".
    The weight is counted in the built table and the nonlinearity,
    2^(n-1) - max|W|/2, comes from the transfer matrices (max|W| from
    orbit_extremes), so the two sides of each comparison come from
    independent engines.
    Equality is reported, never asserted: it is only confirmed through n = 9,
    everything beyond is informational.
    """
    if not 3 <= n_lo <= n_hi <= MAX_VARS:
        raise ValueError(f"range must lie in 3..{MAX_VARS}, got {n_lo}..{n_hi}")
    rows = []
    lo, hi = F3_REFERENCE_NL_RANGE
    for n in range(n_lo, n_hi + 1):
        w = family_table("f3", n).weight()
        nl = _nonlinearity(n, orbit_extremes(FAMILY_GENERATORS["f3"], n)[1])
        rows.append({"n": n, "weight": w, "nonlinearity": nl, "equal": w == nl,
                     "source": "reference-table" if lo <= n <= hi else "computed"})
    return rows
