"""Output checks for the rotsym benchmark.

Every workload invocation is checked twice: its stdout and output files are
compared byte for byte with the digests in golden.json, and independent
checks recompute what the output must say (weights from the recurrence or the
closed form, Parseval's identity for an exported spectrum, the built table
parsed back against a fresh build).  A check returns a list of problems; an
empty list means the output is correct.

The weight formulas and the plain butterfly below are frozen copies, kept
here so that later changes to rotsym cannot move the reference.
"""

from __future__ import annotations

import hashlib
import io
import json
import warnings

import numpy as np


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def wt_f3(n: int) -> int:
    """Degree-3 weight: wt = 2*(wt(n-2) + wt(n-3)) + 2^(n-3) from 1, 4, 6."""
    w = {3: 1, 4: 4, 5: 6}
    for s in range(6, n + 1):
        w[s] = 2 * (w[s - 2] + w[s - 3]) + (1 << (s - 3))
    return w[n]


def wt_f2(n: int) -> int:
    """Degree-2 weight: 2^(n-1), minus 2^(n/2) for even n (n >= 4)."""
    return (1 << (n - 1)) - (0 if n % 2 else 1 << (n // 2))


def check_golden(name: str, want: str | None, data: bytes) -> list[str]:
    """Byte-identity with the digest in golden.json (captured at fdbbe78)."""
    if want is None:
        return [f"{name}: no golden digest"]
    got = sha256(data)
    return [] if got == want else [f"{name}: sha256 {got[:12]} != golden {want[:12]}"]


def check_weights(stdout: bytes, weight_of) -> list[str]:
    """Each JSON row's weight equals weight_of(n).

    Accepts the analyze layout (a list of rows) and the conjecture layout
    (an object with a "rows" list).
    """
    try:
        doc = json.loads(stdout)
        rows = doc["rows"] if isinstance(doc, dict) else doc
        pairs = [(int(r["n"]), int(r["weight"])) for r in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"stdout: not the expected JSON ({exc})"]
    if not pairs:
        return ["stdout: no rows"]
    return [f"stdout: weight {w} at n={n}, expected {weight_of(n)}"
            for n, w in pairs if w != weight_of(n)]


def check_spectrum_csv(data: bytes, n: int, weight: int) -> list[str]:
    """Header w,value; rows w = 0..2^n-1; sum W^2 = 4^n; W(0) = 2^n - 2 wt."""
    header, _, body = data.partition(b"\n")
    if header != b"w,value":
        return [f"csv: header {header[:40]!r}"]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty body fails the shape check
            rows = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=np.int64,
                              ndmin=2)
    except ValueError as exc:
        return [f"csv: unparsable ({str(exc)[:80]})"]
    size = 1 << n
    if rows.shape != (size, 2):
        return [f"csv: shape {rows.shape}, expected ({size}, 2)"]
    problems = []
    if not np.array_equal(rows[:, 0], np.arange(size)):
        problems.append("csv: w column is not 0..2^n-1")
    values = rows[:, 1]
    if int(np.sum(values * values)) != 1 << (2 * n):
        problems.append("csv: Parseval sum != 4^n")
    if int(values[0]) != size - 2 * weight:
        problems.append(f"csv: W(0) = {int(values[0])}, expected {size - 2 * weight}")
    return problems


def check_table_text(data: bytes, expected) -> list[str]:
    """The written table parses back to the expected TruthTable."""
    from rotsym import TruthTable

    try:
        table = TruthTable.from_text(data.decode("ascii"))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        return [f"table: unparsable ({str(exc)[:80]})"]
    return [] if table == expected else ["table: differs from build_f3"]


# ---------------------------------------------------------------------------
# spectrum self-check against a frozen butterfly
# ---------------------------------------------------------------------------

def frozen_walsh(bits: int, n: int) -> np.ndarray:
    """The plain integer butterfly as rotsym shipped it first (n*2^n adds)."""
    size = 1 << n
    raw = np.frombuffer(bits.to_bytes(max(1, size // 8), "little"), dtype=np.uint8)
    v = 1 - 2 * np.unpackbits(raw, bitorder="little", count=size).astype(np.int32)
    h = 1
    while h < size:
        v = v.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        v[:, :h] = left + v[:, h:]
        v[:, h:] = left - v[:, h:]
        h *= 2
    return v.reshape(size)


def spectrum_self_check(n: int = 24) -> list[str]:
    """walsh_transform(build_f3(n)) equals the frozen butterfly bit for bit."""
    from rotsym import build_f3, walsh_transform

    table = build_f3(n)
    got = walsh_transform(table).values
    want = frozen_walsh(table.bits, n)
    if got.dtype == want.dtype and np.array_equal(got, want):
        return []
    return [f"self-check: walsh_transform(build_f3({n})) differs from the"
            f" frozen butterfly (dtype {got.dtype})"]
