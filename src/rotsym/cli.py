"""Command-line driver: build, analyze, tables, conjecture, bench, gf.

Exit codes: 0 success, 1 usage error, 2 verification mismatch.  All csv/json
output is deterministic for a fixed invocation; wall-clock timings appear
only in bench's text output.

numpy loads with the first TruthTable or spectrum a command makes, never at
import: `gf`, and `build` of f2, f3 (from builders.FAST_MIN_N) and t, write
their output without it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
import time
from collections.abc import Sequence
from typing import TYPE_CHECKING

# Each GEMM but core._products' last step (2^19 multiply-adds for f3 at n = 25,
# 26) stays within core._GEMM_MACS, on the calling thread: OpenBLAS's pool would
# idle.  Set before any command can import core, and with it numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .builders import (  # noqa: E402
    FAST_MIN_N,
    MAX_VARS,
    OpCounter,
    f2_block_complements,
    f3_block_complements_claimed,
    f3_component,
    write_text,
)
from .refdata import load_reference_tables, weight_table_columns  # noqa: E402
from .theory import (  # noqa: E402
    FAMILY_GENERATORS,
    builtin_gfs,
    conjecture_check,
    family_pieces,
    family_table,
    gf_series,
    wt_f2_closed,
    wt_f3_recurrence,
)

if TYPE_CHECKING:
    from .core import WalshSummary

DEFAULT_MAX_N = 20
BENCH_MAX_N = 24
GF_MAX_DEGREE = 64

SELECTORS = ("f2", "f3", "t", "monomial", "orbit")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


def _parse_n_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"bad n range {text!r} (expected N or LO..HI)") from None
    if lo > hi:
        raise UsageError(f"bad n range {text!r} (lo > hi)")
    return lo, hi


def _parse_generator(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"bad generator {text!r} (expected e.g. 1,2,3)") from None


def _check_range(args: argparse.Namespace, cap: int) -> None:
    if not 3 <= args.n_lo <= args.n_hi <= MAX_VARS:
        raise UsageError(f"n must lie in 3..{MAX_VARS}, got {args.n_lo}..{args.n_hi}")
    limit = min(max(args.max_n or 0, DEFAULT_MAX_N), MAX_VARS)
    if args.n_hi > min(cap, limit):
        raise UsageError(
            f"n={args.n_hi} above the cap {min(cap, limit)}"
            + ("" if limit >= cap else " (raise with --max-n)"))


@contextlib.contextmanager
def _replace_file(path: str):
    """Write through a sibling temp file that replaces path only on success.

    The temp file is removed on any exception, so a regular or new file at
    path never holds partial output.  Plain open keeps the file mode under
    the umask.  Any other path (a symlink, a device such as /dev/stdout, a
    FIFO) is opened and written directly, so it keeps its type.
    """
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            # name the file that was asked for, not the temp file
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _opened(out: str | None):
    """The text file a command's output goes to: stdout, or --out's file."""
    return contextlib.nullcontext(sys.stdout) if out is None else _replace_file(out)


def _emit(text: str, out: str | None) -> None:
    with _opened(out) as fh:
        fh.write(text)


def _output(args: argparse.Namespace, csv_text: str, json_doc,
            text_lines: list[str], errors: Sequence[str] = ()) -> None:
    """Emit one command's result in its --format.

    The text format ends with the error lines; csv and json leave them out
    of the data and print them to stderr after it.
    """
    if args.format == "text":
        _emit("\n".join([*text_lines, *errors]) + "\n", args.out)
        return
    _emit(csv_text if args.format == "csv"
          else json.dumps(json_doc, indent=2) + "\n", args.out)
    for line in errors:
        print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def cmd_build(args: argparse.Namespace) -> int:
    if args.n_lo != args.n_hi:
        raise UsageError("build takes a single n, not a range")
    _check_range(args, MAX_VARS)
    counter = OpCounter()
    pieces = family_pieces(args.selector, args.n_lo, args.generator, counter)
    with _opened(args.out) as fh:
        write_text(fh, args.n_lo, pieces)  # the whole hex text is never one str
    if counter.bits_complemented:  # only the fast builders charge
        print(f"block-complements: {counter.block_complements}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _analyze_one(summary: WalshSummary) -> dict:
    """The report row of every route, read from one WalshSummary."""
    return {
        "n": summary.n,
        "weight": summary.weight(),
        "nonlinearity": summary.nonlinearity(),
        "balanced": summary.w0 == 0,
        "bent": summary.is_bent(),
        "semibent": summary.semi_bent,
    }


_ANALYZE_COLS = ("n", "weight", "nonlinearity", "balanced", "bent", "semibent")


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _kv_line(row: dict) -> str:
    """A row as one text line of key=value cells."""
    return " ".join(f"{k}={_fmt_cell(v)}" for k, v in row.items())


def _rows_to_csv(cols, rows) -> str:
    """CSV with a header line; a cell missing from a row is left empty."""
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(_fmt_cell(r.get(c, "")) for c in cols))
    return "\n".join(lines) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    from .core import (
        TruthTable,
        orbit_summary,
        pc_profile,
        walsh_summary,
        walsh_transform,
    )

    rows = []
    lines = []
    spectrum = args.pc or args.spectrum_csv is not None
    if args.from_file is not None:
        if args.selector or args.n or args.generator:
            raise UsageError("--from-file takes no selector, --n or --generator")
        if args.max_n is not None:
            raise UsageError("--from-file takes no --max-n: the file fixes n")
        if args.from_file == "-":
            text = sys.stdin.read()
        else:
            with open(args.from_file, encoding="utf-8") as fh:
                text = fh.read()
        tables = [TruthTable.from_text(text)]
    else:
        if args.selector is None:
            raise UsageError("analyze needs a selector or --from-file")
        _check_range(args, MAX_VARS)
        if args.spectrum_csv is not None and args.n_lo != args.n_hi:
            raise UsageError("--spectrum-csv needs a single n")
        ns = range(args.n_lo, args.n_hi + 1)
        tables = (family_table(args.selector, n, args.generator) for n in ns)
    if args.selector in FAMILY_GENERATORS and not spectrum:
        # the transfer matrices give the whole row: no table is built
        gen = FAMILY_GENERATORS[args.selector]
        items = ((orbit_summary(gen, n), None) for n in ns)
    else:  # the row, pc_profile and the CSV take one transform each, the three
        # test_traced_invocation_counts pins (CHANGES.md FOUND; ROADMAP item 3)
        items = ((walsh_transform(t).summary() if spectrum
                  else walsh_summary(t), t) for t in tables)

    for summary, table in items:
        row = _analyze_one(summary)
        rows.append(row)
        lines.append(_kv_line(row))
        if args.pc:
            profile = pc_profile(table)
            through = 0
            for w in range(1, table.n + 1):
                sat, tot = profile[w]
                if sat == tot:
                    through = w
                else:
                    break
            detail = " ".join(f"{w}:{s}/{t}" for w, (s, t) in profile.items())
            lines.append(f"  pc-satisfied-through: {through}  profile: {detail}")
        if args.spectrum_csv is not None:
            spec = walsh_transform(table)  # before the file exists
            with _replace_file(args.spectrum_csv) as fh:
                spec.write_csv(fh)

    _output(args, _rows_to_csv(_ANALYZE_COLS, rows), rows, lines)
    return 0


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _computed_rows() -> tuple[list[dict], list[dict]]:
    """Degree-3 weight rows for n = 3..12 and nonlinearity rows for the
    published range, from one conjecture scan.  Segment h_k sits at level
    n - min(k, 3); its cell is filled where f3_component builds it (>= 4)."""
    w_rows, nl_rows = [], []
    for scan in conjecture_check(3, 12):
        n = scan["n"]
        row = {"n": n, "weight": scan["weight"]}
        for k in (1, 2, 3, 4):
            level = n - min(k, 3)
            if level >= 4:
                row[f"h{k}"] = f3_component(k, level).weight()
        w_rows.append(row)
        if scan["source"] == "reference-table":
            nl_rows.append({"n": n, "nonlinearity": scan["nonlinearity"]})
    return w_rows, nl_rows


def cmd_tables(args: argparse.Namespace) -> int:
    ref = load_reference_tables()
    w_rows, nl_rows = _computed_rows()

    mismatches = []
    for row in w_rows:
        expected = ref["f3_weights"][row["n"]]
        for col in weight_table_columns():
            got = row.get(col)
            want = expected.get(col)
            if got != want:
                mismatches.append(
                    f"mismatch: weights n={row['n']} column {col}:"
                    f" computed {got}, reference {want}")
    for row in nl_rows:
        want = ref["f3_nonlinearity"][row["n"]]
        if row["nonlinearity"] != want:
            mismatches.append(
                f"mismatch: nonlinearity n={row['n']}:"
                f" computed {row['nonlinearity']}, reference {want}")

    lines = ["degree-3 weight table (computed)",
             "  n  weight     h1     h2     h3     h4"]
    for row in w_rows:
        cells = [f"{row['n']:3d}", f"{row['weight']:7d}"]
        for c in ("h1", "h2", "h3", "h4"):
            cells.append(f"{row[c]:6d}" if c in row else "     -")
        lines.append(" ".join(cells))
    lines += ["", "degree-3 nonlinearity table (computed)", "  n  N"]
    for row in nl_rows:
        lines.append(f"{row['n']:3d}  {row['nonlinearity']}")
    lines.append("")
    if not mismatches:
        lines.append("all cells match the reference tables")

    _output(args,
            _rows_to_csv(("n",) + weight_table_columns(), w_rows) + "\n"
            + _rows_to_csv(("n", "nonlinearity"), nl_rows),
            {"weights": w_rows, "nonlinearity": nl_rows,
             "match": not mismatches, "mismatches": mismatches},
            lines, mismatches)
    return 2 if mismatches else 0


# ---------------------------------------------------------------------------
# conjecture
# ---------------------------------------------------------------------------

def cmd_conjecture(args: argparse.Namespace) -> int:
    _check_range(args, MAX_VARS)
    rows = conjecture_check(args.n_lo, args.n_hi)
    first_bad = next((r["n"] for r in rows if not r["equal"]), None)
    lines = [_kv_line(r) for r in rows]
    lines.append(f"conjecture holds on [{args.n_lo}, {args.n_hi}]"
                 if first_bad is None else f"first counterexample at n={first_bad}")
    _output(args,
            _rows_to_csv(("n", "weight", "nonlinearity", "equal", "source"), rows),
            {"rows": rows, "range": [args.n_lo, args.n_hi],
             "holds": first_bad is None, "first_counterexample": first_bad},
            lines)
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(args: argparse.Namespace) -> int:
    fast_min = FAST_MIN_N[args.selector]
    if args.n_lo < fast_min:
        raise UsageError(f"bench {args.selector} needs n >= {fast_min}")
    _check_range(args, BENCH_MAX_N)

    rows = []
    for n in range(args.n_lo, args.n_hi + 1):
        counter = OpCounter()
        t0 = time.perf_counter()
        family_table(args.selector, n, counter=counter)
        t_fast = time.perf_counter() - t0
        claimed = (f2_block_complements(n) if args.selector == "f2"
                   else f3_block_complements_claimed(n))
        measured = counter.block_complements
        rows.append({
            "n": n,
            "naive_ops": (3 * n - 1) * (1 << (n - 1)),
            "measured_blocks": measured,
            "claimed_blocks": claimed,
            "match": measured == claimed,
            "t_fast_s": t_fast,
        })

    cols = ("n", "naive_ops", "measured_blocks", "claimed_blocks", "match")
    lines = [f"n={r['n']} naive-ops={r['naive_ops']}"
             f" measured-blocks={r['measured_blocks']}"
             f" claimed-blocks={r['claimed_blocks']}"
             f" match={_fmt_cell(r['match'])}"
             f" fast={r['t_fast_s']:.6f}s"
             for r in rows]
    if any(not r["match"] for r in rows):
        lines.append(
            "note: measured counts are complemented 4-bit blocks; the"
            " claimed degree-3 count is the complemented bits (4 per block)"
            " plus 2^(n-5), reported verbatim, not adjusted")
    _output(args, _rows_to_csv(cols, rows),
            [{k: r[k] for k in cols} for r in rows], lines)
    return 0


# ---------------------------------------------------------------------------
# gf
# ---------------------------------------------------------------------------

def cmd_gf(args: argparse.Namespace) -> int:
    if not 0 <= args.upto <= GF_MAX_DEGREE:
        raise UsageError(f"--upto must lie in 0..{GF_MAX_DEGREE}")
    f2_gf, f3_gf = builtin_gfs()
    # checked from where each published series starts, z^5 for f2 and z^3
    # for f3: wt_f2_closed holds from n = 4, but the f2 series has 0 at z^4
    gf, wt_from, weight_at = ((f2_gf, 5, wt_f2_closed) if args.selector == "f2"
                              else (f3_gf, 3, wt_f3_recurrence))

    rows = []
    lines = []
    for k, c in enumerate(gf_series(*gf, args.upto)):
        row: dict = {"degree": k, "coefficient": c}
        note = ""
        if k >= wt_from:
            w = weight_at(k)
            row["weight"] = w
            row["agree"] = (w == c)
            note = f"  (weight {w}, {'agree' if w == c else 'DISAGREE'})"
        rows.append(row)
        lines.append(f"z^{k}: {c}{note}")
    agree_all = all(r.get("agree", True) for r in rows)
    if args.upto >= wt_from:
        lines.append(f"coefficients {'match' if agree_all else 'DO NOT match'}"
                     f" computed weights on {wt_from}..{args.upto}")

    _output(args, _rows_to_csv(("degree", "coefficient", "weight", "agree"), rows),
            {"rows": rows, "agree": agree_all}, lines)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="rotsym",
                description="rotation-symmetric Boolean function toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, fmt=True):
        if fmt:
            sp.add_argument("--format", choices=("text", "csv", "json"),
                            default="text")
        sp.add_argument("--out", help="write output to a file instead of stdout")

    sp = sub.add_parser("build", help="write a truth table in the text format")
    sp.add_argument("selector", choices=SELECTORS)
    sp.add_argument("--n", required=True)
    sp.add_argument("--generator", default=(),
                    help="comma-separated variable indices")
    sp.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    add_common(sp, fmt=False)

    sp = sub.add_parser("analyze", help="weight/nonlinearity/bent report")
    sp.add_argument("selector", nargs="?", choices=SELECTORS)
    sp.add_argument("--n")
    sp.add_argument("--generator", default=())
    sp.add_argument("--from-file", help="read a truth-table file ('-' = stdin)")
    sp.add_argument("--pc", action="store_true",
                    help="include the propagation-criterion profile (text)")
    sp.add_argument("--spectrum-csv", help="also write the spectrum as CSV")
    sp.add_argument("--max-n", type=int)
    add_common(sp)

    sp = sub.add_parser("tables",
                        help="recompute the reference tables and verify them")
    add_common(sp)

    sp = sub.add_parser("conjecture",
                        help="weight vs nonlinearity of the degree-3 family")
    sp.add_argument("--n", required=True)
    sp.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    add_common(sp)

    sp = sub.add_parser("bench", help="operation counts and wall times")
    sp.add_argument("selector", choices=("f2", "f3"))
    sp.add_argument("--n", required=True)
    sp.set_defaults(max_n=BENCH_MAX_N)  # no --max-n: _check_range gets the cap
    add_common(sp)

    sp = sub.add_parser("gf", help="generating-function series coefficients")
    sp.add_argument("selector", choices=("f2", "f3"))
    sp.add_argument("--upto", type=int, required=True)
    add_common(sp)

    return p


_DISPATCH = {
    "build": cmd_build,
    "analyze": cmd_analyze,
    "tables": cmd_tables,
    "conjecture": cmd_conjecture,
    "bench": cmd_bench,
    "gf": cmd_gf,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "generator", ()):
            if args.selector in ("f2", "f3", "t"):
                raise UsageError(f"{args.selector} takes no --generator")
            args.generator = _parse_generator(args.generator)
        if getattr(args, "n", None) is not None:
            args.n_lo, args.n_hi = _parse_n_range(args.n)
        elif args.command == "analyze" and args.from_file is None:
            raise UsageError("--n is required")
        return _DISPATCH[args.command](args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy says how much it could not allocate
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
