"""Command-line driver: build, analyze, tables, conjecture, bench, gf.

Exit codes: 0 success, 1 usage error, 2 verification mismatch.  All csv/json
output is deterministic for a fixed invocation; wall-clock timings appear
only in bench's text output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from .builders import (
    OpCounter,
    complement_first_half,
    f2_block_complements,
    f3_block_complements_claimed,
    f3_component,
    hat,
)
from .core import TruthTable, check_pc_vars, pc_profile, walsh_transform
from .refdata import load_reference_tables, weight_table_columns
from .theory import (
    FAMILY_GENERATORS,
    FAST_MIN_N,
    builtin_gfs,
    conjecture_check,
    f2_weight_sequence,
    f3_weight_sequence,
    family_table,
    gf_series,
)

DEFAULT_MAX_N = 20
HARD_MAX_N = 26
BENCH_MAX_N = 24
GF_MAX_DEGREE = 64

SELECTORS = ("f2", "f3", "t", "monomial", "orbit")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


@dataclass
class RunConfig:
    command: str
    selector: str | None = None
    n_lo: int = 0
    n_hi: int = 0
    generator: tuple[int, ...] = field(default_factory=tuple)
    fmt: str = "text"
    out: str | None = None
    from_file: str | None = None
    pc: bool = False
    spectrum_csv: str | None = None
    max_n: int = DEFAULT_MAX_N
    upto: int = 0


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


def _check_range(cfg: RunConfig, cap: int) -> None:
    if not 3 <= cfg.n_lo <= cfg.n_hi <= HARD_MAX_N:
        raise UsageError(f"n must lie in 3..{HARD_MAX_N}, got {cfg.n_lo}..{cfg.n_hi}")
    limit = min(max(cfg.max_n, DEFAULT_MAX_N), HARD_MAX_N)
    if cfg.n_hi > min(cap, limit):
        raise UsageError(
            f"n={cfg.n_hi} above the cap {min(cap, limit)}"
            + ("" if limit >= cap else " (raise with --max-n)"))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def cmd_build(cfg: RunConfig) -> int:
    if cfg.n_lo != cfg.n_hi:
        raise UsageError("build takes a single n, not a range")
    _check_range(cfg, HARD_MAX_N)
    counter = OpCounter()
    table = family_table(cfg.selector, cfg.n_lo, cfg.generator, counter)
    _emit(table.to_text(), cfg.out)
    if cfg.selector in FAST_MIN_N and cfg.n_lo >= FAST_MIN_N[cfg.selector]:
        print(f"block-complements: {counter.block_complements}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _analyze_one(table: TruthTable) -> dict:
    spec = walsh_transform(table)
    return {
        "n": table.n,
        "weight": table.weight(),
        "nonlinearity": spec.nonlinearity(),
        "balanced": table.is_balanced(),
        "bent": spec.is_bent(),
        "semibent": spec.is_semi_bent(),
    }


_ANALYZE_COLS = ("n", "weight", "nonlinearity", "balanced", "bent", "semibent")


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _rows_to_csv(cols, rows) -> str:
    """CSV with a header line; a cell missing from a row is left empty."""
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(_fmt_cell(r.get(c, "")) for c in cols))
    return "\n".join(lines) + "\n"


def _rows_to_json(rows) -> str:
    return json.dumps(rows, indent=2) + "\n"


def cmd_analyze(cfg: RunConfig) -> int:
    rows = []
    pc_lines: dict[int, str] = {}
    if cfg.from_file is not None:
        if cfg.from_file == "-":
            text = sys.stdin.read()
        else:
            with open(cfg.from_file, encoding="utf-8") as fh:
                text = fh.read()
        tables = [TruthTable.from_text(text)]
        n_hi = tables[0].n
    else:
        if cfg.selector is None:
            raise UsageError("analyze needs a selector or --from-file")
        _check_range(cfg, HARD_MAX_N)
        if cfg.spectrum_csv is not None and cfg.n_lo != cfg.n_hi:
            raise UsageError("--spectrum-csv needs a single n")
        tables = (family_table(cfg.selector, n, cfg.generator)
                  for n in range(cfg.n_lo, cfg.n_hi + 1))
        n_hi = cfg.n_hi
    if cfg.pc:
        check_pc_vars(n_hi)  # before any table is built or transformed

    for table in tables:
        rows.append(_analyze_one(table))
        if cfg.pc:
            profile = pc_profile(table)
            through = 0
            for w in range(1, table.n + 1):
                sat, tot = profile[w]
                if sat == tot:
                    through = w
                else:
                    break
            detail = " ".join(f"{w}:{s}/{t}" for w, (s, t) in profile.items())
            pc_lines[table.n] = (f"  pc-satisfied-through: {through}"
                                 f"  profile: {detail}")
        if cfg.spectrum_csv is not None:
            with open(cfg.spectrum_csv, "w", encoding="utf-8") as fh:
                walsh_transform(table).write_csv(fh)

    if cfg.fmt == "csv":
        _emit(_rows_to_csv(_ANALYZE_COLS, rows), cfg.out)
    elif cfg.fmt == "json":
        _emit(_rows_to_json(rows), cfg.out)
    else:
        lines = []
        for r in rows:
            lines.append(" ".join(f"{c}={_fmt_cell(r[c])}" for c in _ANALYZE_COLS))
            if r["n"] in pc_lines:
                lines.append(pc_lines[r["n"]])
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _computed_weight_rows() -> list[dict]:
    """Weight/component rows for n = 3..12, every cell computed."""
    rows = []
    for n in range(3, 13):
        row: dict = {"n": n, "weight": family_table("f3", n).weight()}
        if n >= 5:
            row["h1"] = f3_component(1, n - 1).weight()
        if n >= 6:
            row["h2"] = f3_component(2, n - 2).weight()
        if n >= 7:
            h3 = f3_component(3, n - 3)
            row["h3"] = h3.weight()
            row["h4"] = complement_first_half(hat(h3)).weight()
        rows.append(row)
    return rows


def _computed_nl_rows() -> list[dict]:
    return [{"n": n,
             "nonlinearity": walsh_transform(family_table("f3", n)).nonlinearity()}
            for n in range(3, 10)]


def cmd_tables(cfg: RunConfig) -> int:
    ref = load_reference_tables()
    w_rows = _computed_weight_rows()
    nl_rows = _computed_nl_rows()

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

    if cfg.fmt == "csv":
        _emit(_rows_to_csv(("n",) + weight_table_columns(), w_rows) + "\n"
              + _rows_to_csv(("n", "nonlinearity"), nl_rows), cfg.out)
    elif cfg.fmt == "json":
        _emit(json.dumps({
            "weights": w_rows,
            "nonlinearity": nl_rows,
            "match": not mismatches,
            "mismatches": mismatches,
        }, indent=2) + "\n", cfg.out)
    else:
        lines = ["degree-3 weight table (computed)"]
        lines.append("  n  weight     h1     h2     h3     h4")
        for row in w_rows:
            cells = [f"{row['n']:3d}", f"{row['weight']:7d}"]
            for c in ("h1", "h2", "h3", "h4"):
                cells.append(f"{row[c]:6d}" if c in row else "     -")
            lines.append(" ".join(cells))
        lines.append("")
        lines.append("degree-3 nonlinearity table (computed)")
        lines.append("  n  N")
        for row in nl_rows:
            lines.append(f"{row['n']:3d}  {row['nonlinearity']}")
        lines.append("")
        if mismatches:
            lines.extend(mismatches)
        else:
            lines.append("all cells match the reference tables")
        _emit("\n".join(lines) + "\n", cfg.out)

    if mismatches:
        if cfg.fmt != "text":
            for m in mismatches:
                print(m, file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# conjecture
# ---------------------------------------------------------------------------

def cmd_conjecture(cfg: RunConfig) -> int:
    _check_range(cfg, HARD_MAX_N)
    rows = conjecture_check(cfg.n_lo, cfg.n_hi)
    dicts = [{"n": r.n, "weight": r.weight, "nonlinearity": r.nonlinearity,
              "equal": r.equal, "source": r.source} for r in rows]
    first_bad = next((r.n for r in rows if not r.equal), None)
    if cfg.fmt == "csv":
        _emit(_rows_to_csv(("n", "weight", "nonlinearity", "equal", "source"),
                           dicts), cfg.out)
    elif cfg.fmt == "json":
        _emit(json.dumps({
            "rows": dicts,
            "range": [cfg.n_lo, cfg.n_hi],
            "holds": first_bad is None,
            "first_counterexample": first_bad,
        }, indent=2) + "\n", cfg.out)
    else:
        lines = []
        for r in rows:
            lines.append(f"n={r.n} weight={r.weight} nonlinearity={r.nonlinearity}"
                         f" equal={_fmt_cell(r.equal)} source={r.source}")
        if first_bad is None:
            lines.append(f"conjecture holds on [{cfg.n_lo}, {cfg.n_hi}]")
        else:
            lines.append(f"first counterexample at n={first_bad}")
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(cfg: RunConfig) -> int:
    if cfg.selector not in FAST_MIN_N:
        raise UsageError("bench selector must be f2 or f3")
    fast_min = FAST_MIN_N[cfg.selector]
    if cfg.n_lo < fast_min:
        raise UsageError(f"bench {cfg.selector} needs n >= {fast_min}")
    _check_range(cfg, BENCH_MAX_N)

    rows = []
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        counter = OpCounter()
        t0 = time.perf_counter()
        family_table(cfg.selector, n, counter=counter)
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        family_table("orbit", n, FAMILY_GENERATORS[cfg.selector])
        t_oracle = time.perf_counter() - t0
        claimed = (f2_block_complements(n) if cfg.selector == "f2"
                   else f3_block_complements_claimed(n))
        measured = counter.block_complements
        rows.append({
            "n": n,
            "naive_ops": (3 * n - 1) * (1 << (n - 1)),
            "measured_blocks": measured,
            "claimed_blocks": claimed,
            "match": measured == claimed,
            "t_fast_s": t_fast,
            "t_oracle_s": t_oracle,
        })

    if cfg.fmt == "csv":
        cols = ("n", "naive_ops", "measured_blocks", "claimed_blocks", "match")
        _emit(_rows_to_csv(cols, rows), cfg.out)
    elif cfg.fmt == "json":
        slim = [{k: r[k] for k in
                 ("n", "naive_ops", "measured_blocks", "claimed_blocks", "match")}
                for r in rows]
        _emit(_rows_to_json(slim), cfg.out)
    else:
        lines = []
        for r in rows:
            lines.append(
                f"n={r['n']} naive-ops={r['naive_ops']}"
                f" measured-blocks={r['measured_blocks']}"
                f" claimed-blocks={r['claimed_blocks']}"
                f" match={_fmt_cell(r['match'])}"
                f" fast={r['t_fast_s']:.6f}s oracle={r['t_oracle_s']:.6f}s")
        if any(not r["match"] for r in rows):
            lines.append(
                "note: measured counts are complemented 4-bit blocks; the"
                " claimed formula uses a different (unstated) operation unit"
                " and is reported verbatim, not adjusted")
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


# ---------------------------------------------------------------------------
# gf
# ---------------------------------------------------------------------------

def cmd_gf(cfg: RunConfig) -> int:
    if cfg.selector not in ("f2", "f3"):
        raise UsageError("gf selector must be f2 or f3")
    if not 0 <= cfg.upto <= GF_MAX_DEGREE:
        raise UsageError(f"--upto must lie in 0..{GF_MAX_DEGREE}")
    f2_gf, f3_gf = builtin_gfs()
    gf = f2_gf if cfg.selector == "f2" else f3_gf
    coeffs = gf_series(gf, cfg.upto)
    wt_from = 5 if cfg.selector == "f2" else 3
    weights = None
    if cfg.upto >= wt_from:
        seq = f2_weight_sequence if cfg.selector == "f2" else f3_weight_sequence
        weights = seq(wt_from, cfg.upto)

    rows = []
    for k, c in enumerate(coeffs):
        row: dict = {"degree": k, "coefficient": c}
        if weights is not None and k in weights:
            w = weights.value_at(k)
            row["weight"] = w
            row["agree"] = (w == c)
        rows.append(row)
    agree_all = all(r.get("agree", True) for r in rows)

    if cfg.fmt == "csv":
        _emit(_rows_to_csv(("degree", "coefficient", "weight", "agree"), rows),
              cfg.out)
    elif cfg.fmt == "json":
        _emit(json.dumps({"rows": rows, "agree": agree_all}, indent=2) + "\n",
              cfg.out)
    else:
        lines = []
        for r in rows:
            note = ""
            if "agree" in r:
                note = (f"  (weight {r['weight']},"
                        f" {'agree' if r['agree'] else 'DISAGREE'})")
            lines.append(f"z^{r['degree']}: {r['coefficient']}{note}")
        if cfg.upto >= wt_from:
            lines.append(
                f"coefficients {'match' if agree_all else 'DO NOT match'}"
                f" computed weights on {wt_from}..{cfg.upto}")
        _emit("\n".join(lines) + "\n", cfg.out)
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
    sp.add_argument("--generator", help="comma-separated variable indices")
    sp.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    add_common(sp, fmt=False)

    sp = sub.add_parser("analyze", help="weight/nonlinearity/bent report")
    sp.add_argument("selector", nargs="?", choices=SELECTORS)
    sp.add_argument("--n")
    sp.add_argument("--generator")
    sp.add_argument("--from-file", help="read a truth-table file ('-' = stdin)")
    sp.add_argument("--pc", action="store_true",
                    help="include the propagation-criterion profile (text)")
    sp.add_argument("--spectrum-csv", help="also write the spectrum as CSV")
    sp.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
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
    sp.add_argument("--max-n", type=int, default=BENCH_MAX_N)
    add_common(sp)

    sp = sub.add_parser("gf", help="generating-function series coefficients")
    sp.add_argument("selector", choices=("f2", "f3"))
    sp.add_argument("--upto", type=int, required=True)
    add_common(sp)

    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.fmt = getattr(args, "format", "text")
    cfg.out = getattr(args, "out", None)
    cfg.selector = getattr(args, "selector", None)
    cfg.max_n = getattr(args, "max_n", DEFAULT_MAX_N)
    cfg.pc = getattr(args, "pc", False)
    cfg.from_file = getattr(args, "from_file", None)
    cfg.spectrum_csv = getattr(args, "spectrum_csv", None)
    cfg.upto = getattr(args, "upto", 0)
    gen = getattr(args, "generator", None)
    if gen:
        cfg.generator = _parse_generator(gen)
    n = getattr(args, "n", None)
    if n is not None:
        cfg.n_lo, cfg.n_hi = _parse_n_range(n)
    elif cfg.command in ("build", "conjecture", "bench") or (
            cfg.command == "analyze" and cfg.from_file is None):
        raise UsageError("--n is required")
    return cfg


_DISPATCH = {
    "build": cmd_build,
    "analyze": cmd_analyze,
    "tables": cmd_tables,
    "conjecture": cmd_conjecture,
    "bench": cmd_bench,
    "gf": cmd_gf,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        return _DISPATCH[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
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
