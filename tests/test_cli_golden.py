"""Byte-for-byte replay of recorded CLI runs.

Each case in CASES is one command line.  Its exit code, stdout, stderr and
every file it writes are stored in tests/golden/<case>.json and compared
exactly, so a refactor that changes any output byte fails here.  bench's
text format is left out because it prints wall-clock timings.

To record the files again after an intended output change, or to record
new cases without touching the others, name the cases (no name: all):

    PYTHONPATH=src python tests/test_cli_golden.py [NAME...]
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from rotsym.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES: dict[str, dict] = {
    # build: fast builders, the ANF path below them, the other selectors
    "build_f2_n5": {"argv": ["build", "f2", "--n", "5"]},
    "build_f2_n14": {"argv": ["build", "f2", "--n", "14"]},
    "build_f3_n6": {"argv": ["build", "f3", "--n", "6"]},
    "build_f3_n14": {"argv": ["build", "f3", "--n", "14"]},
    "build_t_n8": {"argv": ["build", "t", "--n", "8"]},
    "build_monomial": {"argv": ["build", "monomial", "--n", "6",
                                "--generator", "2,4,5"]},
    "build_monomial_n13": {"argv": ["build", "monomial", "--n", "13",
                                    "--generator", "1,7,13"]},
    "build_t_n13": {"argv": ["build", "t", "--n", "13"]},
    "build_orbit": {"argv": ["build", "orbit", "--n", "7",
                             "--generator", "1,2,4"]},
    # orbit edge cases: degree 1 (parity), terms that cancel in pairs,
    # unsorted and repeated indices past one byte
    "build_orbit_parity": {"argv": ["build", "orbit", "--n", "4",
                                    "--generator", "1"]},
    "build_orbit_cancels": {"argv": ["build", "orbit", "--n", "4",
                                     "--generator", "1,3"]},
    "build_orbit_unsorted_n13": {"argv": ["build", "orbit", "--n", "13",
                                          "--generator", "2,1,1"]},
    "build_out_file": {"argv": ["build", "f3", "--n", "9",
                                "--out", "{tmp}/f3.tt"]},
    "build_out_missing_dir": {"argv": ["build", "f2", "--n", "5",
                                       "--out", "/nonexistent/f2.tt"]},
    "build_monomial_no_generator": {"argv": ["build", "monomial", "--n", "5"]},
    "build_orbit_no_generator": {"argv": ["build", "orbit", "--n", "5"]},
    "build_range": {"argv": ["build", "f2", "--n", "5..9"]},
    "build_above_cap": {"argv": ["build", "f2", "--n", "25"]},
    "build_bad_n": {"argv": ["build", "f2", "--n", "abc"]},
    # analyze: every selector and format
    "analyze_f2_text": {"argv": ["analyze", "f2", "--n", "3..14"]},
    "analyze_f2_csv": {"argv": ["analyze", "f2", "--n", "3..14",
                                "--format", "csv"]},
    "analyze_f2_json": {"argv": ["analyze", "f2", "--n", "3..14",
                                 "--format", "json"]},
    "analyze_f3_text": {"argv": ["analyze", "f3", "--n", "3..14"]},
    "analyze_f3_csv": {"argv": ["analyze", "f3", "--n", "3..14",
                                "--format", "csv"]},
    "analyze_f3_json": {"argv": ["analyze", "f3", "--n", "3..14",
                                 "--format", "json"]},
    "analyze_t_text": {"argv": ["analyze", "t", "--n", "3..12"]},
    "analyze_t_csv": {"argv": ["analyze", "t", "--n", "3..12",
                               "--format", "csv"]},
    "analyze_t_csv_3_18": {"argv": ["analyze", "t", "--n", "3..18",
                                    "--format", "csv"]},
    "analyze_monomial_csv": {"argv": ["analyze", "monomial", "--n", "4..10",
                                      "--generator", "1,3", "--format", "csv"]},
    "analyze_orbit_json": {"argv": ["analyze", "orbit", "--n", "4..10",
                                    "--generator", "1,2,4", "--format", "json"]},
    "analyze_orbit_text": {"argv": ["analyze", "orbit", "--n", "5..9",
                                    "--generator", "1,2,3,4,5"]},
    "analyze_orbit_csv_5_16": {"argv": ["analyze", "orbit", "--n", "5..16",
                                        "--generator", "1,3,5",
                                        "--format", "csv"]},
    # semi-bent rows from walsh_summary (odd n; several int16 chunks at 15, 17)
    "analyze_orbit_semibent_csv": {"argv": ["analyze", "orbit", "--generator",
                                            "1,2", "--n", "3..17",
                                            "--format", "csv"]},
    "analyze_f2_pc":{"argv": ["analyze", "f2", "--n", "3..12", "--pc"]},
    "analyze_f3_pc": {"argv": ["analyze", "f3", "--n", "5..11", "--pc"]},
    "analyze_t_pc_json": {"argv": ["analyze", "t", "--n", "4..8", "--pc",
                                   "--format", "json"]},
    "analyze_pc_spectrum_csv": {"argv": ["analyze", "f2", "--n", "10", "--pc",
                                         "--spectrum-csv", "{tmp}/spec.csv",
                                         "--format", "json"]},
    "analyze_spectrum_csv_t": {"argv": ["analyze", "t", "--n", "5",
                                        "--spectrum-csv", "{tmp}/t.csv"]},
    "analyze_out_file": {"argv": ["analyze", "f3", "--n", "7..9",
                                  "--format", "csv", "--out", "{tmp}/a.csv"]},
    "analyze_stdin": {"argv": ["analyze", "--from-file", "-", "--pc"],
                      "stdin": "n=5\n121d47b7\n"},
    "analyze_stdin_bad_hex": {"argv": ["analyze", "--from-file", "-"],
                              "stdin": "n=4\nzz\n"},
    "analyze_spectrum_csv_range": {"argv": ["analyze", "f2", "--n", "5..6",
                                            "--spectrum-csv", "{tmp}/s.csv"]},
    "analyze_f2_pc_19_21": {"argv": ["analyze", "f2", "--n", "19..21",
                                     "--pc", "--max-n", "21"]},
    # sizes with many panels per spectrum
    "analyze_f3_csv_15_22": {"argv": ["analyze", "f3", "--n", "15..22",
                                      "--max-n", "22", "--format", "csv"]},
    "analyze_f2_csv_15_22": {"argv": ["analyze", "f2", "--n", "15..22",
                                      "--max-n", "22", "--format", "csv"]},
    # the transfer rows above 22; f2 at odd n is the semi-bent case
    "analyze_f3_csv_23_26": {"argv": ["analyze", "f3", "--n", "23..26",
                                      "--max-n", "26", "--format", "csv"]},
    "analyze_f2_csv_23_26": {"argv": ["analyze", "f2", "--n", "23..26",
                                      "--max-n", "26", "--format", "csv"]},
    "analyze_no_selector": {"argv": ["analyze", "--n", "5"]},
    "analyze_no_n": {"argv": ["analyze", "f2"]},
    "analyze_orbit_no_generator": {"argv": ["analyze", "orbit", "--n", "5..7"]},
    "analyze_orbit_bad_generator": {"argv": ["analyze", "orbit", "--n", "5",
                                             "--generator", "1,x"]},
    "analyze_missing_file": {"argv": ["analyze", "--from-file",
                                      "/nonexistent/t.tt"]},
    # a table file fixes the table: no selector, --n, --generator or
    # --max-n beside it
    "analyze_from_file_selector": {"argv": ["analyze", "f3", "--n", "9",
                                            "--from-file", "/nonexistent/f.tt"]},
    "analyze_from_file_n": {"argv": ["analyze", "--from-file", "/nonexistent/f.tt",
                                     "--n", "3..5", "--spectrum-csv",
                                     "{tmp}/s.csv"]},
    "analyze_from_file_generator": {"argv": ["analyze", "--from-file", "-",
                                             "--generator", "1,2"],
                                    "stdin": "n=5\n121d47b7\n"},
    "analyze_from_file_max_n": {"argv": ["analyze", "--from-file", "-",
                                         "--max-n", "3"],
                                "stdin": "n=5\n121d47b7\n"},
    # only monomial and orbit take a generator
    "build_t_generator": {"argv": ["build", "t", "--n", "5", "--generator", "9"]},
    "analyze_f2_generator": {"argv": ["analyze", "f2", "--n", "5",
                                      "--generator", "1,2"]},
    # tables
    "tables_text": {"argv": ["tables"]},
    "tables_csv": {"argv": ["tables", "--format", "csv"]},
    "tables_json": {"argv": ["tables", "--format", "json"]},
    # conjecture
    "conjecture_text": {"argv": ["conjecture", "--n", "3..14"]},
    "conjecture_csv": {"argv": ["conjecture", "--n", "3..14",
                                "--format", "csv"]},
    "conjecture_json": {"argv": ["conjecture", "--n", "3..14",
                                 "--format", "json"]},
    "conjecture_csv_15_22": {"argv": ["conjecture", "--n", "15..22",
                                      "--max-n", "22", "--format", "csv"]},
    "conjecture_csv_23_26": {"argv": ["conjecture", "--n", "23..26",
                                      "--max-n", "26", "--format", "csv"]},
    "conjecture_above_cap": {"argv": ["conjecture", "--n", "3..25"]},
    "conjecture_below_range": {"argv": ["conjecture", "--n", "2..5"]},
    "conjecture_reversed_range": {"argv": ["conjecture", "--n", "5..3"]},
    "conjecture_csv_no_n": {"argv": ["conjecture", "--format", "csv"]},
    # bench (csv/json only: the text format carries wall times)
    "bench_f2_csv": {"argv": ["bench", "f2", "--n", "5..14",
                              "--format", "csv"]},
    "bench_f2_json": {"argv": ["bench", "f2", "--n", "5..14",
                               "--format", "json"]},
    "bench_f3_csv": {"argv": ["bench", "f3", "--n", "7..14",
                              "--format", "csv"]},
    "bench_f3_json": {"argv": ["bench", "f3", "--n", "7..14",
                               "--format", "json"]},
    "bench_f3_below_fast": {"argv": ["bench", "f3", "--n", "6"]},
    "bench_f2_above_cap": {"argv": ["bench", "f2", "--n", "8..25"]},
    "bench_no_max_n": {"argv": ["bench", "f2", "--n", "5", "--max-n", "26"]},
    # gf
    "gf_f2_setup": {"argv": ["gf", "f2", "--upto", "0"]},
    "gf_f2_text": {"argv": ["gf", "f2", "--upto", "20"]},
    "gf_f2_csv": {"argv": ["gf", "f2", "--upto", "20", "--format", "csv"]},
    "gf_f3_text": {"argv": ["gf", "f3", "--upto", "14"]},
    "gf_f3_csv": {"argv": ["gf", "f3", "--upto", "14", "--format", "csv"]},
    "gf_f3_json": {"argv": ["gf", "f3", "--upto", "14", "--format", "json"]},
    "gf_degree_cap": {"argv": ["gf", "f3", "--upto", "65"]},
}


def run_case(case: dict) -> dict:
    """Run one case in-process; return its exit code, streams and files."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{tmp}", tmp) for a in case["argv"]]
        out, err = io.StringIO(), io.StringIO()
        stdin = io.StringIO(case.get("stdin", ""))
        saved_stdin, sys.stdin = sys.stdin, stdin
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            sys.stdin = saved_stdin
        files = {p.name: p.read_text(encoding="utf-8")
                 for p in sorted(Path(tmp).iterdir())}
    return {"argv": case["argv"], "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    recorded = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    got = run_case(CASES[name])
    assert got["argv"] == recorded["argv"]
    assert got["exit"] == recorded["exit"]
    assert got["stdout"] == recorded["stdout"]
    assert got["stderr"] == recorded["stderr"]
    assert got["files"] == recorded["files"]


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown case: {' '.join(unknown)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN_DIR / f"{name}.json").write_text(
            json.dumps(run_case(CASES[name]), indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        print(name)
