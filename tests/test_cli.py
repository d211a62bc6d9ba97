import hashlib
import json
import os
import stat
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import rotsym.builders
import rotsym.cli
import rotsym.core
import rotsym.theory
from rotsym import TruthTable
from rotsym.cli import main

from oracles import zeros_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_f2_n5(capsys):
    code, out, err = run(capsys, "build", "f2", "--n", "5")
    assert code == 0
    assert out == "n=5\n121d47b7\n"
    assert "block-complements: 2" in err


def test_build_f3_below_fast_path_uses_oracle(capsys):
    code, out, err = run(capsys, "build", "f3", "--n", "6")
    assert code == 0
    assert "block-complements" not in err  # no fast build ran
    table = TruthTable.from_text(out)
    assert table.weight() == 18


# Starts one command and prints its exit code and ru_maxrss (KiB).  On Linux
# a child's ru_maxrss starts at the resident size of the process that forked
# it, so the command is started from this small process, not from pytest.
_MAXRSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss(*argv) -> int:
    """Peak resident bytes of one `python -m rotsym.cli` run."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", _MAXRSS_LAUNCHER,
         sys.executable, "-m", "rotsym.cli", *argv],
        capture_output=True, text=True, check=True).stdout
    code, kib = map(int, out.split())
    assert code == 0, argv
    return kib << 10


# the no-ops the memory tests measure from: `gf` loads no numpy, and the
# smallest analyze loads numpy and core, as every table or spectrum does
NOOP = ("gf", "f2", "--upto", "0")
NUMPY_NOOP = ("analyze", "f3", "--n", "3")


@pytest.mark.parametrize("selector, table", [
    (("f3",), False), (("t",), False),
    (("monomial", "--generator", "1,13,26"), True),
    (("orbit", "--generator", "1,2,4"), True)],
    ids=("f3", "t", "monomial", "orbit"))
def test_build_26_peak_rss_over_startup_is_a_few_tables(tmp_path, selector,
                                                         table):
    # f3 and t are written from their doublings' pieces without numpy: a
    # few 16 KiB base pieces and one segment's hex, no table; a monomial's or
    # an orbit's byte buffer is the table (an orbit's ANF is transformed in
    # it), and the text writer holds it and one hex slice
    n = 26
    build = _peak_rss("build", *selector, "--n", str(n), "--max-n", str(n),
                      "--out", str(tmp_path / "F"))
    noop = _peak_rss(*(NUMPY_NOOP if table else NOOP))
    assert build - noop <= ((1 << n) // 8 + (4 << 20) if table else 2 << 20)


def test_build_26_table_matches_benchmark_digest(tmp_path, capsys):
    # the benchmark's build-26 table, checked here so that a slip in the
    # streamed pieces fails in the unit tests first
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    digest = json.loads(golden.read_text())["build-26"]["table.tt"]
    path = tmp_path / "table.tt"
    assert run(capsys, "build", "f3", "--n", "26", "--max-n", "26", "--out",
               str(path)) == (0, "", "block-complements: 5242877\n")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 64.0 KiB"),
     "error: out of memory (Unable to allocate 64.0 KiB)\n"),
    (OSError(28, "No space left on device"),
     "error: [Errno 28] No space left on device\n"),
], ids=("memory", "disk"))
def test_fault_inside_the_build_stream_leaves_no_file(tmp_path, capsys,
                                                      monkeypatch, exc, message):
    # n = 23 streams f3's first segment as pieces past its base; the fault
    # comes after some of them are written
    written = []
    real = rotsym.builders._pieces

    def fails_midway(segment, form):
        for piece in real(segment, form):
            if len(written) == 5:
                raise exc
            written.append(piece)
            yield piece

    monkeypatch.setattr(rotsym.builders, "_pieces", fails_midway)
    path = tmp_path / "F"
    assert run(capsys, "build", "f3", "--n", "23", "--max-n", "23", "--out",
               str(path)) == (1, "", message)
    assert len(written) == 5
    assert list(tmp_path.iterdir()) == []


def test_build_t_n4(capsys):
    code, out, _ = run(capsys, "build", "t", "--n", "4")
    assert code == 0
    t = TruthTable.from_text(out)
    assert t.n == 4 and t.weight() == 6  # wt(t_4)


def test_build_monomial_and_orbit(capsys):
    code, out, _ = run(capsys, "build", "monomial", "--n", "4",
                       "--generator", "3,4")
    assert code == 0
    assert TruthTable.from_text(out).to_hex() == "1111"
    code, out, _ = run(capsys, "build", "orbit", "--n", "5",
                       "--generator", "1,2")
    assert code == 0
    assert TruthTable.from_text(out).to_hex() == "121d47b7"


def test_build_usage_errors(capsys):
    assert run(capsys, "build", "f2", "--n", "5..9")[0] == 1
    assert run(capsys, "build", "f2", "--n", "2")[0] == 1
    assert run(capsys, "build", "f2", "--n", "abc")[0] == 1
    assert run(capsys, "build", "nope", "--n", "5")[0] == 1
    assert run(capsys, "build", "f2")[0] == 1
    assert run(capsys, "build", "monomial", "--n", "5")[0] == 1  # no generator
    assert run(capsys, "build", "f2", "--n", "25")[0] == 1      # above cap
    assert run(capsys, "nonsense")[0] == 1


def test_build_above_default_cap_with_flag(capsys):
    code, out, _ = run(capsys, "build", "f2", "--n", "21", "--max-n", "21")
    assert code == 0
    assert TruthTable.from_text(out).n == 21


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_f3_26_peak_rss_over_startup_is_a_few_mib():
    # f3's whole row comes from its transfer matrices: a few MiB of matrix
    # products and one panel, and neither the 8 MiB table nor a 2^n buffer
    n = 26
    analyze = _peak_rss("analyze", "f3", "--n", str(n), "--max-n", str(n))
    noop = _peak_rss(*NUMPY_NOOP)
    assert analyze - noop <= 8 << 20


@pytest.mark.parametrize("selector", [
    ("t",), ("orbit", "--generator", "1,2,4")], ids=("t", "orbit"))
def test_analyze_t_26_peak_rss_over_startup_is_an_int16_spectrum(selector):
    # t and orbit build their table and take walsh_summary, whose int16
    # store is the peak
    n = 26
    analyze = _peak_rss("analyze", *selector, "--n", str(n), "--max-n", str(n))
    noop = _peak_rss(*NUMPY_NOOP)
    assert analyze - noop <= 2 * (1 << n) + (1 << n) // 8 + (16 << 20)


def test_analyze_pc_csv_22_peak_rss_over_startup_is_the_spectrum_and_an_eighth(
        tmp_path):
    # --pc and --spectrum-csv store the int32 spectrum, 4*2^n bytes; every
    # W of f2 is a multiple of 2^(n-12), so pc_profile adds its float32
    # buffer of a quarter of the values, 2^n bytes (an eighth of a
    # full-size float64 buffer), and the CSV writer a few blocks; the
    # float64 buffer would add 2^n bytes more
    n = 22
    analyze = _peak_rss("analyze", "f2", "--n", str(n), "--max-n", str(n),
                        "--pc", "--spectrum-csv", str(tmp_path / "F"))
    noop = _peak_rss(*NUMPY_NOOP)
    assert analyze - noop <= 5 * (1 << n) + (1 << n) // 8 + (4 << 20)


def test_analyze_f3_n9(capsys):
    code, out, _ = run(capsys, "analyze", "f3", "--n", "9")
    assert code == 0
    assert "n=9 weight=172 nonlinearity=172 balanced=false" in out


@pytest.mark.parametrize("selector", ["f2", "f3"])
def test_analyze_f2_f3_build_a_table_only_for_its_bytes(capsys, monkeypatch,
                                                        selector):
    expected = run(capsys, "analyze", selector, "--n", "3..12")
    assert expected[0] == 0

    def no_table(*args, **kwargs):
        raise AssertionError("family_table called")

    monkeypatch.setattr(rotsym.cli, "family_table", no_table)
    assert run(capsys, "analyze", selector, "--n", "3..12") == expected

    # --pc reads the table's bytes: one table per n
    built = []

    def counted(selector, n, *args):
        built.append(n)
        return rotsym.theory.family_table(selector, n, *args)

    monkeypatch.setattr(rotsym.cli, "family_table", counted)
    assert run(capsys, "analyze", selector, "--n", "3..12", "--pc")[0] == 0
    assert built == list(range(3, 13))


def test_analyze_f2_pc(capsys):
    code, out, _ = run(capsys, "analyze", "f2", "--n", "7", "--pc")
    assert code == 0
    assert "semibent=true" in out
    assert "pc-satisfied-through: 6" in out


def test_analyze_zero_function_from_file(tmp_path, capsys):
    path = tmp_path / "zero.tt"
    path.write_text(zeros_table(4).to_text())
    code, out, _ = run(capsys, "analyze", "--from-file", str(path))
    assert code == 0
    assert "weight=0 nonlinearity=0" in out


def test_analyze_csv_schema(capsys):
    code, out, _ = run(capsys, "analyze", "f2", "--n", "5..7",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,weight,nonlinearity,balanced,bent,semibent"
    assert lines[1] == "5,16,12,true,false,true"
    assert len(lines) == 4


def test_analyze_json_mirrors_csv(capsys):
    code, out, _ = run(capsys, "analyze", "f2", "--n", "6", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"n": 6, "weight": 24, "nonlinearity": 24,
                     "balanced": False, "bent": False, "semibent": False}]


def test_analyze_round_trip_matches_selector(tmp_path, capsys):
    table_file = tmp_path / "f2_7.tt"
    code, _, _ = run(capsys, "build", "f2", "--n", "7", "--out",
                     str(table_file))
    assert code == 0
    code, from_file, _ = run(capsys, "analyze", "--from-file",
                             str(table_file), "--format", "csv")
    assert code == 0
    code, direct, _ = run(capsys, "analyze", "f2", "--n", "7",
                          "--format", "csv")
    assert code == 0
    assert from_file == direct


def test_analyze_deterministic(capsys):
    a = run(capsys, "analyze", "f3", "--n", "7..9", "--format", "json")
    b = run(capsys, "analyze", "f3", "--n", "7..9", "--format", "json")
    assert a == b


def test_analyze_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "bad.tt"
    path.write_text("n=4\nzz\n")
    code, _, err = run(capsys, "analyze", "--from-file", str(path))
    assert code == 1
    assert "zz" in err


def test_analyze_signed_hex_line_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "bad.tt"
    path.write_text("n=4\n-abc\n")
    code, out, err = run(capsys, "analyze", "--from-file", str(path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: bad hex line")


def test_analyze_spectrum_csv(tmp_path, capsys):
    spec_file = tmp_path / "spec.csv"
    code, _, _ = run(capsys, "analyze", "t", "--n", "4",
                     "--spectrum-csv", str(spec_file))
    assert code == 0
    lines = spec_file.read_text().strip().split("\n")
    assert lines[0] == "w,value"
    assert len(lines) == 17
    assert all(abs(int(ln.split(",")[1])) == 4 for ln in lines[1:])


def test_analyze_needs_selector_or_file(capsys):
    assert run(capsys, "analyze", "--n", "5")[0] == 1


def test_analyze_pc_from_file_at_n21(tmp_path, capsys):
    # every derivative of the zero function is constant, so no direction of
    # any weight is balanced
    path = tmp_path / "n21.tt"
    path.write_text("n=21\n" + "0" * (1 << 19) + "\n")
    code, out, err = run(capsys, "analyze", "--from-file", str(path), "--pc")
    assert (code, err) == (0, "")
    detail = " ".join(f"{w}:0/{comb(21, w)}" for w in range(1, 22))
    assert out.splitlines()[1] == (
        f"  pc-satisfied-through: 0  profile: {detail}")


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 2.00 KiB"),
     "error: out of memory (Unable to allocate 2.00 KiB)\n"),
    (MemoryError(), "error: out of memory\n"),
])
@pytest.mark.parametrize("selector, patched", [
    ("f2", "orbit_summary"),  # the transfer matrices, every row
    ("f3", "orbit_summary"),  # the transfer matrices, the bounded rows
    ("t", "walsh_summary"),   # the table's own spectrum
])
def test_out_of_memory_is_one_line_exit_1(capsys, monkeypatch, exc, message,
                                          selector, patched):
    def no_memory(*args):
        raise exc

    monkeypatch.setattr(rotsym.core, patched, no_memory)
    assert run(capsys, "analyze", selector, "--n", "9") == (1, "", message)


def test_failed_transform_leaves_no_spectrum_csv(tmp_path, capsys, monkeypatch):
    # the transforms run for the row, the pc profile and then the CSV
    calls = []
    real = rotsym.core.walsh_transform

    def third_call_fails(table):
        calls.append(table.n)
        if len(calls) == 3:
            raise MemoryError("Unable to allocate 2.00 KiB")
        return real(table)

    monkeypatch.setattr(rotsym.core, "walsh_transform", third_call_fails)
    path = tmp_path / "spec.csv"
    assert run(capsys, "analyze", "f2", "--n", "9", "--pc", "--spectrum-csv",
               str(path)) == (1, "", "error: out of memory"
                              " (Unable to allocate 2.00 KiB)\n")
    assert len(calls) == 3
    assert not path.exists()


@pytest.mark.parametrize("n, csv", [(16, False), (17, True)],
                         ids=("int16-summary", "int32-transform"))
def test_fault_inside_the_kernel_is_one_line_exit_1(tmp_path, capsys,
                                                    monkeypatch, n, csv):
    # the first pass-2 GEMM (lo > 0) raises in the middle of the panel
    # stream; at n = 16 walsh_transform's one chunk holds every value and
    # has no pass 2, so the spectrum's case runs at n = 17
    raised = []
    real = rotsym.core._gemm_bits

    def pass_2_fails(src, spare, lo, hi):
        if lo > 0 and not raised:
            raised.append(lo)
            raise MemoryError("Unable to allocate 2.00 KiB")
        return real(src, spare, lo, hi)

    monkeypatch.setattr(rotsym.core, "_gemm_bits", pass_2_fails)
    path = tmp_path / "spec.csv"
    args = ["analyze", "t", "--n", str(n), "--max-n", str(n)]
    args += ["--spectrum-csv", str(path)] if csv else []
    assert run(capsys, *args) == (1, "", "error: out of memory"
                                  " (Unable to allocate 2.00 KiB)\n")
    assert raised == [14 if n == 16 else 16]  # the chunk's bits are done
    assert not path.exists()


def test_pc_export_20_spectrum_csv_matches_benchmark_digest(tmp_path, capsys):
    # the benchmark's pc-export-20 CSV, checked here so that a formatting
    # slip fails in the unit tests first
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    digest = json.loads(golden.read_text())["pc-export-20"]["spectrum.csv"]
    path = tmp_path / "spectrum.csv"
    assert run(capsys, "analyze", "f2", "--n", "20", "--pc", "--spectrum-csv",
               str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_failed_csv_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    def header_then_fail(self, fileobj):
        fileobj.write("w,value\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(rotsym.core.WalshSpectrum, "write_csv", header_then_fail)
    assert run(capsys, "analyze", "t", "--n", "5", "--spectrum-csv",
               str(tmp_path / "t.csv")) == (
        1, "", "error: [Errno 28] No space left on device\n")
    assert list(tmp_path.iterdir()) == []


def test_out_error_names_the_requested_path(tmp_path, capsys):
    # the write goes through a temp file, but the message is about --out
    out = tmp_path / "dir"
    out.mkdir()
    assert run(capsys, "build", "f2", "--n", "5", "--out", str(out)) == (
        1, "", f"error: [Errno 21] Is a directory: '{out}'\n")
    assert list(tmp_path.iterdir()) == [out]
    assert list(out.iterdir()) == []


def test_out_file_is_replaced_whole(tmp_path, capsys):
    path = tmp_path / "f2.tt"
    path.write_text("stale\n")
    assert run(capsys, "build", "f2", "--n", "5", "--out", str(path))[0] == 0
    assert path.read_text() == "n=5\n121d47b7\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("flag", ["--out", "--spectrum-csv"])
def test_output_writes_through_a_symlink(tmp_path, capsys, flag):
    target = tmp_path / "target"
    target.write_text("stale\n")
    link = tmp_path / "link"
    link.symlink_to(target)
    assert run(capsys, "analyze", "t", "--n", "3", flag, str(link))[0] == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text().startswith("w,value\n" if flag == "--spectrum-csv"
                                         else "n=3 weight=2 ")
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_out_writes_into_a_fifo(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # a non-blocking reader lets the writer open the FIFO without a thread
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(capsys, "build", "f2", "--n", "5", "--out", str(fifo))[0] == 0
        assert os.read(reader, 4096) == b"n=5\n121d47b7\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_tables_match(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert "all cells match the reference tables" in out


def test_tables_csv(capsys):
    code, out, _ = run(capsys, "tables", "--format", "csv")
    assert code == 0
    w_block, nl_block = out.strip().split("\n\n")
    w_lines = w_block.split("\n")
    assert w_lines[0] == "n,weight,h1,h2,h3,h4"
    assert w_lines[1] == "3,1,,,,"
    assert "11,760,336,180,108,136" in w_lines
    nl_lines = nl_block.split("\n")
    assert nl_lines[0] == "n,nonlinearity"
    assert "4,4" in nl_lines


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["mismatches"] == []
    row12 = [r for r in doc["weights"] if r["n"] == 12][0]
    assert row12 == {"n": 12, "weight": 1576, "h1": 712, "h2": 376,
                     "h3": 220, "h4": 268}


def test_tables_component_sums(capsys):
    code, out, _ = run(capsys, "tables", "--format", "json")
    assert code == 0
    for row in json.loads(out)["weights"]:
        if "h4" in row:
            assert row["h1"] + row["h2"] + row["h3"] + row["h4"] == row["weight"]


def test_tables_mismatch_exits_2(capsys, monkeypatch):
    import rotsym.cli as cli_mod
    from rotsym.refdata import load_reference_tables as real

    def corrupted():
        ref = real()
        ref["f3_weights"][8]["weight"] = 1
        ref["f3_weights"][9]["h2"] = 0
        ref["f3_nonlinearity"][4] = 999
        return ref

    expected = ["mismatch: weights n=8 column weight: computed 80, reference 1",
                "mismatch: weights n=9 column h2: computed 40, reference 0",
                "mismatch: nonlinearity n=4: computed 4, reference 999"]
    clean = {fmt: run(capsys, "tables", "--format", fmt)[1]
             for fmt in ("csv", "json")}
    monkeypatch.setattr(cli_mod, "load_reference_tables", corrupted)
    # text: the mismatch lines end the report on stdout
    code, out, err = run(capsys, "tables")
    assert code == 2
    assert out.endswith("\n\n" + "\n".join(expected) + "\n")
    assert "all cells match" not in out and err == ""
    # csv and json: the data stay on stdout, the mismatch lines go to stderr
    code, out, err = run(capsys, "tables", "--format", "csv")
    assert (code, out, err.splitlines()) == (2, clean["csv"], expected)
    code, out, err = run(capsys, "tables", "--format", "json")
    assert (code, err.splitlines()) == (2, expected)
    doc = json.loads(out)
    assert doc == {**json.loads(clean["json"]), "match": False,
                   "mismatches": expected}


def test_tables_builds_each_n_once(capsys, monkeypatch):
    import rotsym.theory

    built = []
    real = rotsym.theory.family_table

    def counting(selector, n, *args, **kwargs):
        built.append((selector, n))
        return real(selector, n, *args, **kwargs)

    for module in (rotsym.theory, rotsym.cli):
        monkeypatch.setattr(module, "family_table", counting)
    assert run(capsys, "tables")[0] == 0
    assert built == [("f3", n) for n in range(3, 13)]


# ---------------------------------------------------------------------------
# conjecture
# ---------------------------------------------------------------------------

def test_conjecture_published_range(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "3..9")
    assert code == 0
    assert "conjecture holds on [3, 9]" in out
    assert "n=9 weight=172 nonlinearity=172 equal=true" in out


def test_conjecture_single(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "3..3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,weight,nonlinearity,equal,source"
    assert lines[1] == "3,1,1,true,reference-table"


def test_conjecture_beyond_published_range(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "10..11",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["source"] for r in doc["rows"]] == ["computed", "computed"]
    assert doc["rows"][0]["weight"] == 360


def test_conjecture_range_errors(capsys):
    assert run(capsys, "conjecture", "--n", "2..9")[0] == 1
    assert run(capsys, "conjecture", "--n", "3..25")[0] == 1  # above cap


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_f2(capsys):
    code, out, _ = run(capsys, "bench", "f2", "--n", "5..10")
    assert code == 0
    assert "n=10 naive-ops=14848 measured-blocks=126 claimed-blocks=126" \
        " match=true" in out
    assert "n=5" in out and "measured-blocks=2" in out


def test_bench_f3_reports_discrepancy_verbatim(capsys):
    code, out, _ = run(capsys, "bench", "f3", "--n", "12..12")
    assert code == 0
    assert "measured-blocks=317" in out
    assert "claimed-blocks=1396" in out
    assert "match=false" in out
    assert "claimed degree-3 count is the complemented bits (4 per block)" \
        " plus 2^(n-5), reported verbatim, not adjusted" in out


def test_bench_csv_has_no_timings(capsys):
    code, out, _ = run(capsys, "bench", "f2", "--n", "5..6", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,naive_ops,measured_blocks,claimed_blocks,match"
    assert lines[1] == "5,224,2,2,true"  # (3n-1)/2 * 2^n = 7 * 32


def test_bench_deterministic_csv(capsys):
    a = run(capsys, "bench", "f3", "--n", "8..10", "--format", "csv")
    b = run(capsys, "bench", "f3", "--n", "8..10", "--format", "csv")
    assert a == b


def test_bench_usage(capsys):
    assert run(capsys, "bench", "f2", "--n", "4..6")[0] == 1   # below fast path
    assert run(capsys, "bench", "f3", "--n", "8..25")[0] == 1  # above cap
    assert run(capsys, "bench", "t", "--n", "5")[0] == 1       # f2/f3 only


# ---------------------------------------------------------------------------
# gf
# ---------------------------------------------------------------------------

def test_gf_f3(capsys):
    code, out, _ = run(capsys, "gf", "f3", "--upto", "12")
    assert code == 0
    assert "z^11: 760" in out
    assert "z^12: 1576" in out
    assert "coefficients match computed weights on 3..12" in out


def test_gf_f2(capsys):
    code, out, _ = run(capsys, "gf", "f2", "--upto", "8")
    assert code == 0
    for k, c in ((5, 16), (6, 24), (7, 64), (8, 112)):
        assert f"z^{k}: {c}" in out


def test_gf_f2_low_degrees_all_zero(capsys):
    code, out, _ = run(capsys, "gf", "f2", "--upto", "4")
    assert code == 0
    for k in range(5):
        assert f"z^{k}: 0" in out


def test_gf_csv(capsys):
    code, out, _ = run(capsys, "gf", "f3", "--upto", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "degree,coefficient,weight,agree"
    assert lines[1] == "0,0,,"
    assert lines[4] == "3,1,1,true"


def test_gf_degree_cap(capsys):
    assert run(capsys, "gf", "f3", "--upto", "65")[0] == 1
    assert run(capsys, "gf", "t", "--upto", "3")[0] == 1  # f2/f3 only
