import json

import pytest

import rotsym.cli
import rotsym.core
from rotsym import TruthTable
from rotsym.cli import main


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

def test_analyze_f3_n9(capsys):
    code, out, _ = run(capsys, "analyze", "f3", "--n", "9")
    assert code == 0
    assert "n=9 weight=172 nonlinearity=172 balanced=false" in out


def test_analyze_f2_pc(capsys):
    code, out, _ = run(capsys, "analyze", "f2", "--n", "7", "--pc")
    assert code == 0
    assert "semibent=true" in out
    assert "pc-satisfied-through: 6" in out


def test_analyze_zero_function_from_file(tmp_path, capsys):
    path = tmp_path / "zero.tt"
    path.write_text(TruthTable.zeros(4).to_text())
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


def test_analyze_pc_above_cap_fails_before_any_transform(tmp_path, capsys,
                                                         monkeypatch):
    def no_transform(table):
        raise AssertionError(f"transform ran at n={table.n}")

    monkeypatch.setattr(rotsym.cli, "walsh_transform", no_transform)
    monkeypatch.setattr(rotsym.core, "walsh_transform", no_transform)
    cap_message = "error: pc_profile capped at n <= 20\n"
    assert run(capsys, "analyze", "f2", "--n", "19..21", "--pc",
               "--max-n", "21") == (1, "", cap_message)
    path = tmp_path / "n21.tt"
    path.write_text("n=21\n" + "0" * (1 << 19) + "\n")
    assert run(capsys, "analyze", "--from-file", str(path),
               "--pc") == (1, "", cap_message)


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 2.00 KiB"),
     "error: out of memory (Unable to allocate 2.00 KiB)\n"),
    (MemoryError(), "error: out of memory\n"),
])
def test_out_of_memory_is_one_line_exit_1(capsys, monkeypatch, exc, message):
    def no_memory(table):
        raise exc

    monkeypatch.setattr(rotsym.cli, "walsh_transform", no_memory)
    assert run(capsys, "analyze", "f2", "--n", "9") == (1, "", message)


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

    def corrupted():
        from rotsym.refdata import load_reference_tables as real
        ref = real()
        ref["f3_nonlinearity"][4] = 999
        return ref

    monkeypatch.setattr(cli_mod, "load_reference_tables", corrupted)
    code, out, _ = run(capsys, "tables")
    assert code == 2
    assert "mismatch: nonlinearity n=4: computed 4, reference 999" in out


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
    assert "reported verbatim, not adjusted" in out


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
