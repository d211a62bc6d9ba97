"""Tests of the benchmark itself: span arithmetic, output checks, names."""

import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import bench_checks  # noqa: E402
import bench_trace  # noqa: E402
import run as bench_run  # noqa: E402

from rotsym import build_f2, build_f3, walsh_transform  # noqa: E402
from rotsym.theory import wt_f2_closed, wt_f3_recurrence  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(sid, name, start, end, parent=None, **counts):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "invocation": 0, "counts": counts}


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "core.to_array", 1.0, 3.0, parent=0),
        span(2, "core.to_array", 2.0, 5.0, parent=0),    # overlaps span 1
        span(3, "core.to_text", 8.0, 12.0, parent=0),    # runs past the parent
        span(4, "core.to_array", 1.5, 2.5, parent=1),    # grandchild
    ]
    t = bench_trace.self_times(spans)
    assert t[0] == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 8.0))
    assert t[1] == pytest.approx(2.0 - 1.0)
    assert t[2] == pytest.approx(3.0)
    assert t[4] == pytest.approx(1.0)


def test_span_metrics_sum_self_times_and_counts():
    spans = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "core.nonlinearity", 1.0, 6.0, parent=0),
        span(2, "core.walsh_transform", 1.0, 5.0, parent=1,
             adds=8 << 8, bytes=64 << 8, peak_b=3 << 20),
        span(3, "core.to_array", 1.0, 2.0, parent=2),
        span(4, "core.max_abs", 5.0, 5.5, parent=1),
        span(5, "builders.build_f3", 6.0, 7.0, parent=0, block_complements=5),
    ]
    m = bench_trace.span_metrics(spans)
    assert set(m) == set(bench_trace.SPAN_METRICS)
    assert m["cli.self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert m["core.criteria_s"] == pytest.approx(0.5 + 0.5)
    assert m["core.walsh_s"] == pytest.approx(3.0)
    assert m["core.unpack_s"] == pytest.approx(1.0)
    assert m["builders.build_s"] == pytest.approx(1.0)
    assert m["core.walsh_calls"] == 1
    assert m["core.walsh_adds"] == 8 << 8
    assert m["core.walsh_peak_mb"] == pytest.approx(3.0)
    assert m["builders.block_complements"] == 5
    assert m["core.pc_s"] == 0.0


def test_traced_invocation_counts(tmp_path):
    spans_path = tmp_path / "spans.json"
    csv_path = tmp_path / "spec.csv"
    args = ["analyze", "f2", "--n", "9", "--pc", "--spectrum-csv", str(csv_path),
            "--format", "json"]
    plain = subprocess.run([sys.executable, "-m", "rotsym.cli", *args],
                           capture_output=True, check=True)
    traced = subprocess.run([sys.executable, str(BENCH_DIR / "bench_trace.py"),
                             str(spans_path), "7", *args],
                            capture_output=True, check=True)
    assert traced.stdout == plain.stdout
    spans = json.loads(spans_path.read_text())
    assert {s["invocation"] for s in spans} == {7}
    m = bench_trace.span_metrics(spans)
    assert m["core.walsh_calls"] == 3          # analyze, pc_profile, CSV
    assert m["core.walsh_adds"] == 3 * (9 << 9)
    assert m["core.csv_bytes"] == csv_path.stat().st_size
    assert m["builders.block_complements"] == (1 << 6) - 2
    assert m["core.pc_s"] > 0 and m["cli.self_s"] > 0


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def spectrum_csv(table) -> bytes:
    buf = io.StringIO()
    walsh_transform(table).write_csv(buf)
    return buf.getvalue().encode()


def test_frozen_formulas_match_theory():
    assert all(bench_checks.wt_f3(n) == wt_f3_recurrence(n) for n in range(3, 40))
    assert all(bench_checks.wt_f2(n) == wt_f2_closed(n) for n in range(4, 40))


def test_spectrum_csv_check_rejects_corruption():
    n = 9
    good = spectrum_csv(build_f2(n))
    wt = bench_checks.wt_f2(n)
    assert bench_checks.check_spectrum_csv(good, n, wt) == []
    lines = good.decode().splitlines()
    w, v = lines[5].split(",")
    bad_value = "\n".join(lines[:5] + [f"{w},{int(v) + 2}"] + lines[6:]) + "\n"
    bad_text = "\n".join(lines[:5] + [f"{w},x"] + lines[6:]) + "\n"
    short = "\n".join(lines[:-1]) + "\n"
    for bad in (bad_value, bad_text, short, "w,value\n"):
        assert bench_checks.check_spectrum_csv(bad.encode(), n, wt), bad[:30]
    assert bench_checks.check_spectrum_csv(good, n, wt + 1)


def test_weight_check_rejects_wrong_weight():
    rows = [{"n": n, "weight": bench_checks.wt_f3(n)} for n in range(3, 12)]
    assert bench_checks.check_weights(json.dumps(rows).encode(),
                                      bench_checks.wt_f3) == []
    rows[4]["weight"] += 1
    assert bench_checks.check_weights(json.dumps({"rows": rows}).encode(),
                                      bench_checks.wt_f3)
    assert bench_checks.check_weights(b"not json", bench_checks.wt_f3)


def test_table_check_and_self_check():
    table = build_f3(9)
    assert bench_checks.check_table_text(table.to_text().encode(), table) == []
    assert bench_checks.check_table_text(build_f3(10).to_text().encode(), table)
    assert bench_checks.check_table_text(b"n=9\nzz\n", table)
    assert bench_checks.spectrum_self_check(12) == []


class ReplayLauncher:
    """Stands in for bench_spawn: writes canned outputs, reports success."""

    def __init__(self, work: Path, stdout: bytes, files: dict[str, bytes]):
        self.work, self.stdout, self.files = work, stdout, files

    def run(self, cmd):
        (self.work / "stdout").write_bytes(self.stdout)
        for name, data in self.files.items():
            (self.work / name).write_bytes(data)
        return {"wall_s": 1.0, "cpu_s": 1.0, "maxrss_kb": 1024, "exit_code": 0}


def test_corrupted_outputs_count_as_failures(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "WORK", tmp_path)
    n = 20
    stdout = json.dumps([{"n": n, "weight": bench_checks.wt_f2(n)}]).encode()
    csv = spectrum_csv(build_f2(n))
    golden = {"pc-export-20": {"stdout": bench_checks.sha256(stdout),
                               "spectrum.csv": bench_checks.sha256(csv)}}
    wl = bench_run.WORKLOADS["pc-export-20"]

    def failures(out, files):
        runner = bench_run.Runner(ReplayLauncher(tmp_path, out, files), golden, None)
        rec = runner.rotsym("work", wl.args, "pc-export-20")
        return runner.failures(), rec.problems

    assert failures(stdout, {"spectrum.csv": csv}) == (0, [])
    bad_csv = csv.replace(b"\n7,", b"\n7,1", 1)
    count, problems = failures(stdout, {"spectrum.csv": bad_csv})
    assert count == 1 and any("Parseval" in p for p in problems)
    wrong = json.dumps([{"n": n, "weight": bench_checks.wt_f2(n) + 2}]).encode()
    count, problems = failures(wrong, {"spectrum.csv": csv})
    assert count == 1 and any("weight" in p for p in problems)
    count, problems = failures(stdout, {})
    assert count == 1 and problems == ["spectrum.csv: not written"]


def test_compute_reference_is_fixed_and_timed():
    a, b = bench_run.ComputeReference(), bench_run.ComputeReference()
    assert a.bits == b.bits and a.bits.bit_length() > (1 << bench_run.REF_N) - 64
    a.run(record=False)
    assert a.wall == [] and a.cpu == []
    a.run()
    assert len(a.wall) == len(a.cpu) == 1 and a.wall[0] > 0


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == bench_run.END_TO_END
    assert declared_layer == bench_run.PER_LAYER
    names = [*declared_e2e, *declared_layer,
             *(w["name"] for w in spec["workloads"])]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    assert {w["name"] for w in spec["workloads"]} == set(bench_run.WORKLOADS)
