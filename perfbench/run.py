"""rotsym benchmark: real CLI invocations, checked, timed and traced.

Usage, from the root of a rotsym checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs one rotsym command as a fresh subprocess, one at a time in
a closed loop from this process, for S seconds.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced invocations with traced
ones (perfbench/bench_trace.py) and reports the per-layer metrics and the
tracing overhead.  Workload inputs are fixed families; the seed is recorded
but changes nothing.  See perfbench/README.md.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 2, with no result, when the directory is not a
rotsym checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bench_checks as checks
import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

SETUP_SAMPLES = 9        # no-op invocations per run, for setup_s
REF_N = 21               # size of the compute reference, the frozen butterfly
REF_GAP_S = 1.0          # one compute reference per second of workload time
REF_COMPUTE_S = 0.1      # scale of wall_norm_s and cpu_norm_s, ~ compute reference
REF_START_S = 0.2        # scale of setup_s, ~ start reference
IMPORT_SAMPLES = 5       # pairs of bare / importing interpreters, for cli.import_s
SELF_CHECK_N = 24        # largest n whose spectrum is exact in float32
INVOCATION_TIMEOUT_S = 150
MIB = float(1 << 20)

END_TO_END = {"wall_norm_s": "s", "cpu_norm_s": "s", "peak_rss_mb": "MiB",
              "setup_s": "s"}
RAW = {"wall_s": "s", "cpu_s": "s", "setup_raw_s": "s",
       "ref_compute_s": "s", "ref_start_s": "s"}
PER_LAYER = {**bench_trace.SPAN_METRICS, "cli.import_s": "s",
             "trace.overhead_s": "s"}

SETUP_ARGS = ("gf", "f2", "--upto", "0")
START_REF_CMD = [sys.executable, "-c", "import numpy"]
CSV_FILE = "spectrum.csv"
TABLE_FILE = "table.tt"


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]      # rotsym arguments; {work} is the work directory
    files: tuple[str, ...]     # files the command writes into {work}
    why: str


WORKLOADS = {
    "spectrum-26": Workload(
        ("analyze", "f3", "--n", "26", "--max-n", "26", "--format", "json"), (),
        "largest table: the transform dominates, 1.3 GB peak RSS; integer"
        " side of the n <= 24 float32-exactness boundary"),
    "scan-3-24": Workload(
        ("conjecture", "--n", "3..24", "--max-n", "24", "--format", "json"), (),
        "22 tables of every size: ANF and fast-builder dispatch, theory layer,"
        " per-call cost of many small transforms"),
    "pc-export-20": Workload(
        ("analyze", "f2", "--n", "20", "--pc", "--spectrum-csv",
         "{work}/" + CSV_FILE, "--format", "json"), (CSV_FILE,),
        "small transforms (three calls); time goes to CSV export,"
        " autocorrelation and setup"),
    "build-26": Workload(
        ("build", "f3", "--n", "26", "--max-n", "26", "--out",
         "{work}/" + TABLE_FILE), (TABLE_FILE,),
        "no spectrum: builders and the table text writer only"),
}


def independent_checks(name: str, stdout: bytes, files: dict[str, bytes],
                       expected_table) -> list[str]:
    """What each workload's output must say, recomputed without rotsym's
    own answers (see bench_checks)."""
    if name in ("spectrum-26", "scan-3-24"):
        return checks.check_weights(stdout, checks.wt_f3)
    if name == "pc-export-20":
        return (checks.check_weights(stdout, checks.wt_f2)
                + checks.check_spectrum_csv(files[CSV_FILE], 20, checks.wt_f2(20)))
    if name == "build-26":
        return checks.check_table_text(files[TABLE_FILE], expected_table)
    return []


# ---------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------

@dataclass
class Invocation:
    kind: str     # "warmup", "setup", "start-ref", "bare", "import", "work"
                  # or "traced"
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    problems: list[str]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """Client of bench_spawn.py, which starts every measured command."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "bench_spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def run(self, cmd: list[str]) -> dict:
        req = {"cmd": cmd, "stdout": str(WORK / "stdout"),
               "stderr": str(WORK / "stderr"), "env": child_env(),
               "cwd": str(ROOT), "timeout": INVOCATION_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        """Let the launcher finish its command and exit; kill it if it hangs."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=INVOCATION_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs and checks invocations; keeps every record of one run."""

    def __init__(self, launcher: Launcher, golden: dict, expected_table):
        self.launcher = launcher
        self.golden = golden
        self.expected_table = expected_table
        self.records: list[Invocation] = []
        self.layer_samples: list[dict[str, float]] = []
        self.spans: list[dict] = []

    def run(self, kind: str, cmd: list[str], workload: str | None = None,
            golden_key: str | None = None) -> Invocation:
        for f in (WORKLOADS[workload].files if workload else ()):
            (WORK / f).unlink(missing_ok=True)
        spans_path = WORK / "spans.json"
        spans_path.unlink(missing_ok=True)
        reply = self.launcher.run(cmd)
        code = reply["exit_code"]
        problems = [] if code == 0 else [f"exit code {code}"]
        if golden_key is not None:
            problems += self._check_outputs(workload, golden_key)
        if kind == "traced" and not problems:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            self.spans.extend(spans)
            self.layer_samples.append(bench_trace.span_metrics(spans))
        rec = Invocation(kind, reply["wall_s"], reply["cpu_s"],
                         reply["maxrss_kb"] * 1024 / MIB, code, problems)
        self.records.append(rec)
        return rec

    def _check_outputs(self, workload: str | None, golden_key: str) -> list[str]:
        stdout = (WORK / "stdout").read_bytes()
        want = self.golden.get(golden_key, {})
        problems = checks.check_golden("stdout", want.get("stdout"), stdout)
        if workload is None:
            return problems
        files = {}
        for f in WORKLOADS[workload].files:
            path = WORK / f
            if not path.is_file():
                problems.append(f"{f}: not written")
                continue
            files[f] = path.read_bytes()
            problems += checks.check_golden(f, want.get(f), files[f])
        if len(files) == len(WORKLOADS[workload].files):
            problems += independent_checks(workload, stdout, files,
                                           self.expected_table)
        return problems

    def rotsym(self, kind: str, args: tuple[str, ...], workload: str | None,
               traced_id: int | None = None) -> Invocation:
        args = [a.format(work=WORK) for a in args]
        if traced_id is None:
            cmd = [sys.executable, "-m", "rotsym.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "bench_trace.py"),
                   str(WORK / "spans.json"), str(traced_id), *args]
        key = workload if workload is not None else "setup"
        return self.run(kind, cmd, workload, key)

    def failures(self) -> int:
        return sum(1 for r in self.records if r.problems)


class ComputeReference:
    """A fixed numpy task that uses no rotsym code: the frozen butterfly of
    bench_checks over 2^REF_N int32 values, run in this process."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.bits = int.from_bytes(rng.bytes((1 << REF_N) // 8), "little")
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def run(self, record: bool = True) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        checks.frozen_walsh(self.bits, REF_N)
        if record:
            self.wall.append(time.perf_counter() - w0)
            self.cpu.append(time.process_time() - c0)


def closed_loop(seconds: float, step, done, between=None) -> None:
    """Call step() until the next call would take the steps' total time
    past the window and done() holds; at least once.  between(progress),
    if given, runs after each step, outside the counted time."""
    spent, cycles = 0.0, []
    while True:
        c0 = time.perf_counter()
        step()
        cycles.append(time.perf_counter() - c0)
        spent += cycles[-1]
        if between is not None:
            between(spent / seconds)
        if done() and spent + statistics.median(cycles) > seconds:
            return


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cache_sizes() -> dict[str, int | None]:
    """L2 and L3 sizes in bytes from sysfs; None where not reported."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    sizes: dict[str, int | None] = {"L2": None, "L3": None}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = "L" + (index / "level").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in sizes:
            scale = units.get(text[-1], 1)
            sizes[level] = int(text[:-1] if scale > 1 else text) * scale
    return sizes


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rotsym").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in threads},
        "cache_bytes": _cache_sizes(),
        "spectrum_bytes_n26": 4 << 26,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    units: dict[str, str] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)   # printed, not declared
    notes: list[str] = field(default_factory=list)


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) >= 1000:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def measure(name: str, seconds: int, trace: bool, runner: Runner) -> Result:
    wl = WORKLOADS[name]
    res = Result()
    runner.rotsym("warmup", SETUP_ARGS, None)
    if not trace:
        ref = ComputeReference()
        ref.run(record=False)
        ref.run()
        setup: list[float] = []
        start: list[float] = []
        gap = [0.0]

        def sample_setup(progress: float) -> None:
            # spread the no-op samples over the window, not in one burst;
            # each follows a start reference
            while len(setup) < min(SETUP_SAMPLES, round(SETUP_SAMPLES * progress)):
                start.append(runner.run("start-ref", START_REF_CMD).wall_s)
                setup.append(runner.rotsym("setup", SETUP_ARGS, None).wall_s)

        def between(progress: float) -> None:
            gap[0] += runner.records[-1].wall_s
            while gap[0] >= REF_GAP_S:
                ref.run()
                gap[0] -= REF_GAP_S
            sample_setup(progress)

        closed_loop(seconds, lambda: runner.rotsym("work", wl.args, name),
                    lambda: True, between)
        sample_setup(1.0)
        ref.run()
        work = [r for r in runner.records if r.kind == "work"]
        walls = [r.wall_s for r in work]
        raw = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r.cpu_s for r in work),
            "setup_raw_s": statistics.median(setup),
            "ref_compute_s": statistics.median(ref.wall),
            "ref_start_s": statistics.median(start),
        }
        res.metrics = {
            "wall_norm_s": raw["wall_s"] * REF_COMPUTE_S / raw["ref_compute_s"],
            "cpu_norm_s": raw["cpu_s"] * REF_COMPUTE_S / statistics.median(ref.cpu),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in work),
            "setup_s": raw["setup_raw_s"] * REF_START_S / raw["ref_start_s"],
        }
        res.units = END_TO_END
        res.raw = raw
        res.notes.append(f"samples: {len(walls)} workload, {len(setup)} no-op,"
                         f" {len(ref.wall)} compute reference,"
                         f" {len(start)} start reference")
        p = tail(walls)
        if p is not None:
            res.notes.append(f"wall_p{p[0]}_s {p[1]:.6f} s (not normalized)")
        return res

    bare, imported = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(runner.run("bare", [sys.executable, "-c", "pass"]).wall_s)
        imported.append(runner.run(
            "import", [sys.executable, "-c", "import rotsym.cli"]).wall_s)
    turn = [0]

    def step():
        kind = ("work", "traced")[turn[0] % 2]
        traced_id = turn[0] // 2 if kind == "traced" else None
        runner.rotsym(kind, wl.args, name, traced_id)
        turn[0] += 1

    closed_loop(seconds, step, lambda: turn[0] >= 2)
    untraced = [r.wall_s for r in runner.records if r.kind == "work"]
    traced = [r.wall_s for r in runner.records if r.kind == "traced"]
    if runner.layer_samples:
        res.metrics = bench_trace.median_metrics(runner.layer_samples)
    else:
        res.metrics = {m: 0.0 for m in bench_trace.SPAN_METRICS}
    res.metrics["cli.import_s"] = statistics.median(imported) - statistics.median(bare)
    res.metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    res.units = PER_LAYER
    res.notes.append(f"traced invocations {len(traced)}, untraced {len(untraced)}")
    return res


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rotsym" / "cli.py").is_file():
        print(f"error: {SRC / 'rotsym' / 'cli.py'} not found; run from the root"
              " of a rotsym checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rotsym
    from rotsym import build_f3

    if Path(rotsym.__file__).resolve().parent != (SRC / "rotsym").resolve():
        print(f"error: imported rotsym from {rotsym.__file__}", file=sys.stderr)
        return 2

    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    env = environment()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    launcher = Launcher()
    try:
        self_check = checks.spectrum_self_check(SELF_CHECK_N)
        expected = build_f3(26) if args.workload == "build-26" else None
        runner = Runner(launcher, golden, expected)
        res = measure(args.workload, args.seconds, bool(args.trace), runner)
    finally:
        launcher.close()
        shutil.rmtree(WORK, ignore_errors=True)

    problems = self_check + [f"{r.kind}: {p}" for r in runner.records
                             for p in r.problems]
    attempted = len(runner.records) + 1      # the self-check counts as one
    failed = runner.failures() + (1 if self_check else 0)
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "metrics": res.metrics,
        "units": res.units, "raw": res.raw, "notes": res.notes, "problems": problems,
        "invocations": [r.__dict__ for r in runner.records],
        "spans": runner.spans,
    }, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f" ({WORKLOADS[args.workload].why})")
    print("env " + json.dumps(env, sort_keys=True))
    for p in problems[:20]:
        print(f"problem {p}")
    for name, value in res.metrics.items():
        print(f"{name} {value:.6g} {res.units[name]}")
    for name, value in res.raw.items():
        print(f"{name} {value:.6g} {RAW[name]} (not normalized)")
    print(f"fail_frac {failed / attempted:.6g} fraction ({failed} of {attempted} failed)")
    for note in res.notes:
        print(f"note {note}")
    print(f"result file {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": res.units[k]}
                    for k, v in res.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
