"""Span tracing of one rotsym CLI invocation, from outside the package.

The tracer wraps public rotsym functions and methods; each call records a
span {id, name, start, end, parent, invocation} plus counts made at that
boundary.  Spans are kept in memory and written out when the command ends.
rotsym's cli and theory modules bind functions such as walsh_transform and
build_f3 by name at import, so a function is patched in every loaded rotsym
module that holds it, not only where it is defined.

Run as a script to trace one invocation:

    PYTHONPATH=src python3 perfbench/bench_trace.py SPANS.json ID <rotsym args>

stdout, stderr and the exit code are the command's own.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

MIB = float(1 << 20)

# span name -> per-layer metric that collects the span's self time
SELF_TIME_METRIC = {
    "cli.main": "cli.self_s",
    "theory.conjecture_check": "theory.self_s",
    "builders.build_f2": "builders.build_s",
    "builders.build_f3": "builders.build_s",
    "core.walsh_transform": "core.walsh_s",
    "core.to_array": "core.unpack_s",
    "core.pc_profile": "core.pc_s",
    "core.write_csv": "core.csv_s",
    "core.max_abs": "core.criteria_s",
    "core.nonlinearity": "core.criteria_s",
    "core.is_bent": "core.criteria_s",
    "core.is_semi_bent_spectral": "core.criteria_s",
    "core.anf_to_truth_table": "core.anf_s",
    "core.to_text": "core.text_io_s",
}

# per-layer metrics computed from one traced invocation, with their units
SPAN_METRICS = {
    "core.walsh_s": "s",
    "core.walsh_calls": "count",
    "core.walsh_adds": "count",
    "core.walsh_bytes": "B-computed",
    "core.walsh_peak_mb": "MiB",
    "core.unpack_s": "s",
    "core.pc_s": "s",
    "core.csv_s": "s",
    "core.csv_bytes": "B",
    "core.criteria_s": "s",
    "core.anf_s": "s",
    "core.text_io_s": "s",
    "builders.build_s": "s",
    "builders.block_complements": "count",
    "theory.self_s": "s",
    "cli.self_s": "s",
}


class Tracer:
    """Records spans of wrapped calls made by one invocation."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counted=None):
        """Wrap fn in a span; counted(fn, args, kwargs, counts) may replace
        the call to record counts at this boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "invocation": self.invocation, "start": time.perf_counter(),
                    "end": None, "counts": {}}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                if counted is None:
                    return fn(*args, **kwargs)
                return counted(fn, args, kwargs, span["counts"])
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Patch the functions in _FUNCTIONS and four TruthTable and
        WalshSpectrum methods."""
        import rotsym.cli  # noqa: F401  (loads every rotsym module)
        from rotsym.core import TruthTable, WalshSpectrum

        modules = [m for k, m in sys.modules.items()
                   if k == "rotsym" or k.startswith("rotsym.")]
        for span_name, counted in _FUNCTIONS.items():
            module_name, attr = span_name.rsplit(".", 1)
            original = getattr(sys.modules["rotsym." + module_name], attr)
            wrapped = self.wrap(span_name, original, counted)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
        for span_name, (cls, counted) in {
            "core.to_array": (TruthTable, None),
            "core.to_text": (TruthTable, None),
            "core.max_abs": (WalshSpectrum, None),
            "core.write_csv": (WalshSpectrum, _count_csv),
        }.items():
            attr = span_name.rsplit(".", 1)[1]
            setattr(cls, attr, self.wrap(span_name, getattr(cls, attr), counted))


def _count_walsh(fn, args, kwargs, counts):
    # adds and bytes are computed for the plain radix-2 butterfly: n passes,
    # each reading and writing the 2^n int32 values once
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        spec = fn(*args, **kwargs)
        counts["peak_b"] = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    n = spec.n
    counts["adds"] = n << n
    counts["bytes"] = 2 * 4 * (n << n)
    return spec


def _count_csv(fn, args, kwargs, counts):
    fileobj = args[1] if len(args) > 1 else kwargs["fileobj"]
    before = fileobj.tell()
    result = fn(*args, **kwargs)
    counts["bytes"] = fileobj.tell() - before
    return result


def _count_build(fn, args, kwargs, counts):
    from rotsym.builders import OpCounter

    n = args[0] if args else kwargs["n"]
    counter = args[1] if len(args) > 1 else kwargs.get("counter")
    if counter is None:
        counter = OpCounter()
    before = counter.bits_complemented
    table = fn(n, counter)
    counts["block_complements"] = (counter.bits_complemented - before) / 4
    return table


_FUNCTIONS = {
    "cli.main": None,
    "theory.conjecture_check": None,
    "builders.build_f2": _count_build,
    "builders.build_f3": _count_build,
    "core.walsh_transform": _count_walsh,
    "core.pc_profile": None,
    "core.nonlinearity": None,
    "core.is_bent": None,
    "core.is_semi_bent_spectral": None,
    "core.anf_to_truth_table": None,
}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, cursor), min(b, s["end"])
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """The SPAN_METRICS of one invocation's spans."""
    out = {name: 0.0 for name in SPAN_METRICS}
    for sid, t in self_times(spans).items():
        metric = SELF_TIME_METRIC.get(spans[sid]["name"])
        if metric is not None:
            out[metric] += t
    peak = 0
    for s in spans:
        counts = s["counts"]
        if s["name"] == "core.walsh_transform":
            out["core.walsh_calls"] += 1
            out["core.walsh_adds"] += counts["adds"]
            out["core.walsh_bytes"] += counts["bytes"]
            peak = max(peak, counts["peak_b"])
        elif s["name"] == "core.write_csv":
            out["core.csv_bytes"] += counts["bytes"]
        elif s["name"].startswith("builders.build_"):
            out["builders.block_complements"] += counts["block_complements"]
    out["core.walsh_peak_mb"] = peak / MIB
    return out


def median_metrics(per_invocation: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_invocation)
            for name in SPAN_METRICS}


def main(argv: list[str]) -> int:
    spans_path, invocation, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(invocation)
    tracer.install()
    import rotsym.cli

    try:
        return rotsym.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
