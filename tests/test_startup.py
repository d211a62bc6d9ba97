"""Start-up: `import rotsym` is lazy, `gf` and the streamed builds never
load numpy, a command that computes with arrays loads it with one OpenBLAS
thread unless the user chose a count, the CLI does not load fractions and
builds no CSV digit table, no module of the package imports a name it never
uses, no module imports another's `_` name, every exported name has a
caller, every module-level name is read, and README's library example runs.

Each start-up check runs in a fresh interpreter, because numpy reads
OPENBLAS_NUM_THREADS once, when it is first imported.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rotsym

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The names `rotsym/__init__.py` imported eagerly before it became lazy,
# less the deleted `ConjectureRow` and `component_weights_f3`, plus the
# transfer-matrix criteria `orbit_summary`, less the names that only the
# tests used: `repeat`, `nl_lower_bound_fk` and `weight` are deleted, and the
# string operators, the affine tools and the published forms that only the
# tests check moved to tests/oracles.py, as did the bit strings `BitString`
# and `BLOCKS`; `RationalGF` is deleted (`gf_series` takes the two
# coefficient tuples), and so is `family_summary` (`analyze` reads each row
# from one WalshSummary); `AnfPolynomial` and `rots_orbit_anf` are deleted
# (`anf_to_truth_table` takes n and a term list, and `family_table` spells
# an orbit's rotations).  `t_chain`, `family_table` and `orbit_summary` are
# listed where builders and core define them.
EXPORTED = {
    "builders": (
        "OpCounter", "build_f2", "build_f3",
        "f2_block_complements", "f2_component",
        "f3_block_complements_claimed", "f3_component", "family_table",
        "monomial_table_general", "t_chain",
    ),
    "core": (
        "TruthTable", "WalshSpectrum", "WalshSummary",
        "anf_to_truth_table", "is_bent", "is_semi_bent_spectral",
        "nonlinearity", "orbit_summary", "pc_profile", "walsh_summary",
        "walsh_transform",
    ),
    "theory": (
        "builtin_gfs", "conjecture_check", "gf_series",
        "wt_f2_closed", "wt_f3_recurrence",
    ),
}

def _fresh(code: str, *args: str, **env: str) -> dict:
    """Run code in a new interpreter with src on its path; it prints JSON.

    OPENBLAS_NUM_THREADS is removed from the child's environment unless
    given in env.
    """
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(PYTHONPATH=str(SRC), **env)
    out = subprocess.run([sys.executable, "-c", code, *args], env=child_env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


# the state after a command that computes with arrays, and so loads numpy
_CLI_STATE = """
import contextlib, io, json, os, sys
import rotsym.cli
with contextlib.redirect_stdout(io.StringIO()):
    rotsym.cli.main(["analyze", "f3", "--n", "9"])
threads = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as fh:
        threads = next(int(l.split()[1]) for l in fh if l.startswith("Threads:"))
print(json.dumps({"numpy": "numpy" in sys.modules,
                  "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": threads}))
"""


def test_import_rotsym_does_not_load_numpy():
    state = _fresh("import json, sys, rotsym; "
                   "print(json.dumps({'numpy': 'numpy' in sys.modules}))")
    assert state == {"numpy": False}


# each command runs in turn in one interpreter, and reports its exit code
# and whether numpy, core and inspect (which dataclasses imports) are loaded
_LOADED = """
import contextlib, io, json, sys
import rotsym.cli
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = rotsym.cli.main(argv)
    loaded.append([code] + [m in sys.modules
                            for m in ("numpy", "rotsym.core", "inspect")])
print(json.dumps(loaded))
"""


def test_gf_and_streamed_builds_never_load_numpy(tmp_path):
    # gf's series and the doubled pieces of f2, f3 and t are computed in
    # ints and bytes; the analyze that follows is the first to load numpy
    commands = [["gf", s, "--upto", "12"] for s in ("f2", "f3")]
    commands += [["build", s, "--n", "26", "--max-n", "26",
                  "--out", str(tmp_path / s)] for s in ("f2", "f3", "t")]
    loaded = _fresh(_LOADED, json.dumps(commands + [["analyze", "f3", "--n", "9"]]))
    assert loaded[:-1] == [[0, False, False, False]] * len(commands)
    assert loaded[-1][:3] == [0, True, True]


def test_cli_defaults_to_one_blas_thread():
    state = _fresh(_CLI_STATE)
    assert state["numpy"]  # the command has loaded numpy by now
    if state["threads"] is not None:  # /proc exists: OpenBLAS's pool adds a thread
        assert state["threads"] == 1
    assert state["blas"] == "1"


def test_cli_keeps_the_users_blas_thread_count():
    state = _fresh(_CLI_STATE, OPENBLAS_NUM_THREADS="2")
    assert state["numpy"]
    assert state["blas"] == "2"


def test_cli_import_loads_neither_fractions_nor_decimal():
    # only a build charging a part of a 4-bit block needs a Fraction, and no
    # build does; fractions imports decimal, which every start-up would pay
    state = _fresh("import json, sys, rotsym.cli; print(json.dumps("
                   "{m: m in sys.modules for m in ('fractions', 'decimal')}))")
    assert state == {"fractions": False, "decimal": False}


def test_cli_start_up_builds_no_csv_digit_table():
    # write_csv builds its digit-group table on first use: neither the
    # import nor the benchmark's no-op `gf f2 --upto 0` pays for it
    state = _fresh("""
import contextlib, io, json
import rotsym.cli
from rotsym.core import _csv_groups
built = {"import": _csv_groups.cache_info().currsize}
with contextlib.redirect_stdout(io.StringIO()):
    built["exit"] = rotsym.cli.main(["gf", "f2", "--upto", "0"])
built["no-op"] = _csv_groups.cache_info().currsize
print(json.dumps(built))
""")
    assert state == {"import": 0, "exit": 0, "no-op": 0}


def test_old_exports_resolve_lazily_to_the_submodule_objects():
    state = _fresh("""
import importlib, json, sys
import rotsym
exported = json.loads(sys.argv[1])
star = {}
exec("from rotsym import *", star)
print(json.dumps({"same": [
    name for module, names in exported.items() for name in names
    if getattr(rotsym, name) is getattr(importlib.import_module("rotsym." + module), name)
    and star.get(name) is getattr(rotsym, name)],
    "all": sorted(rotsym.__all__)}))
""", json.dumps(EXPORTED))
    names = sorted(n for names in EXPORTED.values() for n in names)
    assert sorted(state["same"]) == names
    assert state["all"] == names


def test_no_module_imports_a_name_it_never_uses():
    # a name counts as used where it is read as a Name node, annotations
    # included; the package quotes no annotation that names an import
    unused = []
    for path in sorted((SRC / "rotsym").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items()
                   if name not in used]
    assert unused == []


def test_no_module_imports_another_modules_private_name():
    # a `_` name is its own module's; the one exception is builders' one
    # check of the variable count, which core shares
    shared = {"core.py: builders._generator", "core.py: builders._table_size"}
    private = []
    for path in sorted((SRC / "rotsym").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("rotsym")):
                module = (node.module or "").rsplit(".", 1)[-1]
                private += [f"{path.name}: {module}.{alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert sorted(set(private) - shared) == []


def _reads(tree: ast.AST, inside: tuple[str, ...] = ()) -> set[str]:
    """The names read as Name nodes in tree, less those read inside the
    definition of the same name."""
    out = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out |= _reads(node, inside + (node.name,))
        else:
            if isinstance(node, ast.Name) and node.id not in inside:
                out.add(node.id)
            out |= _reads(node, inside)
    return out


def _benchmark_reads() -> set[str]:
    """The names the benchmark reads: as Name nodes, and as bench_trace's
    quoted "module.name" spans."""
    read = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= _reads(tree)
        read |= {node.value.rsplit(".", 1)[1] for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and node.value.split(".")[0] in EXPORTED
                 and node.value.count(".") == 1}
    return read


def test_every_exported_name_has_a_caller():
    # the library ships only what the CLI, the builds and the benchmark call:
    # an exported name must be read in the package outside __init__.py, or
    # in the benchmark
    read = _benchmark_reads()
    for path in sorted((SRC / "rotsym").glob("*.py")):
        if path.name != "__init__.py":
            read |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(rotsym.__all__) - read) == []


def test_every_module_level_name_is_read():
    # no dead helpers: every function, class and constant a module of the
    # package defines at its top level is read in the package or in the
    # benchmark; dunder names are the interpreter's
    read = _benchmark_reads()
    defined = []
    for path in sorted((SRC / "rotsym").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= _reads(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.name, name.id) for target in targets
                            for name in ast.walk(target) if isinstance(name, ast.Name)]
    assert [f"{module}:{name}" for module, name in defined
            if name not in read and not name.startswith("__")] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rotsym.no_such_name
    assert not hasattr(rotsym, "no_such_name")


def test_readme_library_example_runs():
    # the python block under README's "## Library" heading, as written
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    start = library.index("```python\n") + len("```python\n")
    exec(library[start:library.index("```", start)], {})
