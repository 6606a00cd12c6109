"""Every name a dug module imports is used in that module, only graph.py
names the BFS oracle, only hanoi.py names the renaming orbits' canonical form
or their sizes, no module names the scalar solver recursion, holds an
``assert`` statement, or calls BLAS or a numpy set routine, and ``import dug``
starts no OpenBLAS thread pool.

A `# noqa` comment on the line of an imported name exempts it (a binding kept
for code outside the module).  ``__init__.py`` is left out: it imports names
to re-export them.  ``bfs_distances`` cross-checks the bit-parallel distance
engine in the tests, so no other module may run it in its stead.  Since no
module calls a BLAS routine, ``import dug`` loads numpy's OpenBLAS with one
thread; the fresh interpreters below check that it leaves ``os.environ`` and
a caller's own BLAS settings as they were.  ``hanoi.py`` defines the value
renamings of each mode, so ``_first_appearance`` (their canonical form) and
``perm`` (an orbit's size) appear in no other module.  The first call of
``np.unique`` or a numpy set routine imports ``numpy.ma`` (16-23 ms on a 2-CPU
x86_64 host), so no module names one, and the verify suite and the CLI round trip leave
``numpy.ma`` unimported.  ``solve`` and the verify suite build their solver
paths with one array construction (``solver._construct_codes``); the scalar
recursion ``_construct`` lives in the tests as its reference, so no module
names it.  ``python -O`` drops ``assert`` statements, so a runtime check in
dug raises its error explicitly.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dug"


def unused_imports(source: str) -> list[str]:
    """'<name> (line <n>)' for each imported name the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_finds_unused_names_and_honours_noqa():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "import sys  # noqa: F401\nfrom a import (\n    b,\n    c,\n)\nprint(c.d)\n")
    assert unused_imports(source) == ["b (line 6)", "os (line 2)", "osp (line 3)"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def names_used(source: str) -> set[str]:
    """Every name the source imports, reads or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_names_used_sees_imports_reads_and_attributes():
    source = "from .graph import a as z\nimport x.b\nc(d.e)\n# f\n'g'\n"
    assert names_used(source) == {"a", "b", "c", "d", "e"}


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name not in ("__init__.py", "graph.py"))
)
def test_only_graph_names_the_bfs_oracle(module):
    assert "bfs_distances" not in names_used((SRC / module).read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "hanoi.py")
)
def test_only_hanoi_names_the_renaming_orbits(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert names_used(source) & {"_first_appearance", "perm"} == set()


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_solver_names_the_scalar_recursion(module):
    """Now none does, solver.py included, and no module keeps an ``lru_cache``."""
    source = (SRC / module).read_text(encoding="utf-8")
    assert names_used(source) & {"_construct", "lru_cache"} == set()


def asserts(source: str) -> list[int]:
    """The line of each ``assert`` statement in the source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_asserts_sees_statements_not_names():
    source = "x = 1\nassert x, 'no'\nAssertionError('assert')\ndef f():\n    assert f\n"
    assert asserts(source) == [2, 5]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_holds_an_assert(module):
    assert asserts((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_names_a_numpy_set_routine(module):
    """Each of these imports numpy.ma on its first call; np.isin, np.sort and np.lexsort do not."""
    routines = {"unique", "unique_values", "union1d", "intersect1d", "setdiff1d", "setxor1d"}
    assert names_used((SRC / module).read_text(encoding="utf-8")) & routines == set()


def test_verify_and_the_cli_round_trip_leave_numpy_ma_unimported(tmp_path):
    base, big = str(tmp_path / "base.el"), str(tmp_path / "big.el")
    argvs = [
        ["plan", "--n", "5000", "--epsilon", "1/2", "--json"],
        ["generate", "--r", "16", "--k", "2", "--proper", "--out", base],
        ["blowup", "--in", base, "--n-target", "5000", "--out", big],
        ["analyze", "--in", big, "--sources", "64", "--json"],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from dug import run_verify_suite\n"
        "from dug.cli import cli_dispatch\n"
        "passed = all(c.ok for c in run_verify_suite(4, 4))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli_dispatch(argv) for argv in {argvs!r}]\n"
        "print(passed, codes, 'numpy.ma' in sys.modules)\n"
    )
    assert run_fresh(script) == "True [0, 0, 0, 0] False\n"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_calls_blas(module):
    """What makes a one-thread OpenBLAS free: dug never calls it."""
    source = (SRC / module).read_text(encoding="utf-8")
    blas = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot", "linalg"}
    assert names_used(source) & blas == set()
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(ast.parse(source)))


def blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 only prints its build config
        return "unknown"
    return config["Build Dependencies"]["blas"]["name"]


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def import_dug_fresh(first: str, **env) -> dict:
    """Run `first`, then `import dug`, in a new interpreter whose environment
    sets none of BLAS_THREADS but those given.  Report os.environ and the
    OS thread count (None without /proc) before and after the import."""
    script = (
        "import json, os\n"
        "def threads():\n"
        "    task = '/proc/self/task'\n"
        "    return len(os.listdir(task)) if os.path.isdir(task) else None\n"
        "environ = dict(os.environ)\n"
        f"{first}\n"
        "threads_before = threads()\n"
        "import dug\n"
        "print(json.dumps({'environ_before': environ, 'environ': dict(os.environ),\n"
        "                  'threads_before': threads_before, 'threads': threads()}))\n"
    )
    return json.loads(run_fresh(script, **env))


def run_fresh(script: str, **env) -> str:
    """Stdout of `script` in a new interpreter that imports dug from SRC and
    whose environment sets none of BLAS_THREADS but those given."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**base, **env}, check=True)
    return proc.stdout


def test_import_dug_starts_one_thread_and_keeps_environ():
    got = import_dug_fresh("")
    assert got["environ"] == got["environ_before"]
    assert not got["environ"].keys() & set(BLAS_THREADS)
    if got["threads"] is not None and "openblas" in blas_name():
        assert got["threads"] == 1


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_import_dug_keeps_a_callers_blas_threads(name):
    got = import_dug_fresh("", **{name: "2"})
    assert got["environ"] == got["environ_before"]
    assert got["environ"].keys() & set(BLAS_THREADS) == {name}
    assert got["environ"][name] == "2"


def test_import_dug_after_numpy_changes_nothing():
    got = import_dug_fresh("import numpy")
    assert got["environ"] == got["environ_before"]
    assert not got["environ"].keys() & set(BLAS_THREADS)
    assert got["threads"] == got["threads_before"]
