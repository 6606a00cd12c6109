"""Every name a dug module imports is used in that module, and only graph.py
names the BFS oracle.

A `# noqa` comment on the line of an imported name exempts it (a binding kept
for code outside the module).  ``__init__.py`` is left out: it imports names
to re-export them.  ``bfs_distances`` cross-checks the bit-parallel distance
engine in the tests, so no other module may run it in its stead.
"""

import ast
from pathlib import Path

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
