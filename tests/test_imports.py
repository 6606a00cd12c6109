"""Every name a dug module imports is used in that module.

A `# noqa` comment on the line of an imported name exempts it (a binding kept
for code outside the module).  ``__init__.py`` is left out: it imports names
to re-export them.
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
