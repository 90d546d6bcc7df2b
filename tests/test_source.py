"""Source hygiene: every name a package module imports is used."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "darkpulse").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never reads, except ``__all__`` entries.

    ``annotations`` (from ``__future__``) is exempt.  An attribute chain such as
    ``np.linalg.norm`` reads its first name, so it counts as a use of ``np``.
    """
    tree = ast.parse(source)
    imported, exported = {}, {"annotations"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read | exported)


def test_checker_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport sys\n" \
             "from math import pi as PI\n__all__ = ['PI']\nprint(sys.argv)\n"
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
