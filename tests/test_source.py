"""Source hygiene: every imported name is used, every exported name is read, no module
imports scipy, and no setting has two holders."""

import ast
import dataclasses
from pathlib import Path

import pytest

from darkpulse import IntegratorSettings, OptimizerSettings

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "darkpulse").glob("*.py"))
SETTINGS = frozenset(field.name for cls in (OptimizerSettings, IntegratorSettings)
                     for field in dataclasses.fields(cls))


def exports(tree: ast.Module) -> list[str]:
    """The names of a module's ``__all__``, in order; none if it has no ``__all__``."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never reads, except ``__all__`` entries.

    ``annotations`` (from ``__future__``) is exempt.  An attribute chain such as
    ``np.linalg.norm`` reads its first name, so it counts as a use of ``np``.
    """
    tree = ast.parse(source)
    imported, exported = {}, {"annotations", *exports(tree)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
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


def unread_exports(sources: dict[str, str]) -> list[str]:
    """Names in some module's ``__all__`` that no module of ``sources`` reads.

    A read is a loaded name or an attribute (``module.name``) anywhere but inside
    the top-level definition of that same name.  An import and an ``__all__``
    entry are not reads, so a name only re-exported by ``__init__`` is unread.
    """
    read, exported = set(), []
    for source in sources.values():
        tree = ast.parse(source)
        exported += exports(tree)
        for statement in tree.body:
            owner = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    read.add(name)
    return sorted(set(exported) - read)


def test_checker_finds_an_unread_export():
    sources = {
        "a.py": "__all__ = ['grow', 'Cell', 'tick', 'size']\n"
                "def grow(n):\n    return grow(n - 1)\n"
                "class Cell:\n    def copy(self) -> 'Cell':\n        return Cell()\n"
                "def tick(x: Cell):\n    return x\n"
                "def size():\n    return 4\n",
        "b.py": "import a\nfrom .a import grow, tick\n__all__ = ['run', 'grow']\n"
                "def run():\n    return tick(a.size())\n",
        "__init__.py": "from .b import run\n__all__ = ['run']\n",
    }
    # grow reads only itself, run is only re-exported; Cell is read in an
    # annotation, tick by a call, size as an attribute
    assert unread_exports(sources) == ["grow", "run"]


# exported names that no module reads, each with the reason it stays in the package
UNREAD_EXPORTS = {
    # perfbench/layer_trace.py times it: BENCHMARK.json lists dynamics.integrate_master.*
    "integrate_master",
    # the structural form from which ROADMAP item 2 builds the zero modes
    "closed_form_zero_modes",
    # vec's inverse, the other half of the row-major convention
    "unvec",
}


def test_every_export_is_read():
    # a name only the tests call belongs with the tests (tests/witnesses.py); an
    # exception that becomes read, or goes, leaves the set too
    assert set(unread_exports({path.name: path.read_text() for path in SOURCES})) == \
        UNREAD_EXPORTS


def scipy_imports(source: str) -> list[tuple[str, int]]:
    """Every scipy module a source imports, at any depth, with its line, in line order.

    ``from scipy import optimize`` imports ``scipy.optimize``; ``from
    scipy.integrate import solve_ivp`` imports ``scipy.integrate``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names
                      if alias.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            found += [(f"scipy.{alias.name}", node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy."):
            found.append((node.module, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_checker_finds_every_scipy_import():
    source = ("import numpy as np\nimport scipy.linalg\nfrom scipy import optimize\n"
              "from scipyx import y\ndef f():\n    from scipy.integrate import solve_ivp\n")
    assert scipy_imports(source) == [("scipy.linalg", 2), ("scipy.optimize", 3),
                                     ("scipy.integrate", 6)]


def test_no_module_imports_scipy():
    # scipy.optimize and scipy.integrate each cost about half a second to import; the
    # search and the RK45 are numpy's own, and scipy serves the tests only as an oracle
    found = {(path.name, module) for path in SOURCES
             for module, _ in scipy_imports(path.read_text())}
    assert found == set()


def settings_with_defaults(source: str, settings=SETTINGS) -> list[str]:
    """Parameters of public functions and methods that are settings fields with a default.

    A public function is a module-level ``def``, or a method of a module-level
    class, whose name does not start with ``_``.  Such a parameter would be a
    second holder of the setting and of its default; a caller passes the settings
    object instead.
    """
    tree = ast.parse(source)
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            functions += [f for f in node.body if isinstance(f, ast.FunctionDef)]
    found = []
    for fn in functions:
        if fn.name.startswith("_"):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] + [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        found += [f"{fn.name}({arg.arg}) (line {fn.lineno})" for arg in defaulted
                  if arg.arg in settings]
    return found


def test_checker_finds_a_defaulted_setting():
    source = ("def run(states, rate, residual, *, rtol=1e-9, scale=1.0):\n    pass\n"
              "def _inner(tol=1e-6):\n    pass\n"
              "class Search:\n    def solve(self, seed, restarts=8):\n        pass\n"
              "def duration(rate, residual):\n    def step(atol=0.0):\n        pass\n")
    assert settings_with_defaults(source) == ["run(rtol) (line 1)", "solve(restarts) (line 6)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_public_function_redeclares_a_setting(path):
    assert settings_with_defaults(path.read_text()) == []
