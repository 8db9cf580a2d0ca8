"""Source hygiene: every imported name is used, every private module-level
name of the package is referenced somewhere in the package, every
parameter of a module-level package function is read in its body, and
every ``np.allclose``/``np.isclose`` call of the package states its ``rtol``.

No linter ships with the project's dependencies, so this parses each module
of the package and of the tests with ``ast`` and fails on any imported name
that the module never reads.  Package ``__init__`` files re-export what they
import, and ``from __future__`` imports are directives, so both are skipped.
A ``_name`` function, class or constant that no package module reads is left
over from a refactor; tests reaching into it do not keep it alive.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hullcert").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other expression reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(),
                                                            key=lambda kv: kv[1])
            if name not in used]


def test_finder_reports_an_unused_name():
    src = "import os\nfrom json import dumps, loads\nprint(dumps)\n"
    assert unused_imports(src) == ["line 1: os", "line 2: loads"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> dict[str, int]:
    """Module-level ``_name`` functions, classes and assignments, by line."""
    found: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found.update((name, node.lineno) for name in names
                     if name.startswith("_") and not name.startswith("__"))
    return found


def referenced_names(source: str) -> set[str]:
    """Names that the source reads, as a name, an attribute or an import."""
    refs: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_finder_reports_an_unreferenced_private_name():
    src = ("_USED = 1\n_ORPHAN = 2\n\n\ndef _helper():\n    return _USED\n\n\n"
           "def _dead():\n    pass\n\n\nclass _Box:\n    pass\n\n\nprint(_helper, _Box)\n")
    defined = private_definitions(src)
    assert defined == {"_USED": 1, "_ORPHAN": 2, "_helper": 5, "_dead": 9, "_Box": 13}
    assert sorted(set(defined) - referenced_names(src)) == ["_ORPHAN", "_dead"]


def test_every_private_name_is_referenced_in_the_package():
    package = [p for p in SOURCES if p.parent.name == "hullcert"]
    refs = set().union(*(referenced_names(p.read_text()) for p in package))
    orphans = [f"{p.name}:{line}: {name}" for p in package
               for name, line in private_definitions(p.read_text()).items()
               if name not in refs]
    assert orphans == []


def unread_parameters(source: str) -> list[str]:
    """``function(param)`` for each parameter of a module-level function
    that its body, nested functions included, never reads."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}({p.arg})" for p in params if p.arg not in read]
    return found


def test_finder_reports_an_unread_parameter():
    src = ("def f(a, b=1, *rest, c, **kw):\n    def g():\n        return a + c\n"
           "    return g\n\n\ndef h(x, y):\n    return y\n")
    assert unread_parameters(src) == ["f(b)", "f(rest)", "f(kw)", "h(x)"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.parent.name == "hullcert"],
                         ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def hidden_rtol_calls(source: str) -> list[str]:
    """``np.allclose``/``np.isclose`` calls that leave ``rtol`` at numpy's
    default of 1e-5, which silently loosens any ``atol`` on large values."""
    return [f"line {node.lineno}: {node.func.attr}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("allclose", "isclose") and len(node.args) < 3
            and "rtol" not in {k.arg for k in node.keywords}]


def test_finder_reports_a_hidden_rtol():
    src = ("np.allclose(a, b, atol=0)\nnp.isclose(a, b, rtol=0)\n"
           "np.allclose(a, b, 0.0)\nnp.isclose(a, b)\n")
    assert hidden_rtol_calls(src) == ["line 1: allclose", "line 4: isclose"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.parent.name == "hullcert"],
                         ids=lambda p: p.name)
def test_closeness_tests_state_rtol(path):
    assert hidden_rtol_calls(path.read_text()) == []
