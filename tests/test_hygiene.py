"""Source hygiene: every imported name is used.

No linter ships with the project's dependencies, so this parses each module
of the package and of the tests with ``ast`` and fails on any imported name
that the module never reads.  Package ``__init__`` files re-export what they
import, and ``from __future__`` imports are directives, so both are skipped.
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
