"""Every name a module imports is used: read in the module, listed in its
__all__, or marked `# noqa: F401` on its own line; and no statement list
imports one name twice, since the second binding hides the first.  No linter
runs on the sources, so this catches the imports a refactor leaves behind,
in the package, its tests and pipebench."""

import ast
from pathlib import Path

import pytest

import skabelund

PACKAGE = Path(skabelund.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(
    path for folder in ("tests", "pipebench") for path in (ROOT / folder).glob("*.py")
)


def _imports(node: ast.AST, lines: list[str]) -> list[str]:
    """The names an import statement binds, less those marked noqa."""
    if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.ImportFrom) and node.module == "__future__"
    ):
        return []
    return [
        alias.asname or alias.name.partition(".")[0]
        for alias in node.names
        if "# noqa: F401" not in lines[alias.lineno - 1]
    ]


def unused_imports(source: str) -> list[str]:
    """The imported names of source that nothing uses, in import order; a
    name imported again in the same statement list is listed once more."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = [name for node in ast.walk(tree) for name in _imports(node, lines)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    repeated = []
    for node in ast.walk(tree):
        for _, body in ast.iter_fields(node):
            if isinstance(body, list):
                names = [name for stmt in body for name in _imports(stmt, lines)]
                repeated += [name for i, name in enumerate(names) if name in names[:i]]
    return [name for name in imported if name not in used] + repeated


def test_the_check_sees_unused_names():
    assert unused_imports("from operator import attrgetter\n") == ["attrgetter"]
    assert unused_imports("import os.path\nimport re as regex\n") == ["os", "regex"]
    assert unused_imports("from x import (\n    a,\n    b,\n)\nb()\n") == ["a"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from x import a  # noqa: F401\n") == []
    assert unused_imports("from x import a\n__all__ = ['a']\n") == []
    assert unused_imports("from x import a\ny: list[a] = []\n") == []
    # twice in one statement list is flagged; once in each of two functions is not
    assert unused_imports("from x import a\nfrom y import (\n    a,\n)\na()\n") == ["a"]
    assert unused_imports("def f():\n    from x import a\n    a()\n\n"
                          "def g():\n    from x import a\n    a()\n") == []


@pytest.mark.parametrize(
    "path",
    SOURCES,
    ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}",
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
