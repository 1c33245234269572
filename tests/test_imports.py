"""Every name a package module imports is used: read in the module, listed in
its __all__, or marked `# noqa: F401` on its own line.  No linter runs on the
sources, so this catches the imports a refactor leaves behind."""

import ast
from pathlib import Path

import pytest

import skabelund

SOURCES = sorted(Path(skabelund.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The imported names of source that nothing uses, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if "# noqa: F401" not in lines[alias.lineno - 1]
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_sees_unused_names():
    assert unused_imports("from operator import attrgetter\n") == ["attrgetter"]
    assert unused_imports("import os.path\nimport re as regex\n") == ["os", "regex"]
    assert unused_imports("from x import (\n    a,\n    b,\n)\nb()\n") == ["a"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from x import a  # noqa: F401\n") == []
    assert unused_imports("from x import a\n__all__ = ['a']\n") == []
    assert unused_imports("from x import a\ny: list[a] = []\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
