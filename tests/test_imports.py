"""Every module-level import is read somewhere in its file.

No linter runs in this repository, so this test stands in for one: it
parses every Python file under src/, tests/ and perfbench/ and fails on
a name bound by a module-level import and never read. A name listed in
the module's __all__ counts as read (it is re-exported).
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for top in ("src", "tests", "perfbench")
    for path in (ROOT / top).rglob("*.py")
)


def _unused_imports(tree):
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = stmt.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            exported.update(ast.literal_eval(stmt.value))
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in read and name not in exported
    )


def test_the_scan_covers_every_tree():
    tops = {path.relative_to(ROOT).parts[0] for path in FILES}
    assert tops == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(tau)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "pi")]
