"""Every module-level import is read somewhere in its file, and every
function, method and class of src/ is read somewhere.

No linter runs in this repository, so this test stands in for one: it
parses every Python file under src/, tests/ and perfbench/ and fails on
a name bound by a module-level import and never read. A name listed in
the module's __all__ counts as read (it is re-exported). It also fails
on a function, method or class defined in src/ whose name is read
nowhere in src/, tests/, perfbench/ or demos/ (as a name or as an
attribute, or listed in an __all__); dunder methods are read by Python
itself. Last, the definitions of src/ that only tests/ read, an __all__
not counting, are exactly the names of TEST_ONLY, each with its reason.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = {
    path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for top in ("src", "tests", "perfbench", "demos")
    for path in sorted((ROOT / top).rglob("*.py"))
}
FILES = sorted(path for path in TREES if path.relative_to(ROOT).parts[0] != "demos")


def _exported(tree):
    exported = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            exported.update(ast.literal_eval(stmt.value))
    return exported


# definitions of src/ that only tests/ read, and why each stays
TEST_ONLY = {
    "pretty": "public API: prints an expression back as source",
    "CircleQuotient": "public API: a space a caller builds and passes in",
    "reverse_path": "public API: a path's orientation reversal",
    "interpolate": "public API: a lift trace's value between its nodes",
    "builtin_names": "public API: the built-in map names",
    "det_sign_many": "the block orientation test a lockstep lift will read",
    "linear_solve": "public API: the one-matrix form of linear_solve_many",
    "local_solve": "public API; the perfbench tracer wraps it by its string name",
    "check_monotone": "public API: checks a mean-value ratio sequence",
    "load_registry": "public API: reads a registry file",
}


def _reads(trees):
    """The names the trees read, as a name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _unread_definitions(trees, defining, read=None):
    """(file, line, name) of each function, method or class defined in a
    tree of defining whose name is not in read, by default the names
    any tree reads or lists in an __all__; trees maps paths to trees."""
    if read is None:
        read = _reads(trees.values()).union(*map(_exported, trees.values()))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        (str(path), node.lineno, node.name)
        for path, tree in trees.items()
        if path in defining
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and node.name not in read
        and not (node.name.startswith("__") and node.name.endswith("__"))
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
    exported = _exported(tree)
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
    assert _unused_imports(TREES[path]) == []


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(tau)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "pi")]


def _top(path):
    return path.relative_to(ROOT).parts[0]


def test_every_definition_in_src_is_read():
    src = {path for path in TREES if _top(path) == "src"}
    assert _unread_definitions(TREES, src) == []


def test_the_definitions_only_tests_read_are_listed():
    # a name here that src/, perfbench/ or demos/ now reads, or that is
    # gone, leaves the list; a definition that only tests read joins it
    src = {path for path in TREES if _top(path) == "src"}
    outside = _reads(tree for path, tree in TREES.items() if _top(path) != "tests")
    only_tests = {name for _, _, name in _unread_definitions(TREES, src, outside)}
    assert only_tests == set(TEST_ONLY)


def test_the_scan_finds_an_unread_definition():
    lib = pathlib.Path("lib.py")
    trees = {
        lib: ast.parse(
            "__all__ = ['api']\n"
            "def api(): return _used()\n"
            "def _used(): pass\n"
            "class Box:\n"
            "    def __init__(self): pass\n"
            "    def spare(self): pass\n"
            "    def called(self): pass\n"
        ),
        pathlib.Path("user.py"): ast.parse("Box().called()\ndef unread(): pass\n"),
    }
    assert _unread_definitions(trees, {lib}) == [("lib.py", 6, "spare")]
