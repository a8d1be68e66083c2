"""Every module-level import is read somewhere in its file, and every
function, method and class of src/ is read somewhere.

No linter runs in this repository, so this test stands in for one: it
parses every Python file under src/, tests/ and perfbench/ and fails on
a name bound by a module-level import and never read. A name listed in
the module's __all__ counts as read (it is re-exported). It also fails
on a function, method or class defined in src/ whose name is read
nowhere in src/, tests/, perfbench/ or demos/ (as a name or as an
attribute, or listed in an __all__); dunder methods are read by Python
itself. The definitions of src/ that only tests/ read, an __all__ not
counting, are exactly the names of TEST_ONLY, each with its reason.
Last, the defaulted parameters of src/'s functions and methods, and
the defaulted fields of its options records (dataclasses named
*Options), that no call in src/, perfbench/ or demos/ sets are exactly
those of KNOBS, each with its reason: a setting nothing varies is a
constant.
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


# defaulted parameters (function.parameter) and options-record fields
# (record.field) of src/ that no call in src/, perfbench/ or demos/ sets,
# and why each stays
KNOBS = {
    "_identity.n": "set through _builtin's row(*arg), a call the scan reads as row's",
    "local_solve.max_iter": "public API: the Newton budget of one solve",
    "polyline.domain": "public API: a polyline's parameter interval",
    "quasi_isometry_bounds.compact_K": "the paper's restricted lower constant over K",
    "quasi_isometry_bounds.n_samples": "public API: the region's sample budget",
    "sheet_count.opts": "public API: the lift options of the monodromy loops",
    "split_inequality_slack.direction": "the paper's lower split inequality",
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


def _calls(trees):
    """name -> [(positions, keywords)] for each call the trees make to a
    name or an attribute of that name: the number of positional
    arguments (inf with a *args) and the keywords given (None among them
    with a **kwargs)."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                positions = float("inf") if starred else len(node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((positions, keywords))
    return calls


def _is_options_record(node):
    """Whether a class definition is an options record: a dataclass
    whose name ends in Options."""
    decorators = [getattr(d, "func", d) for d in node.decorator_list]
    return node.name.endswith("Options") and any(
        "dataclass" in (getattr(d, "id", None), getattr(d, "attr", None)) for d in decorators
    )


def _defaulted(tree):
    """(function, parameter, position, False) of each defaulted parameter
    of the functions and methods of a tree, constructors aside, and
    (record, field, position, True) of each defaulted field of an
    options record; the position counts from a method's first parameter
    after self or cls, and is None for a keyword-only parameter."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and _is_options_record(child):
                fields = [s for s in child.body if isinstance(s, ast.AnnAssign)]
                found.extend(
                    (child.name, s.target.id, i, True)
                    for i, s in enumerate(fields)
                    if s.value is not None
                )
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                static = any(
                    getattr(d, "id", None) == "staticmethod" for d in child.decorator_list
                )
                params = (args.posonlyargs + args.args)[in_class and not static :]
                first = len(params) - len(args.defaults)
                if child.name != "__init__":
                    found.extend(
                        (child.name, a.arg, i, False)
                        for i, a in enumerate(params)
                        if i >= first
                    )
                    found.extend(
                        (child.name, a.arg, None, False)
                        for a, d in zip(args.kwonlyargs, args.kw_defaults)
                        if d is not None
                    )
            visit(child, isinstance(child, ast.ClassDef))

    visit(tree, False)
    return found


def _unset_parameters(trees, defining, calling):
    """function.parameter for each defaulted parameter, and record.field
    for each defaulted options-record field, defined in a tree of
    defining that no call in a tree of calling sets, by keyword, by
    position or through *args or **kwargs; a call is matched to every
    definition of its name, and a field is also set by a keyword of a
    call of replace (dataclasses.replace)."""
    calls = _calls(tree for path, tree in trees.items() if path in calling)
    replaced = [(0, keywords) for _, keywords in calls.get("replace", [])]
    return {
        "%s.%s" % (name, param)
        for path in defining
        for name, param, position, field in _defaulted(trees[path])
        if not any(
            None in keywords
            or param in keywords
            or (position is not None and position < positions)
            for positions, keywords in calls.get(name, []) + (replaced if field else [])
        )
    }


def test_every_setting_has_a_caller():
    # a parameter here that a call now sets, or that is gone, leaves the
    # list; one that no call sets joins it, or becomes a constant
    src = {path for path in TREES if _top(path) == "src"}
    calling = {path for path in TREES if _top(path) != "tests"}
    assert _unset_parameters(TREES, src, calling) == set(KNOBS)


def test_the_scan_finds_an_unset_parameter():
    lib, test = pathlib.Path("lib.py"), pathlib.Path("test_lib.py")
    trees = {
        lib: ast.parse(
            "def f(a, b=1, c=2, *, d=3): pass\n"
            "def g(x=0, y=1): pass\n"
            "def h(z=0): pass\n"
            "class Box:\n"
            "    def __init__(self, size=1): pass\n"
            "    def grow(self, by=1, times=1): pass\n"
            "    @staticmethod\n"
            "    def make(n=1): pass\n"
            "f(0, 1)\n"
            "f(0, d=4)\n"
            "g(*args)\n"
            "h(**opts)\n"
            "Box().grow(2)\n"
            "Box.make(3)\n"
        ),
        test: ast.parse("f(0, 1, 2)\nBox().grow(times=2)\n"),
    }
    assert _unset_parameters(trees, {lib}, {lib}) == {"f.c", "grow.times"}


def test_the_scan_finds_an_unset_option_field():
    lib, test = pathlib.Path("lib.py"), pathlib.Path("test_lib.py")
    trees = {
        lib: ast.parse(
            "import dataclasses\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class RunOptions:\n"
            "    tol: float = 1e-8\n"
            "    budget: int = 10\n"
            "    steps: int = 5\n"
            "    rate: float = 0.5\n"
            "@dataclass\n"
            "class Result:\n"
            "    value: float = 0.0\n"
            "RunOptions(1e-6)\n"
            "dataclasses.replace(RunOptions(), steps=3)\n"
            "'text'.replace('t', 'T')\n"
        ),
        test: ast.parse("RunOptions(rate=0.1)\n"),
    }
    assert _unset_parameters(trees, {lib}, {lib}) == {"RunOptions.budget", "RunOptions.rate"}


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
