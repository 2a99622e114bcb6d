"""Every name a module imports at module level is used in that module,
every import anywhere in the package is of the standard library, numpy or
the package itself, and only the file boundary (``io.py``) turns vertex ids
into indices with ``graph_from_ids`` or ``action_from_maps``.

The scans parse each module of the package with ``ast``; they do not import
them.  Package ``__init__.py`` files re-export names and are exempt from the
first scan, and so is ``from __future__ import annotations``."""

import ast
import pathlib
import sys

import pytest

import qtlab

PACKAGE = pathlib.Path(qtlab.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _module_level_imports(tree):
    """(bound name, line) of each import statement outside functions and
    classes, including those under a module-level if or try."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                stack.extend(getattr(node, field, ()))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)


def _used_names(tree):
    """Names loaded anywhere in the module, plus the names in __all__ and in
    string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        for ann in annotations:
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= _used_names(ast.parse(sub.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


def test_the_scan_sees_every_module():
    assert {p.name for p in MODULES} >= {"cli.py", "constructions.py", "metric_graph.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    dead = [f"{name} (line {line})" for name, line in _module_level_imports(tree)
            if name not in used]
    assert not dead, f"{path.name} imports names it never uses: {', '.join(sorted(dead))}"


def test_the_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom typing import List, Optional\n"
                     "from __future__ import annotations\n"
                     "def f(x: 'Optional[int]'):\n    return os.sep\n")
    used = _used_names(tree)
    assert [n for n, _ in _module_level_imports(tree) if n not in used] == ["List"]


def _foreign_imports(tree):
    """(top-level module, line) of every import, in functions too, that is
    not relative and not of the standard library, numpy or qtlab."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "qtlab"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in allowed:
                yield name.split(".")[0], node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [f"{name} (line {line})" for name, line in _foreign_imports(tree)]
    assert not foreign, f"{path.name} imports beyond stdlib and numpy: {', '.join(foreign)}"


def test_the_scan_flags_a_function_level_import():
    tree = ast.parse("import os, numpy as np\nfrom . import io\n"
                     "def f():\n    from scipy.optimize import linprog\n"
                     "    import qtlab.cli\n")
    assert list(_foreign_imports(tree)) == [("scipy", 4)]


BOUNDARY = ("graph_from_ids", "action_from_maps")


def _boundary_calls(tree):
    """(name, line) of every call of graph_from_ids or action_from_maps, by
    bare name or as an attribute, in line order."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in BOUNDARY:
                calls.append((name, node.lineno))
    return sorted(calls, key=lambda c: c[1])


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_only_io_turns_ids_into_indices(path):
    calls = _boundary_calls(ast.parse(path.read_text(), filename=str(path)))
    if path.name == "io.py":
        assert {name for name, _ in calls} == set(BOUNDARY)
    else:
        assert not calls, f"{path.name} calls {calls}; builders take index arrays"


def test_the_scan_flags_a_boundary_call():
    tree = ast.parse("from .metric_graph import graph_from_ids\n"
                     "import qtlab.group_action as ga\n"
                     "def f(ids):\n    g = graph_from_ids(ids, [])\n"
                     "    return ga.action_from_maps(g, [])\n")
    assert _boundary_calls(tree) == [("graph_from_ids", 4), ("action_from_maps", 5)]
