"""Result checks in the package are explicit raises, never asserts, so that
``python -O`` cannot strip them."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import steinerkit
from steinerkit.errors import SteinerError, require


def test_no_assert_statements_in_package():
    sources = sorted(Path(steinerkit.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements: {found}"


def test_every_error_class_is_raised_or_caught():
    # a class nothing raises or catches by name adds a concept and no behaviour
    package = Path(steinerkit.__file__).parent
    errors = ast.parse((package / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    used = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                named = [getattr(node.exc, "func", node.exc)]  # raise C(...) or raise C
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = getattr(node.type, "elts", [node.type])  # except (C, D) or except C
            else:
                continue
            used |= {n.id for n in named if isinstance(n, ast.Name)}
    assert "SteinerError" in defined
    assert not defined - used, f"error classes never raised or caught: {defined - used}"


# acceptance-criteria API that only tests call
ONLY_TESTS_CALL = {"brute_aut", "inequivalent_variants", "net_product", "td_to_text",
                   "td_from_text", "net_to_text", "net_from_text"}


def test_every_public_function_and_class_has_a_caller():
    # a public name nothing outside the tests uses adds a concept and no behaviour
    package = Path(steinerkit.__file__).parent
    callers = sorted(package.glob("*.py")) + sorted(
        path for path in (package.parents[1] / "certbench").glob("*.py")
        if not path.name.startswith("test_"))
    defined, used = set(), set()
    for path in callers:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.parent == package:
            defined |= {f"{path.stem}.{node.name}" for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    assert len(callers) > 10
    unused = sorted(name for name in defined
                    if name.split(".")[1] not in used | ONLY_TESTS_CALL)
    assert not unused, f"public names only tests use: {unused}"


def _imports(tree: ast.Module):
    """(line, name) of each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.asname or alias.name.split(".")[0])
                        for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node.lineno, alias.asname or alias.name) for alias in node.names)


def _reads(tree: ast.Module) -> set[str]:
    """Every name the module reads: in code, in quoted annotations, and as a
    parameter (a pytest fixture is read by naming it)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= _reads(ast.parse(note.value))
    return names


def test_every_imported_name_is_read():
    # an import nothing reads is a dependency and a concept the module does not have
    package = Path(steinerkit.__file__).parent
    modules = sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert len(modules) > 30
    unread = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        reads = _reads(tree)
        unread += [f"{path.parent.name}/{path.name}:{line} {name}"
                   for line, name in _imports(tree) if name not in reads]
    assert not unread, f"imported names never read: {unread}"


def test_require_names_the_condition():
    require(True, "never shown")
    with pytest.raises(SteinerError, match="w = q k"):
        require(False, "w = q k")


def test_cli_checks_designs_only_through_the_checker():
    path = Path(steinerkit.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    kernels = {"verify_2design", "is_automorphism", "is_1_blocked"}
    assert not names & kernels, f"cli.py calls a design kernel directly: {names & kernels}"


def test_every_cli_option_is_passed_by_a_test():
    # an option no test passes is a configuration nothing exercises
    path = Path(steinerkit.__file__).parent / "cli.py"
    options = {arg.value for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument"
               for arg in node.args
               if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")}
    assert len(options) > 20
    tests = "\n".join(t.read_text() for t in sorted(Path(__file__).parent.glob("*.py")))
    unused = sorted(option for option in options
                    if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", tests))
    assert not unused, f"CLI options no test passes: {unused}"
