"""Result checks in the package are explicit raises, never asserts, so that
``python -O`` cannot strip them."""
from __future__ import annotations

import ast
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
