from __future__ import annotations

import pytest

from steinerkit.errors import Budget
from steinerkit import exactcover
from steinerkit.exactcover import solve_exact_cover


def test_basic_cover():
    columns = {0: frozenset({0, 1}), 1: frozenset({2}), 2: frozenset({0, 2}),
               3: frozenset({1})}
    sol = solve_exact_cover(columns, range(3))
    assert sol is not None
    covered = sorted(r for c in sol for r in columns[c])
    assert covered == [0, 1, 2]


def test_deterministic_first_solution():
    columns = {0: frozenset({0}), 1: frozenset({0}), 2: frozenset({1}),
               3: frozenset({1})}
    assert solve_exact_cover(columns, range(2)) == solve_exact_cover(columns, range(2))
    assert solve_exact_cover(columns, range(2)) == [0, 2]


def test_unsatisfiable():
    columns = {0: frozenset({0, 1}), 1: frozenset({1, 2})}
    assert solve_exact_cover(columns, range(3)) is None


def test_forced_columns():
    columns = {0: frozenset({0, 1}), 1: frozenset({0}), 2: frozenset({1}),
               3: frozenset({2})}
    sol = solve_exact_cover(columns, range(3), forced=[1])
    assert sol is not None and 1 in sol and 0 not in sol
    # forcing two clashing columns is detected up front
    assert solve_exact_cover(columns, range(3), forced=[0, 1]) is None


def test_node_budget(monkeypatch):
    # perfect matchings of an odd-point complete graph: unsatisfiable, but
    # every branch fails only at the very end, so the tree is large
    n = 13
    columns = {}
    cid = 0
    for a in range(n):
        for b in range(a + 1, n):
            columns[cid] = frozenset({a, b})
            cid += 1
    monkeypatch.setattr(exactcover, "MAX_NODES", 50)
    with pytest.raises(Budget, match="exact cover passed node budget 50"):
        solve_exact_cover(columns, range(n))


def test_covers_unknown_row_rejected():
    with pytest.raises(ValueError):
        solve_exact_cover({0: frozenset({5})}, range(3))
