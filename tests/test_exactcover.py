"""The exact-cover solver on incidence arrays against the dict-of-frozensets
Algorithm X it replaced.

``solve_exact_cover`` takes the incidence as (column, row) pairs and picks
each branching row with one ``min`` over (count, row) of the uncovered rows.
The reference below is the earlier version: columns as a dict of frozensets,
set up one element at a time, branching on ``min`` with a key over every
uncovered row.  Both must return the same solution list, the same None, and
raise Budget at the same node.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerkit import exactcover
from steinerkit.errors import Budget
from steinerkit.exactcover import solve_exact_cover

# -- reference implementation --------------------------------------------------


def ref_solve(columns: Mapping[int, frozenset[int]], universe: Sequence[int],
              forced: Sequence[int] = ()) -> list[int] | None:
    covers: dict[int, set[int]] = {r: set() for r in universe}
    col_rows: dict[int, list[int]] = {}
    for cid, rows in columns.items():
        for r in rows:
            if r not in covers:
                raise ValueError(f"column {cid} covers unknown row {r}")
        col_rows[cid] = sorted(rows)
        for r in rows:
            covers[r].add(cid)

    solution: list[int] = []

    def select(cid: int) -> list[tuple[int, set[int]]]:
        removed = []
        for r in col_rows[cid]:
            for other in covers[r]:
                for r2 in col_rows[other]:
                    if r2 != r:
                        covers[r2].discard(other)
            removed.append((r, covers.pop(r)))
        return removed

    def deselect(removed: list[tuple[int, set[int]]]):
        for r, colset in reversed(removed):
            covers[r] = colset
            for other in colset:
                for r2 in col_rows[other]:
                    if r2 != r:
                        covers[r2].add(other)

    for cid in forced:
        if cid not in col_rows or any(r not in covers or cid not in covers[r]
                                      for r in col_rows[cid]):
            return None
        solution.append(cid)
        select(cid)

    nodes = 0

    def search() -> bool:
        nonlocal nodes
        if not covers:
            return True
        nodes += 1
        if nodes > exactcover.MAX_NODES:
            raise Budget(f"exact cover passed node budget {exactcover.MAX_NODES}")
        row = min(covers, key=lambda r: (len(covers[r]), r))
        for cid in sorted(covers[row]):
            solution.append(cid)
            removed = select(cid)
            if search():
                return True
            deselect(removed)
            solution.pop()
        return False

    return solution if search() else None


def incidence(columns: Mapping[int, frozenset[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The (column, row) pairs of a dict of frozensets, sorted by column then row."""
    pairs = sorted((cid, r) for cid, rows in columns.items() for r in rows)
    cols, rows = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return cols, rows


def solve(columns, n_rows, forced=()):
    return solve_exact_cover(*incidence(columns), n_rows, forced=forced)


# -- fixed cases ---------------------------------------------------------------

def test_basic_cover():
    columns = {0: frozenset({0, 1}), 1: frozenset({2}), 2: frozenset({0, 2}),
               3: frozenset({1})}
    sol = solve(columns, 3)
    assert sol is not None
    covered = sorted(r for c in sol for r in columns[c])
    assert covered == [0, 1, 2]


def test_deterministic_first_solution():
    columns = {0: frozenset({0}), 1: frozenset({0}), 2: frozenset({1}),
               3: frozenset({1})}
    assert solve(columns, 2) == solve(columns, 2)
    assert solve(columns, 2) == [0, 2]


def test_unsatisfiable():
    columns = {0: frozenset({0, 1}), 1: frozenset({1, 2})}
    assert solve(columns, 3) is None


def test_forced_columns():
    columns = {0: frozenset({0, 1}), 1: frozenset({0}), 2: frozenset({1}),
               3: frozenset({2})}
    sol = solve(columns, 3, forced=[1])
    assert sol is not None and 1 in sol and 0 not in sol
    # forcing two clashing columns is detected up front
    assert solve(columns, 3, forced=[0, 1]) is None


def _matchings(n: int) -> dict[int, frozenset[int]]:
    """Columns of the perfect matchings of the complete graph on n points."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return {cid: frozenset(pair) for cid, pair in enumerate(pairs)}


def test_node_budget(monkeypatch):
    # perfect matchings of an odd-point complete graph: unsatisfiable, but
    # every branch fails only at the very end, so the tree is large
    monkeypatch.setattr(exactcover, "MAX_NODES", 50)
    with pytest.raises(Budget, match="exact cover passed node budget 50"):
        solve(_matchings(13), 13)


def test_covers_unknown_row_rejected():
    with pytest.raises(ValueError):
        solve({0: frozenset({5})}, 3)


def test_unsorted_incidence_rejected():
    with pytest.raises(ValueError, match="ascend"):
        solve_exact_cover(np.array([1, 0]), np.array([0, 1]), 2)
    with pytest.raises(ValueError, match="ascend"):
        solve_exact_cover(np.array([0, 0]), np.array([1, 1]), 2)


def test_empty_incidence():
    assert solve_exact_cover(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 0) == []
    assert solve_exact_cover(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 2) is None


# -- the reference on random small incidences ----------------------------------

def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Budget:
        return Budget


@st.composite
def instances(draw):
    """A random incidence over up to 12 rows, column ids with gaps, a forced
    list drawn from the ids and one unknown id, so forced columns may clash
    or be missing, and a node budget or none."""
    n_rows = draw(st.integers(0, 12))
    n_cols = draw(st.integers(0, 30))
    ids = draw(st.lists(st.integers(0, 40), unique=True, min_size=n_cols, max_size=n_cols))
    columns = {cid: frozenset(draw(st.sets(st.integers(0, n_rows - 1), min_size=1, max_size=4)))
               for cid in sorted(ids)} if n_rows else {}
    forced = draw(st.lists(st.sampled_from(sorted(columns) + [41]), max_size=3))
    budget = draw(st.none() | st.integers(1, 30))
    return columns, n_rows, forced, budget


@settings(max_examples=300, deadline=None)
@given(instances())
def test_matches_reference(case):
    columns, n_rows, forced, budget = case
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(exactcover, "MAX_NODES", budget)
        want = outcome(ref_solve, columns, range(n_rows), forced=forced)
        assert outcome(solve, columns, n_rows, forced=forced) == want


def test_ties_broken_by_least_row_after_backtracking():
    # after a backtrack the uncovered rows no longer sit in id order; the
    # branching row is still the least id among those with fewest candidates
    sets = [{3}, {3, 5}, {0, 1, 2, 3}, {0, 1, 2, 3}, {0, 2, 4, 5}, {0, 3, 4, 5}, {0, 2, 4, 5},
            {1, 2}, {1, 2}, {2, 5}, {1, 3, 5}, {0, 3, 5}, {3, 4}, {0, 2}, {0}, {4}, {0, 1, 5},
            {2, 3, 4}, {0, 2, 4}, {3}, {1, 2, 3, 5}, {0, 3, 4, 5}, {2}, {3, 4}, {1, 2, 3, 5},
            {2, 4}]
    columns = {cid: frozenset(rows) for cid, rows in enumerate(sets)}
    assert solve(columns, 6) == ref_solve(columns, range(6)) == [7, 5]


@pytest.mark.parametrize("budget", [1, 7, 50, 400])
def test_budget_at_the_same_node_as_reference(monkeypatch, budget):
    monkeypatch.setattr(exactcover, "MAX_NODES", budget)
    for n in (5, 7):
        columns = _matchings(n)
        assert outcome(solve, columns, n) == outcome(ref_solve, columns, range(n))
