"""Exact cover by a column-count-minimum backtracker (Algorithm X).

The input is an incidence given as pairs: column ``cols[i]`` covers row
``rows[i]``, sorted by column and then by row, over the universe of rows
``range(n_rows)``; a solution is a set of column ids whose rows partition
the universe.  Branching always targets the uncovered row with the fewest
remaining candidate columns, the least row id among ties, picked by one
``min`` over (count, row) of the uncovered rows; candidates are tried in
column-id order, so the first solution found is deterministic.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import Budget

MAX_NODES = 50_000_000  # search nodes before Budget


def solve_exact_cover(cols: np.ndarray, rows: np.ndarray, n_rows: int,
                      forced: Sequence[int] = ()) -> list[int] | None:
    """First exact cover in deterministic order, or None if unsatisfiable.

    ``forced`` columns are selected up front (returns None if they clash or
    cover no row).  Raises ValueError if a row lies outside range(n_rows) or
    the pairs are not strictly ascending by (column, row); Budget if the node
    budget runs out before the search space is settled.
    """
    cols, rows = np.asarray(cols, dtype=np.int64), np.asarray(rows, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValueError(f"a column covers a row outside range({n_rows})")
    key = cols * n_rows + rows
    if np.any(key[1:] <= key[:-1]):
        raise ValueError("incidence pairs must ascend by (column, row)")
    first = np.flatnonzero(np.diff(cols, prepend=cols[:1] - 1))  # each column's first pair
    col_bounds = [*first.tolist(), len(cols)]
    rows_list = rows.tolist()
    col_rows = {cid: rows_list[a:b] for cid, a, b in
                zip(cols[first].tolist(), col_bounds, col_bounds[1:])}
    by_row = np.argsort(rows)
    row_bounds = np.searchsorted(rows[by_row], np.arange(n_rows + 1)).tolist()
    cols_list = cols[by_row].tolist()
    covers = {r: set(cols_list[a:b]) for r, a, b in
              zip(range(n_rows), row_bounds, row_bounds[1:])}

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
        if nodes > MAX_NODES:
            raise Budget(f"exact cover passed node budget {MAX_NODES}")
        _, row = min(zip(map(len, covers.values()), covers))
        for cid in sorted(covers[row]):
            solution.append(cid)
            removed = select(cid)
            if search():
                return True
            deselect(removed)
            solution.pop()
        return False

    return solution if search() else None
