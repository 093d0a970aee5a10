"""Exact cover by a column-count-minimum backtracker (Algorithm X).

Columns are candidate sets over a universe of row ids; a solution is a set
of column ids whose sets partition the universe.  Branching always targets
the uncovered row with the fewest remaining candidate columns; ties and the
candidate order are broken by column id, so the first solution found is
deterministic.
"""
from __future__ import annotations

from typing import Mapping, Sequence

from .errors import Budget

MAX_NODES = 50_000_000  # search nodes before Budget


def solve_exact_cover(columns: Mapping[int, frozenset[int]], universe: Sequence[int],
                      forced: Sequence[int] = ()) -> list[int] | None:
    """First exact cover in deterministic order, or None if unsatisfiable.

    ``forced`` columns are selected up front (returns None if they clash).
    Raises Budget if the node budget runs out before the search
    space is settled.
    """
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
        if nodes > MAX_NODES:
            raise Budget(f"exact cover passed node budget {MAX_NODES}")
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
