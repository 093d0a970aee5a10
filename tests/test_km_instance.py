"""The Kramer-Mesner instance against the Python loops it replaced.

``basedesigns.km_instance`` takes its pair and block orbits from
``orbit_sweep`` over the generators' image tables, indexed by a closed-form
subset rank, and its cover counts from one ``np.unique``; it never
enumerates the group, and it keeps the incidence as sorted arrays.  The
reference below is the earlier version: every k-subset and every group
element in Python, with tuple orbits, dict cover counts and a dict of
frozensets for the columns.  Both must give identical instances once the
arrays are read back as such a dict.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from steinerkit import basedesigns, permgrp
from steinerkit.basedesigns import (KMInstance, _subset_rank, _subsets, km_instance,
                                    multiplier_group)
from steinerkit.errors import Budget
from steinerkit.permgrp import PermGroup, Permutation

# -- reference implementation --------------------------------------------------


@dataclass(frozen=True, eq=False)
class RefInstance:
    blocks: np.ndarray
    block_orbit: np.ndarray
    pair_reps: np.ndarray
    columns: dict[int, frozenset[int]]
    dropped_columns: int


def ref_km_instance(v: int, k: int, group: PermGroup) -> RefInstance:
    elements = group.elements()

    pair_row: dict[tuple[int, int], int] = {}
    pair_reps: list[tuple[int, int]] = []
    for pair in itertools.combinations(range(v), 2):
        if pair in pair_row:
            continue
        row = len(pair_reps)
        pair_reps.append(pair)
        for g in elements:
            img = (g.images[pair[0]], g.images[pair[1]])
            pair_row[(min(img), max(img))] = row

    orbit_of: dict[tuple[int, ...], int] = {}
    columns: dict[int, frozenset[int]] = {}
    rep_pairs = {pair: i for i, pair in enumerate(pair_reps)}
    dropped = n_orbits = 0
    combos = list(itertools.combinations(range(v), k))
    for combo in combos:
        if combo in orbit_of:
            continue
        orbit = {tuple(sorted(g.images[x] for x in combo)) for g in elements}
        cid = n_orbits
        n_orbits += 1
        orbit_of.update(dict.fromkeys(orbit, cid))
        cover: dict[int, int] = {}
        for blk in orbit:
            for pair in itertools.combinations(blk, 2):
                row = rep_pairs.get(pair)
                if row is not None:
                    cover[row] = cover.get(row, 0) + 1
        if any(c > 1 for c in cover.values()):
            dropped += 1
            continue
        columns[cid] = frozenset(cover)
    return RefInstance(np.array(combos, dtype=np.int64).reshape(-1, k),
                       np.array([orbit_of[c] for c in combos], dtype=np.int64),
                       np.array(pair_reps, dtype=np.int64).reshape(-1, 2), columns, dropped)


def columns_dict(inst: KMInstance) -> dict[int, frozenset[int]]:
    """The instance's incidence arrays read back as the reference's dict."""
    bounds = np.searchsorted(inst.cover_col, np.append(inst.columns, inst.columns[-1:] + 1))
    return {cid: frozenset(inst.cover_row[bounds[i]:bounds[i + 1]].tolist())
            for i, cid in enumerate(inst.columns.tolist())}


def assert_same(got: KMInstance, want: RefInstance) -> None:
    for name in ("blocks", "block_orbit", "pair_reps", "columns", "cover_col", "cover_row"):
        arr = getattr(got, name)
        assert arr.dtype == np.int64 and not arr.flags.writeable
    for name in ("blocks", "block_orbit", "pair_reps"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    key = got.cover_col * len(got.pair_reps) + got.cover_row
    assert np.all(key[1:] > key[:-1])
    np.testing.assert_array_equal(got.columns, np.unique(got.cover_col))
    assert columns_dict(got) == want.columns
    assert list(columns_dict(got)) == list(want.columns)
    assert got.dropped_columns == want.dropped_columns


# -- random small groups -------------------------------------------------------

@st.composite
def km_groups(draw):
    """A group of degree <= 12 from 0-2 random generators; groups above 5040
    elements are skipped, since the reference enumerates them."""
    v = draw(st.integers(4, 12))
    gens = draw(st.lists(st.permutations(range(v)), max_size=2))
    group = PermGroup(v, [Permutation(tuple(g)) for g in gens])
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(permgrp, "DEFAULT_CAP", 5040)
            group.elements()
    except Budget:
        assume(False)
    return group, draw(st.sampled_from((3, 4)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(km_groups())
def test_km_instance_matches_reference(case):
    group, k = case
    assert_same(km_instance(group.degree, k, group), ref_km_instance(group.degree, k, group))


# -- the closed-form subset rank -----------------------------------------------

@pytest.mark.parametrize("s", [2, 3, 4])
def test_subset_rank_is_the_combinations_index(s):
    for v in range(s, 13):
        rows = np.array(list(itertools.combinations(range(v), s)), dtype=np.int64)
        np.testing.assert_array_equal(_subset_rank(rows.T, v), np.arange(len(rows)))
        np.testing.assert_array_equal(_subsets(v, s), rows)


@pytest.mark.parametrize("v, s", [(21, 3), (200, 2), (757, 3), (60, 6)])
def test_subset_rank_matches_math_comb(v, s):
    rng = np.random.default_rng(v)
    rows = np.array([sorted(rng.choice(v, s, replace=False)) for _ in range(300)]
                    + [list(range(s)), list(range(v - s, v))], dtype=np.int64)
    expect = [math.comb(v, s) - 1 - sum(math.comb(v - 1 - c, s - i) for i, c in enumerate(row))
              for row in rows.tolist()]
    assert _subset_rank(rows.T, v).tolist() == expect
    assert expect[-2:] == [0, math.comb(v, s) - 1]


def test_km_search_ranks_its_forced_blocks_in_one_call(monkeypatch):
    shift = PermGroup(21, [Permutation(tuple((i + 7) % 21 for i in range(21)))])
    ranked = []

    def counted(points, v):
        ranked.append(np.shape(points))
        return _subset_rank(points, v)

    monkeypatch.setattr(basedesigns, "_subset_rank", counted)
    basedesigns.km_search(21, 3, shift)
    plain = len(ranked)
    d = basedesigns.km_search(21, 3, shift,
                              forced_blocks=[(i, i + 7, i + 14) for i in range(7)] + [(2, 1, 0)])
    assert len(ranked) == 2 * plain and ranked[-1] == (3, 8)
    assert {(i, i + 7, i + 14) for i in range(7)} <= set(d.block_tuples())


# -- the benchmark's instance shapes -------------------------------------------

def _perm(v, f):
    return Permutation(tuple(f(x) % v for x in range(v)))


def _one_fixed_point_involution(p):
    """The CLI's canonical order-2 generator on p points: fixes 0, swaps 2i-1, 2i."""
    return Permutation((0,) + tuple(x + 1 if x % 2 else x - 1 for x in range(1, p)))


SHAPES = (
    [(v, _perm(v, lambda x: -x)) for v in (19, 25, 27, 33, 43, 49, 57)]
    + [(v, _perm(v, lambda x, s=s: s * x)) for v, s in ((19, 7), (31, 5), (37, 10), (43, 6))]
    + [(v, _perm(v, lambda x, q=v // 3: x + q)) for v in (21, 27, 33, 21, 21)]
    + [(19, _one_fixed_point_involution(19))])


def test_benchmark_instance_shapes():
    got = []
    for v, g in SHAPES:
        group = PermGroup(v, [g])
        inst = km_instance(v, 3, group)
        assert_same(inst, ref_km_instance(v, 3, group))
        got.append([v, len(inst.columns), inst.dropped_columns])
    assert sorted(got) == [
        [19, 321, 6], [19, 417, 72], [19, 417, 72], [21, 448, 0], [21, 448, 0], [21, 448, 0],
        [25, 1024, 132], [27, 981, 0], [27, 1313, 156], [31, 1495, 10], [33, 1826, 0],
        [33, 2496, 240], [37, 2586, 12], [43, 4109, 14], [43, 5761, 420], [49, 8672, 552],
        [57, 13888, 756]]


def test_large_group_is_never_enumerated(monkeypatch):
    group = multiplier_group(79, 13)
    assert group.order() == 1027
    want = ref_km_instance(79, 3, group)

    def refuse(self):
        raise AssertionError("km_instance enumerated the group")

    monkeypatch.setattr(PermGroup, "elements", refuse)
    assert_same(km_instance(79, 3, PermGroup(79, group.generators)), want)

