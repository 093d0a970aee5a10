"""The Kramer-Mesner instance against the Python loops it replaced.

``basedesigns.km_instance`` takes its pair and block orbits from
``orbit_sweep`` over the generators' image tables and its cover counts from
one ``np.unique``; it never enumerates the group.  The reference below is
the earlier version: every k-subset and every group element in Python, with
tuple orbits and dict cover counts.  Both must give identical instances.
"""
from __future__ import annotations

import itertools

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from steinerkit.basedesigns import KMInstance, km_instance, multiplier_group
from steinerkit.errors import CapExceeded
from steinerkit.permgrp import PermGroup, Permutation

# -- reference implementation --------------------------------------------------


def ref_km_instance(v: int, k: int, group: PermGroup) -> KMInstance:
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

    block_reps: list[tuple[int, ...]] = []
    orbit_blocks: list[tuple[tuple[int, ...], ...]] = []
    columns: dict[int, frozenset[int]] = {}
    seen: set[tuple[int, ...]] = set()
    rep_pairs = {pair: i for i, pair in enumerate(pair_reps)}
    dropped = 0
    for combo in itertools.combinations(range(v), k):
        if combo in seen:
            continue
        orbit = {tuple(sorted(g.images[x] for x in combo)) for g in elements}
        seen.update(orbit)
        cover: dict[int, int] = {}
        for blk in orbit:
            for pair in itertools.combinations(blk, 2):
                row = rep_pairs.get(pair)
                if row is not None:
                    cover[row] = cover.get(row, 0) + 1
        cid = len(block_reps)
        block_reps.append(combo)
        orbit_blocks.append(tuple(sorted(orbit)))
        if any(c > 1 for c in cover.values()):
            dropped += 1
            continue
        columns[cid] = frozenset(cover)
    return KMInstance(v, k, tuple(pair_reps), tuple(block_reps), columns,
                      tuple(orbit_blocks), dropped)


def assert_same(got: KMInstance, want: KMInstance) -> None:
    assert got.pair_orbit_reps == want.pair_orbit_reps
    assert got.block_orbit_reps == want.block_orbit_reps
    assert got.columns == want.columns
    assert list(got.columns) == list(want.columns)
    assert got.orbit_blocks == want.orbit_blocks
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
        group.elements(cap=5040)
    except CapExceeded:
        assume(False)
    return group, draw(st.sampled_from((3, 4)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(km_groups())
def test_km_instance_matches_reference(case):
    group, k = case
    assert_same(km_instance(group.degree, k, group), ref_km_instance(group.degree, k, group))


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

    def refuse(self, cap=None):
        raise AssertionError("km_instance enumerated the group")

    monkeypatch.setattr(PermGroup, "elements", refuse)
    assert_same(km_instance(79, 3, PermGroup(79, group.generators)), want)

