"""The lambda=1 pair kernel against the dict and tuple code it replaced.

``design._pair_cover`` (a pair bitmap, and a second one on failure)
carries ``verify_2design``, ``netstd.verify_td`` and ``netstd.verify_net``;
``is_subdesign`` and ``build_base_design`` work on
block arrays.  The reference implementations below are the earlier
Python-dict and tuple versions; every valid object and every single-point
mutation must get the same verdict from both.  Where a reference leaked a
KeyError or IndexError on a malformed object, the kernel must reject it.
The pair covers and the mutated designs also draw their points in uint16,
uint32 or int64.
"""
from __future__ import annotations

import functools
import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerkit import chunkmap, design
from steinerkit.affinelift import lift_odd
from steinerkit.basedesigns import build_base_design, steiner_triple_system, wilson_base_block
from steinerkit.design import Design, _pair_cover, is_subdesign, verify_2design
from steinerkit.errors import AxiomViolation, BadParams, ParseError
from steinerkit.gf import PrimeFieldCtx, is_prime, subgroup_of_order
from steinerkit.netstd import (
    Net,
    TransversalDesign,
    cyclic_td,
    mols_td,
    net_from_affine_plane,
    semilinear_net,
    td_from_text,
    verify_net,
    verify_td,
)
from steinerkit.permgrp import PermGroup

# -- reference implementations ------------------------------------------------


def ref_verify_2design(d: Design) -> tuple[bool, int, int]:
    counts = Counter(pair for row in d.block_tuples() for pair in itertools.combinations(row, 2))
    deficit = sum(1 for pair in itertools.combinations(range(d.v), 2) if pair not in counts)
    surplus = sum(1 for c in counts.values() if c >= 2)
    return deficit == 0 and surplus == 0, deficit, surplus


def ref_verify_td(td: TransversalDesign) -> None:
    k, n = td.k, td.n
    npts = k * n
    if len(td.groups) != k or len(td.blocks) != n * n:
        raise AxiomViolation(f"expected {k} groups and {n * n} blocks")
    covered = [p for grp in td.groups for p in grp]
    if any(len(grp) != n for grp in td.groups) or sorted(covered) != list(range(npts)):
        raise AxiomViolation("groups fail to partition the points")
    grp_of = {p: g for g, grp in enumerate(td.groups) for p in grp}
    pair_count: dict[tuple[int, int], int] = {}
    for block in td.blocks:
        hit = sorted(grp_of[p] for p in block)
        if hit != list(range(k)):
            raise AxiomViolation("a block misses a group or hits one twice")
        for a, b in itertools.combinations(sorted(block), 2):
            pair_count[(a, b)] = pair_count.get((a, b), 0) + 1
    for (a, b), c in pair_count.items():
        if c != 1:
            raise AxiomViolation(f"cross pair ({a},{b}) covered {c} times")
    if len(pair_count) != n * n * k * (k - 1) // 2:
        raise AxiomViolation("cross-pair total off")


def ref_verify_net(net: Net) -> None:
    n, k = net.n, net.k
    npts = n * n
    if len(net.lines) != k * n or len(net.classes) != k:
        raise AxiomViolation(f"expected {k * n} lines in {k} classes")
    for members in net.classes:
        covered = [p for i in members for p in net.lines[i]]
        if len(members) != n or sorted(covered) != list(range(npts)):
            raise AxiomViolation("a parallel class fails to partition the points")
    pair_count: dict[tuple[int, int], int] = {}
    for line in net.lines:
        if len(set(line)) != n:
            raise AxiomViolation("line of wrong size")
        for a, b in itertools.combinations(sorted(line), 2):
            pair_count[(a, b)] = pair_count.get((a, b), 0) + 1
            if pair_count[(a, b)] > 1:
                raise AxiomViolation(f"points {(a, b)} lie on two lines")


def ref_is_subdesign(d: Design, pts) -> tuple | None:
    pset = frozenset(pts)
    inside = []
    for row in d.block_tuples():
        hits = sum(1 for p in row if p in pset)
        if 2 <= hits < d.k:
            return None
        if hits == d.k:
            inside.append(row)
    return tuple(sorted(pset)), tuple(sorted(inside))


def ref_base_design(p: int, k: int, block) -> Design:
    t = (p - 1) // (k * (k - 1))
    sub = subgroup_of_order(PrimeFieldCtx.create(p), t)
    blocks = set()
    for s in sub.elements:
        for b in range(p):
            blocks.add(tuple(sorted((s * a + b) % p for a in block)))
    assert len(blocks) == p * t
    return Design(p, k, sorted(blocks))


# -- verdicts ---------------------------------------------------------------------

def accepted(check, obj, reference: bool) -> bool:
    """True if ``check`` accepts; False on AxiomViolation, and for a reference
    also on the KeyError/IndexError it leaked on malformed input."""
    leaks = (KeyError, IndexError) if reference else ()
    try:
        check(obj)
    except (AxiomViolation, *leaks):
        return False
    return True


def same_verdicts(check, reference, objects) -> int:
    accepts = 0
    for obj in objects:
        ok = accepted(check, obj, reference=False)
        assert ok == accepted(reference, obj, reference=True), obj
        accepts += ok
    return accepts


def mutate(rows: np.ndarray, values: range, rng: random.Random) -> np.ndarray:
    """A copy of rows with one entry of one row replaced by another value."""
    i = rng.randrange(rows.shape[0])
    j = rng.randrange(rows.shape[1])
    out = rows.copy()
    out[i, j] = rng.choice([x for x in values if x != rows[i, j]])
    return out


def td_mutations(td: TransversalDesign, count: int, rng: random.Random):
    values = range(-1, td.point_count + 2)
    for _ in range(count):
        if rng.random() < 0.3:
            yield TransversalDesign(td.k, td.n, mutate(td.groups, values, rng), td.blocks)
        else:
            yield TransversalDesign(td.k, td.n, td.groups, mutate(td.blocks, values, rng))


def net_mutations(net: Net, count: int, rng: random.Random):
    for _ in range(count):
        if rng.random() < 0.3:
            classes = mutate(net.classes, range(-1, len(net.lines) + 1), rng)
            yield Net(net.n, net.k, net.lines, classes)
        else:
            lines = mutate(net.lines, range(-1, net.point_count + 2), rng)
            yield Net(net.n, net.k, lines, net.classes)


TDS = {f"cyclic-3-{n}": (lambda n=n: cyclic_td(3, n).td) for n in (1, 2, 5, 7, 12)}
TDS.update({f"mols-{k}-{n}": (lambda k=k, n=n: mols_td(k, n))
            for k, n in ((3, 6), (4, 3), (4, 9), (5, 1), (4, 12))})
NETS = {f"affine-{n}-{k}": (lambda n=n, k=k: net_from_affine_plane(n, k))
        for n, k in ((3, 3), (4, 3), (5, 6), (7, 8))}
NETS["semilinear-4-2-3"] = lambda: semilinear_net(4, 2, 3).net


@pytest.mark.parametrize("name", sorted(TDS))
def test_verify_td_matches_reference(name):
    td = TDS[name]()
    rng = random.Random(name)
    assert same_verdicts(verify_td, ref_verify_td, [td]) == 1
    assert same_verdicts(verify_td, ref_verify_td, td_mutations(td, 60, rng)) == 0


@pytest.mark.parametrize("name", sorted(NETS))
def test_verify_net_matches_reference(name):
    net = NETS[name]()
    rng = random.Random(name)
    assert same_verdicts(verify_net, ref_verify_net, [net]) == 1
    assert same_verdicts(verify_net, ref_verify_net, net_mutations(net, 60, rng)) == 0


def test_malformed_td_rows_raise_axiom_violation():
    # a TD file's points are bounded by its header, so the reader names the line
    with pytest.raises(ParseError, match="^line 5: point index out of range$"):
        td_from_text("TD k=3 n=1\n0\n1\n2\n0 1 5\n")
    td = cyclic_td(3, 3).td
    with pytest.raises(AxiomViolation):
        verify_td(TransversalDesign(3, 3, td.groups, [(0, 3, -1), *td.blocks[1:].tolist()]))
    with pytest.raises(AxiomViolation):
        verify_td(TransversalDesign(3, 3, td.groups, [(0, 3, 6, 9), *td.blocks[1:].tolist()]))
    with pytest.raises(AxiomViolation):
        verify_td(TransversalDesign(3, 3, [*td.groups[:2].tolist(), (6, 7)], td.blocks))


def _projective_sts15() -> Design:
    """PG(3,2): points the nonzero vectors of GF(2)^4, lines {a, b, a^b}."""
    lines = {tuple(sorted((a - 1, b - 1, (a ^ b) - 1)))
             for a in range(1, 16) for b in range(1, 16) if a != b}
    return Design(15, 3, sorted(lines))


def _designs() -> dict[str, Design]:
    return {
        "fano": build_base_design(7, 3, (0, 1, 3)).design,
        "sts9": steiner_triple_system(9),
        "sts13": steiner_triple_system(13),
        "pg32": _projective_sts15(),
        "base-19-3": build_base_design(19, 3, (0, 1, 4)).design,
        "base-37-4": build_base_design(37, 4, wilson_base_block(37, 4)).design,
    }


@pytest.mark.parametrize("name", sorted(_designs()))
def test_verify_2design_matches_reference(name):
    d = _designs()[name]
    rng = random.Random(name)
    rows = d.blocks
    variants = [d]
    while len(variants) < 41:
        mutated = mutate(rows, range(d.v), rng)
        if all(len(set(row)) == d.k for row in mutated):
            variants.append(Design(d.v, d.k, mutated))
    for x in variants:
        rep = verify_2design(x)
        assert (rep.ok, rep.pair_deficit, rep.pair_surplus) == ref_verify_2design(x)
    assert verify_2design(d).ok and not any(verify_2design(x).ok for x in variants[1:])


DTYPES = (np.uint16, np.uint32, np.int64)


def ref_pair_cover(v: int, tables) -> tuple[int, int]:
    counts = Counter(pair for t in tables for row in t.tolist()
                     for pair in itertools.combinations(row, 2))
    return v * (v - 1) // 2 - len(counts), sum(1 for c in counts.values() if c >= 2)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pair_counts_match_reference_in_every_dtype(data):
    # past v = 363 an unwidened uint16 product i'(i'-1) would wrap
    v = data.draw(st.integers(2, 400), label="v")
    k = data.draw(st.integers(2, min(v, 5)), label="k")
    subset = st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True).map(sorted)
    rows = data.draw(st.lists(subset, max_size=30), label="rows")
    table = np.array(rows, dtype=data.draw(st.sampled_from(DTYPES), label="dtype"))
    table = table.reshape(-1, k)
    assert _pair_cover(v, [table]) == ref_pair_cover(v, [table])


@functools.cache
def _large_design(p: int, k: int) -> Design:
    base = build_base_design(p, k, wilson_base_block(p, k))
    return lift_odd(PermGroup.trivial(2), p, k, base).design


@pytest.mark.parametrize("p, k", [(31, 3), (13, 4)])
@pytest.mark.parametrize("case", ["lambda1", "missing", "doubled", "moved"])
def test_pair_cover_matches_the_reference_in_every_dtype(p, k, case):
    # the lambda=1 tables (v = 961 and 169) fill the reflected pair bitmap
    # and nothing else; a broken one goes on to the counting pass
    d = _large_design(p, k)
    rows = d.blocks[1:]
    pairs = d.blocks[0][np.stack(np.triu_indices(k, 1), axis=1)]  # block 0's pairs as rows
    tables = {"lambda1": [d.blocks],
              "missing": [rows, pairs[1:]],  # one pair in no row
              "doubled": [d.blocks, pairs[:1]],  # one pair in two rows
              "moved": [rows, pairs[1:], pairs[1:2]],  # C(v,2) pairs, one missing, one doubled
              }[case]
    expect = ref_pair_cover(d.v, tables)
    assert (expect == (0, 0)) == (case == "lambda1")
    for dtype in DTYPES:
        assert _pair_cover(d.v, [t.astype(dtype) for t in tables]) == expect


def test_a_failed_pair_cover_holds_two_bitmaps_and_no_counters(monkeypatch):
    # C(v,2) pairs with one missing and one doubled: the verdict pass runs,
    # then the counting pass, each holding one byte a pair and small chunks
    monkeypatch.setattr(design, "_ROWS", 1 << 10)
    d = _large_design(31, 3)
    pairs = d.blocks[0][np.stack(np.triu_indices(3, 1), axis=1)]
    tables = [d.blocks[1:], pairs[1:], pairs[1:2]]
    tracemalloc.start()
    try:
        got = _pair_cover(d.v, tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ref_pair_cover(d.v, tables) == (1, 1)
    assert peak < 3 * (d.v * (d.v - 1) // 2)


def _fano() -> np.ndarray:
    return build_base_design(7, 3, (0, 1, 3)).design.blocks


EDGE_CASES = {
    "v0": lambda: (0, [np.empty((0, 3), np.int64)]),
    "v1": lambda: (1, [np.empty((0, 2), np.int64), np.zeros((1, 1), np.int64)]),
    "v2": lambda: (2, [np.array([[0, 1]])]),
    "v2-no-rows": lambda: (2, [np.empty((0, 2), np.int64)]),
    "v2-pair-twice": lambda: (2, [np.array([[0, 1], [0, 1]])]),
    "k-past-v": lambda: (2, [np.empty((0, 3), np.int64)]),
    "k1": lambda: (3, [np.array([[0], [1], [2]])]),
    "repeated-block": lambda: (7, [np.concatenate([_fano(), _fano()[3:4]])]),
    "pair-thrice": lambda: (7, [_fano(), np.array([[0, 1], [0, 1]])]),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_pair_cover_edge_cases_match_the_reference(case):
    v, tables = EDGE_CASES[case]()
    expect = ref_pair_cover(v, tables)
    if case == "pair-thrice":
        assert expect == (0, 1)  # a pair covered three times is counted once
    for dtype in DTYPES:
        assert _pair_cover(v, [t.astype(dtype) for t in tables]) == expect


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("case", ["extra", "moved"])
def test_pair_cover_counts_repeats_inside_and_across_chunks(case, rows, workers, monkeypatch):
    # the pairs table repeats pairs at distance two, in one chunk of 3 rows
    # and across chunks of 1 row; the STS(9) blocks meet them in other chunks
    monkeypatch.setattr(chunkmap, "WORKERS", workers)
    if rows is not None:
        monkeypatch.setattr(design, "_ROWS", rows)
    blocks = steiner_triple_system(9).blocks
    pairs = np.array([[0, 1], [2, 3], [0, 1], [4, 8], [2, 3], [0, 1], [5, 7], [4, 8]])
    tables = {"extra": [blocks, pairs, blocks[::4]],
              "moved": [blocks[1:], pairs[:3]],  # C(9,2) pairs in all: the verdict pass runs
              }[case]
    expect = ref_pair_cover(9, tables)
    assert expect[1] > 0
    assert _pair_cover(9, tables) == expect


@functools.cache
def _design(name: str) -> Design:
    return _designs()[name]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verify_2design_single_point_mutation(data):
    d = _design(data.draw(st.sampled_from(["fano", "sts9", "sts13", "base-37-4"])))
    i = data.draw(st.integers(0, d.b - 1), label="block")
    j = data.draw(st.integers(0, d.k - 1), label="position")
    row = d.blocks[i].tolist()
    row[j] = data.draw(st.sampled_from([x for x in range(d.v) if x not in row]), label="point")
    blocks = d.blocks.astype(data.draw(st.sampled_from(DTYPES), label="dtype"))
    blocks[i] = row
    mutated = Design(d.v, d.k, blocks)
    rep = verify_2design(mutated)
    assert (rep.ok, rep.pair_deficit, rep.pair_surplus) == ref_verify_2design(mutated)
    assert not rep.ok


def _closure(d: Design, pts: set[int]) -> set[int]:
    third = {}
    for row in d.block_tuples():
        for a, b in itertools.combinations(row, 2):
            third[a, b] = row
    while True:
        grown = pts | {p for a, b in itertools.combinations(sorted(pts), 2) for p in third[a, b]}
        if grown == pts:
            return pts
        pts = grown


@pytest.mark.parametrize("name", sorted(_designs()))
def test_is_subdesign_matches_reference(name):
    d = _designs()[name]
    rng = random.Random(name)
    for off in ([d.v, 0], [-1, 0]):  # points off the design are refused, not ignored
        with pytest.raises(BadParams, match=f"a point outside 0..{d.v - 1}"):
            is_subdesign(d, off)
    subsets = [[], [0], [d.v - 1, 0]] + [list(row) for row in d.block_tuples()[:10]]
    for _ in range(60):
        pts = rng.sample(range(d.v), rng.randrange(1, d.v + 1))
        subsets += [pts, sorted(_closure(d, set(pts[:3])))]
    found = 0
    for pts in subsets:
        ok = is_subdesign(d, pts)
        assert ok is (ref_is_subdesign(d, pts) is not None)
        found += ok and d.k < len(set(pts)) < d.v
    if name == "pg32":
        assert found  # the Fano subplanes


def test_base_designs_match_set_reference():
    primes = [(k, p) for k, limit in ((3, 600), (4, 250))
              for p in range(k * (k - 1) + 1, limit, 2 * k * (k - 1)) if is_prime(p)]
    assert len(primes) == 34
    for k, p in primes:
        block = wilson_base_block(p, k)
        got = build_base_design(p, k, block).design
        assert got.digest() == ref_base_design(p, k, block).digest(), (p, k)
