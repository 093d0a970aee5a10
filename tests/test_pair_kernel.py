"""The lambda=1 pair kernel against the dict and tuple code it replaced.

``design.pair_counts`` carries ``verify_2design``, ``netstd.verify_td`` and
``netstd.verify_net``; ``is_subdesign`` and ``build_base_design`` work on
block arrays.  The reference implementations below are the earlier
Python-dict and tuple versions; every valid object and every single-point
mutation must get the same verdict from both.  Where a reference leaked a
KeyError or IndexError on a malformed object, the kernel must reject it.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from steinerkit.basedesigns import build_base_design, steiner_triple_system, wilson_base_block
from steinerkit.design import Design, is_subdesign, verify_2design
from steinerkit.errors import AxiomViolation
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


def mutate(rows: tuple[tuple[int, ...], ...], values: range, rng: random.Random):
    """rows with one entry of one row replaced by another value."""
    i = rng.randrange(len(rows))
    j = rng.randrange(len(rows[i]))
    new = rng.choice([x for x in values if x != rows[i][j]])
    row = rows[i][:j] + (new,) + rows[i][j + 1:]
    return rows[:i] + (row,) + rows[i + 1:]


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
    with pytest.raises(AxiomViolation):
        td_from_text("TD k=3 n=1\n0\n1\n2\n0 1 5\n")
    td = cyclic_td(3, 3).td
    with pytest.raises(AxiomViolation):
        verify_td(TransversalDesign(3, 3, td.groups, ((0, 3, -1),) + td.blocks[1:]))
    with pytest.raises(AxiomViolation):
        verify_td(TransversalDesign(3, 3, td.groups, ((0, 3, 6, 9),) + td.blocks[1:]))
    with pytest.raises(AxiomViolation):
        verify_td(TransversalDesign(3, 3, td.groups[:2] + ((6, 7),), td.blocks))


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
    rows = tuple(d.block_tuples())
    variants = [d]
    while len(variants) < 41:
        mutated = mutate(rows, range(d.v), rng)
        if all(len(set(row)) == d.k for row in mutated):
            variants.append(Design(d.v, d.k, mutated))
    for x in variants:
        rep = verify_2design(x)
        assert (rep.ok, rep.pair_deficit, rep.pair_surplus) == ref_verify_2design(x)
    assert verify_2design(d).ok and not any(verify_2design(x).ok for x in variants[1:])


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
    subsets = [[], [0], [d.v, -1, 0]] + [list(row) for row in d.block_tuples()[:10]]
    for _ in range(60):
        pts = rng.sample(range(d.v), rng.randrange(1, d.v + 1))
        subsets += [pts, sorted(_closure(d, set(pts[:3])))]
    found = 0
    for pts in subsets:
        emb = is_subdesign(d, pts)
        ref = ref_is_subdesign(d, pts)
        assert (emb and (emb.points, emb.induced_blocks)) == ref
        found += emb is not None and d.k < len(emb.points) < d.v
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
