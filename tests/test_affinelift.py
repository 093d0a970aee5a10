from __future__ import annotations

import numpy as np
import pytest

from steinerkit import affinelift
from steinerkit.affinelift import (
    AffineMap,
    AffineSpace,
    Line,
    all_lines,
    coordinate_group,
    induced_affine_on_line,
    induced_perm_on_line,
    lift_aligned,
    lift_odd,
)
from steinerkit.basedesigns import BaseBlockDesign, build_base_design, km_search
from steinerkit.design import Design, is_1_blocked, is_automorphism, verify_2design
from steinerkit.errors import (
    AlignmentImpossible,
    BadParams,
    Budget,
    DivisibilityViolation,
    NotStabilizing,
    ParityViolation,
)
from steinerkit.gf import PrimeFieldCtx, subgroup_of_order
from steinerkit.permgrp import PermGroup, Permutation, orbits


def test_space_encode_decode():
    sp = AffineSpace(3, 5)
    assert sp.point_count == 125
    for idx in (0, 1, 7, 124):
        assert sp.encode(sp.decode(idx)) == idx
    assert sp.decode(1) == (1, 0, 0)


def test_all_lines_counts():
    assert len(all_lines(AffineSpace(1, 7))) == 1
    assert len(all_lines(AffineSpace(2, 3))) == 12
    assert len(all_lines(AffineSpace(2, 19))) == 380
    sp = AffineSpace(3, 19)
    assert sp.line_count == 137_541


def test_all_lines_budget():
    with pytest.raises(Budget):
        all_lines(AffineSpace(3, 19), budget=1000)


def test_lines_canonical_and_partition():
    sp = AffineSpace(2, 5)
    table = all_lines(sp)
    assert len(table) == 30
    seen = set()
    for line in table:
        # canonical direction: first nonzero coordinate is 1
        nz = [c for c in line.direction if c]
        assert nz and line.direction[next(i for i, c in enumerate(line.direction) if c)] == 1
        # base is the minimal point and the parametrization matches base + x*dir
        assert line.base == min(line.points) == line.points[0]
        base = sp.decode(line.base)
        for x, pt in enumerate(line.points):
            expect = tuple((b + x * d) % 5 for b, d in zip(base, line.direction))
            assert sp.decode(pt) == expect
        key = tuple(sorted(line.points))
        assert key not in seen
        seen.add(key)
    # the full line set is a 2-(25,5,1) design
    assert verify_2design(Design(25, 5, sorted(seen))).ok


def test_coordinate_group_z3():
    g = PermGroup(3, [Permutation.from_cycles(3, [(0, 1, 2)])])
    sp = AffineSpace(3, 5)
    coord, maps = coordinate_group(g, sp)
    assert coord.order() == 3
    assert len(maps) == 1
    gen = coord.generators[0]
    assert gen.order() == 3
    # faithful linear action: basis vector e_0 -> e_1
    assert gen(sp.encode((1, 0, 0))) == sp.encode((0, 1, 0))


def test_coordinate_group_swap_fixes_diagonal():
    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    sp = AffineSpace(2, 19)
    coord, _ = coordinate_group(g, sp)
    swap = coord.generators[0]
    fixed = swap.fixed_points()
    assert len(fixed) == 19
    assert all(sp.decode(pt)[0] == sp.decode(pt)[1] for pt in fixed)


def test_coordinate_group_identity():
    coord, _ = coordinate_group(PermGroup.trivial(2), AffineSpace(2, 3))
    assert coord.order() == 1


def test_induced_group_on_pointwise_fixed_diagonal_is_trivial():
    from steinerkit.permgrp import induced, set_stabilizer

    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    sp = AffineSpace(2, 19)
    coord, _ = coordinate_group(g, sp)
    diagonal = [sp.encode((x, x)) for x in range(19)]
    stab = set_stabilizer(coord, diagonal)
    assert stab.order() == 2  # the swap fixes the diagonal setwise
    ind, _ = induced(stab, diagonal)
    assert ind.order() == 1  # and pointwise: the induced group collapses


def test_induced_affine_identity():
    sp = AffineSpace(2, 19)
    table = all_lines(sp)
    ident = AffineMap(((1, 0), (0, 1)), (0, 0), 19)
    assert induced_affine_on_line(ident, table[0], sp) == (1, 0)


def test_induced_affine_swap_on_diagonal():
    sp = AffineSpace(2, 19)
    table = all_lines(sp)
    swap = AffineMap(((0, 1), (1, 0)), (0, 0), 19)
    diag = next(line for line in table if line.direction == (1, 1) and line.base == 0)
    assert induced_affine_on_line(swap, diag, sp) == (1, 0)  # pointwise fixed
    off_diag = next(line for line in table if line.direction == (1, 0))
    with pytest.raises(NotStabilizing):
        induced_affine_on_line(swap, off_diag, sp)


def test_induced_affine_translation_by_direction():
    sp = AffineSpace(2, 7)
    table = all_lines(sp)
    line = table[0]
    trans = AffineMap(((1, 0), (0, 1)), line.direction, 7)
    assert induced_affine_on_line(trans, line, sp) == (1, 1)


def test_affine_map_rejects_singular():
    with pytest.raises(BadParams):
        AffineMap(((1, 1), (1, 1)), (0, 0), 3)


def line_decomposition(table, group):
    """Orbits of a point group on the lines, over line indices."""
    lines = [frozenset(line.points) for line in table]
    return orbits(group, lines, lambda s, perm: frozenset(perm.images[p] for p in s))


def test_line_orbits_matches_generic_machinery():
    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    sp = AffineSpace(2, 19)
    table = all_lines(sp)
    coord, _ = coordinate_group(g, sp)
    dec = line_decomposition(table, coord)
    # independent check through the generic orbit machinery on point tuples
    keys = [tuple(int(x) for x in row) for row in np.sort(table.points, axis=1)]
    generic = orbits(coord, keys, lambda key, perm: tuple(sorted(perm.images[p] for p in key)))
    assert dec.representatives == generic.representatives
    # the lifts' own sweep picks the same representatives
    lift_orbits = affinelift._line_orbits(g, 19, affinelift.DEFAULT_LINE_BUDGET)
    assert tuple(lift_orbits.reps.tolist()) == generic.representatives
    # transporters reproduce members
    for i in range(len(table)):
        rep, t = dec.transporter[i]
        img = tuple(sorted(t.images[p] for p in table[rep].points))
        assert img == keys[i]


def test_lift_odd_trivial_group_d1_is_the_base_design():
    base = build_base_design(19, 3, (0, 1, 4))
    result = lift_odd(PermGroup.trivial(1), 19, 3, base)
    assert result.design == base.design
    assert result.line_count == 1


def test_lift_odd_trivial_group_d2_p7():
    base = build_base_design(7, 3, (0, 1, 3))
    result = lift_odd(PermGroup.trivial(2), 7, 3, base)
    assert result.design.v == 49
    assert result.design.b == 56 * 7
    assert verify_2design(result.design).ok


def test_lift_odd_parity_violation():
    base = build_base_design(19, 3, (0, 1, 4))
    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    with pytest.raises(ParityViolation):
        lift_odd(g, 19, 3, base)


def test_lift_odd_divisibility_violation():
    base = build_base_design(7, 3, (0, 1, 3))
    g = PermGroup(3, [Permutation.from_cycles(3, [(0, 1, 2)])])
    with pytest.raises(DivisibilityViolation):
        lift_odd(g, 7, 3, base)  # t = 1, |G| = 3


@pytest.fixture(scope="module")
def reverse_sts19():
    inv = Permutation(tuple((-x) % 19 for x in range(19)))
    return km_search(19, 3, PermGroup(19, [inv]), max_nodes=10_000_000), inv


def test_lift_aligned_z2_d2_builds_sts361(reverse_sts19):
    ingredient, inv = reverse_sts19
    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    result = lift_aligned(g, 19, 3, ingredient, inv)
    d = result.design
    assert d.v == 361 and d.b == 380 * 57
    assert verify_2design(d).ok
    for gen in result.group.generators:
        assert is_automorphism(d, gen)


def test_lifted_blocks_are_collinear(reverse_sts19):
    # every block of a lifted design spans exactly one line: with k >= 3
    # collinear points this pins the line, the basis of the 1-blocked argument
    ingredient, inv = reverse_sts19
    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    result = lift_aligned(g, 19, 3, ingredient, inv)
    table = all_lines(result.space)
    lines_by_pair = {}
    for i, line in enumerate(table):
        for a in line.points:
            for b in line.points:
                if a < b:
                    lines_by_pair[(a, b)] = i
    for blk in result.design.block_tuples()[::97]:
        i = lines_by_pair[(blk[0], blk[1])]
        pts = set(table[i].points)
        assert set(blk) <= pts


def test_lift_aligned_trivial_group_plants_everywhere(reverse_sts19):
    ingredient, inv = reverse_sts19
    result = lift_aligned(PermGroup.trivial(2), 19, 3, ingredient, inv)
    assert result.design.b == 380 * 57
    assert verify_2design(result.design).ok
    assert result.orbit_count == 380


def test_lift_aligned_rejects_non_automorphism(reverse_sts19):
    ingredient, _ = reverse_sts19
    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    fake = Permutation.from_cycles(19, [(0, 1)])
    with pytest.raises(AlignmentImpossible):
        lift_aligned(g, 19, 3, ingredient, fake)


def test_lift_aligned_rejects_bad_cycle_structure(reverse_sts19):
    ingredient, inv = reverse_sts19
    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    # an automorphism with the wrong structure: the identity fixes everything
    with pytest.raises(AlignmentImpossible):
        lift_aligned(g, 19, 3, ingredient, Permutation.identity(19))


def test_lift_aligned_double_transporter_consistency(reverse_sts19):
    # planting at a representative with nontrivial stabilizer must commute
    # with every stabilizing element (two transporters, same blocks)
    ingredient, inv = reverse_sts19
    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    result = lift_aligned(g, 19, 3, ingredient, inv)
    table = all_lines(result.space)
    dec = line_decomposition(table, result.group)
    blocks = result.design.block_set()
    stabilized = [r for r, members in zip(dec.representatives, dec.orbit_members)
                  if len(members) == 1]
    assert len(stabilized) == 20  # the swap fixes the diagonal and 19 cross lines
    nontrivial = result.group.elements()[1]
    for r in stabilized[:5]:
        line_pts = set(table[r].points)
        line_blocks = [blk for blk in blocks if set(blk) <= line_pts]
        assert len(line_blocks) == 57
        pushed = {tuple(sorted(nontrivial.images[p] for p in blk)) for blk in line_blocks}
        assert pushed == set(line_blocks)
