from __future__ import annotations

import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from steinerkit import affinelift
from steinerkit.affinelift import (
    AffineSpace,
    all_lines,
    coordinate_group,
    induced_perm_on_line,
    lift_aligned,
    lift_odd,
    line_images,
    line_points,
)
from steinerkit.basedesigns import (build_base_design, km_search, steiner_triple_system,
                                    wilson_base_block)
from steinerkit.design import Design, brute_aut, is_automorphism, verify_2design
from steinerkit.errors import ActionEscape, BadParams, Budget
from steinerkit.permgrp import PermGroup, Permutation, orbit_sweep, set_images

ROOT = Path(__file__).resolve().parent.parent


def decode(sp: AffineSpace, idx: int) -> tuple[int, ...]:
    return tuple(idx // sp.p**j % sp.p for j in range(sp.d))


def encode(sp: AffineSpace, vec) -> int:
    return sum(c % sp.p * sp.p**j for j, c in enumerate(vec))


def direction(sp: AffineSpace, row) -> tuple[int, ...]:
    """A line's direction from its first two points."""
    return tuple(((sp.coords[row[1]] - sp.coords[row[0]]) % sp.p).tolist())


def reference_lines(sp: AffineSpace) -> list[list[int]]:
    """Every line as base + x*direction, with the least point as base and a
    direction whose first nonzero coordinate is 1, sorted by (base, encoded
    direction)."""
    dirs = [v for v in itertools.product(range(sp.p), repeat=sp.d)
            if any(v) and next(c for c in v if c) == 1]
    rows = []
    for base in range(sp.point_count):
        b = decode(sp, base)
        for v in dirs:
            row = [encode(sp, [bi + x * vi for bi, vi in zip(b, v)]) for x in range(sp.p)]
            if min(row) == base:
                rows.append((base, encode(sp, v), row))
    return [row for *_, row in sorted(rows)]


def reference_coordinate_perm(g: Permutation, sp: AffineSpace) -> Permutation:
    """Decode each point, move its coordinate i to position g(i), encode."""
    images = []
    for idx in range(sp.point_count):
        moved = [0] * sp.d
        for i, c in enumerate(decode(sp, idx)):
            moved[g.images[i]] = c
        images.append(encode(sp, moved))
    return Permutation(tuple(images))


def test_space_encode_decode():
    sp = AffineSpace(3, 5)
    assert sp.point_count == 125
    for idx in (0, 1, 7, 124):
        assert tuple(sp.coords[idx].tolist()) == decode(sp, idx)
        assert int(sp.coords[idx] @ sp.weights) == idx
    assert tuple(sp.coords[1].tolist()) == (1, 0, 0)


def test_all_lines_counts():
    assert len(all_lines(AffineSpace(1, 7))) == 1
    assert len(all_lines(AffineSpace(2, 3))) == 12
    assert len(all_lines(AffineSpace(2, 19))) == 380
    sp = AffineSpace(3, 19)
    assert sp.line_count == 137_541


@pytest.mark.parametrize("d", [2, 3])
def test_all_lines_is_the_reference_array(d):
    sp = AffineSpace(d, 5)
    keys = all_lines(sp)
    assert isinstance(keys, np.ndarray) and keys.dtype == np.int64
    assert np.all(keys[1:] > keys[:-1])
    table = line_points(sp, keys)
    assert table.dtype == np.uint16
    assert table.shape == (sp.line_count, 5)
    assert table.tolist() == reference_lines(sp)


@pytest.mark.parametrize("d, p", [(d, p) for d in (1, 2, 3) for p in (3, 7)])
def test_line_points_of_every_key_are_the_reference_lines(d, p):
    sp = AffineSpace(d, p)
    assert line_points(sp, all_lines(sp)).tolist() == reference_lines(sp)


SWAP, Z3, S3 = ([Permutation.from_cycles(3, cycles) for cycles in gens]
                for gens in ([[(0, 1)]], [[(0, 1, 2)]], [[(0, 1, 2)], [(0, 1)]]))
GROUPS = {1: [[]], 2: [[], [Permutation.from_cycles(2, [(0, 1)])]], 3: [[], SWAP, Z3, S3]}


@pytest.mark.parametrize("d, p", [(d, p) for d in (1, 2, 3) for p in (3, 5, 7, 19)])
def test_line_images_equal_the_set_lookup(d, p):
    sp = AffineSpace(d, p)
    keys = all_lines(sp)
    rows = line_points(sp, keys)
    for gens in GROUPS[d]:
        group = PermGroup(d, gens) if gens else PermGroup.trivial(d)
        elements = coordinate_group(group, sp).elements()
        assert np.array_equal(line_images(sp, keys, elements), set_images(rows, elements))


def ref_line_images(space: AffineSpace, keys: np.ndarray, elements) -> np.ndarray:
    """The key lookup ``line_images`` made before its closed-form index: each
    image line's key found by ``np.searchsorted`` among the keys."""
    n, p = space.point_count, space.p
    coords = space.coords
    norm, last, last_inv = affinelift._directions(space)
    base, dirs = np.divmod(keys, n)
    rows = np.arange(len(keys))
    out = np.empty((len(elements), len(keys)), dtype=np.int64)
    for e, (slot, g) in enumerate(zip(out, elements)):
        step = norm[g.images[dirs]]
        start = coords[g.images[base]]
        shift = start[rows, last[step]] * last_inv[step] % p
        image = (start - shift[:, None] * coords[step]) % p @ space.weights * n + step
        slot[:] = np.minimum(np.searchsorted(keys, image), len(keys) - 1)
        if np.any(keys[slot] != image):
            raise ActionEscape(f"element {e} maps a line outside the given lines")
    return out


def coordinate_groups(d: int) -> list[PermGroup]:
    """The trivial group, the cyclic shift, a transposition and S_d on d coordinates."""
    shift = Permutation(tuple((i + 1) % d for i in range(d)))
    swap = Permutation.from_cycles(d, [(0, d - 1)]) if d > 1 else shift
    return [PermGroup.trivial(d), PermGroup(d, [shift]), PermGroup(d, [swap]),
            PermGroup(d, [shift, swap])]


def outcome(fn, *args):
    """What fn gives: its table as a list, or the type and message it raises."""
    try:
        return fn(*args).tolist()
    except (ActionEscape, BadParams) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("d, p", [(d, p) for d in (1, 2, 3) for p in (2, 3, 5, 7)]
                         + [(4, 2), (4, 3), (4, 5)])
def test_line_images_are_the_searchsorted_reference(d, p):
    sp = AffineSpace(d, p)
    keys = all_lines(sp)
    for group in coordinate_groups(d):
        elements = coordinate_group(group, sp).elements()
        assert np.array_equal(line_images(sp, keys, elements),
                              ref_line_images(sp, keys, elements))


@pytest.mark.parametrize("d, p", [(2, 3), (2, 5), (3, 3), (4, 3)])
def test_line_images_of_a_subset_are_the_reference_answer(d, p):
    sp = AffineSpace(d, p)
    keys = all_lines(sp)
    rng = np.random.default_rng(d * 100 + p)
    for group in coordinate_groups(d)[1:]:
        elements = coordinate_group(group, sp).elements()
        reps, orbit_of = orbit_sweep(line_images(sp, keys, elements))
        # a union of orbits: positions into the subset's keys
        union = keys[np.isin(orbit_of, rng.choice(len(reps), len(reps) // 2, replace=False))]
        got = line_images(sp, union, elements)
        assert np.array_equal(got, ref_line_images(sp, union, elements))
        assert got.max() < len(union)
        # one line of a moved orbit left out: the first element moving it escapes
        moved = np.flatnonzero(np.bincount(orbit_of)[orbit_of] > 1)[0]
        short = np.delete(keys, moved)
        escape = next(e for e, g in enumerate(elements)
                      if line_images(sp, keys, [g])[0][moved] != moved)
        with pytest.raises(ActionEscape,
                           match=f"^element {escape} maps a line outside the given lines$"):
            line_images(sp, short, elements)
        # every line in another order: positions into that order
        order = rng.permutation(len(keys))
        at = np.empty_like(order)
        at[order] = np.arange(len(keys))
        assert np.array_equal(line_images(sp, keys[order], elements),
                              at[line_images(sp, keys, elements)[:, order]])
        for _ in range(10):  # random subsets: the same table or the same refusal
            subset = keys[np.sort(rng.choice(len(keys), rng.integers(0, len(keys)),
                                             replace=False))]
            assert outcome(line_images, sp, subset, elements) == outcome(
                ref_line_images, sp, subset, elements)


def test_line_images_refuse_a_key_that_is_no_line():
    sp = AffineSpace(2, 3)
    keys = all_lines(sp)
    ident = coordinate_group(PermGroup.trivial(2), sp).elements()
    for bad in (encode(sp, (0, 1)) * 9 + encode(sp, (2, 0)),  # direction not normalized
                encode(sp, (0, 1)) * 9 + encode(sp, (0, 1)),  # base not the line's least point
                encode(sp, (0, 0)) * 9,  # direction 0
                81, -1):  # base outside the space
        with pytest.raises(BadParams, match=r"^a key is no line of AG\(2,3\)$"):
            line_images(sp, np.append(keys, bad), ident)


def test_line_images_find_the_identity_without_is_identity(monkeypatch):
    sp = AffineSpace(3, 5)
    keys = all_lines(sp)
    elements = coordinate_group(PermGroup(3, [Permutation((1, 2, 0))]), sp).elements()
    assert elements[0].is_identity()
    calls = []
    monkeypatch.setattr(Permutation, "is_identity", lambda g: calls.append(g))
    table = line_images(sp, keys, elements)
    assert not calls
    assert np.array_equal(table[0], np.arange(len(keys)))
    assert np.array_equal(table, ref_line_images(sp, keys, elements))


def test_lift_odd_z3_at_19_makes_the_counts_the_benchmark_pins(monkeypatch):
    # certbench's span guard fails a traced odd-lift-z3 run on any other count
    pinned = json.loads((ROOT / "certbench" / "expected.json").read_text())
    assert pinned["odd-lift-z3"]["counts"] == {"affinelift.lines": 137_541,
                                                "affinelift.line_orbits": 45_873,
                                                "affinelift.lift_identity_calls": 45_951}
    counts = {"lines": 0, "identity": 0}
    inside = []
    is_identity, lines = Permutation.is_identity, affinelift.all_lines

    def counted_identity(g):
        counts["identity"] += bool(inside)
        return is_identity(g)

    def counted_lines(space):
        table = lines(space)
        counts["lines"] += len(table)
        return table

    monkeypatch.setattr(Permutation, "is_identity", counted_identity)
    monkeypatch.setattr(affinelift, "all_lines", counted_lines)
    z3 = PermGroup(3, [Permutation.from_cycles(3, [(0, 1, 2)])])
    base = build_base_design(19, 3, wilson_base_block(19, 3))
    inside.append(True)
    result = lift_odd(z3, 19, 3, base)
    inside.clear()
    assert (counts["lines"], result.orbit_count, counts["identity"]) == (137_541, 45_873, 45_951)
    assert result.design.b == 7_839_837


def test_line_orbits_stabilizers_are_the_fixing_elements():
    orb = affinelift._line_orbits(PermGroup(3, S3), 5)
    expect = [(r, e) for r, line in enumerate(orb.lines.tolist())
              for e, g in enumerate(orb.elements) if set(g.images[line].tolist()) == set(line)]
    assert list(zip(orb.rep_of.tolist(), orb.element_of.tolist())) == expect
    assert len(expect) > len(orb.reps)  # some line has a stabilizer


def test_line_images_refuse_an_element_that_is_no_coordinate_permutation():
    sp = AffineSpace(2, 3)
    keys = all_lines(sp)
    ident = Permutation.identity(9)
    for bad in (Permutation.from_cycles(9, [(1, 2)]),  # a transposition of two points
                # x -> 2x: linear, but it moves no coordinate to another
                Permutation([(2 * x) % 3 + 3 * ((2 * y) % 3) for y in range(3) for x in range(3)]),
                Permutation.identity(27)):  # a point permutation of another space
        with pytest.raises(BadParams, match=rf"^element 1 {re.escape(repr(bad))} is not a "
                                            r"coordinate permutation of AG\(2,3\)$"):
            line_images(sp, keys, [ident, bad])


def test_line_images_escape():
    sp = AffineSpace(2, 3)
    keys = all_lines(sp)
    swap, = coordinate_group(PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])]), sp).generators
    image = line_images(sp, keys, [swap])[0]
    moved = int(np.argmax(image != np.arange(len(keys))))
    # without the image of a moved line among the keys, the moved line escapes
    with pytest.raises(ActionEscape, match="^element 0 maps a line outside the given lines$"):
        line_images(sp, np.delete(keys, image[moved]), [swap])


def test_all_lines_budget():
    sp = AffineSpace(4, 37)
    assert sp.line_count == 2_636_995_180 > affinelift.DEFAULT_LINE_BUDGET
    with pytest.raises(Budget):
        all_lines(sp)
    assert "coords" not in vars(sp)  # refused before the coordinate table is built


def test_lines_canonical_and_partition():
    sp = AffineSpace(2, 5)
    table = line_points(sp, all_lines(sp))
    assert len(table) == 30
    seen = set()
    for row in table.tolist():
        # canonical direction: first nonzero coordinate is 1
        vec = direction(sp, row)
        assert next(c for c in vec if c) == 1
        # base is the minimal point and the parametrization matches base + x*dir
        assert row[0] == min(row)
        base = decode(sp, row[0])
        for x, pt in enumerate(row):
            assert decode(sp, pt) == tuple((b + x * c) % 5 for b, c in zip(base, vec))
        key = tuple(sorted(row))
        assert key not in seen
        seen.add(key)
    # the full line set is a 2-(25,5,1) design
    assert verify_2design(Design(25, 5, sorted(seen))).ok


def test_coordinate_group_z3():
    g = PermGroup(3, [Permutation.from_cycles(3, [(0, 1, 2)])])
    sp = AffineSpace(3, 5)
    coord = coordinate_group(g, sp)
    assert coord.order() == 3
    gen, = coord.generators
    assert gen == reference_coordinate_perm(g.generators[0], sp)
    assert gen.order() == 3
    # faithful linear action: basis vector e_0 -> e_1
    assert gen(encode(sp, (1, 0, 0))) == encode(sp, (0, 1, 0))


def test_coordinate_group_swap_fixes_diagonal():
    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    sp = AffineSpace(2, 19)
    swap, = coordinate_group(g, sp).generators
    assert swap == reference_coordinate_perm(g.generators[0], sp)
    fixed = swap.fixed_points()
    assert len(fixed) == 19
    assert all(decode(sp, pt)[0] == decode(sp, pt)[1] for pt in fixed)


def test_coordinate_group_identity():
    coord = coordinate_group(PermGroup.trivial(2), AffineSpace(2, 3))
    assert coord.order() == 1


def test_coordinate_group_matches_reference_on_s4():
    g = PermGroup(4, [Permutation.from_cycles(4, [(0, 1)]),
                      Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    sp = AffineSpace(4, 3)
    coord = coordinate_group(g, sp)
    assert list(coord.generators) == [reference_coordinate_perm(h, sp) for h in g.generators]
    assert coord.order() == 24


def test_induced_group_on_pointwise_fixed_diagonal_is_trivial():
    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    orb = affinelift._line_orbits(g, 19)
    table = line_points(orb.space, all_lines(orb.space))
    diagonal = next(i for i, row in enumerate(table)
                    if row[0] == 0 and direction(orb.space, row) == (1, 1))
    r = int(orb.orbit_of[diagonal])
    assert orb.reps[r] == diagonal and np.array_equal(orb.lines[r], table[diagonal])
    stabilizer = [orb.elements[e] for e in orb.element_of[orb.rep_of == r]]
    assert len(stabilizer) == 2  # the swap fixes the diagonal setwise
    # and pointwise: every induced action is the identity
    assert all(induced_perm_on_line(h, orb.lines[r]).is_identity() for h in stabilizer)


def test_induced_affine_identity():
    sp = AffineSpace(2, 19)
    table = line_points(sp, all_lines(sp))
    ident, = coordinate_group(PermGroup.trivial(2), sp).generators
    assert induced_perm_on_line(ident, table[0]).is_identity()


def test_induced_affine_swap_on_diagonal():
    sp = AffineSpace(2, 19)
    table = line_points(sp, all_lines(sp))
    swap, = coordinate_group(PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])]),
                             sp).generators
    diag = next(row for row in table if direction(sp, row) == (1, 1) and row[0] == 0)
    assert induced_perm_on_line(swap, diag).is_identity()  # pointwise fixed
    off_diag = next(row for row in table if direction(sp, row) == (1, 0))
    with pytest.raises(BadParams, match="permutation does not stabilize the line"):
        induced_perm_on_line(swap, off_diag)


def test_induced_affine_translation_by_direction():
    sp = AffineSpace(2, 7)
    line = line_points(sp, all_lines(sp))[0]
    shift = ((sp.coords + direction(sp, line)) % sp.p) @ sp.weights
    trans = Permutation(tuple(shift.tolist()))
    assert induced_perm_on_line(trans, line).images.tolist() == [(x + 1) % 7 for x in range(7)]


def line_decomposition(table, group):
    """Orbits of a point group on the lines, over line indices."""
    return orbit_sweep(set_images(table, group.generators))


def test_line_orbits_matches_generic_machinery():
    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    sp = AffineSpace(2, 19)
    table = line_points(sp, all_lines(sp))
    coord = coordinate_group(g, sp)
    # independent check: each line's orbit by set lookup under every element
    rows = table.tolist()
    index = {frozenset(row): i for i, row in enumerate(rows)}
    generic = sorted({min(index[frozenset(e.images[p] for p in row)]
                          for e in coord.elements()) for row in rows})
    assert line_decomposition(table, coord)[0].tolist() == generic
    # the lifts' own sweep picks the same representatives
    orb = affinelift._line_orbits(g, 19)
    assert orb.reps.tolist() == generic
    # transporters reproduce members
    for i, row in enumerate(rows):
        rep = rows[orb.reps[orb.orbit_of[i]]]
        t = orb.elements[orb.trans[i]]
        assert frozenset(t.images[p] for p in rep) == frozenset(row)


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
    with pytest.raises(BadParams, match="group order 2 is even"):
        lift_odd(g, 19, 3, base)


def test_lift_odd_divisibility_violation():
    base = build_base_design(7, 3, (0, 1, 3))
    g = PermGroup(3, [Permutation.from_cycles(3, [(0, 1, 2)])])
    with pytest.raises(BadParams, match=r"\|G\|=3 does not divide t=\(p-1\)/6"):
        lift_odd(g, 7, 3, base)  # t = 1, |G| = 3


@pytest.fixture(scope="module")
def reverse_sts19():
    inv = Permutation(tuple((-x) % 19 for x in range(19)))
    return km_search(19, 3, PermGroup(19, [inv])), inv


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
    sp = AffineSpace(2, 19)
    rows = line_points(sp, all_lines(sp)).tolist()
    lines_by_pair = {}
    for i, row in enumerate(rows):
        for a in row:
            for b in row:
                if a < b:
                    lines_by_pair[(a, b)] = i
    for blk in result.design.block_tuples()[::97]:
        i = lines_by_pair[(blk[0], blk[1])]
        assert set(blk) <= set(rows[i])


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
    with pytest.raises(BadParams, match="cyclic_gen is not an automorphism of the ingredient"):
        lift_aligned(g, 19, 3, ingredient, fake)


def test_lift_aligned_rejects_bad_cycle_structure(reverse_sts19):
    ingredient, inv = reverse_sts19
    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    # an automorphism with the wrong structure: the identity fixes everything
    with pytest.raises(BadParams, match="cyclic_gen must fix exactly one point"):
        lift_aligned(g, 19, 3, ingredient, Permutation.identity(19))


def test_lift_aligned_double_transporter_consistency(reverse_sts19):
    # planting at a representative with nontrivial stabilizer must commute
    # with every stabilizing element (two transporters, same blocks)
    ingredient, inv = reverse_sts19
    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    result = lift_aligned(g, 19, 3, ingredient, inv)
    sp = AffineSpace(2, 19)
    table = line_points(sp, all_lines(sp))
    reps, orbit_of = line_decomposition(table, result.group)
    blocks = set(result.design.block_tuples())
    stabilized = reps[np.bincount(orbit_of) == 1].tolist()
    assert len(stabilized) == 20  # the swap fixes the diagonal and 19 cross lines
    nontrivial = result.group.elements()[1]
    for r in stabilized[:5]:
        line_pts = set(table[r].tolist())
        line_blocks = [blk for blk in blocks if set(blk) <= line_pts]
        assert len(line_blocks) == 57
        pushed = {tuple(sorted(nontrivial.images[p] for p in blk)) for blk in line_blocks}
        assert pushed == set(line_blocks)


def test_affine_space_refuses_a_non_prime_p():
    with pytest.raises(BadParams, match=r"AG\(d,p\) needs a prime p, got p=9"):
        AffineSpace(2, 9)
    # every ingredient check passes: AG(2,3) with x -> -x, on p = 9 points
    neg = Permutation([(-x) % 3 + 3 * ((-y) % 3) for y in range(3) for x in range(3)])
    swap = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    with pytest.raises(BadParams, match=r"AG\(d,p\) needs a prime p, got p=9"):
        lift_aligned(swap, 9, 3, steiner_triple_system(9), neg)


def plant_has_automorphism(ingredient: Design, sigma: Permutation, ind: Permutation) -> bool:
    """Reference for the aligned lift's check: build the plant, the ingredient
    relabelled by sigma^-1, and test ind on it."""
    return is_automorphism(ingredient.relabel(sigma.inverse()), ind)


@pytest.mark.parametrize("name", ["fano", "sts9", "reverse-sts19"])
def test_conjugate_check_matches_the_relabelled_plant(name, reverse_sts19):
    if name == "reverse-sts19":  # the lifts' ingredient, with the group x -> -x makes
        ingredient, auts = reverse_sts19[0], PermGroup.cyclic_from(reverse_sts19[1]).elements()
    else:
        ingredient = (build_base_design(7, 3, (0, 1, 3)).design if name == "fano"
                      else steiner_triple_system(9))
        auts = brute_aut(ingredient).elements()
    rng = np.random.default_rng(sum(map(ord, name)))
    v, seen = ingredient.v, set()
    for draw in range(60):
        sigma = Permutation(rng.permutation(v))
        if draw % 2:  # conjugate an automorphism onto the plant
            ind = sigma * auts[rng.integers(len(auts))] * sigma.inverse()
        else:
            ind = Permutation(rng.permutation(v))
        got = is_automorphism(ingredient, sigma.inverse() * ind * sigma)
        assert got is plant_has_automorphism(ingredient, sigma, ind)
        seen.add(got)
    assert seen == {True, False}


def test_lift_aligned_refuses_a_wrong_alignment(reverse_sts19, monkeypatch):
    ingredient, inv = reverse_sts19
    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    align = affinelift.align_semiregular_cyclic
    monkeypatch.setattr(affinelift, "align_semiregular_cyclic",
                        lambda c, target: align(c, target) * Permutation.from_cycles(19, [(0, 1)]))
    with pytest.raises(BadParams, match="^aligned plant on line 19 misses an induced action$"):
        lift_aligned(g, 19, 3, ingredient, inv)


def test_lift_aligned_induces_only_on_stabilized_lines(reverse_sts19, monkeypatch):
    ingredient, inv = reverse_sts19
    g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    lines = []
    induced = affinelift.induced_perm_on_line
    monkeypatch.setattr(affinelift, "induced_perm_on_line",
                        lambda perm, line: lines.append(line.tolist()) or induced(perm, line))
    result = lift_aligned(g, 19, 3, ingredient, inv)
    # 20 stabilized lines, each seen under the identity and the swap
    assert len(lines) == 40 and len({tuple(line) for line in lines}) == 20
    assert result.orbit_count == 200
