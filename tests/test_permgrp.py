from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from steinerkit.errors import (
    ActionEscape,
    CapExceeded,
    NotSemiregular,
    OrderMismatch,
    ParseError,
)
from steinerkit.permgrp import (
    PermGroup,
    Permutation,
    align_semiregular_cyclic,
    group_from_text,
    group_to_text,
    is_semiregular,
    orbit_sweep,
    push,
    set_images,
    transporters,
)


def cyc(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def test_permutation_basics():
    g = cyc(3, (0, 1, 2))
    assert g(0) == 1 and g(2) == 0
    assert g.order() == 3
    assert (g * g * g).is_identity()
    assert g.inverse().images == (2, 0, 1)
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_composition_is_left_to_right():
    a = cyc(3, (0, 1))
    b = cyc(3, (1, 2))
    # (a*b)(0) = b(a(0)) = b(1) = 2
    assert (a * b)(0) == 2
    assert (b * a)(0) == 1


def test_elements_cyclic_group():
    g = PermGroup(3, [cyc(3, (0, 1, 2))])
    assert len(g.elements(cap=10)) == 3


def test_elements_trivial_group():
    g = PermGroup(4, [Permutation.identity(4)])
    assert len(g.elements()) == 1


def test_elements_symmetric_group_from_two_generators():
    g = PermGroup(3, [cyc(3, (0, 1)), cyc(3, (0, 1, 2))])
    els = g.elements()
    assert len(els) == 6
    assert list(els) == sorted(els, key=lambda p: p.images)
    # closed under composition and inverse, contains identity
    s = set(els)
    assert Permutation.identity(3) in s
    for x in els:
        assert x.inverse() in s
        for y in els:
            assert x * y in s


def test_elements_cap_exceeded():
    g = PermGroup(5, [cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1))])
    with pytest.raises(CapExceeded):
        g.elements(cap=10)


def point_table(group):
    """The generators' point arrays as an image-index table on the points."""
    return np.array([g.images for g in group.generators], dtype=np.int64).reshape(-1, group.degree)


def element_table(group, rows):
    """Image-index table of every element on a family of point sets."""
    return set_images(np.array(rows), group.elements())


def test_orbits_cyclic_on_points():
    g = PermGroup(3, [cyc(3, (0, 1, 2))])
    reps, orbit_of = orbit_sweep(point_table(g))
    assert reps.tolist() == [0]
    assert orbit_of.tolist() == [0, 0, 0]


def test_orbits_identity_group_singletons():
    # the trivial group, by the identity and by no generators at all
    for g in (PermGroup.trivial(5), PermGroup(5, [])):
        reps, orbit_of = orbit_sweep(point_table(g))
        assert reps.tolist() == orbit_of.tolist() == [0, 1, 2, 3, 4]
        table = set_images(np.array([(0, 1), (1, 2)]), g.generators)
        assert orbit_sweep(table)[0].tolist() == [0, 1]


def test_orbits_transporter_property():
    g = PermGroup(6, [cyc(6, (0, 1, 2), (3, 4)), cyc(6, (0, 3))])
    elements = g.elements()
    images = element_table(g, [(x,) for x in range(6)])
    reps, orbit_of = orbit_sweep(images)
    trans = transporters(images, reps, orbit_of)
    for i in range(6):
        rep = reps[orbit_of[i]]
        assert elements[trans[i]](rep) == i
        assert all(e(rep) != i for e in elements[:trans[i]])  # the first such element


def test_orbits_action_escape():
    g = PermGroup(3, [cyc(3, (0, 1, 2))])
    with pytest.raises(ActionEscape):
        set_images(np.array([(0,), (1,)]), g.generators)


def _ag2_lines(p):
    """All lines of AG(2,p) as sorted tuples of point indices x*p + y."""
    lines = set()
    for m in range(p):
        for b in range(p):
            lines.add(tuple(sorted(x * p + (m * x + b) % p for x in range(p))))
    for c in range(p):
        lines.add(tuple(sorted(c * p + y for y in range(p))))
    return sorted(lines)


def test_orbits_coordinate_swap_on_ag2_19_lines():
    # Z2 swapping the two coordinates of AG(2,19), acting on its 380 lines.
    p = 19
    lines = _ag2_lines(p)
    assert len(lines) == 380
    swap = Permutation(tuple((i % p) * p + i // p for i in range(p * p)))
    group = PermGroup(p * p, [swap])

    def act(line, g):
        return tuple(sorted(g(pt) for pt in line))

    images = element_table(group, lines)
    reps, orbit_of = orbit_sweep(images)
    trans = transporters(images, reps, orbit_of)

    # independent brute-force oracle: count fixed lines directly
    fixed = sum(1 for ln in lines if act(ln, swap) == ln)
    assert len(reps) == fixed + (380 - fixed) // 2
    # transporters reproduce every line from its representative
    elements = group.elements()
    for i, ln in enumerate(lines):
        assert act(lines[reps[orbit_of[i]]], elements[trans[i]]) == ln


def stabilizer(group, pts):
    """Elements fixing a point set setwise, read off the image-index table of
    the same-size subsets as the lifts read their line stabilizers."""
    family = list(itertools.combinations(range(group.degree), len(pts)))
    i = family.index(tuple(sorted(pts)))
    column = element_table(group, family)[:, i]
    return [g for g, j in zip(group.elements(), column.tolist()) if j == i]


def test_set_stabilizer_s3():
    g = PermGroup(3, [cyc(3, (0, 1)), cyc(3, (0, 1, 2))])
    assert len(stabilizer(g, {0, 1})) == 2


def test_set_stabilizer_z3_trivial():
    g = PermGroup(3, [cyc(3, (0, 1, 2))])
    assert len(stabilizer(g, {0, 1})) == 1


def test_set_stabilizer_fano_block_under_z7():
    g = PermGroup(7, [Permutation(tuple((i + 1) % 7 for i in range(7)))])
    # check against all 7 elements directly
    block = frozenset({0, 1, 3})
    expect = [e for e in g.elements() if frozenset(e(x) for x in block) == block]
    assert stabilizer(g, block) == expect
    assert len(expect) == 1


def test_is_semiregular_regular_cycle():
    g = PermGroup(4, [cyc(4, (0, 1, 2, 3))])
    ok, viol = is_semiregular(g, range(4))
    assert ok and not viol


def test_is_semiregular_witness():
    swap = cyc(4, (0, 1))
    g = PermGroup(4, [swap])
    ok, viol = is_semiregular(g, range(4))
    assert not ok
    assert (swap, 2) in viol


def test_semiregular_cycle_lengths_equal_order():
    g = Permutation.from_cycles(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    grp = PermGroup(9, [g])
    ok, _ = is_semiregular(grp, range(9))
    assert ok
    lengths = {len(c) for c in g.cycles()}
    assert lengths == {g.order()}


def test_align_semiregular_cyclic_three_cycles():
    c = cyc(6, (0, 1, 2), (3, 4, 5))
    c2 = cyc(6, (0, 3, 1), (2, 4, 5))
    sigma = align_semiregular_cyclic(c, c2, range(6))
    assert sigma.inverse() * c * sigma == c2


def test_align_identity_when_equal():
    c = cyc(6, (0, 1, 2), (3, 4, 5))
    sigma = align_semiregular_cyclic(c, c, range(6))
    assert sigma.is_identity()


def test_align_involutions():
    c = cyc(4, (0, 1), (2, 3))
    c2 = cyc(4, (0, 2), (1, 3))
    sigma = align_semiregular_cyclic(c, c2, range(4))
    assert sigma.inverse() * c * sigma == c2


def test_align_with_fixed_points():
    c = cyc(5, (1, 2), (3, 4))
    c2 = cyc(5, (0, 1), (2, 3))
    sigma = align_semiregular_cyclic(c, c2, range(5))
    conj = sigma.inverse() * c * sigma
    assert conj == c2


def test_align_order_mismatch():
    c = cyc(6, (0, 1, 2), (3, 4, 5))
    c2 = cyc(6, (0, 1), (2, 3), (4, 5))
    with pytest.raises(OrderMismatch):
        align_semiregular_cyclic(c, c2, range(6))


def test_align_rejects_unequal_cycles():
    bad = cyc(5, (0, 1, 2), (3, 4))
    with pytest.raises(NotSemiregular):
        align_semiregular_cyclic(bad, bad, range(5))


def test_group_file_round_trip():
    g = PermGroup(7, [Permutation(tuple((i + 1) % 7 for i in range(7))),
                      cyc(7, (1, 2, 4), (3, 6, 5))])
    text = group_to_text(g)
    back = group_from_text(text)
    assert back.degree == 7
    assert back.generators == g.generators
    assert group_to_text(back) == text


def test_group_file_comments_and_errors():
    text = "# a comment\nPERMGROUP degree=3 gens=1\n1 2 0\n"
    g = group_from_text(text)
    assert g.order() == 3
    with pytest.raises(ParseError):
        group_from_text("PERMGROUP degree=3 gens=1\n1 2\n")
    with pytest.raises(ParseError):
        group_from_text("NOPE\n")


# -- the shared orbit engine against brute force ----------------------------------

@st.composite
def subset_actions(draw):
    """A group of degree <= 8 from one or two random generators, acting on
    the 2- or 3-subsets of its points; groups above 5040 elements are skipped."""
    n = draw(st.integers(3, 8))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2))
    group = PermGroup(n, [Permutation(tuple(g)) for g in gens])
    try:
        elements = group.elements(cap=5040)
    except CapExceeded:
        assume(False)
    family = list(itertools.combinations(range(n), draw(st.sampled_from((2, 3)))))
    return group, elements, family


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(subset_actions(), st.data())
def test_orbit_engine_matches_brute_force(action, data):
    group, elements, family = action
    index = {s: i for i, s in enumerate(family)}

    def image(g, s):
        return tuple(sorted(g(x) for x in s))

    brute = {frozenset(index[image(g, s)] for g in elements) for s in family}
    images = set_images(np.array(family), elements)
    reps, orbit_of = orbit_sweep(images)
    members = [frozenset(np.flatnonzero(orbit_of == r).tolist()) for r in range(len(reps))]
    assert set(members) == brute
    assert [min(m) for m in members] == reps.tolist()
    # the generators' table sweeps to the same orbits
    by_gens = orbit_sweep(set_images(np.array(family), group.generators))
    assert all(np.array_equal(a, b) for a, b in zip(by_gens, (reps, orbit_of)))
    trans = transporters(images, reps, orbit_of)
    for i, s in enumerate(family):
        rep = family[reps[orbit_of[i]]]
        assert image(elements[trans[i]], rep) == s
        assert all(image(g, rep) != s for g in elements[:trans[i]])

    # push equals the per-member loop
    n = elements[0].degree
    planted = np.array(data.draw(st.lists(
        st.lists(st.lists(st.integers(0, n - 1), min_size=3, max_size=3),
                 min_size=2, max_size=2),
        min_size=len(reps), max_size=len(reps))), dtype=np.int64)
    point_images = np.stack([g.array for g in elements])
    expect = np.concatenate([elements[trans[i]].array[planted[orbit_of[i]]]
                             for i in range(len(family))])
    assert np.array_equal(push(point_images, planted, orbit_of, trans), expect)


def test_set_images_escape():
    g = cyc(4, (0, 1, 2, 3))
    with pytest.raises(ActionEscape):
        set_images(np.array([(0, 1), (1, 2)]), [g])
