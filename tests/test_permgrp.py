from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import steinerkit
from steinerkit import permgrp
from steinerkit.errors import ActionEscape, BadParams, Budget, ParseError
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
    assert g.inverse().images.tolist() == [2, 0, 1]
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_cycles_end_on_an_image_table_that_is_not_a_bijection():
    # 0 -> 1 -> 2 -> 1 never returns to 0: the walk stops at the first point
    # seen again; a child process under a 1 GB address-space limit and a
    # timeout keeps an endless walk from growing the test process
    script = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        import numpy as np
        from steinerkit.permgrp import Permutation
        p = object.__new__(Permutation)
        object.__setattr__(p, "images", np.array([1, 2, 1, 3]))
        print(repr(p))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(steinerkit.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "Permutation((0 1 2), degree=4)\n"


def test_composition_is_left_to_right():
    a = cyc(3, (0, 1))
    b = cyc(3, (1, 2))
    # (a*b)(0) = b(a(0)) = b(1) = 2
    assert (a * b)(0) == 2
    assert (b * a)(0) == 1


def test_elements_cyclic_group(monkeypatch):
    monkeypatch.setattr(permgrp, "DEFAULT_CAP", 10)
    g = PermGroup(3, [cyc(3, (0, 1, 2))])
    assert len(g.elements()) == 3


def test_elements_trivial_group():
    g = PermGroup(4, [Permutation.identity(4)])
    assert len(g.elements()) == 1


def test_elements_symmetric_group_from_two_generators():
    g = PermGroup(3, [cyc(3, (0, 1)), cyc(3, (0, 1, 2))])
    els = g.elements()
    assert len(els) == 6
    assert list(els) == sorted(els, key=lambda p: p.images.tolist())
    # closed under composition and inverse, contains identity
    s = set(els)
    assert Permutation.identity(3) in s
    for x in els:
        assert x.inverse() in s
        for y in els:
            assert x * y in s


@pytest.mark.parametrize("build", [
    lambda: Permutation((0.0, 1.0)),
    lambda: Permutation((0, 1.5, 2)),
    lambda: Permutation([[0, 1], [1, 0]]),
    lambda: Permutation((0, 2)),
    lambda: Permutation((-1, 0)),
    lambda: Permutation("01"),
    lambda: Permutation.from_cycles(3, [(0, 5)]),
    lambda: Permutation.from_cycles(3, [(-1, 0)]),
    lambda: Permutation.from_cycles(3, [(0.0, 1.0)]),
], ids=["floats", "a-float", "2-d", "too-large", "negative", "string", "cycle-past-degree",
        "negative-cycle-point", "float-cycle"])
def test_permutation_refuses_bad_input_with_value_error(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("cycles, bad", [([(0, 0, 1)], "0, 0, 1"), ([(0, 1), (1, 0)], "1, 0")],
                         ids=["within-a-cycle", "across-cycles"])
def test_from_cycles_refuses_a_cycle_that_repeats_a_point(cycles, bad):
    # written into the image table as they stand, both would read as (0 1)
    with pytest.raises(ValueError, match=rf"^cycle \({bad}\) repeats a point$"):
        Permutation.from_cycles(3, cycles)


def test_permutation_stores_one_read_only_int64_array():
    g = Permutation(np.array([1, 2, 0], dtype=np.int32))
    assert g.images.dtype == np.int64 and g.images.ndim == 1
    assert not g.images.flags.writeable
    assert g == Permutation((1, 2, 0)) and hash(g) == hash(Permutation([1, 2, 0]))
    assert g.fixed_points() == () and cyc(3, (0, 1)).fixed_points() == (2,)
    assert all(type(x) is int for x in cyc(3, (0, 1)).fixed_points())


def test_elements_keep_integer_order_past_one_byte():
    # first images 1 and 256: as little-endian bytes 256 sorts before 1
    g = PermGroup(257, [cyc(257, (0, 1)), cyc(257, (0, 256))])
    els = g.elements()
    assert len(els) == 6
    assert [e.images.tolist() for e in els] == sorted(e.images.tolist() for e in els)
    assert [e(0) for e in els] == [0, 0, 1, 1, 256, 256]
    assert list(els) != sorted(els, key=lambda e: e.images.tobytes())


def test_elements_cap_exceeded(monkeypatch):
    monkeypatch.setattr(permgrp, "DEFAULT_CAP", 10)
    g = PermGroup(5, [cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1))])
    with pytest.raises(Budget, match="group closure passed cap 10"):
        g.elements()


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


@pytest.mark.parametrize("pts", [[5], [-3]], ids=["past-degree", "negative"])
def test_is_semiregular_refuses_points_off_the_group(pts):
    # -3 would wrap to point 0, which the group fixes
    with pytest.raises(BadParams, match=r"^a point outside 0\.\.2$"):
        is_semiregular(PermGroup(3, [cyc(3, (1, 2))]), pts)


@pytest.mark.parametrize("pts", [[0.5], [False], [np.float64(1.0)]],
                         ids=["float", "bool", "numpy-float"])
def test_is_semiregular_refuses_points_that_are_not_integers(pts):
    # read as an integer point, each is moved by the 3-cycle
    with pytest.raises(BadParams, match=r"^point .* is not an integer$"):
        is_semiregular(PermGroup(3, [cyc(3, (0, 1, 2))]), pts)


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
    sigma = align_semiregular_cyclic(c, c2)
    assert sigma.inverse() * c * sigma == c2


def test_align_identity_when_equal():
    c = cyc(6, (0, 1, 2), (3, 4, 5))
    sigma = align_semiregular_cyclic(c, c)
    assert sigma.is_identity()


def test_align_involutions():
    c = cyc(4, (0, 1), (2, 3))
    c2 = cyc(4, (0, 2), (1, 3))
    sigma = align_semiregular_cyclic(c, c2)
    assert sigma.inverse() * c * sigma == c2


def test_align_with_fixed_points():
    c = cyc(5, (1, 2), (3, 4))
    c2 = cyc(5, (0, 1), (2, 3))
    sigma = align_semiregular_cyclic(c, c2)
    conj = sigma.inverse() * c * sigma
    assert conj == c2


def test_align_order_mismatch():
    c = cyc(6, (0, 1, 2), (3, 4, 5))
    c2 = cyc(6, (0, 1), (2, 3), (4, 5))
    with pytest.raises(BadParams, match="cycle lengths 3x2 vs 2x3"):
        align_semiregular_cyclic(c, c2)


def test_align_rejects_unequal_cycles():
    bad = cyc(5, (0, 1, 2), (3, 4))
    with pytest.raises(BadParams, match=r"unequal cycle lengths \[2, 3\]"):
        align_semiregular_cyclic(bad, bad)


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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(permgrp, "DEFAULT_CAP", 5040)
            elements = group.elements()
    except Budget:
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

    # push's parts hold the per-member loop's rows
    n = elements[0].degree
    lines = np.array(data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=4, max_size=4),
                                        min_size=len(reps), max_size=len(reps))), dtype=np.int64)
    plant = np.array(data.draw(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3),
                                        min_size=1, max_size=3)), dtype=np.int64)
    point_images = np.stack([g.images for g in elements])
    expect = sorted(tuple(row) for i in range(len(family))
                    for row in elements[trans[i]].images[lines[orbit_of[i]][plant]].tolist())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permgrp, "_PART_ROWS", data.draw(st.integers(1, 7), label="_PART_ROWS"))
        parts = push(point_images, lines, plant, orbit_of, trans)
    made = [part.make() for part in parts]
    assert [len(rows) for rows in made] == [part.count for part in parts]
    assert sorted(tuple(row) for rows in made for row in rows.tolist()) == expect


def test_set_images_escape():
    g = cyc(4, (0, 1, 2, 3))
    with pytest.raises(ActionEscape):
        set_images(np.array([(0, 1), (1, 2)]), [g])
