"""AG(d,p) machinery and line-filling lifts.

The construction at the heart of the package: pick orbit representatives of
a coordinate-permuting group on the lines of AG(d,p), plant a copy of a
p-point ingredient design on each representative through the line's affine
parametrization, and push it to the rest of the orbit by transporters.  With
the right ingredient the filled space is a 2-(p^d,k,1)-design admitting the
group.  The lines are one (lines, p) point array from ``all_lines``, whose
rows are the parametrizations; the coordinate group is a point permutation
group from ``coordinate_group``.  The orbits and the push are permgrp's
``set_images``, ``orbit_sweep`` and ``push``, shared with the product
constructions.  The line table stays int64; the representatives' lines, the
point images, the plants and the pushed blocks are ``point_dtype(p^d)``
tables, as the design's blocks are.

Two variants: the odd-order lift plants a multiplier-invariant base design
directly (every induced line action of odd order dividing t is already an
automorphism); the aligned lift first conjugates each induced line action
into a prescribed cyclic automorphism of the ingredient.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .basedesigns import BaseBlockDesign
from .design import Design, is_automorphism
from .errors import BadParams, Budget
from .permgrp import (
    PermGroup,
    Permutation,
    align_semiregular_cyclic,
    orbit_sweep,
    push,
    set_images,
    transporters,
)
from .textfile import point_dtype

# the most lines ``all_lines`` builds: 2M rows of 19 int64 points take 300 MB,
# and each element's uint16 image rows in ``set_images`` a quarter of that
DEFAULT_LINE_BUDGET = 2_000_000


@dataclass(frozen=True)
class AffineSpace:
    """AG(d,p): points are F_p^d, indexed by radix-p encoding (coords[0] least
    significant)."""

    d: int
    p: int

    @property
    def point_count(self) -> int:
        return self.p ** self.d

    @property
    def line_count(self) -> int:
        return self.p ** (self.d - 1) * (self.p ** self.d - 1) // (self.p - 1)

    @cached_property
    def coords(self) -> np.ndarray:
        """(p^d, d) coordinate matrix; row i decodes point i."""
        idx = np.arange(self.point_count, dtype=np.int64)
        cols = [(idx // self.p**j) % self.p for j in range(self.d)]
        out = np.stack(cols, axis=1)
        out.setflags(write=False)
        return out

    @cached_property
    def weights(self) -> np.ndarray:
        return np.array([self.p**j for j in range(self.d)], dtype=np.int64)


def _canonical_directions(space: AffineSpace) -> np.ndarray:
    """Direction vectors with first nonzero coordinate 1: one per line pencil."""
    coords = space.coords
    return coords[coords[np.arange(len(coords)), (coords != 0).argmax(axis=1)] == 1]


def all_lines(space: AffineSpace) -> np.ndarray:
    """Every line of AG(d,p) exactly once, as a (lines, p) int64 point array.

    Row i is line i's parametrization: its x-th entry is base + x*direction,
    where the base is the line's least point and the direction's first
    nonzero coordinate is 1.  Rows are sorted by (base, encoded direction).
    Refuses more than DEFAULT_LINE_BUDGET lines before building any.
    """
    if space.line_count > DEFAULT_LINE_BUDGET:
        raise Budget(f"{space.line_count} lines exceeds the budget {DEFAULT_LINE_BUDGET}")
    p = space.p
    coords = space.coords
    weights = space.weights
    all_points = []
    all_codes = []
    for vec in _canonical_directions(space):
        f = int(np.flatnonzero(vec)[0])
        anchors = coords[coords[:, f] == 0]
        cols = [((anchors + x * vec) % p) @ weights for x in range(p)]
        pts = np.stack(cols, axis=1)
        all_points.append(pts)
        all_codes.append(np.full(len(pts), vec @ weights))
    points = np.concatenate(all_points, axis=0)
    # re-anchor each row at its minimal point, preserving the parametrization
    x0 = np.argmin(points, axis=1)
    roll = (x0[:, None] + np.arange(p)[None, :]) % p
    points = points[np.arange(points.shape[0])[:, None], roll]
    return points[np.lexsort((np.concatenate(all_codes), points[:, 0]))]


def coordinate_group(group: PermGroup, space: AffineSpace) -> PermGroup:
    """A group of coordinate permutations as point permutations of the space:
    g moves the coordinate at position i to position g(i)."""
    if group.degree != space.d:
        raise BadParams(f"group degree {group.degree} != dimension {space.d}")
    gens = [Permutation(space.coords[:, g.inverse().images] @ space.weights)
            for g in group.generators]
    return PermGroup(space.point_count, gens)


def induced_perm_on_line(perm: Permutation, line: np.ndarray) -> Permutation:
    """The degree-p permutation induced on a stabilized line's parametrization;
    ``line`` is the line's row of ``all_lines``."""
    pos = {pt: x for x, pt in enumerate(line.tolist())}
    try:
        return Permutation([pos[pt] for pt in perm.images[line].tolist()])
    except KeyError:
        raise BadParams("permutation does not stabilize the line")


# -- the lifts --------------------------------------------------------------------

@dataclass(frozen=True)
class LiftResult:
    design: Design
    group: PermGroup
    line_count: int
    orbit_count: int


class _LineOrbits(NamedTuple):
    """Orbits of the coordinate image of a group on the lines of AG(d,p):
    ``lines`` holds each representative's row of ``all_lines`` in the point
    dtype of the space, and ``stabilizers`` each representative's stabilizer
    in element order.  The full line table is dropped once the orbits are known."""

    space: AffineSpace
    lines: np.ndarray
    group: PermGroup
    elements: tuple[Permutation, ...]
    reps: np.ndarray
    orbit_of: np.ndarray
    trans: np.ndarray
    stabilizers: list[list[Permutation]]


def _line_orbits(group: PermGroup, p: int) -> _LineOrbits:
    space = AffineSpace(group.degree, p)
    table = all_lines(space)
    coord = coordinate_group(group, space)
    elements = coord.elements()
    images = set_images(table, elements)
    reps, orbit_of = orbit_sweep(images)
    trans = transporters(images, reps, orbit_of)
    stabilizers = [[elements[e] for e, j in enumerate(col) if j == r]
                   for r, col in zip(reps.tolist(), images[:, reps].T.tolist())]
    lines = table[reps].astype(point_dtype(space.point_count))
    return _LineOrbits(space, lines, coord, elements, reps, orbit_of, trans, stabilizers)


def _fill(orb: _LineOrbits, plants: np.ndarray, k: int) -> LiftResult:
    """Plant ingredient blocks on the representatives through their line
    parametrizations and push them over every orbit, in the point dtype of
    the space.  ``plants`` holds one (b, k) block array per representative,
    or one shared by all."""
    lines = orb.lines
    point_images = np.stack([g.images for g in orb.elements]).astype(lines.dtype)
    blocks = push(point_images, lines[np.arange(len(lines))[:, None, None], plants],
                  orb.orbit_of, orb.trans)
    design = Design(orb.space.point_count, k, blocks)
    return LiftResult(design, orb.group, len(orb.orbit_of), len(orb.reps))


def lift_odd(group: PermGroup, p: int, k: int, base: BaseBlockDesign) -> LiftResult:
    """Fill the lines of AG(d,p) with copies of a multiplier-invariant base
    design, d = the group's degree; the filled space admits the coordinate
    image of the group and that image is 1-blocked.

    Requires |G| odd and |G| dividing t = (p-1)/k(k-1): then every induced
    line action lands inside the base design's multiplier group, so planting
    through the canonical parametrization needs no adjustment.
    """
    h = group.order()
    if h % 2 == 0:
        raise BadParams(f"group order {h} is even")
    if (p - 1) % (k * (k - 1)) != 0 or ((p - 1) // (k * (k - 1))) % h != 0:
        raise BadParams(f"|G|={h} does not divide t=(p-1)/{k * (k - 1)}")
    if base.p != p or base.k != k:
        raise BadParams("base design parameters disagree with (p, k)")
    orb = _line_orbits(group, p)
    for r, line, stabilizers in zip(orb.reps.tolist(), orb.lines, orb.stabilizers):
        for g in stabilizers:
            if g.is_identity():
                continue
            ind = induced_perm_on_line(g, line)
            if not is_automorphism(base.design, ind):
                raise BadParams(
                    f"induced action on line {r} is outside the base design's "
                    f"automorphisms")
    return _fill(orb, base.design.blocks, k)


def lift_aligned(group: PermGroup, p: int, k: int, ingredient: Design,
                 cyclic_gen: Permutation) -> LiftResult:
    """Line filling for groups whose induced line actions must be conjugated
    into a prescribed cyclic automorphism of the ingredient design.

    ``cyclic_gen`` generates a cyclic automorphism group of the ingredient
    with one fixed point, semiregular on the rest.  Per orbit representative,
    the induced action (cyclic of order m, one fixed point) is aligned with
    the order-m power subgroup of the prescribed group before planting.
    """
    if ingredient.v != p or ingredient.k != k:
        raise BadParams("ingredient design must live on p points with block size k")
    if not is_automorphism(ingredient, cyclic_gen):
        raise BadParams("cyclic_gen is not an automorphism of the ingredient")
    n = cyclic_gen.order()
    cycles = cyclic_gen.cycles()
    if len(cyclic_gen.fixed_points()) != 1 or any(len(c) != n for c in cycles):
        raise BadParams(
            "cyclic_gen must fix exactly one point and be semiregular elsewhere")
    orb = _line_orbits(group, p)
    plants = []
    for r, line, stabilizers in zip(orb.reps.tolist(), orb.lines, orb.stabilizers):
        induced_set = dict.fromkeys(induced_perm_on_line(g, line) for g in stabilizers)
        m = len(induced_set)
        # the generator with the least image table
        gen = min((ind for ind in induced_set if ind.order() == m),
                  key=lambda ind: ind.images.tolist(), default=None)
        if gen is None:
            raise BadParams(f"induced action on line {r} is not cyclic")
        if m == 1:
            plant = ingredient
        else:
            if n % m != 0:
                raise BadParams(
                    f"induced order {m} on line {r} does not divide {n}")
            target = cyclic_gen
            for _ in range(n // m - 1):
                target = target * cyclic_gen
            try:
                sigma = align_semiregular_cyclic(gen, target, range(p))
            except BadParams as exc:
                raise BadParams(f"line {r}: {exc}")
            plant = ingredient.relabel(sigma.inverse())
            for ind in induced_set:
                if not is_automorphism(plant, ind):
                    raise BadParams(
                        f"aligned plant on line {r} misses an induced action")
        plants.append(plant.blocks)
    return _fill(orb, np.stack(plants), k)
