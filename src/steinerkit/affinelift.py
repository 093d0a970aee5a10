"""AG(d,p) machinery and line-filling lifts.

The construction at the heart of the package: pick orbit representatives of
a coordinate-permuting group on the lines of AG(d,p), plant a copy of a
p-point ingredient design on each representative through the line's affine
parametrization, and push it to the rest of the orbit by transporters.  With
the right ingredient the filled space is a 2-(p^d,k,1)-design admitting the
group.  The orbits and the push are permgrp's ``set_images``,
``orbit_sweep`` and ``push``, shared with the product constructions.

Two variants: the odd-order lift plants a multiplier-invariant base design
directly (every induced line action of odd order dividing t is already an
automorphism); the aligned lift first conjugates each induced line action
into a prescribed cyclic automorphism of the ingredient.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .basedesigns import BaseBlockDesign
from .design import Design, is_automorphism
from .errors import (
    AlignmentImpossible,
    BadParams,
    Budget,
    DivisibilityViolation,
    NotSemiregular,
    NotStabilizing,
    OrderMismatch,
    ParityViolation,
    PlantRejected,
)
from .permgrp import (
    PermGroup,
    Permutation,
    align_semiregular_cyclic,
    orbit_sweep,
    push,
    set_images,
    transporters,
)

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

    def encode(self, vec: Sequence[int]) -> int:
        return int(sum(int(c) % self.p * self.p**j for j, c in enumerate(vec)))

    def decode(self, idx: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.coords[idx])


@dataclass(frozen=True)
class Line:
    """A line of AG(d,p) in canonical form: base is its minimal point, the
    direction's first nonzero coordinate is 1, and points lists
    base + x*direction in x-order, identifying the line with F_p."""

    base: int
    direction: tuple[int, ...]
    points: tuple[int, ...]


class LineTable(Sequence):
    """All lines of a space in canonical order, array-backed.

    Row i of ``points`` holds line i's points in parametrization order.
    """

    def __init__(self, space: AffineSpace, bases: np.ndarray, dirs: np.ndarray,
                 points: np.ndarray):
        self.space = space
        self.bases = bases
        self.dirs = dirs
        self.points = points

    def __len__(self) -> int:
        return self.points.shape[0]

    def __getitem__(self, i: int) -> Line:
        return Line(int(self.bases[i]), tuple(int(c) for c in self.dirs[i]),
                    tuple(int(x) for x in self.points[i]))


def _canonical_directions(space: AffineSpace) -> np.ndarray:
    """Direction vectors with first nonzero coordinate 1: one per line pencil."""
    d, p = space.d, space.p
    rows = []
    for f in range(d):
        tail_count = p ** (d - 1 - f)
        for m in range(tail_count):
            vec = [0] * f + [1]
            rest = m
            for _ in range(d - 1 - f):
                vec.append(rest % p)
                rest //= p
            rows.append(vec)
    return np.array(rows, dtype=np.int64)


def all_lines(space: AffineSpace, budget: int = DEFAULT_LINE_BUDGET) -> LineTable:
    """Every line exactly once, sorted by (base point, encoded direction)."""
    if space.line_count > budget:
        raise Budget(f"{space.line_count} lines exceeds the budget {budget}")
    d, p = space.d, space.p
    coords = space.coords
    weights = space.weights
    dirs = _canonical_directions(space)
    all_points = []
    all_dirs = []
    for vec in dirs:
        f = int(np.flatnonzero(vec)[0])
        anchors = coords[coords[:, f] == 0]
        cols = [((anchors + x * vec) % p) @ weights for x in range(p)]
        pts = np.stack(cols, axis=1)
        all_points.append(pts)
        all_dirs.append(np.broadcast_to(vec, (pts.shape[0], d)))
    points = np.concatenate(all_points, axis=0)
    dirvecs = np.concatenate(all_dirs, axis=0)
    # re-anchor each row at its minimal point, preserving the parametrization
    x0 = np.argmin(points, axis=1)
    roll = (x0[:, None] + np.arange(p)[None, :]) % p
    points = points[np.arange(points.shape[0])[:, None], roll]
    bases = points[:, 0]
    order = np.lexsort((dirvecs @ weights, bases))
    return LineTable(space, bases[order], dirvecs[order], points[order])


@dataclass(frozen=True)
class AffineMap:
    """v -> v*M + c on F_p^d (row-vector convention)."""

    matrix: tuple[tuple[int, ...], ...]
    translation: tuple[int, ...]
    p: int

    def __post_init__(self):
        if _rank_mod_p(self.matrix, self.p) != len(self.matrix):
            raise BadParams("matrix is singular")

    def to_permutation(self, space: AffineSpace) -> Permutation:
        mat = np.array(self.matrix, dtype=np.int64)
        trans = np.array(self.translation, dtype=np.int64)
        img = ((space.coords @ mat + trans) % self.p) @ space.weights
        return Permutation(tuple(int(x) for x in img))


def _rank_mod_p(matrix, p: int) -> int:
    m = [list(row) for row in matrix]
    rank = 0
    d = len(m)
    for col in range(d):
        pivot = next((r for r in range(rank, d) if m[r][col] % p), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(d):
            if r != rank and m[r][col] % p:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def coordinate_group(group: PermGroup, space: AffineSpace
                     ) -> tuple[PermGroup, list[AffineMap]]:
    """Represent a group of coordinate permutations as point permutations of
    the space (via permutation matrices), plus the same maps as AffineMap."""
    if group.degree != space.d:
        raise BadParams(f"group degree {group.degree} != dimension {space.d}")
    gens = []
    maps = []
    for g in group.generators:
        mat = tuple(tuple(1 if j == g.images[i] else 0 for j in range(space.d))
                    for i in range(space.d))
        amap = AffineMap(mat, (0,) * space.d, space.p)
        maps.append(amap)
        gens.append(amap.to_permutation(space))
    return PermGroup(space.point_count, gens), maps


def induced_perm_on_line(perm: Permutation, line: Line) -> Permutation:
    """The degree-p permutation induced on a stabilized line's parametrization."""
    pos = {pt: x for x, pt in enumerate(line.points)}
    try:
        return Permutation(tuple(pos[perm.images[pt]] for pt in line.points))
    except KeyError:
        raise NotStabilizing("permutation does not stabilize the line")


# -- the lifts --------------------------------------------------------------------

@dataclass(frozen=True)
class LiftResult:
    design: Design
    group: PermGroup
    space: AffineSpace
    line_count: int
    orbit_count: int


class _LineOrbits(NamedTuple):
    """Orbits of the coordinate image of a group on the lines of AG(d,p);
    ``stabilizers`` lists each representative's stabilizer in element order."""

    space: AffineSpace
    table: LineTable
    group: PermGroup
    elements: tuple[Permutation, ...]
    reps: np.ndarray
    orbit_of: np.ndarray
    trans: np.ndarray
    stabilizers: list[list[Permutation]]


def _line_orbits(group: PermGroup, p: int, line_budget: int) -> _LineOrbits:
    space = AffineSpace(group.degree, p)
    table = all_lines(space, line_budget)
    coord, _ = coordinate_group(group, space)
    elements = coord.elements()
    images = set_images(table.points, elements)
    reps, orbit_of = orbit_sweep(images)
    trans = transporters(images, reps, orbit_of)
    stabilizers = [[elements[e] for e, j in enumerate(col) if j == r]
                   for r, col in zip(reps.tolist(), images[:, reps].T.tolist())]
    return _LineOrbits(space, table, coord, elements, reps, orbit_of, trans, stabilizers)


def _fill(orb: _LineOrbits, plants: np.ndarray, k: int) -> LiftResult:
    """Plant ingredient blocks on the representatives through their line
    parametrizations and push them over every orbit.  ``plants`` holds one
    (b, k) block array per representative, or one shared by all."""
    lines = orb.table.points[orb.reps]
    point_images = np.stack([g.array for g in orb.elements])
    blocks = push(point_images, lines[np.arange(len(lines))[:, None, None], plants],
                  orb.orbit_of, orb.trans)
    design = Design(orb.space.point_count, k, blocks)
    return LiftResult(design, orb.group, orb.space, len(orb.table), len(orb.reps))


def lift_odd(group: PermGroup, p: int, k: int, base: BaseBlockDesign,
             line_budget: int = DEFAULT_LINE_BUDGET) -> LiftResult:
    """Fill the lines of AG(d,p) with copies of a multiplier-invariant base
    design, d = the group's degree; the filled space admits the coordinate
    image of the group and that image is 1-blocked.

    Requires |G| odd and |G| dividing t = (p-1)/k(k-1): then every induced
    line action lands inside the base design's multiplier group, so planting
    through the canonical parametrization needs no adjustment.
    """
    h = group.order()
    if h % 2 == 0:
        raise ParityViolation(f"group order {h} is even")
    if (p - 1) % (k * (k - 1)) != 0 or ((p - 1) // (k * (k - 1))) % h != 0:
        raise DivisibilityViolation(f"|G|={h} does not divide t=(p-1)/{k * (k - 1)}")
    if base.p != p or base.k != k:
        raise BadParams("base design parameters disagree with (p, k)")
    orb = _line_orbits(group, p, line_budget)
    for r, stabilizers in zip(orb.reps.tolist(), orb.stabilizers):
        for g in stabilizers:
            if g.is_identity():
                continue
            ind = induced_perm_on_line(g, orb.table[r])
            if not is_automorphism(base.design, ind):
                raise PlantRejected(
                    f"induced action on line {r} is outside the base design's "
                    f"automorphisms")
    return _fill(orb, base.design.blocks, k)


def lift_aligned(group: PermGroup, p: int, k: int, ingredient: Design,
                 cyclic_gen: Permutation,
                 line_budget: int = DEFAULT_LINE_BUDGET) -> LiftResult:
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
        raise AlignmentImpossible("cyclic_gen is not an automorphism of the ingredient")
    n = cyclic_gen.order()
    cycles = cyclic_gen.cycles()
    if len(cyclic_gen.fixed_points()) != 1 or any(len(c) != n for c in cycles):
        raise AlignmentImpossible(
            "cyclic_gen must fix exactly one point and be semiregular elsewhere")
    orb = _line_orbits(group, p, line_budget)
    plants = []
    for r, stabilizers in zip(orb.reps.tolist(), orb.stabilizers):
        line = orb.table[r]
        induced_set: dict[tuple[int, ...], Permutation] = {}
        for g in stabilizers:
            ind = induced_perm_on_line(g, line)
            induced_set.setdefault(ind.images, ind)
        m = len(induced_set)
        gen = next((induced_set[images] for images in sorted(induced_set)
                    if induced_set[images].order() == m), None)
        if gen is None:
            raise AlignmentImpossible(f"induced action on line {r} is not cyclic")
        if m == 1:
            plant = ingredient
        else:
            if n % m != 0:
                raise AlignmentImpossible(
                    f"induced order {m} on line {r} does not divide {n}")
            target = cyclic_gen
            for _ in range(n // m - 1):
                target = target * cyclic_gen
            try:
                sigma = align_semiregular_cyclic(gen, target, range(p))
            except (OrderMismatch, NotSemiregular) as exc:
                raise AlignmentImpossible(f"line {r}: {exc}")
            plant = ingredient.relabel(sigma.inverse())
            for ind in induced_set.values():
                if not is_automorphism(plant, ind):
                    raise AlignmentImpossible(
                        f"aligned plant on line {r} misses an induced action")
        plants.append(plant.blocks)
    return _fill(orb, np.stack(plants), k)
