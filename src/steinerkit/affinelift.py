"""AG(d,p) machinery and line-filling lifts.

The construction at the heart of the package: pick orbit representatives of
a coordinate-permuting group on the lines of AG(d,p), plant a copy of a
p-point ingredient design on each representative through the line's affine
parametrization, and push it to the rest of the orbit by transporters.  With
the right ingredient the filled space is a 2-(p^d,k,1)-design admitting the
group.  A line is base + x*direction, and ``all_lines`` gives each line
as one int64 key, code(base)*p^d + code(direction), in ascending order; the
coordinate group is a point permutation group from ``coordinate_group``.
Its elements are linear, so ``line_images`` finds each image line from the
images of the base and the direction alone, by coordinate arithmetic, and
its index in closed form from two tables built per call: the first line of
each (base, last nonzero coordinate of the direction) and the rank of each
direction among those that share that coordinate.  The orbits and the push
are permgrp's ``orbit_sweep`` and ``push``, shared with the product
constructions.  Point rows are built (``line_points``) only for the orbit
representatives; they and the point images are ``point_dtype(p^d)`` tables,
and the design is built from the pushed row parts, with no table of the
plants or of the unsorted blocks.

Two variants: the odd-order lift plants a multiplier-invariant base design
directly (every induced line action of odd order dividing t is already an
automorphism); the aligned lift first conjugates each induced line action
into a prescribed cyclic automorphism of the ingredient.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple, Sequence

import numpy as np

from .basedesigns import BaseBlockDesign
from .design import Design, is_automorphism
from .errors import ActionEscape, BadParams, Budget
from .gf import is_prime
from .permgrp import (
    PermGroup,
    Permutation,
    align_semiregular_cyclic,
    orbit_sweep,
    push,
    transporters,
)
from .textfile import point_dtype

# the most lines ``all_lines`` keys: 2M lines are 16 MB of int64 keys, and each
# element's row of the line image table as much again
DEFAULT_LINE_BUDGET = 2_000_000


@dataclass(frozen=True)
class AffineSpace:
    """AG(d,p): points are F_p^d, indexed by radix-p encoding (coords[0] least
    significant)."""

    d: int
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise BadParams(f"AG(d,p) needs a prime p, got p={self.p}")

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


def _directions(space: AffineSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every point y read as a direction: the code of y scaled so that its first
    nonzero coordinate is 1 (0 for y = 0), the index of its last nonzero
    coordinate, and the inverse mod p of that coordinate."""
    p, coords = space.p, space.coords
    rows, nonzero = np.arange(len(coords)), coords != 0
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    norm = coords * inv[coords[rows, nonzero.argmax(axis=1)]][:, None] % p @ space.weights
    last = space.d - 1 - nonzero[:, ::-1].argmax(axis=1)
    return norm, last, inv[coords[rows, last]]


def all_lines(space: AffineSpace) -> np.ndarray:
    """Every line of AG(d,p) exactly once, as one int64 key per line, ascending.

    A line is base + x*direction: the direction's first nonzero coordinate is
    1, and the base is the line's least point, the one whose coordinate is 0
    where the direction's last nonzero coordinate is.  Its key is
    code(base)*p^d + code(direction), so keys order the lines by (base,
    encoded direction); ``line_points`` gives their point rows.  Refuses more
    than DEFAULT_LINE_BUDGET lines before building any.
    """
    if space.line_count > DEFAULT_LINE_BUDGET:
        raise Budget(f"{space.line_count} lines exceeds the budget {DEFAULT_LINE_BUDGET}")
    n = space.point_count
    norm, last, _ = _directions(space)
    dirs = np.flatnonzero(norm == np.arange(n))[1:]  # the normalized directions but 0
    # the bases of the directions whose last nonzero coordinate is l: coordinate l is 0
    keys = [np.add.outer(np.flatnonzero(space.coords[:, l] == 0) * n,
                         dirs[last[dirs] == l]).ravel() for l in range(space.d)]
    return np.sort(np.concatenate(keys))


def line_points(space: AffineSpace, keys: np.ndarray) -> np.ndarray:
    """The (len(keys), p) point rows of the lines with these keys, in
    ``point_dtype(p^d)``: entry x of a row is base + x*direction.  Every line
    walks one step at a time, each coordinate wrapping at p."""
    base, dirs = np.divmod(np.asarray(keys, dtype=np.int64), space.point_count)
    point, step = space.coords[base].T.copy(), space.coords[dirs].T
    weights = space.weights.tolist()
    out = np.empty((space.p, len(base)), dtype=point_dtype(space.point_count))
    for col in out:
        col[:] = sum(c * w for c, w in zip(point, weights))
        point += step
        point[point >= space.p] -= space.p
    return out.T.copy()


def line_images(space: AffineSpace, keys: np.ndarray,
                elements: Sequence[Permutation]) -> np.ndarray:
    """Image-index table of coordinate permutations on lines given by their
    ascending keys: entry [e, i] is the index of the image of line i under
    elements[e].

    Each element must be a coordinate permutation, its point table read off
    the images of the unit points p^j; it is then linear, so a line's image is
    fixed by the images of its base and direction.  The image direction is
    normalized and the image line re-based at its least point.  Its index
    among all lines is first[base, l] + rank[direction], l the direction's
    last nonzero coordinate: lines are ordered by base, then by direction,
    and the p^l normalized directions whose last nonzero coordinate is l
    have the codes in [p^l, p^(l+1)).  Keys that are not every line in
    ascending order are found through a table of their positions.  The identity's row is
    ``arange``.  Raises BadParams naming an element that is no coordinate
    permutation or a key that is no line, and ActionEscape if an image line
    is not among the keys.
    """
    n, p, d = space.point_count, space.p, space.d
    coords = space.coords
    norm, last, last_inv = _directions(space)
    # the normalized directions but 0, and each one's rank in its class l
    normal = norm == np.arange(n)
    normal[0] = False
    before = np.cumsum(normal) - normal
    rank = before - before[space.weights[last]]
    # first[b, l]: the index of the first line based at b whose direction's
    # last nonzero coordinate is l (if coordinate l of b is 0)
    count = np.where(coords == 0, space.weights, 0).ravel()
    first = (np.cumsum(count) - count).reshape(n, d)
    base, dirs = np.divmod(keys, n)
    if np.any((base < 0) | (base >= n)) or not np.all(normal[dirs]
                                                      & (coords[base, last[dirs]] == 0)):
        raise BadParams(f"a key is no line of AG({d},{p})")
    position = None  # ascending keys of every line are at their own index
    if len(keys) != space.line_count or not np.all(keys[1:] > keys[:-1]):
        position = np.full(space.line_count, -1, dtype=np.int64)
        position[first[base, last[dirs]] + rank[dirs]] = np.arange(len(keys))
    rows, identity = np.arange(len(keys)), np.arange(n)
    out = np.empty((len(elements), len(keys)), dtype=np.int64)
    for e, (slot, g) in enumerate(zip(out, elements)):
        if g.degree != n or not np.array_equal(coords @ g.images[space.weights], g.images):
            raise BadParams(f"element {e} {g!r} is not a coordinate permutation "
                            f"of AG({d},{p})")
        if np.array_equal(g.images, identity):
            slot[:] = rows
            continue
        step = norm[g.images[dirs]]
        start = coords[g.images[base]]
        shift = start[rows, last[step]] * last_inv[step] % p
        image = (start - shift[:, None] * coords[step]) % p @ space.weights
        slot[:] = first[image, last[step]] + rank[step]
        if position is not None:
            slot[:] = position[slot]
            if np.any(slot < 0):
                raise ActionEscape(f"element {e} maps a line outside the given lines")
    return out


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
    ``line`` is the line's point row from ``line_points``."""
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
    ``lines`` holds each representative's point row from ``line_points``, and
    ``rep_of``, ``element_of`` the (representative, element) pairs whose
    element fixes the representative's line, by representative, then
    element.  No point row is built for any other line."""

    space: AffineSpace
    lines: np.ndarray
    group: PermGroup
    elements: tuple[Permutation, ...]
    reps: np.ndarray
    orbit_of: np.ndarray
    trans: np.ndarray
    rep_of: np.ndarray
    element_of: np.ndarray


def _line_orbits(group: PermGroup, p: int) -> _LineOrbits:
    space = AffineSpace(group.degree, p)
    keys = all_lines(space)
    coord = coordinate_group(group, space)
    elements = coord.elements()
    images = line_images(space, keys, elements)
    reps, orbit_of = orbit_sweep(images)
    trans = transporters(images, reps, orbit_of)
    rep_of, element_of = np.nonzero((images[:, reps] == reps).T)  # by rep, then element
    lines = line_points(space, keys[reps])
    return _LineOrbits(space, lines, coord, elements, reps, orbit_of, trans, rep_of, element_of)


def _fill(orb: _LineOrbits, lines: np.ndarray, plant: np.ndarray, k: int) -> LiftResult:
    """Plant the ingredient blocks ``plant`` on each representative through
    its row of ``lines`` and push them over every orbit, in the point dtype of
    the space: the design is built from the pushed row parts."""
    point_images = np.stack([g.images for g in orb.elements]).astype(lines.dtype)
    design = Design(orb.space.point_count, k,
                    push(point_images, lines, plant, orb.orbit_of, orb.trans))
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
    for r, e in zip(orb.rep_of.tolist(), orb.element_of.tolist()):
        g = orb.elements[e]
        if g.is_identity():
            continue
        if not is_automorphism(base.design, induced_perm_on_line(g, orb.lines[r])):
            raise BadParams(f"induced action on line {orb.reps[r]} is outside the base "
                            f"design's automorphisms")
    return _fill(orb, orb.lines, base.design.blocks, k)


def lift_aligned(group: PermGroup, p: int, k: int, ingredient: Design,
                 cyclic_gen: Permutation) -> LiftResult:
    """Line filling for groups whose induced line actions must be conjugated
    into a prescribed cyclic automorphism of the ingredient design.

    ``cyclic_gen`` generates a cyclic automorphism group of the ingredient
    with one fixed point, semiregular on the rest.  Per representative with a
    non-trivial stabilizer, the induced action (cyclic of order m, one fixed
    point) is aligned with the order-m power subgroup of the prescribed group
    before planting; the other lines keep the canonical parametrization.
    """
    if ingredient.v != p or ingredient.k != k:
        raise BadParams("ingredient design must live on p points with block size k")
    if not is_automorphism(ingredient, cyclic_gen):
        raise BadParams("cyclic_gen is not an automorphism of the ingredient")
    n = cyclic_gen.order()
    if len(cyclic_gen.fixed_points()) != 1 or any(len(c) != n for c in cyclic_gen.cycles()):
        raise BadParams(
            "cyclic_gen must fix exactly one point and be semiregular elsewhere")
    orb = _line_orbits(group, p)
    lines = orb.lines.copy()
    runs = np.searchsorted(orb.rep_of, np.arange(len(orb.reps) + 1))
    for i in np.flatnonzero(np.diff(runs) > 1).tolist():
        r, line = int(orb.reps[i]), lines[i]
        induced_set = dict.fromkeys(induced_perm_on_line(orb.elements[e], line)
                                    for e in orb.element_of[runs[i]:runs[i + 1]].tolist())
        m = len(induced_set)
        # the generator with the least image table
        gen = min((ind for ind in induced_set if ind.order() == m),
                  key=lambda ind: ind.images.tolist(), default=None)
        if gen is None:
            raise BadParams(f"induced action on line {r} is not cyclic")
        if m == 1:
            continue
        if n % m != 0:
            raise BadParams(
                f"induced order {m} on line {r} does not divide {n}")
        target = reduce(Permutation.__mul__, [cyclic_gen] * (n // m))  # cyclic_gen^(n/m)
        try:
            sigma = align_semiregular_cyclic(gen, target)
        except BadParams as exc:
            raise BadParams(f"line {r}: {exc}")
        # ind preserves the plant iff sigma^-1 * ind * sigma preserves the ingredient
        sigma_inv = sigma.inverse()
        for ind in induced_set:
            if not is_automorphism(ingredient, sigma_inv * ind * sigma):
                raise BadParams(
                    f"aligned plant on line {r} misses an induced action")
        line[:] = line[sigma_inv.images]  # plants the ingredient relabelled by sigma^-1
    return _fill(orb, lines, ingredient.blocks, k)
