"""Permutations and finitely generated permutation groups.

Permutations are read-only int64 image arrays on {0..degree-1}.  Groups are given by
generators and enumerated on demand by breadth-first closure under a hard
cap.  Orbits need no enumeration: ``orbit_sweep`` takes the image table of
the generators; only transporters need every element.  A row of points has
one key, ``row_keys``: its points as bit fields of one uint64.

Composition is left-to-right: ``(g * h)(x) == h(g(x))``, matching the
exponent convention x^(gh) = (x^g)^h used throughout.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import textfile
from .errors import ActionEscape, BadParams, Budget
from .textfile import point_dtype

DEFAULT_CAP = 10**6
_PART_ROWS = 1 << 16  # about this many rows in each part that ``push`` gives


def read_only_ints(values, ndim: int) -> np.ndarray:
    """``values`` as a new read-only int64 array of ``ndim`` dimensions;
    ValueError when they are ragged or not integers (a float is refused,
    never truncated)."""
    a = np.asarray(values)
    if a.ndim != ndim or (a.size and a.dtype.kind not in "iu"):
        raise ValueError(f"expected a {ndim}-D array of integers")
    a = a.astype(np.int64)
    a.setflags(write=False)
    return a


def read_points(pts: Iterable[int], n: int) -> np.ndarray:
    """The points as a new int64 array, in their order; BadParams for a float
    or a bool (refused, never truncated), then for a point outside 0..n-1."""
    pts = list(pts)
    for x in pts:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise BadParams(f"point {x!r} is not an integer")
    if not all(0 <= x < n for x in pts):
        raise BadParams(f"a point outside 0..{n - 1}")
    return np.array(pts, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Permutation:
    """A permutation of {0..degree-1} stored as its image table, one
    read-only 1-D int64 array built from any integer sequence."""

    images: np.ndarray

    def __post_init__(self):
        a = read_only_ints(self.images, 1)
        if not np.array_equal(np.sort(a), np.arange(len(a))):
            raise ValueError("images must be a bijection on 0..degree-1")
        object.__setattr__(self, "images", a)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(np.arange(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images, used = np.arange(degree), np.zeros(degree, dtype=bool)
        for cyc in cycles:
            cyc = read_points(cyc, degree)
            if len(np.unique(cyc)) != len(cyc) or used[cyc].any():
                raise ValueError(f"cycle {tuple(cyc.tolist())} repeats a point")
            used[cyc] = True
            images[cyc] = np.roll(cyc, -1)
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return int(self.images[x])

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(self.images, other.images)

    def __hash__(self):
        return hash(self.images.tobytes())

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return Permutation(other.images[self.images])

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(self.degree)
        return Permutation(inv)

    def is_identity(self) -> bool:
        return self._fixes_all

    @cached_property
    def _fixes_all(self) -> bool:
        return bool(np.array_equal(self.images, np.arange(self.degree)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycles of length two or more, anchored at and sorted by their minimum."""
        images = self.images.tolist()
        seen = bytearray(self.degree)
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = 1
            x = images[start]
            while not seen[x]:  # on a bijection, the first point seen again is start
                cyc.append(x)
                seen[x] = 1
                x = images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        cyc = self.cycles()
        return math.lcm(*(len(c) for c in cyc)) if cyc else 1

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.images == np.arange(self.degree)).tolist())

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return f"Permutation(id, degree={self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Permutation({body}, degree={self.degree})"


class PermGroup:
    """Finitely generated permutation group with on-demand full enumeration."""

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 _elements: tuple[Permutation, ...] | None = None):
        if degree <= 0:
            raise ValueError("degree must be positive")
        for g in generators:
            if g.degree != degree:
                raise ValueError("all generators must share the group degree")
        self.degree = degree
        self.generators = tuple(generators)
        self._elements = _elements

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, (Permutation.identity(degree),))

    @classmethod
    def cyclic_from(cls, g: Permutation) -> "PermGroup":
        return cls(g.degree, (g,))

    def elements(self) -> tuple[Permutation, ...]:
        """All group elements by closure over the generators, sorted by image table."""
        if self._elements is not None:
            return self._elements
        gens = np.array([g.images for g in self.generators], np.int64).reshape(-1, self.degree)
        frontier = np.arange(self.degree)[None]
        # keyed by big-endian bytes, whose order is the image tables' integer order
        seen = {frontier[0].astype(">i8").tobytes(): frontier[0]}
        while len(frontier):
            # each frontier element times each generator: gens[j][h[x]] = (h * g_j)(x)
            products = gens[:, frontier].reshape(-1, self.degree)
            fresh = {key: prod for key, prod in zip(map(bytes, products.astype(">i8")), products)
                     if key not in seen}
            seen.update(fresh)
            if len(seen) > DEFAULT_CAP:
                raise Budget(f"group closure passed cap {DEFAULT_CAP}")
            frontier = np.array(list(fresh.values()), dtype=np.int64).reshape(-1, self.degree)
        self._elements = tuple(Permutation(seen[key]) for key in sorted(seen))
        return self._elements

    def order(self) -> int:
        return len(self.elements())

    def __contains__(self, perm: Permutation) -> bool:
        return perm in self.elements()

    def __repr__(self):
        size = len(self._elements) if self._elements is not None else "?"
        return f"PermGroup(degree={self.degree}, gens={len(self.generators)}, order={size})"


# -- orbits of an indexed family ------------------------------------------------
# The construction mechanism: sweep a family into orbits, plant an ingredient
# on each representative, push the plant to every member by its transporter.

def keyable(n: int, s: int) -> bool:
    """True iff s fields of (n-1).bit_length() bits fit ``row_keys``' 64."""
    return s * (int(n) - 1).bit_length() <= 64


def row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """One uint64 key per row of an (m, s) array of points of any integer
    dtype, which the caller has checked against 0..n-1: the points as bit
    fields of (n-1).bit_length() bits side by side, or-ed into the keys, so
    keys order rows lexicographically.  BadParams unless ``keyable(n, s)``.
    The transpose of a contiguous (s, m) array is read at unit stride."""
    cols = rows.T
    if not keyable(n, len(cols)):
        raise BadParams(f"rows of {len(cols)} points below {n} need more than 64 bits")
    if not len(cols):
        return np.zeros(len(rows), dtype=np.uint64)
    keys, bits = cols[0].astype(np.uint64), (int(n) - 1).bit_length()
    for col in cols[1:]:
        keys <<= bits
        np.bitwise_or(keys, col, out=keys, dtype=np.uint64, casting="unsafe")
    return keys


def decode_row_keys(keys: np.ndarray, n: int, rows: np.ndarray) -> None:
    """Write the rows of these ``row_keys`` into ``rows``, by mask and shift;
    the keys are shifted to 0 in place."""
    bits, point = (int(n) - 1).bit_length(), np.empty_like(keys)
    for col in range(rows.shape[1] - 1, -1, -1):
        rows[:, col] = np.bitwise_and(keys, (1 << bits) - 1, out=point)
        keys >>= bits


def set_images(rows, perms: Sequence[Permutation]) -> np.ndarray:
    """Image-index table of permutations acting on a family of point sets.

    ``rows`` is an (n, s) array read as n point sets.  Entry [e, i] of the
    (len(perms), n) result is the index of the row equal, as a set, to row i's
    image under perms[e].  Raises ActionEscape if an image is not a row.

    The sets and their images fill one (len(perms) + 1, n, s) family in the
    ``point_dtype`` of the degree, element by element; rows that ascend
    already skip the sort, and sets whose keys increase skip the argsort.
    Sets too wide for ``row_keys`` are labelled by one ``np.unique`` instead.
    """
    rows = np.asarray(rows)
    if not perms:
        return np.empty((0, len(rows)), dtype=np.int64)
    degree = perms[0].degree
    if rows.size and (rows.min() < 0 or rows.max() >= degree):
        raise BadParams(f"a set has a point outside 0..{degree - 1}")
    family = np.empty((len(perms) + 1, *rows.shape), dtype=point_dtype(degree))
    family[0] = rows
    for slab, g in zip(family[1:], perms):
        slab[:] = g.images.astype(family.dtype)[rows]
    for slab in family:
        if not np.all(slab[:, 1:] > slab[:, :-1]):
            slab.sort(axis=1)
    flat = family.reshape(-1, rows.shape[1])  # one call keys the sets and all their images
    keys = (row_keys(flat, degree) if keyable(degree, rows.shape[1])
            else np.unique(flat, axis=0, return_inverse=True)[1]).reshape(family.shape[:2])
    order = None if np.all(keys[0][1:] > keys[0][:-1]) else np.argsort(keys[0])
    found = np.minimum(np.searchsorted(keys[0], keys[1:], sorter=order), len(rows) - 1)
    index = found if order is None else order[found]
    escaped = (keys[0][index] != keys[1:]).any(axis=1)
    if escaped.any():
        raise ActionEscape(f"element {np.argmax(escaped)} maps a set outside the family")
    return index


def orbit_sweep(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orbits from an image-index table whose rows generate the group.

    The rows may be the generators or every element.  Returns the
    representatives (the least index of each orbit, ascending) and each
    member's orbit number.  Least-label propagation: each round every member
    takes the least label among itself and its images, then the label of its
    label, until nothing changes.
    """
    label = np.arange(images.shape[1])
    while True:
        new = np.minimum(label, label[images].min(axis=0, initial=label.size))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    return np.unique(label, return_inverse=True)


def transporters(images: np.ndarray, reps: np.ndarray, orbit_of: np.ndarray) -> np.ndarray:
    """Per member, the index of the first element of the (elements, n) image
    table that carries the member's representative to it."""
    return (images[:, reps[orbit_of]] == np.arange(images.shape[1])).argmax(axis=0)


class RowPart(NamedTuple):
    """``count`` rows of points, gathered when ``make()`` is called."""

    count: int
    make: Callable[[], np.ndarray]


def push(point_images: np.ndarray, lines: np.ndarray, plant: np.ndarray,
         orbit_of: np.ndarray, trans: np.ndarray) -> list[RowPart]:
    """Blocks of every member: its orbit's plant under its transporter, in
    parts of one element and about _PART_ROWS rows, each gathered by index
    when it is made.  ``point_images`` holds one point image table per
    element, ``lines`` one row of points per orbit, and ``plant`` (blocks, k)
    positions in a row, the same for every orbit: member i's blocks are
    point_images[trans[i]][lines[orbit_of[i]][plant]]."""
    def make(images: np.ndarray, orbits: np.ndarray) -> np.ndarray:
        return images[lines[orbits]][:, plant].reshape(-1, plant.shape[1])

    order = np.argsort(trans, kind="stable")
    bounds = np.searchsorted(trans[order], np.arange(len(point_images) + 1)).tolist()
    step = max(1, _PART_ROWS // max(len(plant), 1))
    return [RowPart(len(orbits) * len(plant), partial(make, images, orbits))
            for images, lo, hi in zip(point_images, bounds[:-1], bounds[1:])
            for orbits in (orbit_of[order[start:min(start + step, hi)]]
                           for start in range(lo, hi if len(plant) else lo, step))]


def is_semiregular(group: PermGroup,
                   pts: Iterable[int]) -> tuple[bool, list[tuple[Permutation, int]]]:
    """True iff no nonidentity element fixes any point of the set, and the
    violating (element, fixed point) pairs; BadParams as ``read_points`` gives it."""
    pts = read_points(pts, group.degree)
    violations = [(g, x) for g in group.elements() if not g.is_identity()
                  for x in pts[g.images[pts] == pts].tolist()]
    return (not violations, violations)


def align_semiregular_cyclic(c: Permutation, c_target: Permutation) -> Permutation:
    """Conjugator sigma with sigma^-1 * c * sigma == c_target, for two
    permutations with one common length of their cycles, as many cycles and
    as many fixed points.  Deterministic: cycles sorted by minimum element and
    anchored at it, fixed points matched in sorted order."""
    structure = [(perm.fixed_points(), perm.cycles()) for perm in (c, c_target)]
    for _, cycles in structure:
        lengths = {len(cyc) for cyc in cycles}
        if len(lengths) > 1:
            raise BadParams(f"unequal cycle lengths {sorted(lengths)}")
    (fixed_a, cycles_a), (fixed_b, cycles_b) = structure
    len_a = len(cycles_a[0]) if cycles_a else 1
    len_b = len(cycles_b[0]) if cycles_b else 1
    if len_a != len_b or len(cycles_a) != len(cycles_b):
        raise BadParams(f"cycle lengths {len_a}x{len(cycles_a)} vs {len_b}x{len(cycles_b)}")
    if len(fixed_a) != len(fixed_b):
        raise BadParams(f"fixed point counts differ: {len(fixed_a)} vs {len(fixed_b)}")
    images = np.arange(c.degree)
    for a, b in zip([fixed_a, *cycles_a], [fixed_b, *cycles_b]):
        images[list(a)] = b
    return Permutation(images)


# -- group file format: "PERMGROUP degree=<n> gens=<m>", then each generator's images

def _group_layout(degree: int, gens: int) -> tuple[int, list[tuple[int, int]]]:
    """The ``textfile`` layout: points below degree, gens rows of degree."""
    if degree < 1 or gens < 0:
        raise BadParams(f"PERMGROUP header needs degree >= 1 and gens >= 0, "
                        f"got degree={degree}, gens={gens}")
    return degree, [(gens, degree)]


def group_to_text(group: PermGroup) -> str:
    images = np.array([g.images for g in group.generators], np.int64).reshape(-1, group.degree)
    return b"".join(textfile.chunks("PERMGROUP", {"degree": group.degree, "gens": len(images)},
                                    group.degree, [images])).decode()


def group_from_text(text: str) -> PermGroup:
    """ParseError names the first wrong line, a row that is no permutation included."""
    (degree, _), (images,) = textfile.read(io.BytesIO(text.encode()), "PERMGROUP",
                                           ("degree", "gens"), _group_layout, distinct=True)
    return PermGroup(degree, [Permutation(row) for row in images])
