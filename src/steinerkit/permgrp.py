"""Permutations and finitely generated permutation groups.

Permutations are image tables on {0..degree-1}.  Groups are given by
generators and enumerated on demand by breadth-first closure under a hard
cap.  Orbits need no enumeration: ``orbit_sweep`` takes the image table of
the generators; only transporters need every element.

Composition is left-to-right: ``(g * h)(x) == h(g(x))``, matching the
exponent convention x^(gh) = (x^g)^h used throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ActionEscape,
    CapExceeded,
    NotSemiregular,
    OrderMismatch,
    ParseError,
)

DEFAULT_CAP = 10**6


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0..degree-1} stored as its image table."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        seen = bytearray(n)
        for x in self.images:
            if not 0 <= x < n or seen[x]:
                raise ValueError("images must be a bijection on 0..degree-1")
            seen[x] = 1

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                images[a] = b
            if cyc:
                images[cyc[-1]] = cyc[0]
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        o = other.images
        return Permutation(tuple(o[x] for x in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.array, np.arange(self.degree)))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Cycle decomposition, cycles anchored at and sorted by their minimum."""
        seen = bytearray(self.degree)
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = 1
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = 1
                x = self.images[x]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        cyc = self.cycles()
        return math.lcm(*(len(c) for c in cyc)) if cyc else 1

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.images) if i == x)

    @cached_property
    def array(self) -> np.ndarray:
        a = np.asarray(self.images, dtype=np.int64)
        a.setflags(write=False)
        return a

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

    def elements(self, cap: int = DEFAULT_CAP) -> tuple[Permutation, ...]:
        """All group elements by closure over the generators, sorted by image table."""
        if self._elements is not None:
            return self._elements
        ident = Permutation.identity(self.degree)
        seen = {ident.images: ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for h in frontier:
                for g in self.generators:
                    prod = h * g
                    if prod.images not in seen:
                        seen[prod.images] = prod
                        nxt.append(prod)
                        if len(seen) > cap:
                            raise CapExceeded(f"group closure passed cap {cap}")
            frontier = nxt
        self._elements = tuple(seen[k] for k in sorted(seen))
        return self._elements

    def order(self, cap: int = DEFAULT_CAP) -> int:
        return len(self.elements(cap))

    def __contains__(self, perm: Permutation) -> bool:
        return perm in self.elements()

    def __repr__(self):
        size = len(self._elements) if self._elements is not None else "?"
        return f"PermGroup(degree={self.degree}, gens={len(self.generators)}, order={size})"


# -- orbits of an indexed family ------------------------------------------------
# The construction mechanism: sweep a family into orbits, plant an ingredient
# on each representative, push the plant to every member by its transporter.

def row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """One int64 key per row of an (m, s) array of points in 0..n-1.

    Equal rows get equal keys and keys order the rows lexicographically.  The
    key is the rows' base-n number; where n^s would overflow int64 the partial
    keys are replaced by their ranks first, so keys from separate calls are
    comparable only when no rank compression happened.
    """
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    bound, n = 1, int(n)  # every key is below bound
    for col in rows.T:
        if bound * n > 2**63:
            keys = np.unique(keys, return_inverse=True)[1]
            bound = int(keys.max(initial=0)) + 1
        keys = keys * n + col
        bound *= n
    return keys


def set_images(rows, perms: Sequence[Permutation]) -> np.ndarray:
    """Image-index table of permutations acting on a family of point sets.

    ``rows`` is an (n, s) array read as n point sets.  Entry [e, i] of the
    (len(perms), n) result is the index of the row equal, as a set, to row i's
    image under perms[e].  Raises ActionEscape if an image is not a row.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if not perms:
        return np.empty((0, len(rows)), dtype=np.int64)
    family = np.stack([rows] + [g.array[rows] for g in perms])
    family.sort(axis=2)
    # one call keys the sets and all their images, so ranks stay comparable
    keys = row_keys(family.reshape(-1, rows.shape[1]), perms[0].degree).reshape(family.shape[:2])
    order = np.argsort(keys[0])
    index = order[np.minimum(np.searchsorted(keys[0], keys[1:], sorter=order), len(rows) - 1)]
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


def push(point_images: np.ndarray, planted: np.ndarray, orbit_of: np.ndarray,
         trans: np.ndarray) -> np.ndarray:
    """Blocks of every member: its orbit's plant under its transporter.

    ``point_images`` holds one point image table per group element,
    ``planted`` one (blocks, k) plant per orbit; the rows come out member by
    member, unsorted.
    """
    out = point_images[trans[:, None, None], planted[orbit_of]]
    return out.reshape(-1, planted.shape[-1])


def is_semiregular(group: PermGroup, pts: Iterable[int],
                   cap: int = DEFAULT_CAP) -> tuple[bool, list[tuple[Permutation, int]]]:
    """True iff no nonidentity element fixes any point of the set.

    On failure also returns the violating (element, fixed point) pairs.
    """
    pts = tuple(pts)
    violations = [(g, x) for g in group.elements(cap) if not g.is_identity()
                  for x in pts if g.images[x] == x]
    return (not violations, violations)


def _cycle_structure_on(perm: Permutation, pts: frozenset[int]):
    """Fixed points and cycles of a permutation restricted to an invariant set."""
    fixed = []
    cycles = []
    seen = set()
    for start in sorted(pts):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        x = perm.images[start]
        while x != start:
            if x not in pts:
                raise NotSemiregular(f"set is not invariant under {perm!r}")
            cyc.append(x)
            seen.add(x)
            x = perm.images[x]
        if len(cyc) == 1:
            fixed.append(start)
        else:
            cycles.append(cyc)
    lengths = {len(c) for c in cycles}
    if len(lengths) > 1:
        raise NotSemiregular(f"unequal cycle lengths {sorted(lengths)} on the set")
    return fixed, cycles


def align_semiregular_cyclic(c: Permutation, c_target: Permutation,
                             pts: Iterable[int]) -> Permutation:
    """Conjugator sigma with sigma^-1 * c * sigma == c_target on the given set.

    Both permutations must leave the set invariant with matching cycle
    structure there: equal common cycle length and equally many fixed points.
    Deterministic: cycles sorted by minimum element and anchored at it, fixed
    points matched in sorted order.  sigma is the identity off the set.
    """
    pts = frozenset(pts)
    fixed_a, cycles_a = _cycle_structure_on(c, pts)
    fixed_b, cycles_b = _cycle_structure_on(c_target, pts)
    len_a = len(cycles_a[0]) if cycles_a else 1
    len_b = len(cycles_b[0]) if cycles_b else 1
    if len_a != len_b or len(cycles_a) != len(cycles_b):
        raise OrderMismatch(f"cycle lengths {len_a}x{len(cycles_a)} vs {len_b}x{len(cycles_b)}")
    if len(fixed_a) != len(fixed_b):
        raise OrderMismatch(f"fixed point counts differ: {len(fixed_a)} vs {len(fixed_b)}")
    images = list(range(c.degree))
    for a, b in zip(fixed_a, fixed_b):
        images[a] = b
    for cyc_a, cyc_b in zip(cycles_a, cycles_b):
        for a, b in zip(cyc_a, cyc_b):
            images[a] = b
    sigma = Permutation(tuple(images))
    return sigma


# -- group file format --------------------------------------------------------
# line 1: "PERMGROUP degree=<n> gens=<m>", then m lines of n space-separated
# 0-based images; lines starting with '#' are comments.

def group_to_text(group: PermGroup) -> str:
    lines = [f"PERMGROUP degree={group.degree} gens={len(group.generators)}"]
    for g in group.generators:
        lines.append(" ".join(map(str, g.images)))
    return "\n".join(lines) + "\n"


def group_from_text(text: str) -> PermGroup:
    lines = text.splitlines()
    data = [(no, raw.split()) for no, raw in enumerate(lines, start=1)
            if raw.strip() and not raw.lstrip().startswith("#")]
    if not data:
        raise ParseError(1, "missing PERMGROUP header")
    header_no, header = data[0]
    if len(header) != 3 or header[0] != "PERMGROUP":
        raise ParseError(header_no, "expected 'PERMGROUP degree=<n> gens=<m>'")
    try:
        degree = int(header[1].removeprefix("degree="))
        gens = int(header[2].removeprefix("gens="))
    except ValueError:
        raise ParseError(header_no, "bad degree/gens fields")
    perms = []
    for no, tokens in data[1:]:
        try:
            imgs = tuple(int(tok) for tok in tokens)
        except ValueError:
            raise ParseError(no, "non-integer image")
        if len(imgs) != degree:
            raise ParseError(no, f"expected {degree} images, got {len(imgs)}")
        try:
            perms.append(Permutation(imgs))
        except ValueError as exc:
            raise ParseError(no, str(exc))
    if len(perms) != gens:
        raise ParseError(len(lines), f"expected {gens} generators, got {len(perms)}")
    return PermGroup(degree, perms)
