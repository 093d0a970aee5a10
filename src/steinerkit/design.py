"""The Design type, exhaustive verification of the 2-(v,k,1) axioms, and
design files.

Blocks are stored in canonical form: each block sorted ascending, the blocks
in key order (``permgrp.row_keys``, which is lexicographic order).  While
v^k <= 2^63 the keys are exact int64 base-v numbers; canonical form and the
automorphism, stabilizer and pair checks run in chunks of rows, spread over
the CPUs by ``chunkmap.chunk_map``, and build no image design or full-size
row gather.  Design files are ``textfile`` tables of one section.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from . import textfile
from .chunkmap import chunk_map, chunk_stream
from .errors import BadParams, Budget
from .permgrp import DEFAULT_CAP, PermGroup, Permutation, row_keys

PAIR_TABLE_MAX_V = 20000  # a v^2/2 pair bitmap, and int64 counters on failure, fit below this
_ROWS = 1 << 16  # rows per chunk of the row-key, automorphism, pair and stabilizer kernels
T = TypeVar("T")


def _ascending(cols: Sequence[np.ndarray]) -> bool:
    return all(np.all(a < b) for a, b in zip(cols, cols[1:]))


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """The rows, each sorted ascending (BadParams on a repeated point) by an
    odd-even transposition network: numpy's row sort pays a call per row."""
    cols = list(rows.T)
    if _ascending(cols):
        return rows
    for step in range(len(cols)):
        for j in range(step % 2, len(cols) - 1, 2):
            cols[j:j + 2] = np.minimum(*cols[j:j + 2]), np.maximum(*cols[j:j + 2])
    if not _ascending(cols):
        raise BadParams("repeated point inside a block")
    return np.stack(cols, axis=1)


def _row_map(fn: Callable[[slice], T], n_rows: int) -> list[T]:
    """``chunk_map`` over the row chunks: fn of each slice of _ROWS rows, in order."""
    step = _ROWS
    return chunk_map(lambda i: fn(slice(i * step, (i + 1) * step)), -(-n_rows // step))


def _sorted_keys(rows: np.ndarray, v: int,
                 perm: Permutation | None = None) -> tuple[np.ndarray, bool]:
    """Exact row keys (v^k <= 2^63) of the rows mapped through ``perm``, each
    row sorted first; and whether the rows were canonical already: each row
    ascending and the keys strictly increasing."""
    keys = np.empty(rows.shape[0], dtype=np.int64)

    def chunk(part: slice) -> bool:
        img = rows[part] if perm is None else perm.images[rows[part]]
        cols = _sorted_rows(img)
        mine = keys[part]
        mine[:] = row_keys(cols, v)
        return cols is img and bool(np.all(mine[1:] > mine[:-1]))

    ascending = all(_row_map(chunk, len(keys)))
    seams = np.arange(_ROWS, len(keys), _ROWS)
    return keys, ascending and bool(np.all(keys[seams] > keys[seams - 1]))


class Design:
    """A 2-(v,k,1)-design candidate: v points and a list of k-subsets.

    Canonical order is key order.  Exact keys (v^k <= 2^63) are sorted and
    decoded back into rows; wider rows are gathered in the order of their
    rank-compressed keys.  Blocks already in canonical form, given as an int64
    array that owns its data, are adopted without a copy and made read-only.
    """

    __slots__ = ("v", "k", "blocks")

    def __init__(self, v: int, k: int, blocks):
        v, k = int(v), int(k)
        if k < 1:
            raise BadParams(f"block size k={k} must be at least 1")
        arr = np.asarray(blocks, dtype=np.int64)
        if arr.ndim == 1 and arr.size == 0:
            arr = arr.reshape(0, k)
        if arr.ndim != 2 or arr.shape[1] != k:
            raise BadParams(f"blocks must be rows of {k} points")
        if arr.size and (arr.min() < 0 or arr.max() >= v):
            raise BadParams("point index out of range")
        if v**k <= 2**63:  # exact keys: sort them, then decode the rows in place
            keys, canonical = _sorted_keys(arr, v)
            if not canonical:
                keys.sort()
                arr = np.empty((len(keys), k), dtype=np.int64)

                def decode(part: slice) -> None:
                    mine, rows = keys[part], arr[part]
                    for col in range(k - 1, -1, -1):
                        np.divmod(mine, v, out=(mine, rows[:, col]))

                _row_map(decode, len(keys))
        else:
            arr = _sorted_rows(arr)
            keys = row_keys(arr, v)
            if np.any(keys[1:] <= keys[:-1]):
                arr = arr[np.argsort(keys)]
        if arr.base is not None:  # canonical input, but a view: copy it
            arr = arr.copy()
        arr.setflags(write=False)
        self.v, self.k, self.blocks = v, k, arr

    @property
    def b(self) -> int:
        return self.blocks.shape[0]

    def block_tuples(self) -> list[tuple[int, ...]]:
        return [tuple(row) for row in self.blocks.tolist()]

    def block_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.block_tuples())

    def relabel(self, perm: Permutation) -> "Design":
        if perm.degree != self.v:
            raise BadParams(f"permutation degree {perm.degree} != v {self.v}")
        return Design(self.v, self.k, perm.images[self.blocks])

    def __eq__(self, other):
        return (isinstance(other, Design) and self.v == other.v
                and self.k == other.k and np.array_equal(self.blocks, other.blocks))

    def __hash__(self):
        return hash((self.v, self.k, self.blocks.tobytes()))

    def __repr__(self):
        return f"Design(v={self.v}, k={self.k}, b={self.b})"

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"DESIGN v={self.v} k={self.k} b={self.b}\n".encode())
        h.update(np.ascontiguousarray(self.blocks))  # in place: tobytes() copies the table
        return h.hexdigest()


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    pair_deficit: int
    pair_surplus: int
    block_count: int


def _pair_chunks(rows: np.ndarray) -> list[Callable[[], np.ndarray]]:
    """Calls that give index j(j-1)/2 + i of each point pair {i < j} of the
    rows, by chunks of about _ROWS pairs, each one gather of every column
    pair (no step per pair)."""
    a, b = np.triu_indices(rows.shape[1], 1)
    step = max(1, _ROWS // max(len(a), 1))

    def pairs(start: int) -> np.ndarray:
        cols = rows[start:start + step].T
        hi = cols[b]
        return (hi * (hi - 1) // 2 + cols[a]).ravel()

    return [partial(pairs, start) for start in range(0, rows.shape[0] if len(a) else 0, step)]


def pair_counts(v: int, rows: np.ndarray) -> np.ndarray:
    """How many rows contain each point pair {i < j}, at index j(j-1)/2 + i.

    The lambda=1 kernel of designs, TDs and nets: each row of the (m, s)
    array holds s distinct points of 0..v-1 in ascending order.
    """
    counts = np.zeros(v * (v - 1) // 2, dtype=np.int64)

    def count(made: list[np.ndarray]) -> None:
        for idx in made:
            np.add.at(counts, idx, 1)

    chunk_stream(_pair_chunks(rows), count)
    return counts


def verify_2design(design: Design) -> VerifyReport:
    """Exhaustive lambda=1 check: every point pair covered exactly once.

    If b*C(k,2) = C(v,2) and a pair bitmap leaves no pair uncovered, no pair
    is covered twice; only a failure counts pairs, for its deficit and surplus.
    """
    v, k, b = design.v, design.k, design.b
    if v > PAIR_TABLE_MAX_V:
        raise Budget(f"pair table for v={v} exceeds the in-memory budget")
    if b * (k * (k - 1) // 2) == v * (v - 1) // 2:
        covered = np.zeros(v * (v - 1) // 2, dtype=bool)

        def cover(made: list[np.ndarray]) -> None:
            for idx in made:
                covered[idx] = True

        chunk_stream(_pair_chunks(design.blocks), cover)
        if covered.all():
            return VerifyReport(True, 0, 0, b)
    counts = pair_counts(v, design.blocks)
    deficit = int(np.count_nonzero(counts == 0))
    surplus = int(np.count_nonzero(counts >= 2))
    return VerifyReport(deficit == 0 and surplus == 0, deficit, surplus, design.b)


def _maps_onto(h: Permutation, d1: Design, d2: Design) -> bool:
    """True iff h carries d1's blocks onto d2's, of the same (v, k).  With
    exact keys, the sorted keys of the image rows are d2's, which ascend."""
    if h.degree != d1.v:
        raise BadParams(f"permutation degree {h.degree} != v {d1.v}")
    if d1.v**d1.k > 2**63:
        return d1.relabel(h) == d2
    if d1.b != d2.b:
        return False
    keys, _ = _sorted_keys(d1.blocks, d1.v, h)
    keys.sort()
    return all(_row_map(lambda part: np.array_equal(keys[part], row_keys(d2.blocks[part], d2.v)),
                        d2.b))


def is_automorphism(design: Design, perm: Permutation) -> bool:
    """True iff the permutation maps the block set onto itself."""
    return _maps_onto(perm, design, design)


def is_1_blocked(design: Design, group: PermGroup):
    """Every block's set-stabilizer in the group acts as the identity on it.

    Returns (True, None) or (False, (block, element)) with a violating pair.
    Requires the group to be an automorphism group of the design.
    """
    for g in group.generators:
        if not is_automorphism(design, g):
            raise BadParams(f"generator {g!r} is not an automorphism")
    return stabilizer_scan(design, group)


def stabilizer_scan(design: Design, group: PermGroup):
    """The scan behind ``is_1_blocked``, for a group already known to act by
    automorphisms: (True, None), or (False, (block, element)) for a block
    whose set-stabilizer moves one of its points."""
    def violation(g: Permutation, part: slice):
        rows = design.blocks[part]
        # g stabilizes a block only if it maps the block's first point into it
        first = g.images[rows[:, 0]]
        cand = np.flatnonzero(np.logical_or.reduce([col == first for col in rows.T]))
        rows, img = rows[cand], g.images[rows[cand]]
        bad = np.all(np.sort(img, axis=1) == rows, axis=1) & np.any(img != rows, axis=1)
        return (tuple(rows[np.argmax(bad)].tolist()), g) if bad.any() else None

    for g in group.elements():
        if g.is_identity():
            continue
        for found in _row_map(lambda part: violation(g, part), design.b):
            if found is not None:
                return False, found
    return True, None


@dataclass(frozen=True)
class SubdesignEmbedding:
    """A point subset closed under the parent design's pair coverage."""

    parent: Design
    points: tuple[int, ...]
    induced_blocks: tuple[tuple[int, ...], ...]


def is_subdesign(design: Design, pts: Iterable[int]) -> SubdesignEmbedding | None:
    """Embedding if every pair inside pts is covered by a block inside pts.

    A singleton (or empty) subset embeds degenerately with no blocks.  Returns
    None when some pair's block leaves the subset.
    """
    pset = tuple(sorted(set(pts)))
    hits = np.isin(design.blocks, pset).sum(axis=1)
    if np.any((hits >= 2) & (hits < design.k)):
        return None
    blocks = design.blocks[hits == design.k]
    return SubdesignEmbedding(design, pset, tuple(map(tuple, blocks.tolist())))


def brute_aut(design: Design) -> PermGroup:
    """Full automorphism group by point-image backtracking.

    Prunes on block-image consistency: once two assigned points pin a block,
    every further point of that block must land in the image block.  Bounded
    to v <= 30; large designs never get full-group claims.
    """
    v, k = design.v, design.k
    if v > 30:
        raise Budget(f"brute_aut bounded to v <= 30, got {v}")
    report = verify_2design(design)
    if not report.ok:
        raise BadParams(f"not a 2-design: {report}")
    # line[x][y]: the block through points x != y
    line = np.full((v, v), -1)
    a, b = np.triu_indices(k, 1)
    pts, block = design.blocks, np.arange(design.b)[:, None]
    line[pts[:, a], pts[:, b]] = line[pts[:, b], pts[:, a]] = block
    line = line.tolist()
    found: list[Permutation] = []
    img = [-1] * v
    used = [False] * v
    block_img: dict[int, int] = {}

    def extend(x: int):
        if x == v:
            found.append(Permutation(img))
            if len(found) > DEFAULT_CAP:
                raise Budget(f"automorphism count passed cap {DEFAULT_CAP}")
            return
        for y in range(v):
            if used[y]:
                continue
            pinned: list[int] = []
            ok = True
            for x2 in range(x):
                bi = line[x][x2]
                target = line[y][img[x2]]
                cur = block_img.get(bi)
                if cur is None:
                    block_img[bi] = target
                    pinned.append(bi)
                elif cur != target:
                    ok = False
                    break
            if ok:
                img[x] = y
                used[y] = True
                extend(x + 1)
                img[x] = -1
                used[y] = False
            for bi in pinned:
                del block_img[bi]

    extend(0)
    elems = tuple(found)  # images are tried in ascending order, so found is sorted by image table
    return PermGroup(v, elems, _elements=elems)


def iso_in_group(d1: Design, d2: Design, maps: Sequence[Permutation]) -> Permutation | None:
    """First map in the list carrying d1's block set onto d2's, else None."""
    if (d1.v, d1.k) != (d2.v, d2.k):
        raise BadParams("designs must share (v, k)")
    for h in maps:
        if _maps_onto(h, d1, d2):
            return h
    return None


# -- file format: "DESIGN v=<v> k=<k> b=<b>", then the b blocks in canonical form

def _design_layout(v: int, k: int, b: int) -> list[tuple[int, int, int]]:
    if min(v, k, b) < 0:
        raise BadParams("negative header field")
    if k < 1:
        raise BadParams(f"block size k={k} must be at least 1")
    return [(b, k, v)]


def write_design(design: Design, path, comments: Sequence[str] = ()) -> str:
    """Write a design file atomically, comment lines first; its sha256."""
    return textfile.write(path, "DESIGN", {"v": design.v, "k": design.k, "b": design.b},
                          [(design.blocks, design.v)], comments)


def read_design(path) -> Design:
    """Read a design file; ParseError names the first line that is wrong."""
    with open(path, "rb") as fh:
        (v, k, _), (rows,) = textfile.read(fh, "DESIGN", ("v", "k", "b"), _design_layout)
    return Design(v, k, rows)
