"""The Design type, exhaustive verification of the 2-(v,k,1) axioms, and
design files.

Blocks are stored in canonical form: each block sorted ascending, the blocks
in lexicographic order, the order of their uint64 ``permgrp.row_keys`` while
those fit (``permgrp.keyable``: v <= 2^21 at k=3, 65,536 at k=4, 4,096 at
k=5).  Canonical form (of one array of rows, or of the ``RowPart``s ``push``
gives, each keyed into its slice of one key array, which ``_sort`` sorts on
every CPU) and the automorphism, stabilizer and pair checks run in chunks of
rows on every CPU (``chunkmap``) and build no image design or full-size row
gather.  A chunk of rows to be sorted and keyed is copied once into its k
contiguous columns (``_sorted_columns``): the sorting network and the keys
read those at unit stride.  Wider rows are sorted by ``np.lexsort`` and
compared as relabelled designs.  A design file is one ``textfile`` table.

The lambda=1 check (``_pair_cover``) sets one byte a pair in a bitmap of
C(v,2) bytes, at the index of the reflected pair; a failed check marks the
pairs it meets again in a second such bitmap, and counts no pair in integers.

A block table holds its points in ``point_dtype(v)``: uint16 while v <=
65,536, else uint32, and so do the images a check or ``relabel`` gathers
through, with ``np.take`` on the flat image table.  Keys are or-ed into
uint64; pair indices of uint16 rows are computed in uint32 (C(65,536, 2) <
2^32, and 65,535 * 65,534 < 2^32), of wider rows in int64, and widened to
int64.  ``Design.digest`` hashes the int64 bytes, so the dtype changes no
output.

A ``Design`` is immutable, and each check runs once per object: the
``verify_2design`` report, each ``is_automorphism`` verdict and the digest
are kept on the design, false verdicts too, and an equal permutation finds
its entry.  ``stabilizer_scan`` scans one element of each cyclic subgroup.
``_Digest`` is the one definition of the bytes a digest hashes.
``read_design`` feeds it each piece's points as the reader takes them, in
file order, while other CPUs tokenize later pieces; the design read keeps
that digest when its table is the rows as read, and a file whose rows
needed sorting leaves the design to hash its own table.  The hash slows
the read by most of what it saves the first ``digest()`` call, so a reader
that takes no digest passes ``digest=False`` and hashes nothing.
"""
from __future__ import annotations

import hashlib
import math
import operator
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from . import chunkmap, textfile
from .chunkmap import chunk_map, chunk_stream
from .errors import BadParams, Budget
from .permgrp import (DEFAULT_CAP, PermGroup, Permutation, RowPart, decode_row_keys, keyable,
                      read_points, row_keys)
from .textfile import point_dtype

PAIR_TABLE_MAX_V = 20000  # two v^2/2 pair bitmaps, what a failed check holds, fit below this
_ROWS = 1 << 16  # rows per chunk of the row-key, automorphism, pair and stabilizer kernels
T = TypeVar("T")


def _sorted_columns(rows: np.ndarray, v: int) -> tuple[np.ndarray, bool]:
    """The k columns of the (m, k) rows as one contiguous (k, m) copy, each
    row sorted ascending by an odd-even transposition network run in place
    on it (numpy's row sort pays a call per row), and whether the rows were
    ascending already; BadParams on a point outside 0..v-1, then on a point
    repeated inside a row."""
    cols = rows.T.copy()
    ascending = all(np.all(a < b) for a, b in zip(cols, cols[1:]))
    if not ascending:
        low = np.empty_like(cols[0])
        for step in range(len(cols)):
            for j in range(step % 2, len(cols) - 1, 2):
                np.minimum(cols[j], cols[j + 1], out=low)
                np.maximum(cols[j], cols[j + 1], out=cols[j + 1])
                cols[j] = low
    if cols.size and (cols[0].min() < 0 or cols[-1].max() >= v):
        raise BadParams("point index out of range")
    if not ascending and any(np.any(a == b) for a, b in zip(cols, cols[1:])):
        raise BadParams("repeated point inside a block")
    return cols, ascending


def _sort(keys: np.ndarray) -> None:
    """Sort the keys in place, as ``keys.sort()`` would: from _ROWS keys on,
    one partition at the WORKERS-1 order statistics, then each slice sorted
    in ``chunk_map``; fewer keys are sorted in the calling thread."""
    n, workers = len(keys), chunkmap.WORKERS if len(keys) >= _ROWS else 1
    cuts = [n * i // workers for i in range(workers + 1)]
    if workers > 1:
        keys.partition(cuts[1:-1])
    chunk_map(lambda i: keys[cuts[i]:cuts[i + 1]].sort(), workers)


def _row_map(fn: Callable[[slice], T], n_rows: int) -> list[T]:
    """``chunk_map`` over the row chunks: fn of each slice of _ROWS rows, in order."""
    step = _ROWS
    return chunk_map(lambda i: fn(slice(i * step, (i + 1) * step)), -(-n_rows // step))


def _parts(rows: np.ndarray, perm: Permutation | None = None) -> list[RowPart]:
    """The rows, mapped through ``perm``, as parts of _ROWS rows."""
    images = None if perm is None else perm.images.astype(point_dtype(perm.degree))
    chunks = [rows[start:start + _ROWS] for start in range(0, len(rows), _ROWS)]
    return [RowPart(len(c), c.view if images is None else partial(np.take, images, c))
            for c in chunks]


def _sorted_keys(parts: Sequence[RowPart], v: int) -> np.ndarray | None:
    """The ``row_keys`` of the parts' rows in order, each row sorted by
    ``_sorted_columns`` first and keyed from those columns; None if the rows
    are canonical already: each ascending and the keys strictly increasing.
    Each part is made and keyed on its own; the first that is not canonical
    makes the full key array, the parts after it write their keys into their
    own slices there, and those keyed before it are made and keyed again."""
    ends = np.cumsum([0, *(part.count for part in parts)]).tolist()
    keys = None
    making = threading.Lock()

    def key(i: int) -> tuple[int, int] | None:
        """The part's first and last key if it is canonical and no key array
        is made yet, else None once its keys are written."""
        nonlocal keys
        cols, ascending = _sorted_columns(parts[i].make(), v)
        mine = row_keys(cols.T, v)
        if keys is None and ascending and np.all(mine[1:] > mine[:-1]):
            return mine[0], mine[-1]
        with making:
            if keys is None:
                keys = np.empty(ends[-1], dtype=np.uint64)
        keys[ends[i]:ends[i + 1]] = mine
        return None

    firsts = chunk_map(key, len(parts))
    if keys is None:
        if all(a[1] < b[0] for a, b in zip(firsts, firsts[1:])):
            return None
        keys = np.empty(ends[-1], dtype=np.uint64)
    again = [i for i, e in enumerate(firsts) if e is not None]
    chunk_map(lambda j: key(again[j]), len(again))
    return keys


def _canonical(v: int, k: int, blocks) -> np.ndarray:
    """The blocks, one array of rows or a list of ``RowPart``s, as a read-only
    canonical ``point_dtype(v)`` table: by sorted row keys, or by ``np.lexsort``
    for rows too wide for keys.  Canonical blocks, no rows included, stay as
    they are, a ``point_dtype(v)`` array owning its data."""
    dtype = point_dtype(v)
    if isinstance(blocks, list) and blocks and isinstance(blocks[0], RowPart):
        table, parts = None, blocks
    else:
        compact = isinstance(blocks, np.ndarray) and blocks.dtype == dtype
        table = blocks if compact else np.asarray(blocks, dtype=np.int64)
        if table.ndim == 1 and table.size == 0:
            table = table.reshape(0, k)
        if table.ndim != 2 or table.shape[1] != k:
            raise BadParams(f"blocks must be rows of {k} points")
        parts = _parts(table)
    if parts and not keyable(v, k):  # np.lexsort is a radix sort on narrow columns
        table = np.concatenate([np.empty((0, k), dtype), *chunk_map(
            lambda i: _sorted_columns(parts[i].make(), v)[0].T.astype(dtype, copy=False),
            len(parts))])
        table = table[np.lexsort(table.T[::-1])]
    elif (keys := _sorted_keys(parts, v)) is not None:
        parts = table = None  # the rows' sources go before the sort
        _sort(keys)
        table = np.empty((len(keys), k), dtype=dtype)
        _row_map(lambda part: decode_row_keys(keys[part], v, table[part]), len(keys))
    elif table is None:
        table = np.concatenate([part.make() for part in parts])
    table = table.astype(dtype, copy=False)
    if table.base is not None:  # canonical input, but a view: copy it
        table = table.copy()
    table.setflags(write=False)
    return table


class Design:
    """A 2-(v,k,1)-design candidate: v points and a list of k-subsets, kept
    in canonical form (``_canonical``): lexicographic order.  Immutable: no field is
    set or deleted after ``__init__``, so the verdicts that checks keep in
    ``_verdicts`` cannot go stale."""

    __slots__ = ("v", "k", "blocks", "_verdicts")

    def __init__(self, v: int, k: int, blocks):
        try:
            v, k = operator.index(v), operator.index(k)
        except TypeError:
            raise BadParams(f"v={v!r} and k={k!r} must be integers") from None
        if v < 0:
            raise BadParams(f"point count v={v} must not be negative")
        if k < 1:
            raise BadParams(f"block size k={k} must be at least 1")
        for name, value in (("v", v), ("k", k), ("blocks", _canonical(v, k, blocks)),
                            ("_verdicts", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Design is immutable: {name} cannot be set")

    def __delattr__(self, name):
        raise AttributeError(f"a Design is immutable: {name} cannot be deleted")

    def __reduce__(self):  # a copy or unpickled design starts with no verdicts
        return Design, (self.v, self.k, self.blocks)

    @property
    def b(self) -> int:
        return self.blocks.shape[0]

    def block_tuples(self) -> list[tuple[int, ...]]:
        return [tuple(row) for row in self.blocks.tolist()]

    def relabel(self, perm: Permutation) -> "Design":
        if perm.degree != self.v:
            raise BadParams(f"permutation degree {perm.degree} != v {self.v}")
        return Design(self.v, self.k, _parts(self.blocks, perm))

    def __eq__(self, other):
        return (isinstance(other, Design) and self.v == other.v
                and self.k == other.k and np.array_equal(self.blocks, other.blocks))

    def __hash__(self):
        return hash((self.v, self.k, self.blocks.tobytes()))

    def __repr__(self):
        return f"Design(v={self.v}, k={self.k}, b={self.b})"

    def digest(self) -> str:
        """The sha256 of ``_Digest``'s bytes, kept on the design."""
        if "digest" not in self._verdicts:
            h = _Digest(self.v, self.k, self.b)
            for start in range(0, self.b, _ROWS):
                h.update(self.blocks[start:start + _ROWS])
            self._verdicts["digest"] = h.hexdigest()
        return self._verdicts["digest"]


class _Digest:
    """The bytes ``Design.digest`` hashes, fed in row order: the header line
    ``DESIGN v=<v> k=<k> b=<b>``, then every point as int64, widened into one
    buffer that each update reuses."""

    def __init__(self, v: int, k: int, b: int):
        self._hash = hashlib.sha256(f"DESIGN v={v} k={k} b={b}\n".encode())
        self._wide = None  # made by the first update, so a refused header allocates nothing

    def update(self, points: np.ndarray) -> None:
        if self._wide is None or len(self._wide) < points.size:
            self._wide = np.empty(points.size, dtype=np.int64)
        wide = self._wide[:points.size]
        wide[:] = points.reshape(-1)
        self._hash.update(wide)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    pair_deficit: int
    pair_surplus: int


def _pair_chunks(rows: np.ndarray, v: int) -> list[Callable[[], np.ndarray]]:
    """Calls that give the index of each point pair of the ascending rows,
    by chunks of about _ROWS pairs, each one gather of every column pair (no
    step per pair).  Each point x is read as v-1-x: the pair {i < j} has
    index i'(i'-1)/2 + j' with i' = v-1-i > j' = v-1-j, below C(v,2)."""
    if rows.shape[1] < 2 or not len(rows):  # no pairs, and no (k, k) index table for them
        return []
    first, second = np.triu_indices(rows.shape[1], 1)
    step = max(1, _ROWS // len(first))
    wide = np.uint32 if rows.dtype == np.uint16 else np.int64  # C(65536, 2) < 2^32

    def pairs(start: int) -> np.ndarray:
        cols = rows[start:start + step].T.astype(wide)
        np.subtract(v - 1, cols, out=cols)
        hi = cols[first]  # the reflection turns the row's order round
        idx = hi * (hi - 1)
        idx >>= 1
        idx += cols[second]
        return idx.ravel().astype(np.int64, copy=False)

    return [partial(pairs, start) for start in range(0, rows.shape[0], step)]


def _pair_cover(v: int, tables: Sequence[np.ndarray]) -> tuple[int, int]:
    """How many point pairs the rows of the tables leave uncovered, and how
    many they cover twice or more: (0, 0) is lambda = 1.

    The verdict pass sets a bitmap ``seen`` at the pairs of ``_pair_chunks``;
    those through a row's first point i lie in the window of the v-1-i
    indices from (v-1-i)(v-2-i)/2 on, which moves through the bitmap with
    the rows of a canonical table.  If the rows hold C(v,2) pairs in all and
    leave no pair unset, none is covered twice.  Only a failure counts: a
    second pass over the same chunks, each sorted by its worker, marks in a
    bitmap ``twice`` every index that repeats inside its chunk or is set in
    ``seen`` already, then sets it in ``seen``."""
    total = v * (v - 1) // 2
    chunks = [c for t in tables for c in _pair_chunks(t, v)]
    seen = np.zeros(total, dtype=bool)

    def store(idx: np.ndarray) -> None:
        seen[idx] = True

    if sum(len(t) * (t.shape[1] * (t.shape[1] - 1) // 2) for t in tables) == total:
        chunk_stream(chunks, lambda pairs: pairs(), store)
        if seen.all():
            return 0, 0
        seen[:] = False
    twice = np.zeros(total, dtype=bool)

    def mark(idx: np.ndarray) -> None:
        twice[idx[1:][idx[1:] == idx[:-1]]] = True
        twice[idx[seen[idx]]] = True
        seen[idx] = True

    chunk_stream(chunks, lambda pairs: np.sort(pairs()), mark)
    return total - int(np.count_nonzero(seen)), int(np.count_nonzero(twice))


def verify_2design(design: Design) -> VerifyReport:
    """Exhaustive lambda=1 check: every point pair covered exactly once.
    The report is kept on the design; past PAIR_TABLE_MAX_V, Budget on every call."""
    if design.v > PAIR_TABLE_MAX_V:
        raise Budget(f"pair table for v={design.v} exceeds the in-memory budget")
    if "pairs" not in design._verdicts:
        deficit, surplus = _pair_cover(design.v, [design.blocks])
        design._verdicts["pairs"] = VerifyReport(deficit == 0 and surplus == 0, deficit, surplus)
    return design._verdicts["pairs"]


def _maps_onto(h: Permutation, d1: Design, d2: Design) -> bool:
    """True iff h carries d1's blocks onto d2's, of the same (v, k): the image
    rows' sorted keys are d2's, or for rows too wide for keys, d1 relabelled is d2."""
    if h.degree != d1.v:
        raise BadParams(f"permutation degree {h.degree} != v {d1.v}")
    if not keyable(d1.v, d1.k):
        return d1.relabel(h) == d2
    if d1.b != d2.b:
        return False
    keys = _sorted_keys(_parts(d1.blocks, h), d1.v)
    if keys is None:  # the image rows are canonical as they stand
        images = h.images.astype(point_dtype(d1.v))
        return all(_row_map(lambda part: np.array_equal(np.take(images, d1.blocks[part]),
                                                        d2.blocks[part]), d2.b))
    _sort(keys)
    return all(_row_map(lambda part: np.array_equal(keys[part], row_keys(d2.blocks[part], d2.v)),
                        d2.b))


def is_automorphism(design: Design, perm: Permutation) -> bool:
    """True iff the permutation maps the block set onto itself.  The verdict
    is kept on the design under the permutation, which an equal one finds;
    one of another degree raises BadParams and is never kept."""
    if perm not in design._verdicts:
        design._verdicts[perm] = _maps_onto(perm, design, design)
    return design._verdicts[perm]


def is_1_blocked(design: Design, group: PermGroup):
    """Every block's set-stabilizer in the group acts as the identity on it.

    Returns (True, None) or (False, (block, element)) with a violating pair.
    Requires the group to be an automorphism group of the design.
    """
    for g in group.generators:
        if not is_automorphism(design, g):
            raise BadParams(f"generator {g!r} is not an automorphism")
    return stabilizer_scan(design, group)


def _cyclic_generators(g: Permutation, most: int) -> Iterator[bytes]:
    """The image tables, as bytes, of g^j for each j below ``most`` prime to
    g's order, one power held at a time: every generator of <g> when ``most``
    is at least the order of a group that holds g."""
    n, power = g.order(), g.images
    for j in range(1, min(n, most)):
        if math.gcd(j, n) == 1:
            yield power.tobytes()
        power = g.images[power]


def stabilizer_scan(design: Design, group: PermGroup):
    """The scan behind ``is_1_blocked``, for a group already known to act by
    automorphisms: (True, None), or (False, (block, element)) for the first
    block, in the first element of ``elements()``, whose set-stabilizer
    moves one of its points.

    Only the first generator of each cyclic subgroup is scanned: if h
    stabilizes B and moves a point of B, so does every generator of <h>, so
    the first element with a violation is one of those scanned."""
    if group.degree != design.v:
        raise BadParams(f"group degree {group.degree} != v {design.v}")

    def violation(g: Permutation, images: np.ndarray, part: slice):
        rows = design.blocks[part]
        # g stabilizes a block only if it maps the block's first point into it
        first = np.take(images, rows[:, 0])
        cand = np.flatnonzero(np.logical_or.reduce([col == first for col in rows.T]))
        rows = rows[cand]
        img = np.take(images, rows)
        bad = np.all(np.sort(img, axis=1) == rows, axis=1) & np.any(img != rows, axis=1)
        return (tuple(rows[np.argmax(bad)].tolist()), g) if bad.any() else None

    elements = group.elements()
    scanned: set[bytes] = set()  # the generators of each cyclic subgroup scanned
    for g in elements:
        if g.is_identity() or g.images.tobytes() in scanned:
            continue
        scanned.update(_cyclic_generators(g, len(elements)))
        images = g.images.astype(point_dtype(design.v))
        for found in _row_map(lambda part: violation(g, images, part), design.b):
            if found is not None:
                return False, found
    return True, None


def is_subdesign(design: Design, pts: Iterable[int]) -> bool:
    """True iff every pair inside pts is covered by a block inside pts: no
    block meets pts in two points or more without lying inside it.  A
    singleton (or empty) subset is a degenerate subdesign.  BadParams as
    ``read_points`` gives it."""
    hits = np.isin(design.blocks, read_points(pts, design.v)).sum(axis=1)
    return not np.any((hits >= 2) & (hits < design.k))


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

def _design_layout(v: int, k: int, b: int) -> tuple[int, int, int]:
    """The ``textfile`` layout: b rows of k points below v."""
    if min(v, k, b) < 0:
        raise BadParams("negative header field")
    if k < 1:
        raise BadParams(f"block size k={k} must be at least 1")
    return v, b, k


def write_design(design: Design, path, comments: Sequence[str] = ()) -> str:
    """Write a design file atomically, comment lines first; its sha256."""
    return textfile.write(path, "DESIGN", {"v": design.v, "k": design.k, "b": design.b},
                          design.v, [design.blocks], comments)


def read_design(path, digest: bool = True) -> Design:
    """Read a design file; ParseError names the first line that is wrong.
    With ``digest`` its points are hashed as ``Design.digest`` hashes them
    while the reader takes each piece, beside the tokenizing of later
    pieces; the digest is kept on the design if its table is the rows as
    read, else none is.  Without it nothing is hashed."""
    stream = None

    def layout(v: int, k: int, b: int) -> tuple[int, int, int]:
        nonlocal stream
        stream = _Digest(v, k, b)
        return _design_layout(v, k, b)

    with open(path, "rb") as fh:
        (v, k, _), rows = textfile.read(
            fh, "DESIGN", ("v", "k", "b"), layout if digest else _design_layout,
            taken=(lambda points: stream.update(points)) if digest else None)
    d = Design(v, k, rows)
    if stream is not None and d.blocks is rows:  # canonical as read: the table's bytes were hashed
        d._verdicts["digest"] = stream.hexdigest()
    return d
