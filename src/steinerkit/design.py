"""The Design type, exhaustive verification of the 2-(v,k,1) axioms, and
design files.

Blocks are stored in canonical form: each block sorted ascending, the blocks
in key order (``permgrp.row_keys``, which is lexicographic order).  While
v^k <= 2^63 the keys are exact int64 base-v numbers; canonical form and the
automorphism, stabilizer and pair checks run in chunks of rows and build no
image design or full-size row gather.  Design files go in chunks too: the
writer formats each by one byte-table gather, and the reader tokenizes the
file with numpy straight into the block array (see "file format" below).
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BadParams, Budget, ParseError
from .permgrp import DEFAULT_CAP, PermGroup, Permutation, row_keys

PAIR_TABLE_MAX_V = 20000  # a v^2/2 pair bitmap, and int64 counters on failure, fit below this
_ROWS = 1 << 18  # rows per chunk of the row-key, automorphism and stabilizer kernels


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


def _sorted_keys(rows: np.ndarray, v: int, perm: Permutation | None = None) -> np.ndarray:
    """Exact row keys (v^k <= 2^63) of the rows mapped through ``perm``, sorted."""
    keys = np.empty(rows.shape[0], dtype=np.int64)
    for start in range(0, rows.shape[0], _ROWS):
        chunk = rows[start:start + _ROWS]
        chunk = chunk if perm is None else perm.images[chunk]
        keys[start:start + _ROWS] = row_keys(_sorted_rows(chunk), v)
    return keys


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
            keys = _sorted_keys(arr, v)
            if not _ascending(list(arr.T)) or np.any(keys[1:] <= keys[:-1]):
                keys.sort()
                arr = np.empty((len(keys), k), dtype=np.int64)
                for col in range(k - 1, -1, -1):
                    np.divmod(keys, v, out=(keys, arr[:, col]))
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


def _pair_indices(rows: np.ndarray) -> Iterator[np.ndarray]:
    """Index j(j-1)/2 + i of each point pair {i < j} of the rows, by chunks of
    about _ROWS pairs, each one gather of every column pair (no step per pair)."""
    a, b = np.triu_indices(rows.shape[1], 1)
    step = max(1, _ROWS // max(len(a), 1))
    for start in range(0, rows.shape[0] if len(a) else 0, step):
        cols = rows[start:start + step].T
        hi = cols[b]
        yield (hi * (hi - 1) // 2 + cols[a]).ravel()


def pair_counts(v: int, rows: np.ndarray) -> np.ndarray:
    """How many rows contain each point pair {i < j}, at index j(j-1)/2 + i.

    The lambda=1 kernel of designs, TDs and nets: each row of the (m, s)
    array holds s distinct points of 0..v-1 in ascending order.
    """
    counts = np.zeros(v * (v - 1) // 2, dtype=np.int64)
    for idx in _pair_indices(rows):
        np.add.at(counts, idx, 1)
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
        for idx in _pair_indices(design.blocks):
            covered[idx] = True
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
    keys = _sorted_keys(d1.blocks, d1.v, h)
    keys.sort()
    return np.array_equal(keys, row_keys(d2.blocks, d2.v))


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
    for g in group.elements():
        if g.is_identity():
            continue
        for start in range(0, design.b, _ROWS):
            rows = design.blocks[start:start + _ROWS]
            # g stabilizes a block only if it maps the block's first point into it
            first = g.images[rows[:, 0]]
            cand = np.flatnonzero(np.logical_or.reduce([col == first for col in rows.T]))
            rows, img = rows[cand], g.images[rows[cand]]
            bad = np.all(np.sort(img, axis=1) == rows, axis=1) & np.any(img != rows, axis=1)
            if bad.any():
                return False, (tuple(rows[np.argmax(bad)].tolist()), g)
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


# -- file format ---------------------------------------------------------------
# Line 1: "DESIGN v=<v> k=<k> b=<b>"; then b lines of k ascending 0-based point
# indices, one space apart; blocks in lexicographic order.  The reader also
# takes blank lines, '#' comments (to the end of their line), runs of spaces,
# tabs or '\r', a sign before a point and a last line without its newline;
# any other byte in the block table, non-ASCII included, is an error, and so
# is a point of more than 18 digits.
#
# The writer streams the file _WRITE_ROWS rows at a time: every point's digits
# and separator sit NUL-padded in a (v, width) byte table, so a chunk is one
# gather and one compaction, and the file never exists as one string.  The
# reader allocates the (b, k) table once the header's b*k points are known to
# fit in the file, then tokenizes the body with numpy in newline-aligned
# chunks of _READ_BYTES bytes straight into it.

_WRITE_ROWS = 1 << 20
_READ_BYTES = 1 << 18  # a chunk's arrays take ~20x its size; larger chunks read no faster
_MAX_DIGITS = 18  # a point of at most 18 digits fits an int64
_SEPARATOR = np.zeros(256, dtype=bool)
_SEPARATOR[list(b" \t\n\r\v\f")] = True


def _design_chunks(design: Design, comments: Sequence[str]) -> Iterator[bytes]:
    """The bytes of a design file: comment lines and header, then the block
    table a chunk of rows at a time."""
    yield ("".join(f"# {c}\n" for c in comments)
           + f"DESIGN v={design.v} k={design.k} b={design.b}\n").encode()
    if not design.b:
        return
    spaced, ended = (np.array([b"%d%s" % (p, sep) for p in range(design.v)])
                     .view(np.uint8).reshape(design.v, -1) for sep in (b" ", b"\n"))
    for start in range(0, design.b, _WRITE_ROWS):
        rows = design.blocks[start:start + _WRITE_ROWS]
        cells = spaced[rows]
        cells[:, -1] = ended[rows[:, -1]]
        cells = cells.reshape(-1)
        yield cells[cells != 0].tobytes()


def write_atomic(path, chunks: Iterable[bytes]) -> str:
    """Stream byte chunks into a sibling renamed over ``path``, so a failed
    write never truncates it, and return the sha256 of the bytes written."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return digest.hexdigest()


def write_design(design: Design, path, comments: Sequence[str] = ()) -> str:
    """Write a design file atomically, comment lines first; its sha256."""
    return write_atomic(path, _design_chunks(design, comments))


def _read_header(fh) -> tuple[int, int, int, int]:
    """Line number and (v, k, b) of the first line not blank or a comment."""
    line_no = 0
    while True:
        line_no += 1
        line = fh.readline()
        if not line:
            raise ParseError(line_no, "missing DESIGN header")
        if line.strip() and not line.lstrip().startswith(b"#"):
            break
    head = line.split()
    if len(head) != 4 or head[0] != b"DESIGN":
        raise ParseError(line_no, "expected 'DESIGN v=<v> k=<k> b=<b>'")
    try:
        v, k, b = (int(field.removeprefix(name))
                   for field, name in zip(head[1:], (b"v=", b"k=", b"b=")))
    except ValueError:
        raise ParseError(line_no, "bad header fields")
    if min(v, k, b) < 0:
        raise ParseError(line_no, "negative header field")
    if k < 1:
        raise ParseError(line_no, f"block size k={k} must be at least 1")
    return line_no, v, k, b


def _blank_comments(a: np.ndarray, newlines: np.ndarray) -> np.ndarray:
    """A copy of the bytes with every '#' up to the end of its line made a space."""
    hashes = np.flatnonzero(a == ord("#"))
    stops = np.append(newlines, len(a))[np.searchsorted(newlines, hashes)]
    depth = np.zeros(len(a) + 1, dtype=np.int64)
    np.add.at(depth, hashes, 1)
    np.add.at(depth, stops, -1)
    a = a.copy()
    a[np.cumsum(depth[:-1]) > 0] = ord(" ")
    return a


def _table_chunk(chunk: bytes, first_line: int, v: int, k: int,
                 room: int) -> tuple[np.ndarray, int]:
    """The points of a newline-aligned piece of the block table, in file
    order, and the piece's number of newlines.

    ``first_line`` is the file's line number of the piece's first line and
    ``room`` the number of points the header still allows.  A malformed piece
    raises ParseError at its first offending line.
    """
    # a separator before the first point, and room to read past the last
    a = np.frombuffer(b" " + chunk + b" " * _MAX_DIGITS, dtype=np.uint8)
    newlines = np.flatnonzero(a == ord("\n"))
    digit = a - np.uint8(ord("0"))  # wraps: below 10 on digits only
    plain = (np.count_nonzero(digit < 10) + np.count_nonzero(a == ord(" "))
             + len(newlines) == len(a))
    if not plain:
        a = _blank_comments(a, newlines)
        digit = a - np.uint8(ord("0"))
    is_digit = digit < 10
    token = is_digit if plain else ~_SEPARATOR[a]
    bounds = np.flatnonzero(token[1:] != token[:-1]) + 1
    starts, ends = bounds[0::2], bounds[1::2]
    problems = []  # (line number, reason), the first line reported

    def line_of(t) -> int:
        return first_line + int(np.searchsorted(newlines, starts[t]))

    first = starts
    if not plain:
        signed = (a[starts] == ord("+")) | (a[starts] == ord("-"))
        stray = token & ~is_digit
        stray[starts[signed]] = False
        invalid = signed & (ends - starts == 1)
        invalid[np.searchsorted(starts, np.flatnonzero(stray), side="right") - 1] = True
        if invalid.any():
            problems.append((line_of(np.argmax(invalid)), "point is not an integer"))
        first = starts + signed
    count = ends - first
    values = digit[first].astype(np.int64)
    for j in range(1, min(int(count.max(initial=0)), _MAX_DIGITS)):
        values = np.where(count > j, values * 10 + digit[j:][first], values)
    if not plain:
        np.negative(values, out=values, where=a[starts] == ord("-"))
    bad = (values < 0) | (values >= v) | (count > _MAX_DIGITS)
    if bad.any():
        problems.append((line_of(np.argmax(bad)), "point index out of range"))

    # the row width: with t = k*L points on L lines, point k*i follows newline
    # i-1 and point k*i+k-1 precedes newline i; else count points line by line
    lines = len(newlines) + (not chunk.endswith(b"\n") and bool(chunk))
    t = len(starts)
    if not (t == k * lines and (t == 0 or (np.all(starts[k - 1::k][:len(newlines)] < newlines)
                                           and np.all(starts[k::k] > newlines[:lines - 1])))):
        line = np.searchsorted(newlines, starts)
        opens = np.flatnonzero(np.diff(line, prepend=-1))
        width = np.diff(opens, append=t)
        if (width != k).any():
            i = int(np.argmax(width != k))
            problems.append((first_line + int(line[opens[i]]),
                             f"block of {width[i]} points, expected {k}"))
    if t > room:
        problems.append((line_of(room), "more blocks than the header's b"))
    if problems:
        raise ParseError(*min(problems, key=lambda p: p[0]))
    return values, len(newlines)


def read_design(path) -> Design:
    """Read a design file; ParseError names the first line that is wrong."""
    with open(path, "rb") as fh:
        line_no, v, k, b = _read_header(fh)
        if b * k and 2 * b * k - 1 > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ParseError(line_no, f"{b} blocks of {k} points cannot fit in the file")
        rows = np.empty((b, k), dtype=np.int64)
        points = rows.reshape(-1)
        filled, tail = 0, b""
        while True:
            data = fh.read(_READ_BYTES)
            chunk = tail + data
            cut = chunk.rfind(b"\n") + 1 if data else len(chunk)
            chunk, tail = chunk[:cut], chunk[cut:]
            values, newlines = _table_chunk(chunk, line_no + 1, v, k, points.size - filled)
            points[filled:filled + len(values)] = values
            filled += len(values)
            line_no += newlines
            if not data:
                break
    if filled < points.size:
        raise ParseError(line_no + 1, f"expected {b} blocks, got {filled // k}")
    return Design(v, k, rows)
