"""The Design type and exhaustive verification of the 2-(v,k,1) axioms.

Blocks are stored in canonical form: each block sorted ascending, the block
list sorted lexicographically, backed by a numpy array so that pair-coverage
verification and automorphism checks stay vectorized for multi-million-block
designs.
"""
from __future__ import annotations

import hashlib
import io
import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    Budget,
    DegreeMismatch,
    MalformedBlock,
    NotAutomorphismGroup,
    ParseError,
    TooLarge,
)
from .permgrp import PermGroup, Permutation, row_keys

PAIR_TABLE_MAX_V = 20000  # v^2/2 counters stay comfortably in memory below this
_CHUNK = 2_000_000


class Design:
    """A 2-(v,k,1)-design candidate: v points and a list of k-subsets."""

    __slots__ = ("v", "k", "blocks")

    def __init__(self, v: int, k: int, blocks):
        arr = np.asarray(blocks, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, k)
        if arr.ndim != 2 or arr.shape[1] != k:
            raise MalformedBlock(f"blocks must be rows of {k} points")
        if arr.size and (arr.min() < 0 or arr.max() >= v):
            raise MalformedBlock("point index out of range")
        arr = np.sort(arr, axis=1)
        arr = arr[np.argsort(row_keys(arr, v))]
        if arr.size and np.any(arr[:, 1:] == arr[:, :-1]):
            raise MalformedBlock("repeated point inside a block")
        arr.setflags(write=False)
        self.v = int(v)
        self.k = int(k)
        self.blocks = arr

    @property
    def b(self) -> int:
        return self.blocks.shape[0]

    def block_tuples(self) -> list[tuple[int, ...]]:
        return [tuple(row) for row in self.blocks.tolist()]

    def block_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.block_tuples())

    def relabel(self, perm: Permutation) -> "Design":
        if perm.degree != self.v:
            raise DegreeMismatch(f"permutation degree {perm.degree} != v {self.v}")
        return Design(self.v, self.k, perm.array[self.blocks])

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
        h.update(self.blocks.tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    pair_deficit: int
    pair_surplus: int
    block_count: int

    def __str__(self):
        status = "ok" if self.ok else "FAIL"
        return (f"verify_2design: {status} blocks={self.block_count} "
                f"deficit={self.pair_deficit} surplus={self.pair_surplus}")


def pair_counts(v: int, rows: np.ndarray) -> np.ndarray:
    """How many rows contain each point pair {i < j}, at index j(j-1)/2 + i.

    The lambda=1 kernel of designs, TDs and nets: each row of the (m, s)
    array holds s distinct points of 0..v-1 in ascending order.  Chunked so
    the d=3 desk instance (23.5M pairs) stays within a modest memory budget.
    """
    npairs = v * (v - 1) // 2
    counts = np.zeros(npairs, dtype=np.int64)
    cols = list(itertools.combinations(range(rows.shape[1]), 2))
    for start in range(0, rows.shape[0] if cols else 0, _CHUNK):
        chunk = rows[start:start + _CHUNK]
        idx = np.concatenate([chunk[:, b] * (chunk[:, b] - 1) // 2 + chunk[:, a] for a, b in cols])
        counts += np.bincount(idx, minlength=npairs)
    return counts


def verify_2design(design: Design) -> VerifyReport:
    """Exhaustive lambda=1 check: every point pair covered exactly once."""
    if design.v > PAIR_TABLE_MAX_V:
        raise Budget(f"pair table for v={design.v} exceeds the in-memory budget")
    counts = pair_counts(design.v, design.blocks)
    deficit = int(np.count_nonzero(counts == 0))
    surplus = int(np.count_nonzero(counts >= 2))
    return VerifyReport(deficit == 0 and surplus == 0, deficit, surplus, design.b)


def is_automorphism(design: Design, perm: Permutation) -> bool:
    """True iff the permutation maps the block set onto itself."""
    return design.relabel(perm) == design


def is_1_blocked(design: Design, group: PermGroup, cap: int = 10**6):
    """Every block's set-stabilizer in the group acts as the identity on it.

    Returns (True, None) or (False, (block, element)) with a violating pair.
    Requires the group to be an automorphism group of the design.
    """
    for g in group.generators:
        if not is_automorphism(design, g):
            raise NotAutomorphismGroup(f"generator {g!r} is not an automorphism")
    blocks = design.blocks
    for g in group.elements(cap):
        if g.is_identity():
            continue
        img = g.array[blocks]
        stabilized = np.all(np.sort(img, axis=1) == blocks, axis=1)
        pointwise = np.all(img == blocks, axis=1)
        bad = stabilized & ~pointwise
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            return False, (tuple(blocks[row]), g)
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


def brute_aut(design: Design, cap: int = 10**6) -> PermGroup:
    """Full automorphism group by point-image backtracking.

    Prunes on block-image consistency: once two assigned points pin a block,
    every further point of that block must land in the image block.  Bounded
    to v <= 30; large designs never get full-group claims.
    """
    v, k = design.v, design.k
    if v > 30:
        raise TooLarge(f"brute_aut bounded to v <= 30, got {v}")
    report = verify_2design(design)
    if not report.ok:
        raise MalformedBlock(f"not a 2-design: {report}")
    b = design.b
    line = -np.ones((v, v), dtype=np.int64)
    for bi, row in enumerate(design.block_tuples()):
        for x in range(k):
            for y in range(x + 1, k):
                line[row[x], row[y]] = bi
                line[row[y], row[x]] = bi
    found: list[Permutation] = []
    img = [-1] * v
    used = [False] * v
    block_img: dict[int, int] = {}

    def extend(x: int):
        if x == v:
            found.append(Permutation(tuple(img)))
            if len(found) > cap:
                raise TooLarge(f"automorphism count passed cap {cap}")
            return
        for y in range(v):
            if used[y]:
                continue
            pinned: list[int] = []
            ok = True
            for x2 in range(x):
                bi = int(line[x, x2])
                target = int(line[y, img[x2]])
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
        return

    extend(0)
    elems = tuple(sorted(found, key=lambda p: p.images))
    return PermGroup(v, elems, _elements=elems)


def iso_in_group(d1: Design, d2: Design, maps: Sequence[Permutation]) -> Permutation | None:
    """First map in the list carrying d1's block set onto d2's, else None."""
    if (d1.v, d1.k) != (d2.v, d2.k):
        raise DegreeMismatch("designs must share (v, k)")
    for h in maps:
        if d1.relabel(h) == d2:
            return h
    return None


# -- file format ---------------------------------------------------------------
# line 1: "DESIGN v=<v> k=<k> b=<b>"; then b lines of k ascending 0-based point
# indices; blocks in lexicographic order; blank lines and '#' comments are skipped.

def serialize(design: Design) -> str:
    head = f"DESIGN v={design.v} k={design.k} b={design.b}\n"
    if design.b == 0:
        return head
    body = "\n".join(" ".join(map(str, row)) for row in design.blocks.tolist())
    return head + body + "\n"


def _data_line(stream: io.StringIO, line_no: int) -> tuple[int, str | None]:
    """Number and text of the next line not blank or a comment; (end, None) at the end."""
    for line_no, raw in enumerate(iter(stream.readline, ""), start=line_no + 1):
        if raw.strip() and not raw.lstrip().startswith("#"):
            return line_no, raw
    return line_no + 1, None


def parse(text: str) -> Design:
    stream = io.StringIO(text)
    head_no, line = _data_line(stream, 0)
    if line is None:
        raise ParseError(head_no, "missing DESIGN header")
    head = line.split()
    if len(head) != 4 or head[0] != "DESIGN":
        raise ParseError(head_no, "expected 'DESIGN v=<v> k=<k> b=<b>'")
    try:
        v = int(head[1].removeprefix("v="))
        k = int(head[2].removeprefix("k="))
        b = int(head[3].removeprefix("b="))
    except ValueError:
        raise ParseError(head_no, "bad header fields")
    body = stream.tell()
    first_no, first = _data_line(stream, head_no)
    rows = np.empty((0, k), dtype=np.int64)
    if first is not None:  # loadtxt warns on a table without rows
        stream.seek(body)
        try:
            rows = np.loadtxt(stream, dtype=np.int64, ndmin=2)
        except ValueError as exc:
            raise ParseError(first_no, f"bad block table: {exc}")
    if rows.shape != (b, k):
        raise ParseError(first_no, f"expected {b}x{k} block table, got {rows.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= v):
        raise ParseError(first_no, "point index out of range")
    return Design(v, k, rows)


def write_atomic(path, text: str) -> str:
    """Write text through a sibling renamed over ``path``, so a failed write
    never truncates it, and return the sha256 of the bytes written."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return hashlib.sha256(text.encode()).hexdigest()


def write_design(design: Design, path, comments: Sequence[str] = ()) -> str:
    """Write a design file atomically, comment lines first; its sha256."""
    return write_atomic(path, "".join(f"# {c}\n" for c in comments) + serialize(design))


def read_design(path) -> Design:
    with open(path) as fh:
        return parse(fh.read())
