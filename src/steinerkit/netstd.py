"""Nets and transversal designs.

A (k,n)-net is n^2 points with kn lines of size n in k parallel classes; its
dual is a TD(k,n).  Constructions: unions of parallel classes of a
desarguesian affine plane, nets over an extension field with a cyclic
semiregular automorphism built from a semilinear map, componentwise net
products, cyclic-table TDs (with a group-rotating automorphism at k=3), and
MacNeish products of field TDs.  Every constructed object is verified
against the net/TD axioms on the spot.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ActionEscape,
    AxiomViolation,
    BadCoprimality,
    BadOrder,
    DegreeMismatch,
    MalformedBlock,
    ParseError,
    TooFewSlopes,
    Unavailable,
    require,
)
from .design import Design, pair_counts
from .gf import ExtFieldCtx, factorize, frobenius, semilinear_map, trace
from .permgrp import Permutation, set_images


def _induced(family, perm: Permutation, failure: str) -> Permutation:
    """The permutation a point permutation induces on a family of point sets;
    AxiomViolation with ``failure`` when it maps a set outside the family."""
    try:
        return Permutation(tuple(set_images(family, [perm])[0].tolist()))
    except ActionEscape:
        raise AxiomViolation(failure)


@dataclass(frozen=True)
class Net:
    """(k,n)-net: lines indexed globally, classes list line indices."""

    n: int
    k: int
    lines: tuple[tuple[int, ...], ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def point_count(self) -> int:
        return self.n * self.n

    def line_action(self, alpha: Permutation) -> Permutation:
        """The permutation induced on line indices by a point permutation."""
        return _induced(self.lines, alpha, "permutation is not a net automorphism")


@dataclass(frozen=True)
class TransversalDesign:
    """TD(k,n): k groups of n points, n^2 blocks meeting each group once."""

    k: int
    n: int
    groups: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def point_count(self) -> int:
        return self.k * self.n

    @cached_property
    def group_of(self) -> dict[int, int]:
        return {p: g for g, grp in enumerate(self.groups) for p in grp}

    def is_automorphism(self, perm: Permutation) -> bool:
        if perm.degree != self.point_count:
            return False
        try:
            set_images(self.blocks, [perm])
        except ActionEscape:
            return False
        return True

    def block_action(self, perm: Permutation) -> Permutation:
        return _induced(self.blocks, perm, "permutation is not a TD automorphism")

    def group_action(self, perm: Permutation) -> Permutation:
        """Induced permutation of group indices (automorphisms map groups to
        groups: two points share a group iff they share no block)."""
        return _induced(self.groups, perm, "permutation does not preserve the group partition")


def _rows(npts: int, width: int, rows, what: str) -> np.ndarray:
    """Rows as a canonical block array on npts points, checked as a Design's
    blocks are; AxiomViolation naming ``what`` when a row is malformed."""
    try:
        return Design(npts, width, rows).blocks
    except (MalformedBlock, ValueError, TypeError) as exc:
        raise AxiomViolation(f"malformed {what}: {exc}")


def _td_axioms(npts: int, groups: np.ndarray, blocks: np.ndarray) -> None:
    """The groups partition the points and every point pair lies in exactly
    one group or block (so each block meets each group once)."""
    if not np.all(np.bincount(groups.ravel(), minlength=npts) == 1):
        raise AxiomViolation("groups fail to partition the points")
    counts = pair_counts(npts, groups) + pair_counts(npts, blocks)
    if np.any(counts != 1):
        raise AxiomViolation(f"{np.count_nonzero(counts == 0)} point pairs lie in no group "
                             f"or block, {np.count_nonzero(counts >= 2)} in two or more")


def _dual(net: Net) -> tuple[np.ndarray, np.ndarray]:
    """Groups and blocks of the dual TD as canonical arrays: the classes, and
    per point the k lines through it.  AxiomViolation unless each class
    partitions the points."""
    n, k = net.n, net.k
    _rows(n * n, n, net.lines, "line")
    lines = np.asarray(net.lines, dtype=np.int64).reshape(k * n, n)
    classes = _rows(k * n, n, net.classes, "class")
    cover = lines[classes].reshape(k, n * n)
    if not np.array_equal(np.sort(cover, axis=1), np.broadcast_to(np.arange(n * n), cover.shape)):
        raise AxiomViolation("a parallel class fails to partition the points")
    through = np.empty((k, n * n), dtype=np.int64)
    through[np.arange(k)[:, None], cover] = np.repeat(classes, n, axis=1)
    return classes, np.sort(through.T, axis=1)


def verify_net(net: Net) -> None:
    """Each class partitions the points and the dual is a TD(k,n): its groups
    are the classes and its blocks the k lines through each point.  Checking
    the dual keeps the pair table at C(kn,2) entries instead of C(n^2,2)."""
    n, k = net.n, net.k
    if len(net.lines) != k * n or len(net.classes) != k:
        raise AxiomViolation(f"expected {k * n} lines in {k} classes")
    _td_axioms(k * n, *_dual(net))


def verify_td(td: TransversalDesign) -> None:
    k, n = td.k, td.n
    if len(td.groups) != k or len(td.blocks) != n * n:
        raise AxiomViolation(f"expected {k} groups and {n * n} blocks")
    _td_axioms(k * n, _rows(k * n, n, td.groups, "group"), _rows(k * n, k, td.blocks, "block"))


# -- field helper ---------------------------------------------------------------

def _field_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(add, mul) index tables for the field of prime-power order n."""
    fact = factorize(n)
    if len(fact) != 1:
        raise BadOrder(f"{n} is not a prime power")
    p, e = next(iter(fact.items()))
    if e == 1:
        idx = np.arange(n, dtype=np.int64)
        return (idx[:, None] + idx[None, :]) % n, (idx[:, None] * idx[None, :]) % n
    ctx = ExtFieldCtx.create(p, e)
    elems = ctx.all_elements()
    add = np.empty((n, n), dtype=np.int64)
    mul = np.empty((n, n), dtype=np.int64)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            add[i, j] = (x + y).index
            mul[i, j] = (x * y).index
    return add, mul


# -- constructions ----------------------------------------------------------------

def net_from_affine_plane(n: int, k: int) -> Net:
    """Union of the first k parallel classes of the affine plane of order n,
    in slope order 0, 1, ..., n-1 with the vertical class last."""
    if len(factorize(n)) != 1 or not 3 <= k <= n + 1:
        raise BadOrder(f"need a prime power n and 3 <= k <= n+1, got n={n}, k={k}")
    add, mul = _field_tables(n)
    lines: list[tuple[int, ...]] = []
    classes: list[tuple[int, ...]] = []
    for slope in range(k) if k <= n else range(n):
        members = []
        for b in range(n):
            members.append(len(lines))
            lines.append(tuple(int(x * n + add[mul[slope, x], b]) for x in range(n)))
        classes.append(tuple(members))
    if k == n + 1:
        members = []
        for c in range(n):
            members.append(len(lines))
            lines.append(tuple(c * n + y for y in range(n)))
        classes.append(tuple(members))
    net = Net(n, k, tuple(lines), tuple(classes))
    verify_net(net)
    return net


def dualize(net: Net) -> TransversalDesign:
    """TD points = net lines, groups = parallel classes, blocks = the k lines
    through each net point (in point order, so duality round-trips exactly)."""
    verify_net(net)
    return TransversalDesign(net.k, net.n, tuple(tuple(members) for members in net.classes),
                             tuple(map(tuple, _dual(net)[1].tolist())))


def dualize_td(td: TransversalDesign) -> Net:
    """Inverse duality: net points = TD blocks, lines = TD points."""
    verify_td(td)
    # a stable sort of the block entries by point lists each point's blocks in order
    on_block = np.argsort(np.ravel(td.blocks), kind="stable").reshape(td.point_count, td.n) // td.k
    net = Net(td.n, td.k, tuple(map(tuple, on_block.tolist())),
              tuple(tuple(members) for members in td.groups))
    verify_net(net)
    return net


@dataclass(frozen=True)
class SemilinearNet:
    """Net on E x E for E = GF(q^m), classes = slopes t in the q-element
    subfield with t != 1, carrying g: (x,y) -> (x^q + a, y^q + a) of order
    p*m and its power c = g^p of order m, semiregular on points and lines
    and fixing every parallel class."""

    net: Net
    g: Permutation
    c: Permutation
    p: int
    q: int
    m: int


def semilinear_net(q: int, m: int, k: int) -> SemilinearNet:
    fact_q = factorize(q)
    fact_m = factorize(m)
    if len(fact_q) != 1 or len(fact_m) != 1:
        raise BadOrder("q and m must be powers of a common prime")
    p = next(iter(fact_q))
    if next(iter(fact_m)) != p or q <= 1 or m <= 1:
        raise BadOrder("q and m must be powers > 1 of the same prime")
    if not 3 <= k < q:
        raise TooFewSlopes(f"need 3 <= k < q, got k={k}, q={q}")
    e = fact_q[p]
    ctx = ExtFieldCtx.create(p, e * m)
    size = ctx.size
    elems = ctx.all_elements()
    subfield = [x.index for x in elems if frobenius(x, q) == x]
    slopes = [t for t in subfield if t != 1][:k]
    add = {(x.index, y.index): (x + y).index for x in elems for y in elems}
    mul = {(x.index, y.index): (x * y).index for x in elems for y in elems}
    lines: list[tuple[int, ...]] = []
    classes: list[tuple[int, ...]] = []
    for t in slopes:
        members = []
        for b in range(size):
            members.append(len(lines))
            lines.append(tuple(x * size + add[mul[t, x], b] for x in range(size)))
        classes.append(tuple(members))
    net = Net(size, k, tuple(lines), tuple(classes))
    verify_net(net)
    a = next(x for x in elems if not trace(x, q, m).is_zero())
    h = semilinear_map(ctx, q, m, a)
    g = Permutation(tuple(h.images[x] * size + h.images[y]
                          for x in range(size) for y in range(size)))
    c = g
    for _ in range(p - 1):
        c = c * g
    return SemilinearNet(net, g, c, p, q, m)


@dataclass(frozen=True)
class NetProduct:
    net: Net
    automorphism: Permutation
    order: int


def net_product(factors: list[tuple[Net, Permutation | None]]) -> NetProduct:
    """Componentwise product: points are tuples, a class-j line is a tuple of
    class-j lines, the automorphism acts per component (identity where None).

    The combined automorphism is semiregular on points and lines whenever
    every nontrivial component automorphism is."""
    if not factors:
        raise DegreeMismatch("need at least one factor")
    k = factors[0][0].k
    if any(net.k != k for net, _ in factors):
        raise DegreeMismatch("all factors must share the class count k")
    for net, alpha in factors:
        if alpha is not None and alpha.degree != net.point_count:
            raise DegreeMismatch("automorphism degree mismatch")
    sizes = [net.point_count for net, _ in factors]
    strides = [1] * len(factors)
    for i in range(len(factors) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    big_n = math.prod(net.n for net, _ in factors)

    def encode(pts):
        return sum(p * s for p, s in zip(pts, strides))

    lines: list[tuple[int, ...]] = []
    classes: list[tuple[int, ...]] = []
    for j in range(k):
        members = []
        for combo in itertools.product(*[[net.lines[i] for i in net.classes[j]]
                                         for net, _ in factors]):
            members.append(len(lines))
            lines.append(tuple(encode(pts) for pts in itertools.product(*combo)))
        classes.append(tuple(members))
    net = Net(big_n, k, tuple(lines), tuple(classes))
    verify_net(net)

    maps = [alpha.images if alpha is not None else tuple(range(sz))
            for (net_, alpha), sz in zip(factors, sizes)]
    images = np.zeros(big_n * big_n, dtype=np.int64)
    for tup in itertools.product(*[range(sz) for sz in sizes]):
        images[encode(tup)] = encode(tuple(m[p] for m, p in zip(maps, tup)))
    combined = Permutation(tuple(int(x) for x in images))
    order = math.lcm(*[alpha.order() if alpha is not None else 1 for _, alpha in factors])
    return NetProduct(net, combined, order)


@dataclass(frozen=True)
class CyclicTd:
    """Cyclic-table TD(k,n) on Z_n x {0..k-1} with blocks
    {(x,0), (y,1)} + {(x+(c-1)y, c) : c >= 2}.

    ``translation`` is (z,c) -> (z+1,c) on every group but group 1, order n,
    semiregular on blocks and on the points of the moved groups, fixing each
    group setwise.  ``rotator`` (k=3 only) is the order-3 automorphism
    (z,0)->(z,1), (z,1)->(-z,2), (z,2)->(-z,0): it permutes the three groups
    cyclically and is semiregular on points, which is what planting a TD copy
    compatibly with a group that rotates the point classes requires.
    """

    td: TransversalDesign
    translation: Permutation
    moved_groups: tuple[int, ...]
    rotator: Permutation | None


def cyclic_td(k: int, n: int) -> CyclicTd:
    if k < 3 or n < 1:
        raise BadOrder(f"need k >= 3 and n >= 1, got k={k}, n={n}")
    for i in range(1, k - 1):
        if math.gcd(i, n) != 1:
            raise BadCoprimality(f"{i} shares a factor with {n}")
    groups = tuple(tuple(c * n + z for z in range(n)) for c in range(k))
    blocks = []
    for x in range(n):
        for y in range(n):
            block = [x, n + y]
            block += [c * n + (x + (c - 1) * y) % n for c in range(2, k)]
            blocks.append(tuple(block))
    td = TransversalDesign(k, n, groups, tuple(blocks))
    verify_td(td)

    images = list(range(k * n))
    for c in range(k):
        if c == 1:
            continue
        for z in range(n):
            images[c * n + z] = c * n + (z + 1) % n
    translation = Permutation(tuple(images))
    require(td.is_automorphism(translation), "cyclic TD translation is an automorphism")
    moved = tuple(c for c in range(k) if c != 1) if n > 1 else ()

    rotator = None
    if k == 3 and n > 1:
        images = list(range(3 * n))
        for z in range(n):
            images[z] = n + z                     # (z,0) -> (z,1)
            images[n + z] = 2 * n + (-z) % n      # (z,1) -> (-z,2)
            images[2 * n + z] = (-z) % n          # (z,2) -> (-z,0)
        rotator = Permutation(tuple(images))
        require(td.is_automorphism(rotator), "cyclic TD rotator is an automorphism")
        require(rotator.order() == 3, "cyclic TD rotator has order 3")
    return CyclicTd(td, translation, moved, rotator)


def mols_td(k: int, n: int) -> TransversalDesign:
    """TD(k,n) as a MacNeish product of field TDs over the prime-power
    factors of n; Unavailable when some factor order q^e has q^e + 1 < k."""
    if k < 2 or n < 1:
        raise BadOrder(f"bad parameters k={k}, n={n}")
    if n == 1:
        return TransversalDesign(k, 1, tuple((c,) for c in range(k)),
                                 (tuple(range(k)),))
    parts = sorted(q**e for q, e in factorize(n).items())
    if min(parts) + 1 < k:
        raise Unavailable(f"factor {min(parts)} of {n} gives MacNeish bound "
                          f"{min(parts) + 1} < {k}")
    td = _field_td(k, parts[0])
    for m in parts[1:]:
        td = _product_td(td, _field_td(k, m))
    verify_td(td)
    return td


def _field_td(k: int, m: int) -> TransversalDesign:
    """TD(k,m) over the field of order m, k <= m+1."""
    add, mul = _field_tables(m)
    groups = tuple(tuple(c * m + z for z in range(m)) for c in range(k))
    blocks = []
    for u in range(m):
        for w in range(m):
            block = [c * m + int(add[mul[c, w], u]) for c in range(min(k, m))]
            if k == m + 1:
                block.append(m * m + w)
            blocks.append(tuple(block))
    td = TransversalDesign(k, m, groups, tuple(blocks))
    verify_td(td)
    return td


def _product_td(t1: TransversalDesign, t2: TransversalDesign) -> TransversalDesign:
    k = t1.k
    n1, n2 = t1.n, t2.n
    n = n1 * n2

    def enc(g: int, z1: int, z2: int) -> int:
        return g * n + z1 * n2 + z2

    groups = tuple(tuple(g * n + z for z in range(n)) for g in range(k))
    blocks = []
    for b1 in t1.blocks:
        for b2 in t2.blocks:
            block = []
            for p1, p2 in zip(sorted(b1), sorted(b2)):
                g = t1.group_of[p1]
                z1 = p1 - g * n1
                z2 = p2 - t2.group_of[p2] * n2
                block.append(enc(g, z1, z2))
            blocks.append(tuple(block))
    return TransversalDesign(k, n, groups, tuple(blocks))


# -- file format -----------------------------------------------------------------
# "TD k=<k> n=<n>": k group rows then n^2 block rows; "NET k=<k> n=<n>":
# k class headers are implicit, k*n line rows in class-major order.

def _read(text: str, tag: str, row_count) -> tuple[int, int, list[tuple[int, ...]]]:
    """k, n and the row_count(k, n) integer rows of a TD or NET file; blank
    lines and '#' comments are skipped."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1)
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or not lines[0][1].startswith(f"{tag} "):
        raise ParseError(1, f"expected '{tag} k=<k> n=<n>' header")
    head = lines[0][1].split()
    try:
        k = int(head[1].removeprefix("k="))
        n = int(head[2].removeprefix("n="))
    except (IndexError, ValueError):
        raise ParseError(lines[0][0], f"bad {tag} header")
    rows = []
    for no, ln in lines[1:]:
        try:
            rows.append(tuple(int(t) for t in ln.split()))
        except ValueError:
            raise ParseError(no, f"non-integer point in {ln.strip()!r}")
    if len(rows) != row_count(k, n):
        raise ParseError(lines[-1][0], f"expected {row_count(k, n)} data rows, got {len(rows)}")
    return k, n, rows


def td_to_text(td: TransversalDesign) -> str:
    rows = [f"TD k={td.k} n={td.n}"]
    rows += [" ".join(map(str, grp)) for grp in td.groups]
    rows += [" ".join(map(str, sorted(b))) for b in td.blocks]
    return "\n".join(rows) + "\n"


def td_from_text(text: str) -> TransversalDesign:
    k, n, rows = _read(text, "TD", lambda k, n: k + n * n)
    td = TransversalDesign(k, n, tuple(rows[:k]), tuple(rows[k:]))
    verify_td(td)
    return td


def net_to_text(net: Net) -> str:
    rows = [f"NET k={net.k} n={net.n}"]
    for members in net.classes:
        rows += [" ".join(map(str, sorted(net.lines[i]))) for i in members]
    return "\n".join(rows) + "\n"


def net_from_text(text: str) -> Net:
    k, n, rows = _read(text, "NET", lambda k, n: k * n)
    classes = tuple(tuple(range(c * n, (c + 1) * n)) for c in range(k))
    net = Net(n, k, tuple(rows), classes)
    verify_net(net)
    return net
