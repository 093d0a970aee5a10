"""Nets and transversal designs.

A (k,n)-net is n^2 points with kn lines of size n in k parallel classes; its
dual is a TD(k,n).  Constructions: unions of parallel classes of a
desarguesian affine plane, nets over an extension field with a cyclic
semiregular automorphism built from a semilinear map, componentwise net
products, cyclic-table TDs (with a group-rotating automorphism at k=3), and
MacNeish products of field TDs.  The field constructions share one array
expression over GF(q)'s add and mul index tables, and the products combine
rows by mixed-radix index arithmetic.  Every public constructor verifies what
it returns against the net/TD axioms, and keeps the verdict on the immutable result.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import textfile
from .errors import ActionEscape, AxiomViolation, BadParams, Unavailable, require
from .design import _pair_cover, _sorted_columns
from .gf import factorize, field_tables, frobenius, semilinear_map, trace
from .permgrp import Permutation, read_only_ints, set_images


def _table(rows, what: str) -> np.ndarray:
    """Rows as a read-only 2-D int64 array in the given order; AxiomViolation
    naming ``what`` when they are ragged or not integers."""
    try:
        return read_only_ints(rows, 2)
    except ValueError as exc:
        raise AxiomViolation(f"malformed {what}: {exc}")


def _same_fields(a, b) -> bool:
    """Equality of two nets or two TDs: equal sizes and equal arrays, not verdicts."""
    return type(a) is type(b) and all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
                                      for f in fields(a) if f.compare)


def _induced(family: np.ndarray, degree: int, perm: Permutation, failure: str) -> Permutation:
    """The permutation that a permutation of the ``degree`` points induces on a
    family of point sets; AxiomViolation with ``failure`` when it leaves the family."""
    if perm.degree != degree:
        raise BadParams(f"permutation of degree {perm.degree} on {degree} points")
    try:
        return Permutation(set_images(family, [perm])[0])
    except ActionEscape:
        raise AxiomViolation(failure)


@dataclass(frozen=True, eq=False)
class Net:
    """(k,n)-net: ``lines`` is a (k*n, n) point array and ``classes`` a (k, n)
    array of line indices, both read-only int64 in constructor order."""

    n: int
    k: int
    lines: np.ndarray
    classes: np.ndarray
    _verified: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lines", _table(self.lines, "line"))
        object.__setattr__(self, "classes", _table(self.classes, "class"))

    __eq__ = _same_fields

    @property
    def point_count(self) -> int:
        return self.n * self.n

    def line_action(self, alpha: Permutation) -> Permutation:
        """The permutation induced on line indices by a point permutation."""
        return _induced(self.lines, self.point_count, alpha,
                        "permutation is not a net automorphism")


@dataclass(frozen=True, eq=False)
class TransversalDesign:
    """TD(k,n): k groups of n points, n^2 blocks meeting each group once;
    ``groups`` (k, n) and ``blocks`` (n^2, k) are read-only int64 arrays."""

    k: int
    n: int
    groups: np.ndarray
    blocks: np.ndarray
    _verified: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "groups", _table(self.groups, "group"))
        object.__setattr__(self, "blocks", _table(self.blocks, "block"))

    __eq__ = _same_fields

    @property
    def point_count(self) -> int:
        return self.k * self.n

    def is_automorphism(self, perm: Permutation) -> bool:
        if perm.degree != self.point_count:
            return False
        try:
            set_images(self.blocks, [perm])
        except ActionEscape:
            return False
        return True

    def group_action(self, perm: Permutation) -> Permutation:
        """Induced permutation of group indices (automorphisms map groups to
        groups: two points share a group iff they share no block)."""
        return _induced(self.groups, self.point_count, perm,
                        "permutation does not preserve the group partition")


def _rows(npts: int, rows: np.ndarray, what: str) -> np.ndarray:
    """The table's rows, each sorted ascending; AxiomViolation naming ``what``
    when a row has a point outside 0..npts-1 or repeats one."""
    try:
        return _sorted_columns(rows, npts)[0].T
    except BadParams as exc:
        raise AxiomViolation(f"malformed {what}: {exc}")


def _td_axioms(npts: int, groups: np.ndarray, blocks: np.ndarray) -> None:
    """The groups partition the points and every point pair lies in exactly
    one group or block (so each block meets each group once)."""
    if not np.all(np.bincount(groups.ravel(), minlength=npts) == 1):
        raise AxiomViolation("groups fail to partition the points")
    deficit, surplus = _pair_cover(npts, [groups, blocks])
    if deficit or surplus:
        raise AxiomViolation(f"{deficit} point pairs lie in no group "
                             f"or block, {surplus} in two or more")


def _dual(net: Net) -> tuple[np.ndarray, np.ndarray]:
    """Groups and blocks of the dual TD: the classes, and per point the k
    lines through it, each row ascending.  AxiomViolation unless each class
    partitions the points."""
    n, k = net.n, net.k
    _rows(n * n, net.lines, "line")
    classes = _rows(k * n, net.classes, "class")
    cover = net.lines[classes].reshape(k, n * n)
    if not np.array_equal(np.sort(cover, axis=1), np.broadcast_to(np.arange(n * n), cover.shape)):
        raise AxiomViolation("a parallel class fails to partition the points")
    through = np.empty((k, n * n), dtype=np.int64)
    through[np.arange(k)[:, None], cover] = np.repeat(classes, n, axis=1)
    return classes, np.sort(through.T, axis=1)


def verify_net(net: Net) -> None:
    """Each class partitions the points and the dual is a TD(k,n): its groups
    are the classes and its blocks the k lines through each point, so the pair
    table has C(kn,2) entries, not C(n^2,2).  A net that passes keeps the verdict."""
    if net._verified:
        return
    n, k = net.n, net.k
    if net.lines.shape != (k * n, n) or net.classes.shape != (k, n):
        raise AxiomViolation(f"expected {k * n} lines in {k} classes, each of {n}")
    _td_axioms(k * n, *_dual(net))
    object.__setattr__(net, "_verified", True)


def verify_td(td: TransversalDesign) -> None:
    """``_td_axioms``; a TD that passes keeps the verdict, so a second call is a lookup."""
    if td._verified:
        return
    k, n = td.k, td.n
    if td.groups.shape != (k, n) or td.blocks.shape != (n * n, k):
        raise AxiomViolation(f"expected {k} groups of {n} points and {n * n} blocks of {k}")
    _td_axioms(k * n, _rows(k * n, td.groups, "group"), _rows(k * n, td.blocks, "block"))
    object.__setattr__(td, "_verified", True)


# -- constructions ----------------------------------------------------------------

def _net(n: int, k: int, lines) -> Net:
    """The verified net with these k*n lines, classes of n in row order."""
    net = Net(n, k, lines, np.arange(k * n).reshape(k, n))
    verify_net(net)
    return net


def _td(k: int, n: int, local: np.ndarray) -> TransversalDesign:
    """The verified TD(k,n) on groups c*n + z whose blocks meet group c at
    the local coordinates z in column c of ``local``."""
    td = TransversalDesign(k, n, np.arange(k * n).reshape(k, n), local + np.arange(k) * n)
    verify_td(td)
    return td


def _slope_lines(add: np.ndarray, mul: np.ndarray, slopes) -> np.ndarray:
    """Lines y = t*x + b of the affine plane over the field with these
    tables: entry [i, b, x] is the point x*n + add[mul[t_i, x], b]."""
    x = np.arange(len(add))
    return x * len(add) + add[mul[np.asarray(slopes)][:, None, :], x[None, :, None]]


def _mixed(left: np.ndarray, right: np.ndarray, size: int) -> np.ndarray:
    """Mixed-radix product of two row arrays, left rows and entries
    outermost: entry [i*r + j, a*s + b] is left[i, a] * size + right[j, b]."""
    return (left[:, None, :, None] * size + right[None, :, None, :]).reshape(
        len(left) * len(right), -1)


def net_from_affine_plane(n: int, k: int) -> Net:
    """Union of the first k parallel classes of the affine plane of order n,
    in slope order 0, 1, ..., n-1 with the vertical class last."""
    if len(factorize(n)) != 1 or not 3 <= k <= n + 1:
        raise BadParams(f"need a prime power n and 3 <= k <= n+1, got n={n}, k={k}")
    lines = _slope_lines(*field_tables(n), range(min(k, n))).reshape(-1, n)
    if k == n + 1:
        lines = np.concatenate([lines, np.arange(n * n).reshape(n, n)])
    return _net(n, k, lines)


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
        raise BadParams("q and m must be powers of a common prime")
    p = next(iter(fact_q))
    if next(iter(fact_m)) != p or q <= 1 or m <= 1:
        raise BadParams("q and m must be powers > 1 of the same prime")
    if not 3 <= k < q:
        raise BadParams(f"need 3 <= k < q, got k={k}, q={q}")
    size = q ** m
    tables = field_tables(size)
    elems = np.arange(size)
    subfield = elems[frobenius(tables, elems, q) == elems]
    net = _net(size, k, _slope_lines(*tables, subfield[subfield != 1][:k]).reshape(-1, size))
    a = int(np.flatnonzero(trace(tables, elems, q, m))[0])
    h = semilinear_map(tables, q, m, a).images
    g = Permutation((h[:, None] * size + h[None, :]).ravel())
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
        raise BadParams("need at least one factor")
    k = factors[0][0].k
    if any(net.k != k for net, _ in factors):
        raise BadParams("all factors must share the class count k")
    for net, alpha in factors:
        if alpha is not None and alpha.degree != net.point_count:
            raise BadParams("automorphism degree mismatch")
    lines = [np.zeros((1, 1), dtype=np.int64)] * k
    images = np.zeros((1, 1), dtype=np.int64)
    for net, alpha in factors:
        size = net.point_count
        lines = [_mixed(acc, net.lines[members], size) for acc, members in zip(lines, net.classes)]
        images = _mixed(images, (np.arange(size) if alpha is None else alpha.images)[None], size)
    net = _net(math.prod(net.n for net, _ in factors), k, np.concatenate(lines))
    combined = Permutation(images[0])
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
    rotator: Permutation | None


def cyclic_td(k: int, n: int) -> CyclicTd:
    if k < 3 or n < 1:
        raise BadParams(f"need k >= 3 and n >= 1, got k={k}, n={n}")
    for i in range(1, k - 1):
        if math.gcd(i, n) != 1:
            raise BadParams(f"{i} shares a factor with {n}")
    x, y = np.divmod(np.arange(n * n), n)
    local = (x[:, None] + (np.arange(k) - 1) * y[:, None]) % n
    local[:, 0], local[:, 1] = x, y
    td = _td(k, n, local)
    group, z = np.divmod(np.arange(k * n), n)
    translation = Permutation(group * n + (z + (group != 1)) % n)
    require(td.is_automorphism(translation), "cyclic TD translation is an automorphism")

    rotator = None
    if k == 3 and n > 1:
        z = np.arange(n)
        # (z,0) -> (z,1), (z,1) -> (-z,2), (z,2) -> (-z,0)
        rotator = Permutation(np.concatenate([n + z, 2 * n + -z % n, -z % n]))
        require(td.is_automorphism(rotator), "cyclic TD rotator is an automorphism")
        require(rotator.order() == 3, "cyclic TD rotator has order 3")
    return CyclicTd(td, translation, rotator)


def mols_td(k: int, n: int) -> TransversalDesign:
    """TD(k,n) as a MacNeish product of field TDs over the prime-power
    factors of n; Unavailable when some factor order q^e has q^e + 1 < k."""
    if k < 2 or n < 1:
        raise BadParams(f"bad parameters k={k}, n={n}")
    parts = sorted(q**e for q, e in factorize(n).items())
    if parts and parts[0] + 1 < k:
        raise Unavailable(f"factor {parts[0]} of {n} gives MacNeish bound "
                          f"{parts[0] + 1} < {k}")
    local = np.zeros((1, k), dtype=np.int64)
    for m in parts:
        local = (local[:, None, :] * m + _field_td(k, m)[None, :, :]).reshape(-1, k)
    return _td(k, n, local)


def _field_td(k: int, m: int) -> np.ndarray:
    """Local coordinates of the blocks of TD(k,m) over GF(m), k <= m+1:
    block (u, w) meets group c < m where the line of slope c and offset u
    does at x = w, and group m (when k = m+1) at w."""
    local = _slope_lines(*field_tables(m), range(min(k, m))).transpose(1, 2, 0) % m
    if k == m + 1:
        local = np.concatenate([local, np.broadcast_to(np.arange(m)[:, None], (m, m, 1))], axis=2)
    return local.reshape(m * m, k)


# -- file format: "TD k=<k> n=<n>", k group rows and n^2 block rows; "NET k=<k>
# n=<n>", k*n line rows, class by class --------------------------------------------

def _sized(tag: str, k: int, n: int, layout: tuple) -> tuple:
    """The ``textfile`` layout (bound, [(rows, width), ...]) once k, n >= 1."""
    if k < 1 or n < 1:
        raise BadParams(f"{tag} header needs k, n >= 1, got k={k}, n={n}")
    return layout


def td_file(td: TransversalDesign):
    """The ``textfile`` tag, fields, point bound and tables of the TD."""
    return "TD", {"k": td.k, "n": td.n}, td.point_count, [td.groups, np.sort(td.blocks, axis=1)]


def td_to_text(td: TransversalDesign) -> str:
    return b"".join(textfile.chunks(*td_file(td))).decode()


def td_from_text(text: str) -> TransversalDesign:
    layout = lambda k, n: _sized("TD", k, n, (k * n, [(k, n), (n * n, k)]))  # noqa: E731
    (k, n), (groups, blocks) = textfile.read(io.BytesIO(text.encode()), "TD", ("k", "n"), layout)
    td = TransversalDesign(k, n, groups, blocks)
    verify_td(td)
    return td


def net_file(net: Net):
    """The ``textfile`` tag, fields, point bound and table of the net."""
    lines = np.sort(net.lines[net.classes.ravel()], axis=1)
    return "NET", {"k": net.k, "n": net.n}, net.point_count, [lines]


def net_to_text(net: Net) -> str:
    return b"".join(textfile.chunks(*net_file(net))).decode()


def net_from_text(text: str) -> Net:
    (k, n), (lines,) = textfile.read(io.BytesIO(text.encode()), "NET", ("k", "n"),
                                     lambda k, n: _sized("NET", k, n, (n * n, [(k * n, n)])))
    return _net(n, k, lines)
