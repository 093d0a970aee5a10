"""Design composition.

The product construction takes a 2-(w,k,1)-design W, a 2-(y,k,1)-design Y
with an x-point subdesign X, and a TD(k, y-x), and produces a
2-(w(y-x)+x, k, 1)-design on X u (W x Z), Z = Y - X.  Blocks come in three
sorts: X's own blocks, per W-point copies of Y's remaining blocks, and a TD
copy on A x Z per W-block A.

Every product takes one route: check the ingredients, the TD by
``verify_td`` among them; sweep W's blocks into orbits under a group of W;
plant a TD copy on each orbit representative and push it to the rest of the
orbit by transporters (permgrp's ``set_images``, ``orbit_sweep``,
``transporters`` and ``push``, shared with the lifts).  The design is built
from the pushed row parts of all three sorts of blocks.  The plain product
uses the trivial group.  A 1-blocked group of W extends to a 1-blocked group
of the product.  A semiregular cyclic group of order k on W extends to a
cyclic group fixing one point and semiregular elsewhere; its plant aligns
the TD copy on each stabilized block with a group-rotating automorphism of
the TD.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certify import certify, require_certified
from .design import Design, is_1_blocked, is_automorphism, is_subdesign
from .errors import BadParams, Unavailable
from .netstd import TransversalDesign, cyclic_td, mols_td, verify_td
from .permgrp import (PermGroup, Permutation, RowPart, is_semiregular, orbit_sweep, push,
                      read_points, set_images, transporters)
from .textfile import point_dtype


def default_td_supplier(k: int, n: int) -> TransversalDesign:
    try:
        return mols_td(k, n)
    except Unavailable:
        if k == 3:
            return cyclic_td(3, n).td
        raise


@dataclass
class CompositionPlan:
    """Ingredients for the product: W, Y, the subdesign point set of Y, a TD
    source, and optionally a group on W's points for the 1-blocked lift."""

    W: Design
    Y: Design
    x_points: tuple[int, ...]
    td_supplier: Callable[[int, int], TransversalDesign] = default_td_supplier
    group: PermGroup | None = None


class _Indexer:
    """Point indexing of the product: X first (0..x-1 in Y order), then
    (a, z) pairs in row-major order over W points and Z ranks."""

    def __init__(self, plan: CompositionPlan):
        try:
            pts = read_points(plan.x_points, plan.Y.v)
        except BadParams as exc:
            raise BadParams(f"subdesign points {plan.x_points} are not all in "
                            f"0..{plan.Y.v - 1}") from exc
        if len(set(plan.x_points)) < len(plan.x_points):
            raise BadParams(f"subdesign points {plan.x_points} repeat a point")
        self.k = plan.W.k
        self.w = plan.W.v
        self.in_x = np.zeros(plan.Y.v, dtype=bool)
        self.in_x[pts] = True
        self.x = int(self.in_x.sum())
        self.zlen = plan.Y.v - self.x
        # a Y point's rank inside X or inside Z = Y - X, in Y order
        self.rank = np.where(self.in_x, np.cumsum(self.in_x), np.cumsum(~self.in_x)) - 1
        self.u = self.x + self.w * self.zlen

    def bar(self, perm: Permutation) -> np.ndarray:
        """Image array extending a permutation of W's points to the product,
        in ``point_dtype(u)``: fixes X, sends (a, z) to (a^g, z)."""
        wz = self.x + perm.images[:, None] * self.zlen + np.arange(self.zlen)
        return np.concatenate([np.arange(self.x), wz.ravel()]).astype(point_dtype(self.u))


def _bar_group(idx: _Indexer, generators) -> PermGroup:
    return PermGroup(idx.u, [Permutation(idx.bar(g)) for g in generators])


def _nontd_parts(plan: CompositionPlan, idx: _Indexer) -> list[RowPart]:
    """Sorts one and two, pushed: X's blocks, and per W-point copies of Y's
    blocks not inside X (the subdesign check leaves at most one X point in
    these).  Row a of ``copies`` holds W point a's copy of Y's points; each W
    point is its own orbit, the identity its transporter."""
    copies = np.where(idx.in_x, idx.rank, idx.x + np.arange(idx.w)[:, None] * idx.zlen + idx.rank)
    copies = copies.astype(point_dtype(idx.u))
    identity, zeros = np.arange(idx.u, dtype=copies.dtype)[None], np.zeros(idx.w, np.int64)
    inside = idx.in_x[plan.Y.blocks].all(axis=1)
    return [*push(identity, copies, plan.Y.blocks[inside], zeros[:1], zeros[:1]),
            *push(identity, copies, plan.Y.blocks[~inside], np.arange(idx.w), zeros)]


def _plant_td(td: TransversalDesign, idx: _Indexer, rows: np.ndarray) -> np.ndarray:
    """One TD copy on A x Z per W-block row A, as the product point of each TD
    point: the j-th point of TD group g lands on Z rank j of the W point A[g].
    Shape (rows, kn), in ``point_dtype(u)``; the W points are widened to int64
    first."""
    points = np.empty((len(rows), td.point_count), dtype=point_dtype(idx.u))
    points[:, td.groups] = idx.x + rows.astype(np.int64)[:, :, None] * idx.zlen + np.arange(td.n)
    return points


def _product(plan: CompositionPlan, group: PermGroup,
             plant=lambda td, idx, rows, sizes: _plant_td(td, idx, rows)
             ) -> tuple[Design, _Indexer]:
    """Check the ingredients, then plant a TD copy per W-block orbit and push
    it by transporters.  ``plant(td, idx, rows, sizes)`` gives the copies at
    the representative rows from the orbit sizes, as ``_plant_td`` does; by
    default the canonical copy at every representative."""
    idx = _Indexer(plan)
    if plan.W.k != plan.Y.k:
        raise BadParams("W and Y must share the block size")
    if not is_subdesign(plan.Y, plan.x_points):
        raise BadParams(f"points {tuple(sorted(plan.x_points))} are not a subdesign of Y")
    td = plan.td_supplier(idx.k, idx.zlen)
    verify_td(td)
    if td.n != idx.zlen or td.k != idx.k:
        raise BadParams(f"TD({td.k},{td.n}) does not match (k, y-x) = ({idx.k},{idx.zlen})")
    elements = group.elements()
    images = set_images(plan.W.blocks, elements)
    reps, orbit_of = orbit_sweep(images)
    copies = plant(td, idx, plan.W.blocks[reps], np.bincount(orbit_of))
    pushed = push(np.stack([idx.bar(g) for g in elements]), copies, td.blocks, orbit_of,
                  transporters(images, reps, orbit_of))
    return Design(idx.u, idx.k, [*_nontd_parts(plan, idx), *pushed]), idx


def product_design(plan: CompositionPlan, check: bool = True) -> Design:
    """The plain product: one TD copy per W-block, placed canonically."""
    out = _product(plan, PermGroup.trivial(plan.W.v))[0]
    if check:
        require_certified(certify(out), "product")
    return out


def product_design_1blocked(plan: CompositionPlan, check: bool = True
                            ) -> tuple[Design, PermGroup]:
    """Product that carries a 1-blocked group of W to a 1-blocked group of
    the output: TD copies are planted on block-orbit representatives only
    and pushed by transporters (well-defined exactly because the group is
    1-blocked on W)."""
    if plan.group is None:
        raise BadParams("plan.group is required")
    ok, witness = is_1_blocked(plan.W, plan.group)
    if not ok:
        raise BadParams(f"group is not 1-blocked, witness: {witness}")
    out, idx = _product(plan, plan.group)
    bar_group = _bar_group(idx, plan.group.generators)
    if check:
        require_certified(certify(out, bar_group, one_blocked=True), "1-blocked product")
    return out, bar_group


def cyclic_product_design(W: Design, c_w: Permutation, Y: Design,
                          td: TransversalDesign, td_rotator: Permutation | None,
                          check: bool = True) -> tuple[Design, PermGroup]:
    """Product with x = 1 carrying a semiregular cyclic group of order k on W
    to a cyclic group of the output fixing exactly one point.

    Requires every W-block stabilizer under <c_w> to be trivial or the whole
    group; stabilized blocks (the point-orbit blocks) get their TD copy
    aligned through ``td_rotator``, an order-k automorphism of the TD that is
    semiregular on points and rotates the k groups in a single cycle.
    """
    k = W.k
    if Y.k != k or td.k != k or td.n != Y.v - 1:
        raise BadParams("ingredients disagree on k or the TD group size")
    if not is_automorphism(W, c_w):
        raise BadParams("c_w is not an automorphism of W")
    order = c_w.order()
    if order not in (1, k):
        raise BadParams(f"c_w must have order {k} (or 1), got {order}")
    group = PermGroup.cyclic_from(c_w)
    if not is_semiregular(group, range(W.v))[0]:
        raise BadParams("c_w must be semiregular on W's points")

    if td_rotator is not None:
        if not td.is_automorphism(td_rotator) or td_rotator.order() != k:
            raise BadParams("td_rotator must be an order-k TD automorphism")
        if td_rotator.fixed_points():
            raise BadParams("td_rotator must be semiregular on points")
        rotation = td.group_action(td_rotator)
        if len(rotation.cycles()) != 1 or len(rotation.cycles()[0]) != k:
            raise BadParams("td_rotator must rotate the k groups in one cycle")

    def plant(td, idx, rows, sizes):
        """The canonical copy on free orbits; a block that is a <c_w>-orbit
        gets its copy aligned with the rotator."""
        plants = _plant_td(td, idx, rows)
        for r in np.flatnonzero(sizes != order).tolist():
            ablock = tuple(rows[r].tolist())
            stab_size = order // int(sizes[r])
            if stab_size != order:
                raise BadParams(f"block {ablock} has stabilizer of size {stab_size}")
            if td_rotator is None:
                raise BadParams(
                    f"stabilized block {ablock} needs a group-rotating TD automorphism")
            b, points = min(ablock), td.groups[0]
            for _ in range(k):
                plants[r, points] = idx.x + b * idx.zlen + np.arange(len(points))
                b, points = c_w(b), td_rotator.images[points]
        return plants

    out, idx = _product(CompositionPlan(W, Y, (0,), td_supplier=lambda *_: td), group, plant)
    cbar = _bar_group(idx, [c_w])
    if check:
        require_certified(certify(out, cbar, fixed=(0,)), "cyclic product")
    return out, cbar
