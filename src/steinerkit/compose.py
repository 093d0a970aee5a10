"""Design composition.

The product construction takes a 2-(w,k,1)-design W, a 2-(y,k,1)-design Y
with an x-point subdesign X, and a TD(k, y-x), and produces a
2-(w(y-x)+x, k, 1)-design on X u (W x Z), Z = Y - X.  Blocks come in four
sorts: X's own blocks, per W-point copies of Y's remaining blocks, and a TD
copy on A x Z per W-block A.

Two symmetry-preserving refinements: a 1-blocked automorphism group of W
extends to a 1-blocked group of the product (TD copies planted per block
orbit and pushed by transporters), and a semiregular cyclic group of order k
on W extends to a cyclic group fixing one point and semiregular elsewhere,
by aligning each stabilized TD copy with a group-rotating automorphism of
the TD ingredient.  Block orbits and the push are permgrp's ``set_images``,
``orbit_sweep`` and ``push``, shared with the line-filling lifts; every
route builds its blocks as arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certify import certify, require_certified
from .design import Design, is_1_blocked, is_automorphism, is_subdesign
from .errors import BadParams, Unavailable
from .netstd import TransversalDesign, cyclic_td, mols_td, verify_td
from .permgrp import PermGroup, Permutation, orbit_sweep, push, set_images, transporters


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
        if not all(0 <= x < plan.Y.v for x in plan.x_points):
            raise BadParams(f"subdesign points {plan.x_points} are not all in 0..{plan.Y.v - 1}")
        if len(set(plan.x_points)) < len(plan.x_points):
            raise BadParams(f"subdesign points {plan.x_points} repeat a point")
        self.k = plan.W.k
        self.w = plan.W.v
        self.in_x = np.zeros(plan.Y.v, dtype=bool)
        self.in_x[list(plan.x_points)] = True
        self.x = int(self.in_x.sum())
        self.zlen = plan.Y.v - self.x
        # a Y point's rank inside X or inside Z = Y - X, in Y order
        self.rank = np.where(self.in_x, np.cumsum(self.in_x), np.cumsum(~self.in_x)) - 1
        self.u = self.x + self.w * self.zlen

    def bar(self, perm: Permutation) -> np.ndarray:
        """Image array extending a permutation of W's points to the product:
        fixes X, sends (a, z) to (a^g, z)."""
        wz = self.x + perm.images[:, None] * self.zlen + np.arange(self.zlen)
        return np.concatenate([np.arange(self.x), wz.ravel()])


def _bar_group(idx: _Indexer, generators) -> PermGroup:
    return PermGroup(idx.u, [Permutation(idx.bar(g)) for g in generators])


def _check_subdesign(plan: CompositionPlan) -> None:
    if is_subdesign(plan.Y, plan.x_points) is None:
        raise BadParams(f"points {tuple(sorted(plan.x_points))} are not a subdesign of Y")


def _nontd_blocks(plan: CompositionPlan, idx: _Indexer) -> np.ndarray:
    """Sorts one and two: X's blocks, and per W-point copies of Y's blocks
    not inside X (the subdesign check leaves at most one X point in these)."""
    a = np.arange(idx.w)[:, None]
    copies = np.where(idx.in_x, idx.rank, idx.x + a * idx.zlen + idx.rank)
    yblocks = plan.Y.blocks
    inside = idx.in_x[yblocks].all(axis=1)
    return np.concatenate([copies[0][yblocks[inside]],
                           copies[:, yblocks[~inside]].reshape(-1, idx.k)])


def _plant_td(td: TransversalDesign, idx: _Indexer, rows: np.ndarray) -> np.ndarray:
    """One TD copy on A x Z per W-block row A: the j-th point of TD group g
    lands on Z rank j of the W point A[g].  Shape (rows, n^2, k)."""
    group = np.empty(td.point_count, dtype=np.int64)
    rank = np.empty(td.point_count, dtype=np.int64)
    group[td.groups] = np.arange(td.k)[:, None]
    rank[td.groups] = np.arange(td.n)
    return idx.x + rows[:, group[td.blocks]] * idx.zlen + rank[td.blocks]


def _product(plan: CompositionPlan, group: PermGroup) -> tuple[Design, _Indexer]:
    """Check the ingredients, then plant a TD copy per W-block orbit and push it."""
    idx = _Indexer(plan)
    if plan.W.k != plan.Y.k:
        raise BadParams("W and Y must share the block size")
    _check_subdesign(plan)
    td = plan.td_supplier(idx.k, idx.zlen)
    verify_td(td)
    if td.n != idx.zlen or td.k != idx.k:
        raise BadParams(f"TD({td.k},{td.n}) does not match (k, y-x) = ({idx.k},{idx.zlen})")
    elements = group.elements()
    images = set_images(plan.W.blocks, elements)
    reps, orbit_of = orbit_sweep(images)
    trans = transporters(images, reps, orbit_of)
    pushed = push(np.stack([idx.bar(g) for g in elements]),
                  _plant_td(td, idx, plan.W.blocks[reps]), orbit_of, trans)
    return Design(idx.u, idx.k, np.concatenate([_nontd_blocks(plan, idx), pushed])), idx


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
    powers = [Permutation.identity(W.v)]
    for _ in range(order - 1):
        powers.append(powers[-1] * c_w)
    if order > 1 and any(p.fixed_points() for p in powers[1:]):
        raise BadParams("c_w must be semiregular on W's points")

    plan = CompositionPlan(W, Y, (0,), td_supplier=lambda *_: td)
    idx = _Indexer(plan)
    _check_subdesign(plan)

    rotation = None
    if td_rotator is not None:
        if not td.is_automorphism(td_rotator) or td_rotator.order() != k:
            raise BadParams("td_rotator must be an order-k TD automorphism")
        if td_rotator.fixed_points():
            raise BadParams("td_rotator must be semiregular on points")
        rotation = td.group_action(td_rotator)
        if len(rotation.cycles()) != 1 or len(rotation.cycles()[0]) != k:
            raise BadParams("td_rotator must rotate the k groups in one cycle")

    images = set_images(W.blocks, powers)
    reps, orbit_of = orbit_sweep(images)
    trans = transporters(images, reps, orbit_of)
    # free orbits: the canonical copy at the representative, pushed around
    plants = _plant_td(td, idx, W.blocks[reps])
    sizes = np.bincount(orbit_of)
    for r in np.flatnonzero(sizes != order).tolist():
        ablock = tuple(W.blocks[reps[r]].tolist())
        stab_size = order // int(sizes[r])
        if stab_size != order:
            raise BadParams(
                f"block {ablock} has stabilizer of size {stab_size}")
        # the block is a <c_w>-orbit: align the TD copy with the rotator
        if rotation is None:
            raise BadParams(
                f"stabilized block {ablock} needs a group-rotating TD automorphism")
        b_seq = [min(ablock)]
        for _ in range(k - 1):
            b_seq.append(c_w(b_seq[-1]))
        phi = np.empty(td.point_count, dtype=np.int64)
        points = td.groups[0]
        for b in b_seq:
            phi[points] = idx.x + b * idx.zlen + np.arange(len(points))
            points = td_rotator.images[points]
        plants[r] = phi[td.blocks]
    pushed = push(np.stack([idx.bar(p) for p in powers]), plants, orbit_of, trans)

    out = Design(idx.u, k, np.concatenate([_nontd_blocks(plan, idx), pushed]))
    cbar = _bar_group(idx, [c_w])
    if check:
        require_certified(certify(out, cbar, fixed=(0,)), "cyclic product")
    return out, cbar
