from __future__ import annotations

import pytest

from steinerkit.basedesigns import build_base_design, km_search, steiner_triple_system
from steinerkit.compose import (
    CompositionPlan,
    cyclic_product_design,
    product_design,
    product_design_1blocked,
)
from steinerkit.design import Design, brute_aut, is_1_blocked, is_automorphism, verify_2design
from steinerkit.errors import AxiomViolation, BadParams
from steinerkit.netstd import TransversalDesign, cyclic_td, mols_td
from steinerkit.permgrp import PermGroup, Permutation


def fano() -> Design:
    return build_base_design(7, 3, (0, 1, 3)).design


def test_product_sts45():
    sts9 = steiner_triple_system(9)
    block = sts9.block_tuples()[0]
    plan = CompositionPlan(fano(), sts9, block)
    d = product_design(plan)
    assert d.v == 45 and d.b == 330
    assert verify_2design(d).ok


def test_product_sts21_from_single_block_w():
    w = Design(3, 3, [[0, 1, 2]])
    sts9 = steiner_triple_system(9)
    block = sts9.block_tuples()[0]
    d = product_design(CompositionPlan(w, sts9, block))
    assert d.v == 3 + 3 * 6 == 21
    assert verify_2design(d).ok


def test_product_degenerate_x1():
    f = fano()
    d = product_design(CompositionPlan(f, f, (0,)))
    assert d.v == 1 + 7 * 6 == 43
    assert verify_2design(d).ok


def test_product_rejects_a_repeated_subdesign_point():
    f = fano()
    with pytest.raises(BadParams, match=r"^subdesign points \(0, 0\) repeat a point$"):
        product_design(CompositionPlan(f, f, (0, 0)))


@pytest.mark.parametrize("x_points", [(0.0,), (True,)], ids=["float", "bool"])
def test_product_rejects_subdesign_points_that_are_not_integers(x_points):
    f = fano()
    with pytest.raises(BadParams, match=r"^subdesign points \(.*,\) are not all in 0\.\.6$"):
        product_design(CompositionPlan(f, f, x_points))


def test_product_rejects_non_subdesign():
    sts9 = steiner_triple_system(9)
    blk = sts9.block_tuples()[0]
    off = next(p for p in range(9) if p not in blk)
    with pytest.raises(BadParams):
        product_design(CompositionPlan(fano(), sts9, (blk[0], blk[1], off)))


def test_1blocked_product_sts45_with_z7():
    z7 = PermGroup(7, [Permutation(tuple((i + 1) % 7 for i in range(7)))])
    sts9 = steiner_triple_system(9)
    block = sts9.block_tuples()[0]
    plan = CompositionPlan(fano(), sts9, block, group=z7)
    d, bar = product_design_1blocked(plan)
    assert d.v == 45 and d.b == 330
    assert verify_2design(d).ok
    assert bar.order() == 7
    for g in bar.generators:
        assert is_automorphism(d, g)
    ok, witness = is_1_blocked(d, bar)
    assert ok and witness is None


@pytest.mark.parametrize("n", [5, 7])
def test_1blocked_product_rejects_missized_td(n):
    # x is one block of STS(9), so the product needs a TD(3, 9 - 3)
    z7 = PermGroup(7, [Permutation(tuple((i + 1) % 7 for i in range(7)))])
    sts9 = steiner_triple_system(9)
    plan = CompositionPlan(fano(), sts9, sts9.block_tuples()[0],
                           td_supplier=lambda k, _: mols_td(k, n), group=z7)
    with pytest.raises(BadParams):
        product_design_1blocked(plan, check=False)


def test_1blocked_product_rejects_even_group():
    # an involution cannot be 1-blocked (it fixes the block through a swapped pair)
    from steinerkit.design import brute_aut

    f = fano()
    inv = next(g for g in brute_aut(f).elements() if g.order() == 2)
    plan = CompositionPlan(f, steiner_triple_system(9),
                           steiner_triple_system(9).block_tuples()[0],
                           group=PermGroup(7, [inv]))
    with pytest.raises(BadParams, match="group is not 1-blocked, witness: "):
        product_design_1blocked(plan)


def test_1blocked_product_with_multiplier_subgroup_w():
    # induction-step shape: the small factor is itself a constructed design
    # carrying a 1-blocked odd group (here Z3 inside the order-57 multiplier
    # group, which is regular on blocks, so every subgroup is 1-blocked)
    base = build_base_design(19, 3, (0, 1, 4))
    z3 = PermGroup(19, [Permutation(tuple(7 * x % 19 for x in range(19)))])
    assert z3.order() == 3
    sts9 = steiner_triple_system(9)
    plan = CompositionPlan(base.design, sts9, sts9.block_tuples()[0], group=z3)
    d, bar = product_design_1blocked(plan)
    assert d.v == 3 + 19 * 6 == 117
    assert verify_2design(d).ok
    ok, _ = is_1_blocked(d, bar)
    assert ok


@pytest.fixture(scope="module")
def sts21_with_z3():
    shift = Permutation(tuple((i + 7) % 21 for i in range(21)))
    orbit_blocks = [(i, i + 7, i + 14) for i in range(7)]
    w = km_search(21, 3, PermGroup(21, [shift]), forced_blocks=orbit_blocks)
    return w, shift


def test_cyclic_product_sts379(sts21_with_z3):
    w, shift = sts21_with_z3
    y = steiner_triple_system(19)
    bundle = cyclic_td(3, 18)
    d, cbar = cyclic_product_design(w, shift, y, bundle.td, bundle.rotator)
    assert d.v == 1 + 21 * 18 == 379
    assert d.b == 379 * 378 // 6
    assert verify_2design(d).ok
    gen = cbar.generators[0]
    assert gen.order() == 3
    for g in cbar.elements():
        if not g.is_identity():
            assert is_automorphism(d, g)
            assert g.fixed_points() == (0,)


def test_cyclic_product_trivial_group_matches_plain_product(sts21_with_z3):
    w, _ = sts21_with_z3
    y = steiner_triple_system(19)
    bundle = cyclic_td(3, 18)
    d1, _ = cyclic_product_design(w, Permutation.identity(21), y, bundle.td, None)
    d2 = product_design(CompositionPlan(w, y, (0,), td_supplier=lambda *_: bundle.td))
    assert d1 == d2


def test_cyclic_product_requires_rotator_for_stabilized_blocks(sts21_with_z3):
    w, shift = sts21_with_z3
    y = steiner_triple_system(19)
    bundle = cyclic_td(3, 18)
    with pytest.raises(BadParams, match="needs a group-rotating TD automorphism"):
        cyclic_product_design(w, shift, y, bundle.td, None)
    # the group-fixing translation power is order 3 but does not rotate groups
    alpha = bundle.translation
    power = alpha * alpha * alpha * alpha * alpha * alpha  # order 18 -> 6th power has order 3
    assert power.order() == 3
    with pytest.raises(BadParams, match="td_rotator must be semiregular on points"):
        cyclic_product_design(w, shift, y, bundle.td, power)


def test_cyclic_product_rejects_non_semiregular_cw(sts21_with_z3):
    w, _ = sts21_with_z3
    y = steiner_triple_system(19)
    bundle = cyclic_td(3, 18)
    # an order-3 automorphism of W with fixed points would violate the contract;
    # simplest violation: a permutation that is not an automorphism at all
    bad = Permutation.from_cycles(21, [(0, 1, 2)])
    with pytest.raises(BadParams, match="c_w is not an automorphism of W"):
        cyclic_product_design(w, bad, y, bundle.td, bundle.rotator)


def test_cyclic_product_refusals_name_the_condition():
    w, td = fano(), cyclic_td(3, 6).td
    involution = next(g for g in brute_aut(w).elements() if g.order() == 2)
    doubling = Permutation(tuple(2 * x % 7 for x in range(7)))  # fixes 0, order 3
    cases = [
        ((w, Permutation.identity(7), steiner_triple_system(9), td, None),
         "ingredients disagree on k or the TD group size"),
        ((w, involution, w, td, None), "c_w must have order 3 (or 1), got 2"),
        ((w, doubling, w, td, None), "c_w must be semiregular on W's points"),
        ((w, Permutation.identity(7), w, td, Permutation.identity(18)),
         "td_rotator must be an order-k TD automorphism"),
    ]
    for args, message in cases:
        with pytest.raises(BadParams) as caught:
            cyclic_product_design(*args)
        assert str(caught.value) == message


def test_cyclic_product_refuses_a_broken_td():
    td = cyclic_td(3, 6).td
    blocks = td.blocks.copy()
    # blocks (0, 6, 12) and (0, 7, 13) swap their group-2 points: pairs
    # {6, 12} and {7, 13} lose their block, {6, 13} and {7, 12} get a second
    blocks[[0, 1], 2] = blocks[[1, 0], 2]
    bad = TransversalDesign(3, 6, td.groups, blocks)
    with pytest.raises(AxiomViolation, match="2 point pairs lie in no group or block"):
        cyclic_product_design(steiner_triple_system(9), Permutation.identity(9),
                              steiner_triple_system(7), bad, None, check=False)
