from __future__ import annotations

import math

import pytest

from steinerkit.errors import (
    AxiomViolation,
    BadCoprimality,
    BadOrder,
    DegreeMismatch,
    ParseError,
    TooFewSlopes,
    Unavailable,
)
from steinerkit.netstd import (
    CyclicTd,
    Net,
    TransversalDesign,
    cyclic_td,
    dualize,
    dualize_td,
    mols_td,
    net_from_affine_plane,
    net_from_text,
    net_product,
    net_to_text,
    semilinear_net,
    td_from_text,
    td_to_text,
    verify_net,
    verify_td,
)
from steinerkit.permgrp import PermGroup, Permutation, is_semiregular


def test_net_from_affine_plane_order3():
    net = net_from_affine_plane(3, 3)
    assert net.point_count == 9 and len(net.lines) == 9
    verify_net(net)


def test_net_from_affine_plane_order4():
    net = net_from_affine_plane(4, 3)
    assert net.point_count == 16 and len(net.lines) == 12
    verify_net(net)


def test_net_full_affine_plane_order5():
    net = net_from_affine_plane(5, 6)
    assert len(net.lines) == 30
    verify_net(net)


def test_net_bad_order():
    with pytest.raises(BadOrder):
        net_from_affine_plane(6, 3)
    with pytest.raises(BadOrder):
        net_from_affine_plane(5, 7)


def test_dualize_round_trip():
    net = net_from_affine_plane(3, 3)
    td = dualize(net)
    assert (td.k, td.n) == (3, 3)
    assert len(td.blocks) == 9
    verify_td(td)
    back = dualize_td(td)
    assert back == net


def test_dualize_transports_automorphisms():
    # a translation of the plane acts on the net; its line action is an
    # automorphism of the dual TD and conjugates through the duality
    net = net_from_affine_plane(3, 3)
    shift = Permutation(tuple((x + 1) % 3 * 3 + y for x in range(3) for y in range(3)))
    line_perm = net.line_action(shift)
    td = dualize(net)
    assert td.is_automorphism(line_perm)
    assert td.block_action(line_perm).degree == 9


def test_semilinear_net_q4_m2_k3():
    result = semilinear_net(4, 2, 3)
    net = result.net
    assert net.point_count == 256
    assert len(net.lines) == 48
    verify_net(net)
    assert result.g.order() == 4  # p*m
    assert result.c.order() == 2
    # c is semiregular on points and on lines, and fixes every class
    ok, _ = is_semiregular(PermGroup.cyclic_from(result.c), range(256))
    assert ok
    line_perm = net.line_action(result.c)
    ok, _ = is_semiregular(PermGroup.cyclic_from(line_perm), range(48))
    assert ok
    for members in net.classes:
        assert {int(line_perm.images[i]) for i in members} == set(members)


def test_semilinear_net_dualizes_with_transported_automorphism():
    result = semilinear_net(4, 2, 3)
    td = dualize(result.net)
    assert (td.k, td.n) == (3, 16)
    transported = result.net.line_action(result.c)
    assert td.is_automorphism(transported)
    block_perm = td.block_action(transported)
    ok, _ = is_semiregular(PermGroup.cyclic_from(block_perm), range(len(td.blocks)))
    assert ok


def test_semilinear_net_rejects_small_q():
    with pytest.raises(TooFewSlopes):
        semilinear_net(3, 3, 3)
    with pytest.raises(BadOrder):
        semilinear_net(4, 3, 3)


def test_net_product_two_order3_nets():
    n3 = net_from_affine_plane(3, 3)
    prod = net_product([(n3, None), (n3, None)])
    assert prod.net.n == 9
    assert len(prod.net.lines) == 27
    verify_net(prod.net)
    assert prod.automorphism.is_identity()


def test_net_product_with_semilinear_factor():
    sl = semilinear_net(4, 2, 3)
    n3 = net_from_affine_plane(3, 3)
    prod = net_product([(sl.net, sl.c), (n3, None)])
    net = prod.net
    assert net.n == 48 and net.point_count == 2304
    assert len(net.lines) == 144
    verify_net(net)
    assert prod.automorphism.order() == 2
    ok, _ = is_semiregular(PermGroup.cyclic_from(prod.automorphism), range(2304))
    assert ok
    line_perm = net.line_action(prod.automorphism)
    ok, _ = is_semiregular(PermGroup.cyclic_from(line_perm), range(144))
    assert ok


def test_net_product_single_factor_identity_op():
    n3 = net_from_affine_plane(3, 3)
    prod = net_product([(n3, None)])
    assert prod.net == n3


def test_net_product_degree_mismatch():
    n3 = net_from_affine_plane(3, 3)
    n4 = net_from_affine_plane(4, 4)
    with pytest.raises(DegreeMismatch):
        net_product([(n3, None), (n4, None)])


def test_cyclic_td_3_6():
    result = cyclic_td(3, 6)
    td = result.td
    verify_td(td)
    assert len(td.blocks) == 36
    alpha = result.translation
    assert td.is_automorphism(alpha)
    assert alpha.order() == 6
    # every nontrivial power is semiregular on blocks and on moved-group points
    moved_points = [p for c in result.moved_groups for p in td.groups[c]]
    block_perm = td.block_action(alpha)
    ok, _ = is_semiregular(PermGroup.cyclic_from(block_perm), range(36))
    assert ok
    ok, _ = is_semiregular(PermGroup.cyclic_from(alpha), moved_points)
    assert ok
    # groups are fixed setwise
    assert td.group_action(alpha).is_identity()


def test_cyclic_td_rotator_properties():
    for n in (6, 18, 36):
        result = cyclic_td(3, n)
        rho = result.rotator
        assert rho is not None and rho.order() == 3
        assert result.td.is_automorphism(rho)
        # semiregular on all points, transitive rotation of the three groups
        ok, _ = is_semiregular(PermGroup.cyclic_from(rho), range(3 * n))
        assert ok
        ga = result.td.group_action(rho)
        assert ga.images in {(1, 2, 0), (2, 0, 1)}


def test_cyclic_td_bad_coprimality():
    with pytest.raises(BadCoprimality):
        cyclic_td(5, 6)


def test_cyclic_td_3_36_power_of_translation():
    result = cyclic_td(3, 36)
    alpha = result.translation
    cube = alpha
    for _ in range(12 - 1):
        cube = cube * alpha
    assert cube.order() == 3
    block_perm = result.td.block_action(cube)
    ok, _ = is_semiregular(PermGroup.cyclic_from(block_perm), range(36 * 36))
    assert ok


def test_mols_td_product_3_6():
    td = mols_td(3, 6)
    assert (td.k, td.n) == (3, 6)
    verify_td(td)


def test_mols_td_field_4_9():
    td = mols_td(4, 9)
    verify_td(td)
    assert (td.k, td.n) == (4, 9)


def test_mols_td_unavailable():
    with pytest.raises(Unavailable):
        mols_td(4, 6)


def test_mols_td_full_plane_k_eq_m_plus_1():
    td = mols_td(4, 3)
    verify_td(td)


def test_td_text_round_trip():
    td = cyclic_td(3, 4).td
    text = td_to_text(td)
    back = td_from_text(text)
    verify_td(back)
    assert back.k == td.k and back.n == td.n
    assert {frozenset(b) for b in back.blocks} == {frozenset(b) for b in td.blocks}


def test_net_text_round_trip():
    net = net_from_affine_plane(3, 3)
    text = net_to_text(net)
    back = net_from_text(text)
    verify_net(back)
    assert {frozenset(l) for l in back.lines} == {frozenset(l) for l in net.lines}


def test_td_reader_names_a_non_integer_line():
    with pytest.raises(ParseError) as exc:
        td_from_text("TD k=3 n=1\n0\n1\n# comment\n2\n0 1 x\n")
    assert exc.value.line_no == 6


def test_net_reader_names_a_non_integer_line():
    text = net_to_text(net_from_affine_plane(3, 3)).replace("1 4 7", "1 4 x")
    with pytest.raises(ParseError) as exc:
        net_from_text(text)
    assert exc.value.line_no == 3
