from __future__ import annotations

import hashlib

import numpy as np
import pytest

from steinerkit import netstd, textfile
from steinerkit.errors import AxiomViolation, BadParams, Unavailable
from steinerkit.netstd import (
    Net,
    TransversalDesign,
    cyclic_td,
    mols_td,
    net_file,
    net_from_affine_plane,
    net_product,
    semilinear_net,
    td_file,
    verify_net,
    verify_td,
)
from steinerkit.permgrp import PermGroup, Permutation, is_semiregular, set_images


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
    with pytest.raises(BadParams, match=r"need a prime power n and 3 <= k <= n\+1, got n=6, k=3"):
        net_from_affine_plane(6, 3)
    with pytest.raises(BadParams, match=r"need a prime power n and 3 <= k <= n\+1, got n=5, k=7"):
        net_from_affine_plane(5, 7)


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


def test_semilinear_net_rejects_small_q():
    with pytest.raises(BadParams, match="need 3 <= k < q, got k=3, q=3"):
        semilinear_net(3, 3, 3)
    with pytest.raises(BadParams, match="q and m must be powers > 1 of the same prime"):
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
    with pytest.raises(BadParams, match="all factors must share the class count k"):
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
    moved = [c for c in range(3) if (alpha.images[td.groups[c]] != td.groups[c]).any()]
    assert moved == [0, 2]
    moved_points = td.groups[moved].ravel().tolist()
    block_perm = Permutation(set_images(td.blocks, [alpha])[0])
    ok, _ = is_semiregular(PermGroup.cyclic_from(block_perm), range(36))
    assert ok
    ok, _ = is_semiregular(PermGroup.cyclic_from(alpha), moved_points)
    assert ok
    # groups are fixed setwise
    assert td.group_action(alpha).is_identity()


@pytest.mark.parametrize("degree", [4, 12])
def test_induced_actions_refuse_a_permutation_of_the_wrong_degree(degree):
    net = net_from_affine_plane(3, 3)
    td = cyclic_td(3, 3).td
    wrong = Permutation.identity(degree)
    with pytest.raises(BadParams, match=f"degree {degree} on 9 points"):
        net.line_action(wrong)
    with pytest.raises(BadParams, match=f"degree {degree} on 9 points"):
        td.group_action(wrong)
    assert not td.is_automorphism(wrong)


def test_td_and_net_fields_are_read_only_int64_arrays():
    net = net_from_affine_plane(3, 3)
    td = cyclic_td(3, 3).td
    for table, shape in [(net.lines, (9, 3)), (net.classes, (3, 3)),
                         (td.groups, (3, 3)), (td.blocks, (9, 3))]:
        assert table.dtype == np.int64 and table.shape == shape
        assert not table.flags.writeable


@pytest.mark.parametrize("build,what", [
    (lambda: TransversalDesign(3, 1, [(0,), (1,), (2, 3)], [(0, 1, 2)]), "group"),
    (lambda: TransversalDesign(3, 1, [(0,), (1,), (2,)], [(0, 1, 2.0)]), "block"),
    (lambda: Net(2, 3, [(0, 1), (2,)], [(0, 1)]), "line"),
    (lambda: Net(2, 3, [(0, 1), (2, 3)], [("a", "b")]), "class"),
])
def test_ragged_or_non_integer_rows_are_refused(build, what):
    with pytest.raises(AxiomViolation, match=f"malformed {what}"):
        build()


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
        assert ga.images.tolist() in ([1, 2, 0], [2, 0, 1])


def test_cyclic_td_bad_coprimality():
    with pytest.raises(BadParams, match="shares a factor with 6"):
        cyclic_td(5, 6)


def test_cyclic_td_3_36_power_of_translation():
    result = cyclic_td(3, 36)
    alpha = result.translation
    cube = alpha
    for _ in range(12 - 1):
        cube = cube * alpha
    assert cube.order() == 3
    block_perm = Permutation(set_images(result.td.blocks, [cube])[0])
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


def test_mols_td_verifies_only_the_td_it_returns(monkeypatch):
    calls = []
    monkeypatch.setattr(netstd, "verify_td", lambda td: calls.append((td.k, td.n)) or verify_td(td))
    for k, n in [(3, 6), (4, 9), (3, 1)]:
        calls.clear()
        td = mols_td(k, n)
        assert calls == [(k, n)]
        assert (td.k, td.n) == (k, n)


def test_semilinear_net_over_gf729():
    # GF(3^6) needs an irreducible modulus; x^6 + x + 1 has the root 1
    result = semilinear_net(9, 3, 3)
    assert result.net.point_count == 729 ** 2 and len(result.net.lines) == 3 * 729
    verify_net(result.net)
    assert result.g.order() == 9 and result.c.order() == 3


def test_mols_td_unavailable():
    with pytest.raises(Unavailable):
        mols_td(4, 6)


def test_mols_td_full_plane_k_eq_m_plus_1():
    td = mols_td(4, 3)
    verify_td(td)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _file_text(file) -> str:
    """The text ``textfile.write`` writes for a ``td_file`` or ``net_file``."""
    return b"".join(textfile.chunks(*file)).decode()


def _fingerprints():
    """sha256 of the file text of each construction and of the images of the
    automorphisms it carries.  Every row is stored sorted, so the text pins
    the stored rows in their order too."""
    out = {}

    def pin_td(name, td):
        assert all(list(r) == sorted(r) for r in [*td.groups.tolist(), *td.blocks.tolist()]), name
        out[name] = _sha256(_file_text(td_file(td)))

    def pin_net(name, net):
        assert all(r == sorted(r) for r in net.lines.tolist()), name
        out[name] = _sha256(_file_text(net_file(net)))

    def pin_perm(name, perm):
        out[name] = _sha256(",".join(map(str, perm.images)))

    for k, n in [(3, 6), (4, 9), (4, 3), (5, 16), (4, 25), (6, 49), (3, 1), (3, 12), (3, 2)]:
        pin_td(f"mols_td({k},{n})", mols_td(k, n))
    for k, n in [(3, 6), (3, 18), (3, 36), (4, 5), (5, 7), (3, 1)]:
        c = cyclic_td(k, n)
        pin_td(f"cyclic_td({k},{n})", c.td)
        pin_perm(f"cyclic_td({k},{n}).translation", c.translation)
        if c.rotator is not None:
            pin_perm(f"cyclic_td({k},{n}).rotator", c.rotator)
    for n, k in [(3, 3), (4, 3), (5, 6), (9, 4), (8, 9), (7, 8), (16, 5)]:
        pin_net(f"net_from_affine_plane({n},{k})", net_from_affine_plane(n, k))
    for q, m, k in [(4, 2, 3), (8, 2, 3), (4, 4, 3)]:
        sl = semilinear_net(q, m, k)
        pin_net(f"semilinear_net({q},{m},{k})", sl.net)
        pin_perm(f"semilinear_net({q},{m},{k}).g", sl.g)
        pin_perm(f"semilinear_net({q},{m},{k}).c", sl.c)
    sl = semilinear_net(4, 2, 3)
    n3 = net_from_affine_plane(3, 3)
    shift = Permutation(tuple((x + 1) % 3 * 3 + y for x in range(3) for y in range(3)))
    for name, factors in [("semilinear x plane", [(sl.net, sl.c), (n3, None)]),
                          ("plane x plane", [(n3, shift), (net_from_affine_plane(4, 3), None)])]:
        prod = net_product(factors)
        pin_net(f"net_product({name})", prod.net)
        pin_perm(f"net_product({name}).automorphism", prod.automorphism)
    return out


# sha256 values recorded before the constructions became array expressions
_PINNED = {
    "mols_td(3,6)":
        "c62e94da59ca3c719188649455ccd3eef30a991f58c837575bbd37afd4f0e7f2",
    "mols_td(4,9)":
        "95bbee0ddbb8c6d39ffc4b51399c33bc2a4e9a8ca18fcf8558460f19988f8c42",
    "mols_td(4,3)":
        "bc926cbfb34a4164809ccd128522e5c1372b2a5bb59d6505a77452b74262e09b",
    "mols_td(5,16)":
        "926b232303b8ac17f96224757aedc047e815405eb1b232edfd488c2b8debc60b",
    "mols_td(4,25)":
        "c77225bffc4fb545a52b4f494d5ca1bad17468db8446ef9a93e2b7c844dc1394",
    "mols_td(6,49)":
        "0f9d45251cd10fe018b2411b0457af06b9a367dc73df90e9309e6ba9ae5de742",
    "mols_td(3,1)":
        "fa83db1886a01158310d66022712c9f6c2ddcc0e272257c116685edbced385b8",
    "mols_td(3,12)":
        "d4a9ca594d7ff50085272042324a645538608376e3a12cc4897e62febfa36158",
    "mols_td(3,2)":
        "4053d4b0cf943eae676326b642a0d0cfcd343679cde00b6e68fa24b2b869b5b4",
    "cyclic_td(3,6)":
        "7973c058db99775d8da4122e82cb25dd65dcd453ef42bdb2d610614a5ff2aeec",
    "cyclic_td(3,6).translation":
        "ffd43d2dae13f65be84b58ee156c5f0c0c969b8e5c67fe7b07d9c4fbdb32a7d5",
    "cyclic_td(3,6).rotator":
        "ac44503616239826c4a13042033e6ab2f41aa5b1c153a635bc2d5d5536b81f03",
    "cyclic_td(3,18)":
        "862114c7c4d15fe5a77e7732d2b197ba9e27989d0039a2cee03c52f24510f05c",
    "cyclic_td(3,18).translation":
        "7ee68de6874ae6ae71b43012e3ba2b24907734e30705fc1f4af9593978ca6bf3",
    "cyclic_td(3,18).rotator":
        "a33d6843e09bccb9e2a427affce1ae1fa717477c7610693e9c0b08321992692b",
    "cyclic_td(3,36)":
        "56b47f6fea472f6baf69a4bcfbdcaaebb7fc2d086d3b87a65bc0a18472c4e1a1",
    "cyclic_td(3,36).translation":
        "966f172b5da6085a5c9bf62b4d077c4f8f972548c6398e6f60d2f82dacc005c6",
    "cyclic_td(3,36).rotator":
        "c45a79ceca1fa5347732f283eae6e9db0997b4b5fce511d946dcad8263a4666f",
    "cyclic_td(4,5)":
        "6e1df7563a375758c43ba841eee60430740205445c2037c517563705cd963699",
    "cyclic_td(4,5).translation":
        "a849cc69e170ba48922f66a427c1f50c7df30744ac18f665d06a3b2e95a68f35",
    "cyclic_td(5,7)":
        "163a651424b9f0af8b476b3d6b1d813f13843a2e94d1ea96573ece2652c881ed",
    "cyclic_td(5,7).translation":
        "57e2e30f66a7e9acdad43c4b6b6e63ca86beb88dc9513c8152de4d615bdad303",
    "cyclic_td(3,1)":
        "fa83db1886a01158310d66022712c9f6c2ddcc0e272257c116685edbced385b8",
    "cyclic_td(3,1).translation":
        "c0be322c1ad6af50f418b96232d98fe25a36d5d0a557291833f8248f2084b8ef",
    "net_from_affine_plane(3,3)":
        "04622332489e5a750566faa9a69c107c2aff76e759d7afa75e1f395dd9ba4648",
    "net_from_affine_plane(4,3)":
        "782348905ea9c9e3298adba57e7635ec4c5902381bedc42569d4a81c4e1be276",
    "net_from_affine_plane(5,6)":
        "190017f2688a7977329a47b07a0a281d11df9d71f5bdbd42173e0eeacecc13ac",
    "net_from_affine_plane(9,4)":
        "3c8bfacd87860a2511a26e2f69acbdfe60342d7a8cf5635cd1ff50ef46116772",
    "net_from_affine_plane(8,9)":
        "7020964e75a003d210474039c14eab299be3ab84c2057d6ed0aea771a4fd33b0",
    "net_from_affine_plane(7,8)":
        "9c5d35a3ae11e99aecae5a84f75c9381ed13e94fecb9d04f8e05e76822918483",
    "net_from_affine_plane(16,5)":
        "3098a6af2ff9f7ee9b7b3ef227a0a2febf97448f7aa52a0d72dba524c131d7a2",
    "semilinear_net(4,2,3)":
        "f65f87f77064c1cb16f13201de8f5fae92f772113a0f91d95189438acebac2b9",
    "semilinear_net(4,2,3).g":
        "6c30d239edb0be2775ac626a598d4e1d6bcdaaa42cfe67b9ae87c78f105aa311",
    "semilinear_net(4,2,3).c":
        "4059c4e86c98558b409b23857cf31702b6ebbdf7bfe6837ec40138363cbe1892",
    "semilinear_net(8,2,3)":
        "7db3b6fdd774c71fca1206defb2d3ac36f972fbbd5927c59695f199f558dbdcb",
    "semilinear_net(8,2,3).g":
        "e71f4633e90194bd23edde1f829cace360647d7fd71e4fc7ac10b9d1386d7663",
    "semilinear_net(8,2,3).c":
        "7b05683739523d2f879d3c0e5629ac203808d7632a2e9f0979962f4e307f6b2c",
    "semilinear_net(4,4,3)":
        "88ee64de2dc572d77bfdbb17ade608823142d55872e54610dc285332f9386f33",
    "semilinear_net(4,4,3).g":
        "a04f729ca6aafb3da84361aa7dd994d45fe0cad3bd37bc9df5bc078153c4cda8",
    "semilinear_net(4,4,3).c":
        "9d3f816f0f51a3528f0235deae7a3236c073c737b20ec9dd2127b6e90f650699",
    "net_product(semilinear x plane)":
        "429718fb52f34045dcb3dfab0faa9a17c0c7705889ff8587f9064bcf96270282",
    "net_product(semilinear x plane).automorphism":
        "9be564164677fa2c0dd953883c8916d239de5c08ce2162fa697dfdad15424442",
    "net_product(plane x plane)":
        "aab55cdf7aacf863f5001a02eae8cb59fd3db9bc0bc134a698747f3ac618d7a4",
    "net_product(plane x plane).automorphism":
        "9620e4d26c53d8b8ecd417f00db13d1cd7110f199b2639c8595c390475427a94",
}


def test_constructions_are_byte_pinned():
    assert _fingerprints() == _PINNED
