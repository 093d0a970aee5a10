"""Digest pins: every orbit-based construction route reproduces its design
byte for byte (the odd lift's pin sits with its fixture in
test_acceptance.py)."""
from __future__ import annotations

import math

import pytest

from steinerkit import affinelift, basedesigns, compose, netstd, paramsearch
from steinerkit.certify import certify
from steinerkit.permgrp import PermGroup, Permutation

STS45 = "d6b0c4253ec2c6b2b7410d19ae7c21b1da123e5a567f9713c977a3f094ed1324"


def fano():
    return basedesigns.build_base_design(7, 3, (0, 1, 3)).design


def test_aligned_z2_lift_sts361():
    # as `construct-aligned --k 3` builds it: Z2 on two coordinates, the
    # ingredient searched under the canonical order-(k-1) generator
    k = 3
    group = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    p, _ = paramsearch.prime_for_even_group(k, math.lcm(group.order(), 4))
    images = list(range(p))
    for j in range(1, p, k - 1):
        images[j], images[j + 1] = j + 1, j
    cyc = Permutation(tuple(images))
    ingredient = basedesigns.km_search(p, k, PermGroup(p, [cyc]))
    d = affinelift.lift_aligned(group, p, k, ingredient, cyc).design
    assert d.digest() == "0c0aa9c3557fd0af003be3a43d1035ab0f60bea8f8e2f8f2b3e0bce9acdb2802"


@pytest.mark.parametrize("d, b, digest", [
    (2, 2_366, "714abe6651a01149ff45b4afdd84c5edf2b80ff51e68ae460ca00917fe7ff32f"),
    (3, 402_051, "14c7e12e9653997de38424a8d6034d2aaf489badeb8525a21b432b1e6272708f"),
])
def test_odd_lift_k4_on_ag_13(d, b, digest):
    # the trivial group on AG(d,13), filled with the orbit design of the
    # Wilson block (0, 1, 3, 9): k=4 rows of 8 and 12 bits a point
    base = basedesigns.build_base_design(13, 4, basedesigns.wilson_base_block(13, 4))
    result = affinelift.lift_odd(PermGroup.trivial(d), 13, 4, base)
    log = certify(result.design, result.group, one_blocked=True)
    assert [(c.name, c.ok) for c in log] == [
        ("pairs_once", True), ("group_is_automorphisms", True), ("one_blocked", True)]
    assert result.design.b == b
    assert result.design.digest() == digest


@pytest.mark.parametrize("s_min, v, digest", [
    (1, 379, "b320f9998b7dcae2de95c5c1901ab52d52853bf4ad68a296b1c991d9a819afb5"),
    (2, 757, "3932413d5d9e557f7e8d5571af025dee2c0949beeecac60efe928f6acbc6e30d"),
])
def test_cyclic_pipeline(s_min, v, digest):
    # as `compose --mode cyclic --k 3 --h 2 --s-min <s_min>` builds it
    params = paramsearch.cyclic_assembly_params(3, 2, s_min=s_min)
    q = params.w // 3
    shift = Permutation(tuple((i + q) % params.w for i in range(params.w)))
    orbit_blocks = [(i, i + q, i + 2 * q) for i in range(q)]
    w = basedesigns.km_search(params.w, 3, PermGroup(params.w, [shift]),
                              forced_blocks=orbit_blocks)
    y = basedesigns.steiner_triple_system(params.y)
    bundle = netstd.cyclic_td(3, params.y - 1)
    d, _ = compose.cyclic_product_design(w, shift, y, bundle.td, bundle.rotator,
                                         check=False)
    assert d.v == v
    assert d.digest() == digest


def test_one_blocked_product_sts45():
    sts9 = basedesigns.steiner_triple_system(9)
    z7 = PermGroup(7, [Permutation(tuple((i + 1) % 7 for i in range(7)))])
    plan = compose.CompositionPlan(fano(), sts9, sts9.block_tuples()[0],
                                   td_supplier=netstd.mols_td, group=z7)
    d, _ = compose.product_design_1blocked(plan, check=False)
    assert d.digest() == STS45


def test_plain_product_sts45():
    sts9 = basedesigns.steiner_triple_system(9)
    d = compose.product_design(compose.CompositionPlan(fano(), sts9, sts9.block_tuples()[0]))
    assert d.digest() == STS45


def test_plain_product_fano_squared_v43():
    d = compose.product_design(compose.CompositionPlan(fano(), fano(), (0,)))
    assert d.v == 43
    assert d.digest() == "3d6c2b23007c50e0dd7ee0e34eef093c01fdc363eb13cc461ed43264aaf7a430"
