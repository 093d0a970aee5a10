"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is exact;
runtime bounds are asserted where the criterion states one.
"""
from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from steinerkit.affinelift import lift_aligned, lift_odd
from steinerkit.basedesigns import (
    BaseBlockDesign,
    affine_maps,
    build_base_design,
    inequivalent_variants,
    km_search,
    steiner_triple_system,
    wilson_base_block,
)
from steinerkit.compose import (
    CompositionPlan,
    cyclic_product_design,
    product_design_1blocked,
)
from steinerkit.design import (
    Design,
    brute_aut,
    is_1_blocked,
    is_automorphism,
    iso_in_group,
    verify_2design,
)
from steinerkit.errors import PlantRejected
from steinerkit.gf import ExtFieldCtx, semilinear_map, trace
from steinerkit.netstd import cyclic_td, mols_td, net_product, semilinear_net
from steinerkit.paramsearch import (
    cyclic_assembly_params,
    is_admissible,
    prime_for_even_group,
    prime_for_odd_group,
    spectrum_bound,
    spectrum_plan,
    witness_for,
)
from steinerkit.permgrp import PermGroup, Permutation, is_semiregular, orbit_sweep, set_images


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_small_design_sanity():
    start = time.perf_counter()
    fano = build_base_design(7, 3, (0, 1, 3)).design
    sts9 = steiner_triple_system(9)
    ok = verify_2design(fano).ok and verify_2design(sts9).ok
    a1 = brute_aut(fano).order()
    a2 = brute_aut(sts9).order()
    elapsed = time.perf_counter() - start
    ok = ok and a1 == 168 and a2 == 432 and elapsed < 1.0
    _report(1, ok, f"Fano/STS(9) verified, |Aut| = {a1}/{a2}, {elapsed:.2f}s")


def test_criterion_02_base_design_p19():
    start = time.perf_counter()
    block = wilson_base_block(19, 3)
    base = build_base_design(19, 3, block)
    ok = block == (0, 1, 4) and base.design.b == 57
    ok = ok and verify_2design(base.design).ok
    grp = base.aut_group
    ok = ok and grp.order() == 57
    blocks = base.design.block_tuples()
    reps, _ = orbit_sweep(set_images(base.design.blocks, grp.generators))
    ok = ok and len(reps) == 1  # regular: one orbit of length 57
    trivial_stabs = all(
        sum(1 for g in grp.elements()
            if tuple(sorted(g.images[x] for x in blk)) == blk) == 1
        for blk in blocks)
    elapsed = time.perf_counter() - start
    ok = ok and trivial_stabs and elapsed < 1.0
    _report(2, ok, f"base block {block}, 57 blocks verified, multiplier group "
                   f"regular on blocks, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def odd_lift_instance():
    base = build_base_design(19, 3, (0, 1, 4))
    group = PermGroup(3, [Permutation.from_cycles(3, [(0, 1, 2)])])
    start = time.perf_counter()
    result = lift_odd(group, 19, 3, base)
    return result, time.perf_counter() - start


def test_criterion_03_odd_group_line_filling(odd_lift_instance):
    result, build_time = odd_lift_instance
    start = time.perf_counter()
    d = result.design
    ok = d.v == 6859 and d.b == 7_839_837
    rep = verify_2design(d)
    pairs = d.v * (d.v - 1) // 2
    ok = ok and rep.ok and pairs == 23_519_511
    ok = ok and all(is_automorphism(d, g) for g in result.group.generators)
    blocked, witness = is_1_blocked(d, result.group)
    ok = ok and blocked
    elapsed = build_time + time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _report(3, ok, f"v=6859, b=7,839,837 verified exactly ({pairs:,} pairs), "
                   f"Z3 automorphisms, 1-blocked, {elapsed:.1f}s")


def test_odd_lift_digest(odd_lift_instance):
    result, _ = odd_lift_instance
    assert result.design.digest() == (
        "74fa12f729693e8e85712e22c69c236995c1576eb03185450bc720be840c972c")


def test_large_design_file_round_trip(odd_lift_instance):
    from steinerkit.design import parse, serialize
    result, _ = odd_lift_instance
    text = serialize(result.design)
    back = parse(text)
    assert back.digest() == result.design.digest()


def test_lift_odd_rejects_ingredient_without_multiplier_symmetry():
    # scrambling the base design breaks the symmetry a stabilized line needs;
    # the plant step must detect it rather than emit a broken design
    base = build_base_design(19, 3, (0, 1, 4))
    scramble = Permutation.from_cycles(19, [(1, 2)])
    mutated = BaseBlockDesign(base.p, base.k, base.t, base.subgroup,
                              base.base_block, base.design.relabel(scramble))
    group = PermGroup(3, [Permutation.from_cycles(3, [(0, 1, 2)])])
    with pytest.raises(PlantRejected):
        lift_odd(group, 19, 3, mutated)


@pytest.fixture(scope="module")
def aligned_ingredient():
    start = time.perf_counter()
    inv = Permutation(tuple((-x) % 19 for x in range(19)))
    d = km_search(19, 3, PermGroup(19, [inv]))
    return d, inv, time.perf_counter() - start


def test_criterion_04_aligned_line_filling(aligned_ingredient):
    ingredient, inv, search_time = aligned_ingredient
    p, n = prime_for_even_group(3, 4)
    ok = (p, n) == (19, 9)
    ok = ok and p == 1 + 2 * n                      # (i)
    ok = ok and n * (n - 1) % 3 == 0                # (ii)
    ok = ok and n * (n - 1) % 12 == 0               # (iii), k = 3 mod 4
    import math
    ok = ok and math.gcd(p - 1, 4) == math.gcd(2, 4)  # (iv)
    ok = ok and search_time < 600.0
    ok = ok and len(inv.fixed_points()) == 1 and is_automorphism(ingredient, inv)
    start = time.perf_counter()
    group = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    result = lift_aligned(group, 19, 3, ingredient, inv)
    d = result.design
    ok = ok and d.v == 361 and verify_2design(d).ok
    ok = ok and all(is_automorphism(d, g) for g in result.group.generators)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(4, ok, f"(p,n)=(19,9) conditions (i)-(iv) verified, STS(361) with "
                   f"Z2 automorphisms, search {search_time:.1f}s + lift {elapsed:.1f}s")


def test_criterion_05_semilinear_maps_exhaustive():
    ctx4 = ExtFieldCtx.create(2, 2)
    omega = ctx4.from_index(2)
    h4 = semilinear_map(ctx4, 2, 2, omega)
    ok = h4.order() == 4 and len(h4.cycles()) == 1 and len(h4.cycles()[0]) == 4

    ctx27 = ExtFieldCtx.create(3, 3)
    a = next(x for x in ctx27.all_elements() if not trace(x, 3, 3).is_zero())
    h27 = semilinear_map(ctx27, 3, 3, a)
    ok = ok and h27.order() == 9
    power = h27
    for i in range(1, 9):
        ok = ok and not power.fixed_points()
        power = power * h27
    _report(5, ok, "x -> x^q + a has order p*m and every proper power is "
                   "fixed-point-free on GF(4) and GF(27)")


def test_criterion_06_semilinear_net_exhaustive():
    start = time.perf_counter()
    result = semilinear_net(4, 2, 3)
    net = result.net
    ok = net.point_count == 256 and len(net.lines) == 48
    ok = ok and result.g.order() == 4 and result.c.order() == 2
    sr_pts, _ = is_semiregular(PermGroup.cyclic_from(result.c), range(256))
    line_perm = net.line_action(result.c)
    sr_lines, _ = is_semiregular(PermGroup.cyclic_from(line_perm), range(48))
    classes_fixed = all({int(line_perm.images[i]) for i in members} == set(members)
                        for members in net.classes)
    elapsed = time.perf_counter() - start
    ok = ok and sr_pts and sr_lines and classes_fixed and elapsed < 5.0
    _report(6, ok, f"(3,16)-net: 256 points, 48 lines, g order 4, c=g^2 "
                   f"semiregular on points and lines, 3 classes fixed, {elapsed:.2f}s")


def test_criterion_07_net_product():
    sl = semilinear_net(4, 2, 3)
    from steinerkit.netstd import net_from_affine_plane
    prod = net_product([(sl.net, sl.c), (net_from_affine_plane(3, 3), None)])
    net = prod.net
    ok = net.n == 48 and len(net.lines) == 144
    ok = ok and prod.automorphism.order() == 2
    sr_pts, _ = is_semiregular(PermGroup.cyclic_from(prod.automorphism), range(2304))
    line_perm = net.line_action(prod.automorphism)
    sr_lines, _ = is_semiregular(PermGroup.cyclic_from(line_perm), range(144))
    ok = ok and sr_pts and sr_lines
    _report(7, ok, "(3,16)x(3,3) product is a verified (3,48)-net; combined "
                   "automorphism order 2, semiregular on points and lines")


def test_criterion_08_one_blocked_product():
    start = time.perf_counter()
    fano = build_base_design(7, 3, (0, 1, 3)).design
    sts9 = steiner_triple_system(9)
    z7 = PermGroup(7, [Permutation(tuple((i + 1) % 7 for i in range(7)))])
    plan = CompositionPlan(fano, sts9, sts9.block_tuples()[0],
                           td_supplier=lambda k, n: mols_td(k, n), group=z7)
    d, bar = product_design_1blocked(plan, check=False)
    ok = d.v == 45 and d.b == 330 and verify_2design(d).ok
    ok = ok and bar.order() == 7
    ok = ok and all(is_automorphism(d, g) for g in bar.generators)
    blocked, _ = is_1_blocked(d, bar)   # exhaustive over all 330 blocks
    elapsed = time.perf_counter() - start
    ok = ok and blocked and elapsed < 5.0
    _report(8, ok, f"STS(45) from STS(7)+STS(9)+TD(3,6) verified; lifted Z7 "
                   f"is 1-blocked over 330 blocks, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def sts21_ingredient():
    start = time.perf_counter()
    shift = Permutation(tuple((i + 7) % 21 for i in range(21)))
    orbit_blocks = [(i, i + 7, i + 14) for i in range(7)]
    w = km_search(21, 3, PermGroup(21, [shift]), forced_blocks=orbit_blocks)
    return w, shift, time.perf_counter() - start


def test_criterion_09_cyclic_assembly(sts21_ingredient):
    w, shift, search_time = sts21_ingredient
    params = cyclic_assembly_params(3, 2)
    ok = (params.p, params.y, params.w) == (379, 19, 21)
    params2 = cyclic_assembly_params(3, 2, s_min=2)
    ok = ok and (params2.p, params2.y, params2.w) == (757, 37, 21)
    ok = ok and search_time < 1800.0
    # stabilizer dichotomy of the ingredient
    powers = [Permutation.identity(21)]
    for _ in range(2):
        powers.append(powers[-1] * shift)
    for blk in w.block_tuples():
        stab = sum(1 for g in powers if tuple(sorted(g.images[x] for x in blk)) == blk)
        ok = ok and stab in (1, 3)
    start = time.perf_counter()
    results = []
    for prm in (params, params2):
        y = steiner_triple_system(prm.y)
        bundle = cyclic_td(3, prm.y - 1)
        d, cbar = cyclic_product_design(w, shift, y, bundle.td, bundle.rotator,
                                        check=False)
        ok = ok and d.v == prm.p and verify_2design(d).ok
        for g in cbar.elements():
            if g.is_identity():
                continue
            ok = ok and is_automorphism(d, g) and g.fixed_points() == (0,)
        sr, _ = is_semiregular(cbar, range(1, d.v))
        ok = ok and sr
        results.append(d.v)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(9, ok, f"STS({results[0]}) and STS({results[1]}) assembled; order-3 "
                   f"group fixes exactly one point, semiregular elsewhere, "
                   f"search {search_time:.1f}s + assembly {elapsed:.1f}s")


def test_criterion_10_even_order_never_one_blocked(aligned_ingredient):
    ingredient, inv, _ = aligned_ingredient
    suite = []
    for d in (build_base_design(7, 3, (0, 1, 3)).design, steiner_triple_system(9)):
        aut = brute_aut(d)
        evens = [g for g in aut.elements() if g.order() % 2 == 0]
        suite.append((d, evens))
    suite.append((ingredient, [inv]))
    checked = 0
    ok = True
    for d, elements in suite:
        ok = ok and bool(elements)
        for g in elements:
            blocked, witness = is_1_blocked(d, PermGroup(d.v, [g]))
            ok = ok and not blocked and witness is not None
            blk, bad = witness
            ok = ok and tuple(sorted(bad.images[x] for x in blk)) == tuple(blk)
            ok = ok and any(bad.images[x] != x for x in blk)
            checked += 1
    _report(10, ok, f"{checked} even-order subgroups across the suite all fail "
                    f"1-blockedness with concrete witnesses")


def test_criterion_11_spectrum_planner():
    start = time.perf_counter()
    k, w, x1s = 3, 7, [7, 9]
    bound = spectrum_bound(k, w, x1s)
    with pytest.warns(UserWarning):
        plan = spectrum_plan(k, w, x1s, (bound, bound + 10_000))
    ok = plan.uncovered == ()
    admissible = [u for u in range(bound, bound + 10_001) if is_admissible(u, 3)]
    ok = ok and len(plan.witnesses) == len(admissible)
    for wit in plan.witnesses:
        ok = ok and wit.y > k * wit.x and wit.a >= w * wit.x1 and 0 <= wit.t < wit.a
        ok = ok and wit.u == wit.x + w * (wit.y - wit.x)
    # abutment: consecutive-a intervals leave no admissible gap
    for x1 in x1s:
        for a in range(w * x1, w * x1 + 5):
            end = x1 + w * x1 * 6 * a + 6 * (a - 1)
            nxt = x1 + w * x1 * 6 * (a + 1)
            ok = ok and end + 6 >= nxt
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(11, ok, f"all {len(plan.witnesses)} admissible orders in a width-10,000 "
                    f"window above {bound} receive witnesses, {elapsed:.2f}s")


def test_cli_flagship_pipeline(tmp_path_factory):
    # the odd-order pipeline end to end through the command line:
    # prime search -> base block -> line filling -> full verification
    from steinerkit.cli import main
    from steinerkit.permgrp import group_to_text

    tmp = tmp_path_factory.mktemp("flagship")
    gfile = tmp / "z3.group"
    gfile.write_text(group_to_text(
        PermGroup(3, [Permutation.from_cycles(3, [(0, 1, 2)])])))
    code = main(["construct-odd", "--k", "3", "--group-file", str(gfile)])
    assert code == 0


def test_criterion_12_inequivalent_variants():
    start = time.perf_counter()
    base = build_base_design(19, 3, (0, 1, 4)).design
    variants = inequivalent_variants(base, 3)
    maps = affine_maps(19)
    ok = len(variants) == 3 and len(maps) == 342
    scans = 0
    for d1, d2 in itertools.combinations(variants, 2):
        ok = ok and iso_in_group(d1, d2, maps) is None
        scans += 1
    elapsed = time.perf_counter() - start
    ok = ok and scans == 3 and elapsed < 5.0
    _report(12, ok, f"three variants pairwise inequivalent under all 342 affine "
                    f"maps, {elapsed:.2f}s")
