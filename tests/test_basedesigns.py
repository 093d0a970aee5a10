from __future__ import annotations

import itertools
import re

import pytest

from steinerkit import basedesigns
from steinerkit.basedesigns import (
    _coset_criterion,
    affine_maps,
    build_base_design,
    inequivalent_variants,
    km_instance,
    km_search,
    steiner_triple_system,
    wilson_base_block,
)
from steinerkit.design import Design, is_automorphism, iso_in_group, verify_2design
from steinerkit.errors import BadParams, Budget, Unsat
from steinerkit.gf import PrimeFieldCtx, coset_partition, subgroup_of_order
from steinerkit.permgrp import PermGroup, Permutation, is_semiregular, orbit_sweep, set_images


def test_wilson_base_block_p19():
    assert wilson_base_block(19, 3) == (0, 1, 4)


def test_wilson_base_block_fano():
    assert wilson_base_block(7, 3) == (0, 1, 3)


def test_wilson_base_block_p13_k4():
    assert wilson_base_block(13, 4) == (0, 1, 3, 9)


def test_wilson_base_block_bad_params():
    with pytest.raises(BadParams):
        wilson_base_block(11, 3)


@pytest.mark.parametrize("call", [lambda: wilson_base_block(7, 1),
                                  lambda: build_base_design(7, 1, (0,))],
                         ids=["wilson_base_block", "build_base_design"])
def test_block_size_below_two_is_bad_params(call):
    # k(k-1) = 0 once made the congruence test divide by zero
    with pytest.raises(BadParams, match="k >= 2"):
        call()


def test_wilson_base_block_none_when_t_even():
    # t = 2 puts -1 in the multiplier subgroup, so no block can qualify
    assert wilson_base_block(13, 3) is None


def test_build_base_design_p19():
    bd = build_base_design(19, 3, (0, 1, 4))
    assert bd.t == 3 and bd.design.b == 57
    assert verify_2design(bd.design).ok


def test_build_base_design_fano():
    bd = build_base_design(7, 3, (0, 1, 3))
    assert bd.design.b == 7
    assert verify_2design(bd.design).ok


def test_build_base_design_names_a_bad_prime():
    with pytest.raises(BadParams, match=r"^need p prime with p = 1 mod 6, got 23$"):
        build_base_design(23, 3, (0, 1, 3))


def test_build_base_design_rejects_bad_block():
    with pytest.raises(BadParams, match=r"base block \(0, 1, 2\) fails the coset criterion at p=19"):
        build_base_design(19, 3, (0, 1, 2))


def test_multiplier_group_regular_on_blocks():
    # the order-57 group {x -> s x + b} acts regularly on the 57 blocks
    bd = build_base_design(19, 3, (0, 1, 4))
    grp = bd.aut_group
    assert grp.order() == 57
    blocks = bd.design.block_tuples()
    reps, _ = orbit_sweep(set_images(bd.design.blocks, grp.generators))
    assert reps.tolist() == [0]  # single orbit of length 57
    for blk in blocks:
        fixers = [g for g in grp.elements()
                  if tuple(sorted(g.images[x] for x in blk)) == blk]
        assert len(fixers) == 1


def test_criterion_equivalence_with_verification():
    # the difference-coset criterion holds exactly when the orbit set verifies
    for p in (7, 13, 19, 31):
        t = (p - 1) // 6
        ctx = PrimeFieldCtx.create(p)
        sub = subgroup_of_order(ctx, t)
        _, lookup = coset_partition(sub)
        hits = 0
        for rest in itertools.combinations(range(1, p), 2):
            block = (0,) + rest
            crit = _coset_criterion(block, p, lookup, 6)
            blocks = {tuple(sorted((s * a + b) % p for a in block))
                      for s in sub.elements for b in range(p)}
            design_ok = (len(blocks) == p * t
                         and verify_2design(Design(p, 3, sorted(blocks))).ok)
            assert crit == design_ok, (p, block)
            hits += crit
        # a base block exists exactly when t is odd (-1 outside the subgroup)
        assert (hits > 0) == (t % 2 == 1), p


def test_km_search_cyclic_sts13():
    g = PermGroup(13, [Permutation(tuple((i + 1) % 13 for i in range(13)))])
    d = km_search(13, 3, g)
    assert d.v == 13 and d.b == 26
    assert verify_2design(d).ok
    assert all(is_automorphism(d, gen) for gen in g.generators)


def test_km_search_reverse_sts19():
    # involution with exactly one fixed point: x -> -x mod 19
    inv = Permutation(tuple((-x) % 19 for x in range(19)))
    assert len(inv.fixed_points()) == 1
    g = PermGroup(19, [inv])
    d = km_search(19, 3, g)
    assert verify_2design(d).ok
    assert is_automorphism(d, inv)


def test_km_search_sts21_with_semiregular_z3_orbit_blocks():
    shift = Permutation(tuple((i + 7) % 21 for i in range(21)))
    g = PermGroup(21, [shift])
    ok, _ = is_semiregular(g, range(21))
    assert ok
    orbit_blocks = [(i, i + 7, i + 14) for i in range(7)]
    d = km_search(21, 3, g, forced_blocks=orbit_blocks)
    assert verify_2design(d).ok
    assert is_automorphism(d, shift)
    blockset = set(d.block_tuples())
    for blk in orbit_blocks:
        assert blk in blockset
    # stabilizer dichotomy: every block is fixed by all of Z3 or by nothing
    for blk in d.block_tuples():
        stab = [g_ for g_ in g.elements()
                if tuple(sorted(g_.images[x] for x in blk)) == blk]
        assert len(stab) in (1, 3)


@pytest.mark.parametrize("block", [
    (0, 1),  # the wrong width
    (0, 1, 19),  # a point outside range(19)
    (0, 0, 1),  # a repeated point
    (-1, 0, 1),  # a negative point
    (17, 2, 1),  # its orbit {1,2,17}, {2,17,18} covers the pair {2,17} twice: dropped
])
def test_km_search_refuses_a_forced_block_without_a_usable_orbit(block):
    g = PermGroup(19, [Permutation(tuple((-x) % 19 for x in range(19)))])
    key = tuple(sorted(block))
    with pytest.raises(Unsat, match=re.escape(f"forced block {key} has no usable orbit")):
        km_search(19, 3, g, forced_blocks=[(0, 1, 4), block])


def test_km_search_unsat_no_cyclic_sts9():
    g = PermGroup(9, [Permutation(tuple((i + 1) % 9 for i in range(9)))])
    with pytest.raises(Unsat):
        km_search(9, 3, g)


def test_km_search_infeasible_bound(monkeypatch):
    g = PermGroup.trivial(30)
    monkeypatch.setattr(basedesigns, "MAX_BLOCK_CANDIDATES", 100)
    with pytest.raises(Budget, match="4060 candidate blocks exceeds the bound 100"):
        km_search(30, 3, g)


def test_km_instance_matrix_entries_are_orbit_invariant():
    inv = Permutation(tuple((-x) % 13 for x in range(13)))
    g = PermGroup(13, [inv])
    inst = km_instance(13, 3, g)
    # recompute each usable column from a different orbit member
    rep_pairs = {tuple(pair): i for i, pair in enumerate(inst.pair_reps.tolist())}
    for cid in inst.columns[:40].tolist():
        rows = inst.cover_row[inst.cover_col == cid].tolist()
        cover: dict[int, int] = {}
        for blk in inst.blocks[inst.block_orbit == cid].tolist():
            for pair in itertools.combinations(blk, 2):
                row = rep_pairs.get(pair)
                if row is not None:
                    cover[row] = cover.get(row, 0) + 1
        assert sorted(cover) == rows and all(c == 1 for c in cover.values())


@pytest.mark.parametrize("v", [7, 13, 15, 19, 21, 25, 27, 31, 33, 37])
def test_steiner_triple_system_library(v):
    d = steiner_triple_system(v)
    assert d.v == v and d.b == v * (v - 1) // 6
    assert verify_2design(d).ok


def test_steiner_triple_system_9_and_errors():
    assert verify_2design(steiner_triple_system(9)).ok
    with pytest.raises(BadParams):
        steiner_triple_system(11)


def test_inequivalent_variants_p19():
    bd = build_base_design(19, 3, (0, 1, 4))
    variants = inequivalent_variants(bd.design, 3)
    assert len(variants) == 3
    maps = affine_maps(19)
    assert len(maps) == 342
    for d1, d2 in itertools.combinations(variants, 2):
        assert iso_in_group(d1, d2, maps) is None
        assert set(d1.block_tuples()) != set(d2.block_tuples())
    for d in variants:
        assert verify_2design(d).ok


def test_inequivalent_variants_fano_reported_honestly():
    # the Fano plane is so symmetric that every relabeling is affinely
    # equivalent; the search must exhaust rather than fabricate variants
    bd = build_base_design(7, 3, (0, 1, 3))
    try:
        variants = inequivalent_variants(bd.design, 2)
        maps = affine_maps(7)
        assert iso_in_group(variants[0], variants[1], maps) is None
    except Exception as exc:
        assert isinstance(exc, Unsat)
        assert "cycle support yields a new variant" in str(exc)
