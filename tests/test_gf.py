from __future__ import annotations

import itertools

import pytest

from steinerkit.errors import BadParams
from steinerkit.gf import (
    ExtFieldCtx,
    PrimeFieldCtx,
    coset_partition,
    factorize,
    frobenius,
    is_prime,
    semilinear_map,
    subgroup_of_order,
    trace,
)
from steinerkit.permgrp import PermGroup, is_semiregular


def brute_order(x, p):
    o, y = 1, x
    while y != 1:
        y = y * x % p
        o += 1
    return o


def test_is_prime_small_and_edge():
    primes = {2, 3, 5, 7, 11, 13, 19, 31, 37, 379, 757}
    for n in range(2, 800):
        assert is_prime(n) == all(n % d for d in range(2, n)), n
    assert all(is_prime(p) for p in primes)


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(19) == {19: 1}


def test_subgroup_order_3_mod_19():
    ctx = PrimeFieldCtx.create(19)
    s = subgroup_of_order(ctx, 3)
    # brute oracle: all residues of multiplicative order dividing 3
    expect = tuple(sorted(x for x in range(1, 19) if pow(x, 3, 19) == 1))
    assert s.elements == expect == (1, 7, 11)


def test_subgroup_full_and_trivial():
    ctx = PrimeFieldCtx.create(19)
    assert subgroup_of_order(ctx, 18).elements == tuple(range(1, 19))
    ctx7 = PrimeFieldCtx.create(7)
    assert subgroup_of_order(ctx7, 1).elements == (1,)
    with pytest.raises(BadParams, match="4 does not divide 7-1"):
        subgroup_of_order(ctx7, 4)


def test_coset_partition_p19():
    ctx = PrimeFieldCtx.create(19)
    s = subgroup_of_order(ctx, 3)
    cosets, lookup = coset_partition(s)
    assert len(cosets) == 6
    assert cosets[0] == (1, 7, 11)
    # derived by multiplying S by 2, 4, 5, 8, 10
    assert set(cosets) == {(1, 7, 11), (2, 3, 14), (4, 6, 9),
                           (5, 16, 17), (8, 12, 18), (10, 13, 15)}
    # exact cover of F_19^*
    assert sorted(x for cs in cosets for x in cs) == list(range(1, 19))
    for i, cs in enumerate(cosets):
        for x in cs:
            assert lookup[x] == i


def test_coset_partition_single():
    ctx = PrimeFieldCtx.create(7)
    s = subgroup_of_order(ctx, 6)
    cosets, _ = coset_partition(s)
    assert len(cosets) == 1


def test_coset_partition_quadratic_residues_mod_13():
    ctx = PrimeFieldCtx.create(13)
    s = subgroup_of_order(ctx, 6)
    cosets, _ = coset_partition(s)
    squares = tuple(sorted({x * x % 13 for x in range(1, 13)}))
    assert len(cosets) == 2
    assert cosets[0] == squares


def test_gf4_modulus_and_frobenius():
    ctx = ExtFieldCtx.create(2, 2)
    assert ctx.modulus == (1, 1, 1)  # x^2 + x + 1
    omega = ctx.from_index(2)  # coeffs (0,1)
    omega_sq = omega * omega
    assert frobenius(omega, 2) == omega_sq
    assert omega_sq.index == 3  # omega^2 = omega + 1


def test_frobenius_full_power_is_identity():
    ctx = ExtFieldCtx.create(3, 3)
    for idx in range(27):
        x = ctx.from_index(idx)
        assert frobenius(x, 27) == x
    with pytest.raises(BadParams, match="6 is not a power of 3 within the field"):
        frobenius(ctx.from_index(1), 6)


def test_frobenius_orbit_in_gf27():
    ctx = ExtFieldCtx.create(3, 3)
    g = ctx.from_index(3)  # the generator-of-basis element x
    g3 = frobenius(g, 3)
    assert g3 == g ** 3
    assert g3 != g
    assert frobenius(frobenius(g3, 3), 3) == g  # orbit length 3 under the cubing map


def test_trace_gf4_over_f2():
    ctx = ExtFieldCtx.create(2, 2)
    omega = ctx.from_index(2)
    one = ctx.one()
    zero = ctx.zero()
    assert trace(omega, 2, 2) == one
    assert trace(one, 2, 2) == zero
    assert trace(zero, 2, 2) == zero
    with pytest.raises(BadParams, match=r"q\^m = 2\^3 != field size 4"):
        trace(omega, 2, 3)


def test_trace_is_frobenius_invariant_and_lands_in_subfield():
    # exhaustive over every field element, field sizes up to 3^6
    for p, n, q, m in [(2, 2, 2, 2), (2, 4, 4, 2), (2, 4, 2, 4), (3, 3, 3, 3),
                       (2, 6, 8, 2), (2, 6, 2, 6), (3, 6, 9, 3), (3, 6, 3, 6)]:
        ctx = ExtFieldCtx.create(p, n)
        for x in ctx.all_elements():
            t = trace(x, q, m)
            assert trace(frobenius(x, q), q, m) == t
            assert frobenius(t, q) == t  # fixed by x -> x^q


def test_trace_gf27_is_f3_linear():
    ctx = ExtFieldCtx.create(3, 3)
    basis = [ctx.from_index(1), ctx.from_index(3), ctx.from_index(9)]
    for a, b in itertools.product(range(3), repeat=2):
        for e1, e2 in itertools.combinations(basis, 2):
            x = _scale(e1, a) + _scale(e2, b)
            expected = _scale(trace(e1, 3, 3), a) + _scale(trace(e2, 3, 3), b)
            assert trace(x, 3, 3) == expected


def _scale(x, a):
    acc = x.ctx.zero()
    for _ in range(a):
        acc = acc + x
    return acc


def test_semilinear_map_gf4_is_the_four_cycle():
    ctx = ExtFieldCtx.create(2, 2)
    omega = ctx.from_index(2)
    h = semilinear_map(ctx, 2, 2, omega)
    # iterate from 0: 0 -> omega -> 1 -> omega^2 -> 0
    assert h(0) == 2 and h(2) == 1 and h(1) == 3 and h(3) == 0
    assert h.order() == 4  # p*m


def test_semilinear_map_gf27_order_and_semiregularity():
    ctx = ExtFieldCtx.create(3, 3)
    a = next(x for x in ctx.all_elements() if not trace(x, 3, 3).is_zero())
    h = semilinear_map(ctx, 3, 3, a)
    assert h.order() == 9
    ok, viol = is_semiregular(PermGroup.cyclic_from(h), range(27))
    assert ok, viol


def test_semilinear_map_rejects_trace_kernel():
    ctx = ExtFieldCtx.create(2, 2)
    one = ctx.one()  # T(1) = 0 in GF(4)/F2
    with pytest.raises(BadParams, match="trace of a=.* is zero"):
        semilinear_map(ctx, 2, 2, one)
    with pytest.raises(BadParams):
        semilinear_map(ctx, 2, 1, one)


@pytest.mark.parametrize("p,q,m", [(2, 2, 2), (2, 4, 2), (3, 3, 3)])
def test_semilinear_map_exhaustive_properties(p, q, m):
    # order exactly p*m, semiregular, and the m-th power translates by T(a)
    n = 1
    size = q**m
    while p**n < size:
        n += 1
    ctx = ExtFieldCtx.create(p, n)
    a = next(x for x in ctx.all_elements() if not trace(x, q, m).is_zero())
    h = semilinear_map(ctx, q, m, a)
    assert h.order() == p * m
    ok, _ = is_semiregular(PermGroup.cyclic_from(h), range(size))
    assert ok
    ta = trace(a, q, m)
    hm = h
    for _ in range(m - 1):
        hm = hm * h
    for idx in range(size):
        assert hm(idx) == (ctx.from_index(idx) + ta).index
