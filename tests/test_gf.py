from __future__ import annotations

import itertools

import numpy as np
import pytest

from steinerkit.errors import BadParams
from steinerkit.gf import (
    ExtFieldCtx,
    PrimeFieldCtx,
    coset_partition,
    factorize,
    field_tables,
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


# -- extension fields as index tables -------------------------------------------

def _poly_mulmod(a, b, modulus, p):
    """Reference product of two radix-p coefficient vectors modulo a monic modulus."""
    n = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: x^n = -(modulus tail)
    for d in range(len(prod) - 1, n - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(n):
                prod[d - n + j] = (prod[d - n + j] - c * modulus[j]) % p
    out = prod[:n] + [0] * max(0, n - len(prod))
    return tuple(out[:n])


def _reference_tables(q):
    (p, n), = factorize(q).items()
    modulus = ExtFieldCtx.create(p, n).modulus
    digits = [tuple(i // p**j % p for j in range(n)) for i in range(q)]
    index = {d: i for i, d in enumerate(digits)}
    add = [[index[tuple((a + b) % p for a, b in zip(x, y))] for y in digits] for x in digits]
    mul = [[index[_poly_mulmod(x, y, modulus, p)] for y in digits] for x in digits]
    return np.array(add), np.array(mul)


def test_field_tables_match_polynomial_arithmetic():
    for q in range(2, 129):
        if len(factorize(q)) == 1:
            add, mul = field_tables(q)
            ref_add, ref_mul = _reference_tables(q)
            assert add.dtype == mul.dtype == np.int64, q
            assert np.array_equal(add, ref_add) and np.array_equal(mul, ref_mul), q
            assert not add.flags.writeable and not mul.flags.writeable


def test_field_tables_reject_non_prime_powers():
    with pytest.raises(BadParams, match="12 is not a prime power"):
        field_tables(12)


def _monic(p, d):
    """Every monic degree-d polynomial over F_p as rows of coefficients of 1, .., x^d."""
    tails = np.arange(p**d)[:, None] // p ** np.arange(d) % p
    return np.hstack([tails, np.ones((len(tails), 1), dtype=np.int64)])


def test_modulus_has_no_factor_of_degree_at_most_half():
    # brute force: divide the chosen modulus by every monic polynomial of
    # degree 1..n/2 at once; a zero remainder would be a factor
    pairs = [(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(2, 20) if p**n <= 10**6]
    assert len(pairs) == 50
    for p, n in pairs:
        f = np.array(ExtFieldCtx.create(p, n).modulus)
        assert f[-1] == 1 and len(f) == n + 1
        for d in range(1, n // 2 + 1):
            g = _monic(p, d)
            rem = np.tile(f, (len(g), 1))
            for top in range(n, d - 1, -1):
                rem[:, top - d:top + 1] = (rem[:, top - d:top + 1] - rem[:, top:top + 1] * g) % p
            assert np.all(rem[:, :d].any(axis=1)), (p, n, d)


def test_gf729_has_no_zero_divisors():
    # x^6 + x + 1 has the root 1 over F_3; the modulus search must skip it
    assert ExtFieldCtx.create(3, 6).modulus == (2, 1, 0, 0, 0, 0, 1)
    add, mul = field_tables(729)
    assert np.all(mul[1:, 1:] != 0)
    assert np.array_equal(np.sort(mul[1:, 1:], axis=1), np.broadcast_to(np.arange(1, 729), (728, 728)))


def test_gf4_modulus_and_frobenius():
    ctx = ExtFieldCtx.create(2, 2)
    assert ctx.modulus == (1, 1, 1)  # x^2 + x + 1
    tables = field_tables(4)
    omega = 2  # coeffs (0,1)
    omega_sq = tables[1][omega, omega]
    assert frobenius(tables, omega, 2) == omega_sq
    assert omega_sq == 3  # omega^2 = omega + 1


def test_frobenius_full_power_is_identity():
    tables = field_tables(27)
    x = np.arange(27)
    assert np.array_equal(frobenius(tables, x, 27), x)
    with pytest.raises(BadParams, match="6 is not a power of 3 within the field"):
        frobenius(tables, 1, 6)


def test_frobenius_orbit_in_gf27():
    tables = field_tables(27)
    mul = tables[1]
    g = 3  # the generator-of-basis element x
    g3 = frobenius(tables, g, 3)
    assert g3 == mul[mul[g, g], g]
    assert g3 != g
    assert frobenius(tables, frobenius(tables, g3, 3), 3) == g  # orbit length 3 under the cubing map


def test_trace_gf4_over_f2():
    tables = field_tables(4)
    omega, one, zero = 2, 1, 0
    assert trace(tables, omega, 2, 2) == one
    assert trace(tables, one, 2, 2) == zero
    assert trace(tables, zero, 2, 2) == zero
    with pytest.raises(BadParams, match=r"q\^m = 2\^3 != field size 4"):
        trace(tables, omega, 2, 3)


def test_trace_is_frobenius_invariant_and_lands_in_subfield():
    # exhaustive over every field element, field sizes up to 3^6
    for p, n, q, m in [(2, 2, 2, 2), (2, 4, 4, 2), (2, 4, 2, 4), (3, 3, 3, 3),
                       (2, 6, 8, 2), (2, 6, 2, 6), (3, 6, 9, 3), (3, 6, 3, 6)]:
        tables = field_tables(p**n)
        x = np.arange(p**n)
        t = trace(tables, x, q, m)
        assert np.array_equal(trace(tables, frobenius(tables, x, q), q, m), t)
        assert np.array_equal(frobenius(tables, t, q), t)  # fixed by x -> x^q


def test_trace_gf27_is_f3_linear():
    tables = field_tables(27)
    add = tables[0]
    basis = [1, 3, 9]
    for a, b in itertools.product(range(3), repeat=2):
        for e1, e2 in itertools.combinations(basis, 2):
            x = add[_scale(tables, e1, a), _scale(tables, e2, b)]
            expected = add[_scale(tables, trace(tables, e1, 3, 3), a),
                           _scale(tables, trace(tables, e2, 3, 3), b)]
            assert trace(tables, x, 3, 3) == expected


def _scale(tables, x, a):
    acc = 0
    for _ in range(a):
        acc = tables[0][acc, x]
    return acc


def test_semilinear_map_gf4_is_the_four_cycle():
    tables = field_tables(4)
    omega = 2
    h = semilinear_map(tables, 2, 2, omega)
    # iterate from 0: 0 -> omega -> 1 -> omega^2 -> 0
    assert h(0) == 2 and h(2) == 1 and h(1) == 3 and h(3) == 0
    assert h.order() == 4  # p*m


def test_semilinear_map_gf27_order_and_semiregularity():
    tables = field_tables(27)
    a = int(np.flatnonzero(trace(tables, np.arange(27), 3, 3))[0])
    h = semilinear_map(tables, 3, 3, a)
    assert h.order() == 9
    ok, viol = is_semiregular(PermGroup.cyclic_from(h), range(27))
    assert ok, viol


def test_semilinear_map_rejects_trace_kernel():
    tables = field_tables(4)
    one = 1  # T(1) = 0 in GF(4)/F2
    with pytest.raises(BadParams, match="trace of a=.* is zero"):
        semilinear_map(tables, 2, 2, one)
    with pytest.raises(BadParams):
        semilinear_map(tables, 2, 1, one)
    with pytest.raises(BadParams, match="a=-1 is no element index of GF"):
        semilinear_map(tables, 2, 2, -1)


@pytest.mark.parametrize("p,q,m", [(2, 2, 2), (2, 4, 2), (3, 3, 3)])
def test_semilinear_map_exhaustive_properties(p, q, m):
    # order exactly p*m, semiregular, and the m-th power translates by T(a)
    size = q**m
    tables = field_tables(size)
    a = int(np.flatnonzero(trace(tables, np.arange(size), q, m))[0])
    h = semilinear_map(tables, q, m, a)
    assert h.order() == p * m
    ok, _ = is_semiregular(PermGroup.cyclic_from(h), range(size))
    assert ok
    ta = trace(tables, a, q, m)
    hm = h
    for _ in range(m - 1):
        hm = hm * h
    for idx in range(size):
        assert hm(idx) == tables[0][idx, ta]
