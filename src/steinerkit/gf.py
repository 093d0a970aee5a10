"""Arithmetic in F_p and GF(p^n).

Prime fields carry their least primitive root so multiplicative subgroups and
cosets are canonical.  GF(q) is a pair of read-only (q, q) add and mul index
tables: element i is the polynomial whose coefficients are the radix-p digits
of i, over the least monic irreducible modulus.  Frobenius, trace and
semilinear maps are gathers on those tables over whole index arrays, so field
maps convert directly to Permutation objects.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadParams
from .permgrp import Permutation

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs stay desk-scale)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def least_primitive_root(p: int) -> int:
    phi_factors = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in phi_factors):
            return g
    raise ValueError(f"no primitive root mod {p}; is it prime?")


@dataclass(frozen=True)
class PrimeFieldCtx:
    p: int
    primitive_root: int

    @classmethod
    def create(cls, p: int) -> "PrimeFieldCtx":
        if not is_prime(p):
            raise BadParams(f"{p} is not prime")
        return cls(p, least_primitive_root(p))


@dataclass(frozen=True)
class MultSubgroup:
    """The unique subgroup of F_p^* of order t (F_p^* is cyclic)."""

    ctx: PrimeFieldCtx
    t: int
    elements: tuple[int, ...]


def subgroup_of_order(ctx: PrimeFieldCtx, t: int) -> MultSubgroup:
    p = ctx.p
    if t < 1 or (p - 1) % t != 0:
        raise BadParams(f"{t} does not divide {p}-1")
    gen = pow(ctx.primitive_root, (p - 1) // t, p)
    elems = set()
    x = 1
    for _ in range(t):
        elems.add(x)
        x = x * gen % p
    return MultSubgroup(ctx, t, tuple(sorted(elems)))


def coset_partition(sub: MultSubgroup) -> tuple[tuple[tuple[int, ...], ...], dict[int, int]]:
    """Cosets of the subgroup in F_p^*, plus a residue -> coset index map.

    Coset 0 is the subgroup itself; the rest are ordered by least element.
    """
    p = sub.ctx.p
    lookup: dict[int, int] = {}
    cosets: list[tuple[int, ...]] = []
    for r in range(1, p):
        if r in lookup:
            continue
        cs = tuple(sorted(r * s % p for s in sub.elements))
        idx = len(cosets)
        cosets.append(cs)
        for x in cs:
            lookup[x] = idx
    return tuple(cosets), lookup


# -- extension fields ---------------------------------------------------------

def _has_small_factor(f: Sequence[int], p: int) -> bool:
    """Whether the monic f (coefficients of 1, x, .., x^n) over F_p has a monic
    factor of degree 1..n/2, by trial division; f is irreducible iff not."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for m in range(p ** d):
            g = [m // p**j % p for j in range(d)] + [1]
            r = list(f)
            for top in range(n, d - 1, -1):
                c = r[top]
                if c:
                    for j in range(d + 1):
                        r[top - d + j] = (r[top - d + j] - c * g[j]) % p
            if not any(r[:d]):
                return True
    return False


@dataclass(frozen=True)
class ExtFieldCtx:
    """GF(p^n) in polynomial basis; modulus holds coefficients of 1, x, .., x^n."""

    p: int
    n: int
    modulus: tuple[int, ...]

    @classmethod
    def create(cls, p: int, n: int) -> "ExtFieldCtx":
        """The least monic irreducible modulus, tails ordered by radix-p index."""
        if not is_prime(p) or n < 1:
            raise BadParams(f"need a prime p and n >= 1, got p={p}, n={n}")
        for m in range(p ** n):
            coeffs = [m // p**j % p for j in range(n)] + [1]
            if not _has_small_factor(coeffs, p):
                return cls(p, n, tuple(coeffs))
        raise BadParams(f"no irreducible modulus found for GF({p}^{n})")


def field_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (q, q) int64 add and mul index tables of GF(q).

    Element i is the polynomial whose coefficients are the radix-p digits of
    i over ExtFieldCtx's modulus, so 0 and 1 are zero and one, and for prime
    q the indices are the residues.  Row a of mul is the multiplication by a,
    sum_j a_j C^j for C the modulus's companion matrix (multiplication by x).
    """
    fact = factorize(q)
    if len(fact) != 1:
        raise BadParams(f"{q} is not a prime power")
    (p, n), = fact.items()
    modulus = ExtFieldCtx.create(p, n).modulus
    radix = p ** np.arange(n, dtype=np.int64)
    digits = np.arange(q, dtype=np.int64)[:, None] // radix % p
    companion = np.eye(n, k=-1, dtype=np.int64)
    companion[:, -1] -= modulus[:n]
    powers = np.empty((n, n, n), dtype=np.int64)
    powers[0] = np.eye(n, dtype=np.int64)
    for j in range(1, n):
        powers[j] = companion @ powers[j - 1] % p
    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    for a in range(q):
        add[a] = (digits[a] + digits) % p @ radix
        times_a = np.tensordot(digits[a], powers, 1) % p
        mul[a] = digits @ times_a.T % p @ radix
    add.setflags(write=False)
    mul.setflags(write=False)
    return add, mul


def _is_power_of(q: int, p: int) -> bool:
    while q % p == 0:
        q //= p
    return q == 1


def frobenius(tables: tuple[np.ndarray, np.ndarray], x, q: int) -> np.ndarray:
    """x -> x^q over an index array x, for q a power of the field characteristic."""
    mul = tables[1]
    size = len(mul)
    p = min(factorize(size))
    if q < 1 or not _is_power_of(q, p) or q > size:
        raise BadParams(f"{q} is not a power of {p} within the field")
    result, base = np.ones_like(x), np.asarray(x)
    while q:
        if q & 1:
            result = mul[result, base]
        base = mul[base, base]
        q >>= 1
    return result


def trace(tables: tuple[np.ndarray, np.ndarray], x, q: int, m: int) -> np.ndarray:
    """Trace onto the subfield fixed by x -> x^q: sum of x^(q^j), j < m."""
    add = tables[0]
    if q ** m != len(add):
        raise BadParams(f"q^m = {q}^{m} != field size {len(add)}")
    acc, power = np.zeros_like(x), np.asarray(x)
    for _ in range(m):
        acc = add[acc, power]
        power = frobenius(tables, power, q)
    return acc


def semilinear_map(tables: tuple[np.ndarray, np.ndarray], q: int, m: int, a: int) -> Permutation:
    """The field permutation x -> x^q + a, as a Permutation of element indices.

    For q and m powers > 1 of the characteristic p with q^m the field size and
    a outside the trace kernel, the returned permutation has order p*m and
    generates a semiregular group on all q^m field elements.
    """
    size = len(tables[0])
    p = min(factorize(size))
    if q < p or m < p or not _is_power_of(q, p) or not _is_power_of(m, p):
        raise BadParams(f"q={q} and m={m} must be powers > 1 of p={p}")
    if q ** m != size:
        raise BadParams(f"q^m = {q}^{m} does not match field size {size}")
    if not 0 <= a < size:
        raise BadParams(f"a={a} is no element index of GF({size})")
    if trace(tables, a, q, m) == 0:
        raise BadParams(f"trace of a={a} is zero")
    return Permutation(tables[0][frobenius(tables, np.arange(size), q), a])
