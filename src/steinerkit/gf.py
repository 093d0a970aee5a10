"""Arithmetic in F_p and GF(p^n).

Prime fields carry their least primitive root so multiplicative subgroups and
cosets are canonical.  Extension fields use a polynomial basis over the
lexicographically least monic irreducible modulus; elements are indexed
0..p^n-1 by radix-p encoding of their coefficient vectors, so field maps
convert directly to Permutation objects.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

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

def _poly_mulmod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> tuple[int, ...]:
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


def _poly_powmod(a: Sequence[int], e: int, modulus: Sequence[int], p: int) -> tuple[int, ...]:
    n = len(modulus) - 1
    result = tuple([1] + [0] * (n - 1))
    base = tuple(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        e >>= 1
    return result


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Monic degree-n polynomial test: x^(p^n) == x mod f, and
    gcd-style check x^(p^(n/q)) != x for every prime q | n."""
    n = len(modulus) - 1
    x = tuple([0, 1] + [0] * (n - 2)) if n >= 2 else (0,)
    if n == 1:
        return True
    xp = _poly_powmod(x, p ** n, modulus, p)
    if xp != x:
        return False
    for q in factorize(n):
        xq = _poly_powmod(x, p ** (n // q), modulus, p)
        if xq == x:
            return False
    return True


@dataclass(frozen=True)
class ExtFieldCtx:
    """GF(p^n) in polynomial basis; modulus holds coefficients of 1, x, .., x^n."""

    p: int
    n: int
    modulus: tuple[int, ...]

    @classmethod
    def create(cls, p: int, n: int) -> "ExtFieldCtx":
        if not is_prime(p) or n < 1:
            raise BadParams(f"need a prime p and n >= 1, got p={p}, n={n}")
        for m in range(p ** n):
            coeffs = _digits(m, p, n) + [1]
            if _is_irreducible(coeffs, p):
                return cls(p, n, tuple(coeffs))
        raise BadParams(f"no irreducible modulus found for GF({p}^{n})")

    @property
    def size(self) -> int:
        return self.p ** self.n

    def element(self, coeffs: Iterable[int]) -> "ExtFieldElement":
        cs = tuple(c % self.p for c in coeffs)
        if len(cs) != self.n:
            raise BadParams(f"need exactly {self.n} coefficients")
        return ExtFieldElement(self, cs)

    def from_index(self, idx: int) -> "ExtFieldElement":
        if not 0 <= idx < self.size:
            raise BadParams(f"index {idx} out of range for GF({self.p}^{self.n})")
        return ExtFieldElement(self, tuple(_digits(idx, self.p, self.n)))

    def zero(self) -> "ExtFieldElement":
        return self.from_index(0)

    def one(self) -> "ExtFieldElement":
        return self.from_index(1)

    def all_elements(self) -> list["ExtFieldElement"]:
        return [self.from_index(i) for i in range(self.size)]


def _digits(m: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(m % p)
        m //= p
    return out


@dataclass(frozen=True)
class ExtFieldElement:
    ctx: ExtFieldCtx
    coeffs: tuple[int, ...]

    @cached_property
    def index(self) -> int:
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * self.ctx.p + c
        return idx

    def __add__(self, other: "ExtFieldElement") -> "ExtFieldElement":
        p = self.ctx.p
        return ExtFieldElement(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ExtFieldElement") -> "ExtFieldElement":
        p = self.ctx.p
        return ExtFieldElement(self.ctx, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "ExtFieldElement") -> "ExtFieldElement":
        return ExtFieldElement(
            self.ctx, _poly_mulmod(self.coeffs, other.coeffs, self.ctx.modulus, self.ctx.p))

    def __pow__(self, e: int) -> "ExtFieldElement":
        return ExtFieldElement(self.ctx, _poly_powmod(self.coeffs, e, self.ctx.modulus, self.ctx.p))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return f"GF({self.ctx.p}^{self.ctx.n}){self.coeffs}"


def frobenius(x: ExtFieldElement, q: int) -> ExtFieldElement:
    """x -> x^q for q a power of the field characteristic."""
    p = x.ctx.p
    if q < 1 or not _is_power_of(q, p) or q > x.ctx.size:
        raise BadParams(f"{q} is not a power of {p} within the field")
    return x ** q


def _is_power_of(q: int, p: int) -> bool:
    while q % p == 0:
        q //= p
    return q == 1


def trace(x: ExtFieldElement, q: int, m: int) -> ExtFieldElement:
    """Trace onto the subfield fixed by x -> x^q: sum of x^(q^j), j < m."""
    if q ** m != x.ctx.size:
        raise BadParams(f"q^m = {q}^{m} != field size {x.ctx.size}")
    acc = x.ctx.zero()
    power = x
    for _ in range(m):
        acc = acc + power
        power = frobenius(power, q)
    return acc


def semilinear_map(ctx: ExtFieldCtx, q: int, m: int, a: ExtFieldElement) -> Permutation:
    """The field permutation x -> x^q + a, as a Permutation of element indices.

    For q and m powers > 1 of the characteristic p with q^m the field size and
    a outside the trace kernel, the returned permutation has order p*m and
    generates a semiregular group on all q^m field elements.
    """
    p = ctx.p
    if q < p or m < p or not _is_power_of(q, p) or not _is_power_of(m, p):
        raise BadParams(f"q={q} and m={m} must be powers > 1 of p={p}")
    if q ** m != ctx.size:
        raise BadParams(f"q^m = {q}^{m} does not match field size {ctx.size}")
    if trace(a, q, m).is_zero():
        raise BadParams(f"trace of a={a!r} is zero")
    images = []
    for idx in range(ctx.size):
        x = ctx.from_index(idx)
        images.append((frobenius(x, q) + a).index)
    return Permutation(tuple(images))
