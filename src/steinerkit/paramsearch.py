"""Number-theoretic parameter selection for the construction pipelines.

Admissibility of (v,k), the congruence prime searches feeding the odd-order
and aligned lifts, prime/modulus selection for the cyclic assembly, pragmatic
transversal-design availability, and the spectrum planner that certifies
coverage of all sufficiently large admissible orders.

All searches are bounded deterministic scans; every prime returned is
re-verified against its congruence conditions before being reported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadParams, Budget, require
from .gf import factorize, is_prime

# the largest prime (or q) the congruence scans try, and the largest s
SCAN_LIMIT = 10**7
S_LIMIT = 10**5


@dataclass(frozen=True)
class AdmissiblePair:
    v: int
    k: int

    def __post_init__(self):
        if not is_admissible(self.v, self.k):
            raise BadParams(f"({self.v},{self.k}) violates the divisibility conditions")


def is_admissible(v: int, k: int) -> bool:
    """Divisibility conditions for a 2-(v,k,1)-design."""
    if v < k or k < 2:
        return False
    return (v - 1) % (k - 1) == 0 and (v * (v - 1)) % (k * (k - 1)) == 0


def prime_for_odd_group(k: int, h: int) -> tuple[int, int]:
    """Least prime p with p = 1 + k(k-1)h mod 2k(k-1)h, and t = (p-1)/(k(k-1)).

    For odd h this congruence class forces t odd and divisible by h, which is
    exactly what the odd-order lift needs from its base design.
    """
    if k < 3:
        raise BadParams("k must be at least 3")
    if h < 1:
        raise BadParams(f"group order h={h} must be at least 1")
    if h % 2 == 0:
        raise BadParams(f"group order h={h} must be odd")
    step = 2 * k * (k - 1) * h
    p = 1 + k * (k - 1) * h
    while p <= SCAN_LIMIT:
        if is_prime(p):
            t = (p - 1) // (k * (k - 1))
            require(t % 2 == 1 and t % h == 0, f"t={t} at p={p} is odd and divisible by h={h}")
            return p, t
        p += step
    raise Budget(f"no prime = 1+{k * (k - 1) * h} mod {step} below {SCAN_LIMIT}")


def prime_for_even_group(k: int, h: int) -> tuple[int, int]:
    """Least prime p > h of the form 1 + (k-1)n satisfying the ingredient
    conditions for the aligned lift:

      n(n-1) = 0 mod k; additionally mod 4k when k = 3 mod 4;
      gcd(p-1, h) = gcd(k-1, h).

    Requires k >= 3, 4 | h and gcd(k, h) = 1.
    """
    if k < 3:
        raise BadParams("k must be at least 3")
    if h < 1:
        raise BadParams(f"group order h={h} must be at least 1")
    if h % 4 != 0:
        raise BadParams(f"h={h} must be a multiple of 4")
    if math.gcd(k, h) != 1:
        raise BadParams(f"gcd(k,h) = {math.gcd(k, h)} != 1")
    target = math.gcd(k - 1, h)
    n = 1
    while True:
        p = 1 + (k - 1) * n
        if p > SCAN_LIMIT:
            raise Budget(f"no qualifying prime below {SCAN_LIMIT}")
        nn = n * (n - 1)
        if (p > h and is_prime(p)
                and nn % k == 0
                and (k % 4 != 3 or nn % (4 * k) == 0)
                and math.gcd(p - 1, h) == target):
            return p, n
        n += 1


@dataclass(frozen=True)
class CyclicAssemblyParams:
    """Parameters for the cyclic product assembly: a prime p = 1 + w(y-1)
    split as p = 1 + q*k*(k-1)*pi*s, with w = qk the small-design order and
    y the large-ingredient order."""

    k: int
    h: int
    h0: int
    h_coprime: int
    pi: int
    q: int
    s: int
    p: int
    y: int
    w: int
    gcd_condition_ok: bool

    def __post_init__(self):
        require(self.h == self.h0 * self.h_coprime, "h = h0 * h'")
        require(self.p == 1 + self.q * self.k * (self.k - 1) * self.pi * self.s,
                "p = 1 + q k(k-1) pi s")
        require(self.y == 1 + self.k * (self.k - 1) * (self.pi // self.k) * self.s,
                "y = 1 + k(k-1)(pi/k) s")
        require(self.w == self.q * self.k, "w = q k")
        require(self.p == 1 + self.w * (self.y - 1), "p = 1 + w(y-1)")


def split_by_prime_support(h: int, k: int) -> tuple[int, int]:
    """h = h0 * h' with every prime of h0 dividing k and gcd(k, h') = 1."""
    h0 = 1
    hp = h
    for r, e in factorize(h).items():
        if k % r == 0:
            h0 *= r**e
            hp //= r**e
    return h0, hp


def _divides_power_of(m: int, k: int) -> bool:
    """True iff every prime factor of m divides k."""
    return all(k % r == 0 for r in factorize(m))


def cyclic_assembly_params(k: int, h: int, *, s_min: int = 1) -> CyclicAssemblyParams:
    """Choose (pi, q, s) and the prime p = 1 + q*k*(k-1)*pi*s for the assembly.

    pi is the product over the distinct primes p_i of k of the least power of
    p_i exceeding k, raised further if needed so the k-supported part h0 of h
    divides pi.  q is the least prime > h with q = 1 mod k(k-1), which makes
    w = qk admissible for every k.  s is the least value >= s_min making p
    prime with a constructible TD(k, y-1).

    The strict hypothesis gcd(k-1, h) = 1 guarantees gcd(p-1, h) divides a
    power of k; a shared factor of 2 is tolerated for desk-scale smoke runs
    (gcd_condition_ok records whether the guarantee held), any odd shared
    factor raises BadParams.
    """
    if h < 1:
        raise BadParams(f"group order h={h} must be at least 1")
    g = math.gcd(k - 1, h)
    strict = g == 1
    odd_part = g
    while odd_part % 2 == 0:
        odd_part //= 2
    if odd_part != 1:
        raise BadParams(f"gcd(k-1, h) = {g} has an odd factor")
    h0, hp = split_by_prime_support(h, k)

    pi = 1
    for r in sorted(factorize(k)):
        e = 1
        while r**e <= k:
            e += 1
        e = max(e, factorize(h0).get(r, 0))
        pi *= r**e
    require(pi % k == 0 and pi % h0 == 0, f"k={k} and h0={h0} divide pi={pi}")

    q = h + 1
    step = k * (k - 1)
    while q % step != 1 or not is_prime(q):
        q += 1
        if q > SCAN_LIMIT:
            raise Budget(f"no prime q > {h}, q = 1 mod {step}, below {SCAN_LIMIT}")

    base = q * k * (k - 1) * pi
    for s in range(s_min, S_LIMIT + 1):
        if strict and math.gcd(s, hp) != 1:
            continue
        p = 1 + base * s
        y = 1 + k * (k - 1) * (pi // k) * s
        if is_prime(p) and td_available(k, y - 1):
            ok = _divides_power_of(math.gcd(p - 1, h), k)
            if strict:
                require(ok, f"gcd(p-1, h) divides a power of k at p={p}, h={h}, k={k}")
            return CyclicAssemblyParams(k, h, h0, hp, pi, q, s, p, y, q * k, ok)
    raise Budget(f"no qualifying s in [{s_min},{S_LIMIT}]")


def td_available(k: int, n: int) -> bool:
    """Constructive availability of TD(k,n): the product of prime-power field
    TDs works when every prime-power factor q^e of n has q^e + 1 >= k, and
    the cyclic-table construction covers k = 3 for every n."""
    if k < 3 or n < 1:
        return False
    if n == 1 or k == 3:
        return True
    return min(q**e for q, e in factorize(n).items()) + 1 >= k


# -- spectrum planner ----------------------------------------------------------

@dataclass(frozen=True)
class SpectrumWitness:
    """Witness that order u is realized as u = x + w(y-x) from a base order
    x1: x = x1 + k(k-1)t and y - x = x1*k(k-1)*a with 0 <= t < a."""

    k: int
    w: int
    x1: int
    a: int
    t: int
    x: int
    y: int
    u: int

    def __post_init__(self):
        kk = self.k * (self.k - 1)
        require(self.x == self.x1 + kk * self.t, "x = x1 + k(k-1) t")
        require(self.y - self.x == self.x1 * kk * self.a, "y - x = x1 k(k-1) a")
        require(self.u == self.x1 + self.w * self.x1 * kk * self.a + kk * self.t,
                "u = x1 + w x1 k(k-1) a + k(k-1) t")
        require(self.u == self.x + self.w * (self.y - self.x), "u = x + w(y-x)")
        require(0 <= self.t < self.a, "0 <= t < a")
        require(self.a >= self.w * self.x1, "a >= w x1")
        require(self.y > self.k * self.x, "y > k x")


@dataclass(frozen=True)
class SpectrumPlan:
    k: int
    w: int
    bound: int
    witnesses: tuple[SpectrumWitness, ...]
    uncovered: tuple[int, ...]


def realized_order(k: int, w: int, x1: int, a: int, t: int) -> int:
    return x1 + w * x1 * k * (k - 1) * a + k * (k - 1) * t


def spectrum_bound(k: int, w: int, x1_list: tuple[int, ...] | list[int]) -> int:
    """Least u above which every admissible u in a covered congruence class
    mod k(k-1) receives a witness: the per-class threshold is
    x1 + k(k-1)*(w*x1)^2, where a >= w*x1 first admits some 0 <= t < a."""
    if not x1_list:
        raise BadParams("the x1 list is empty")
    kk = k * (k - 1)
    return max(x1 + kk * (w * x1) ** 2 for x1 in x1_list)


def witness_for(k: int, w: int, x1: int, u: int) -> SpectrumWitness | None:
    kk = k * (k - 1)
    if u % kk != x1 % kk or u < x1:
        return None
    m = (u - x1) // kk
    a, t = divmod(m, w * x1)
    if a < w * x1 or t >= a:
        return None
    x = x1 + kk * t
    y = x + x1 * kk * a
    return SpectrumWitness(k, w, x1, a, t, x, y, u)


def spectrum_plan(k: int, w: int, x1_list: list[int], u_window: tuple[int, int],
                  x0: int = 0) -> SpectrumPlan:
    """Witnesses for every admissible u in [lo, hi] with u matching some x1
    class mod k(k-1); admissible u in no provided class are reported
    uncovered.  x0 is the subdesign-embedding threshold; it defaults to 0
    with a warning since no concrete value is published."""
    if x0 == 0:
        import warnings
        warnings.warn("subdesign-embedding threshold x0 unset; witnesses assume "
                      "every x above it embeds", stacklevel=2)
    for x1 in x1_list:
        if not is_admissible(x1, k) or x1 <= max(x0, k):
            raise BadParams(f"x1={x1} must be admissible and exceed max(x0, k)")
    if not is_admissible(w, k):
        raise BadParams(f"w={w} must be admissible")
    lo, hi = u_window
    if hi < lo:
        raise BadParams(f"window [{lo}, {hi}] is empty")
    bound = spectrum_bound(k, w, x1_list)
    if lo < bound:
        raise BadParams(f"window starts below coverage bound {bound}")
    kk = k * (k - 1)
    by_class = {x1 % kk: x1 for x1 in sorted(x1_list)}
    witnesses = []
    uncovered = []
    for u in range(lo, hi + 1):
        if not is_admissible(u, k):
            continue
        x1 = by_class.get(u % kk)
        if x1 is None:
            uncovered.append(u)
            continue
        wit = witness_for(k, w, x1, u)
        require(wit is not None, f"order u={u} above the coverage bound has a witness")
        witnesses.append(wit)
    return SpectrumPlan(k, w, bound, tuple(witnesses), tuple(uncovered))
