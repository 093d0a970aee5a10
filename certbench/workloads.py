"""The benchmark's two workloads.

Each ``setup_*`` function takes the seed and a scratch directory, prepares
the ingredient files (the part of the run that ``setup_s`` measures) and
returns the seed's variant and the certificate builders that one timed pass
runs, in order.  The variant names the inputs the seed chose; the digests
of every variant are stored in expected.json, so that every run, whatever
its seed, is gated against stored digests.  The
builders make the same public ``steinerkit`` calls as the CLI subcommands
named in README.md, always through the module attribute, so that a traced
pass sees every call.  No call passes ``threads=``.
"""
from __future__ import annotations

import math
import random
from functools import partial
from pathlib import Path
from typing import Callable

from steinerkit import affinelift, basedesigns, compose, gf, netstd, paramsearch, permgrp
from steinerkit import design as sk_design
from steinerkit.permgrp import PermGroup, Permutation

from certify import Certificate

Builders = list[tuple[str, Callable[[], Certificate]]]


# -- odd-lift-z3: construct-odd --out, then verify --group-file --one-blocked --

def _coset_multiplier(p: int, k: int, seed: int) -> int:
    """Least element of a seeded non-trivial coset of the order-t multiplier
    subgroup; multiplying a base block by it keeps the coset criterion and
    the lift cost, and plants a different design."""
    sub = gf.subgroup_of_order(gf.PrimeFieldCtx.create(p), (p - 1) // (k * (k - 1)))
    cosets, _ = gf.coset_partition(sub)
    return cosets[random.Random(seed).randrange(1, len(cosets))][0]


def _odd_lift(a: int, group_file: Path) -> Certificate:
    group = permgrp.group_from_text(group_file.read_text())
    k = 3
    p, _ = paramsearch.prime_for_odd_group(k, group.order())
    block = basedesigns.wilson_base_block(p, k)
    if a != 1:
        block = tuple(a * x % p for x in block)
    base = basedesigns.build_base_design(p, k, block)
    result = affinelift.lift_odd(group, p, k, base)
    return Certificate(result.design, result.group.generators,
                       [("is_1_blocked",
                         lambda d: sk_design.is_1_blocked(d, result.group)[0])])


def setup_odd_lift(seed: int, workdir: Path) -> tuple[str, Builders]:
    """The variant is the base block's multiplier: 1 at seed 0, else one of
    the 5 coset representatives mod 19."""
    group_file = workdir / "z3.group"
    z3 = PermGroup(3, [Permutation.from_cycles(3, [(0, 1, 2)])])
    group_file.write_text(permgrp.group_to_text(z3))
    p, _ = paramsearch.prime_for_odd_group(3, z3.order())
    a = _coset_multiplier(p, 3, seed) if seed else 1
    return f"a={a}", [("odd-lift-z3", partial(_odd_lift, a, group_file))]


# -- small-certs: 52 small certificates ------------------------------------------

def _cyclic_certificate(w, shift: Permutation, y) -> Certificate:
    bundle = netstd.cyclic_td(w.k, y.v - 1)
    out, cbar = compose.cyclic_product_design(w, shift, y, bundle.td, bundle.rotator,
                                              check=False)
    moving = [g for g in cbar.elements() if not g.is_identity()]
    return Certificate(out, moving, [
        ("fixes_exactly_one_point",
         lambda d: all(g.fixed_points() == (0,) for g in moving)),
        ("semiregular_elsewhere",
         lambda d: permgrp.is_semiregular(cbar, range(1, d.v))[0]),
    ])


def _shift_design(v: int, k: int) -> tuple:
    """km_search on <x -> x + v/k> with the point orbits forced as blocks."""
    q = v // k
    shift = Permutation(tuple((i + q) % v for i in range(v)))
    orbit_blocks = [tuple(sorted((i + j * q) % v for j in range(k))) for i in range(q)]
    d = basedesigns.km_search(v, k, PermGroup(v, [shift]), forced_blocks=orbit_blocks)
    return d, shift


def base_primes(k: int, limit: int) -> list[int]:
    """Primes p < limit with p = 1 + k(k-1)t and t odd."""
    m = k * (k - 1)
    return [p for p in range(m + 1, limit, 2 * m) if gf.is_prime(p)]


def _base(p: int, k: int) -> Certificate:
    base = basedesigns.build_base_design(p, k, basedesigns.wilson_base_block(p, k))
    return Certificate(base.design, base.aut_group.generators)


def _km(v: int, images: tuple[int, ...]) -> Certificate:
    group = PermGroup(v, [Permutation(images)])
    return Certificate(basedesigns.km_search(v, 3, group), group.generators)


def _km_shift(v: int) -> Certificate:
    d, shift = _shift_design(v, 3)
    return Certificate(d, (shift,))


def _aligned_z2() -> Certificate:
    """construct-aligned --k 3 with Z2 on two coordinates: STS(361)."""
    k = 3
    group = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])])
    p, _ = paramsearch.prime_for_even_group(k, math.lcm(group.order(), 4))
    # the CLI's canonical order-(k-1) generator: fixes 0, semiregular elsewhere
    images = list(range(p))
    for j in range(1, p, k - 1):
        run = list(range(j, j + k - 1))
        for a, b in zip(run, run[1:] + run[:1]):
            images[a] = b
    cyc = Permutation(tuple(images))
    ingredient = basedesigns.km_search(p, k, PermGroup(p, [cyc]))
    result = affinelift.lift_aligned(group, p, k, ingredient, cyc)
    return Certificate(result.design, result.group.generators)


def _cyclic_pipeline(s_min: int) -> Certificate:
    """compose --mode cyclic --k 3 --h 2 --s-min <s_min>."""
    params = paramsearch.cyclic_assembly_params(3, 2, s_min=s_min)
    w, shift = _shift_design(params.w, 3)
    y = basedesigns.steiner_triple_system(params.y)
    return _cyclic_certificate(w, shift, y)


def _one_blocked_product() -> Certificate:
    """STS(7) x STS(9) with a TD(3,6): the Z7 1-blocked product STS(45)."""
    fano = basedesigns.build_base_design(7, 3, (0, 1, 3)).design
    sts9 = basedesigns.steiner_triple_system(9)
    z7 = PermGroup(7, [Permutation(tuple((i + 1) % 7 for i in range(7)))])
    plan = compose.CompositionPlan(fano, sts9, sts9.block_tuples()[0],
                                   td_supplier=lambda k, n: netstd.mols_td(k, n),
                                   group=z7)
    d, bar = compose.product_design_1blocked(plan, check=False)
    return Certificate(d, bar.generators,
                       [("is_1_blocked", lambda d: sk_design.is_1_blocked(d, bar)[0])])


def small_cert_builders() -> Builders:
    out: Builders = []
    for k, limit in ((3, 600), (4, 250)):
        out += [(f"base-k{k}-p{p}", partial(_base, p, k)) for p in base_primes(k, limit)]
    for v in (19, 25, 27, 33, 43, 49, 57):
        out.append((f"km-neg-v{v}",
                    partial(_km, v, tuple((-x) % v for x in range(v)))))
    for v, s in ((19, 7), (31, 5), (37, 10), (43, 6)):
        out.append((f"km-mul{s}-v{v}",
                    partial(_km, v, tuple(s * x % v for x in range(v)))))
    out += [(f"km-shift-v{v}", partial(_km_shift, v)) for v in (21, 27, 33)]
    out.append(("aligned-z2-v361", _aligned_z2))
    out += [(f"cyclic-h2-v{v}", partial(_cyclic_pipeline, s)) for s, v in ((1, 379), (2, 757))]
    out.append(("product-1blocked-z7-v45", _one_blocked_product))
    return out


def setup_small_certs(seed: int, workdir: Path) -> tuple[str, Builders]:
    """A seed only shuffles the order, so every seed has the same digests."""
    builders = small_cert_builders()
    if seed:
        random.Random(seed).shuffle(builders)
    return "any-order", builders


WORKLOADS = {
    "odd-lift-z3": setup_odd_lift,
    "small-certs": setup_small_certs,
}
