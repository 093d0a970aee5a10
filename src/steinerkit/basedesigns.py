"""Prime-order ingredient designs.

Three sources: difference-family base designs over F_p whose multiplier
subgroup acts block-regularly, a prescribed-automorphism exact-cover search
(the Kramer-Mesner method) for designs with a given group, and a small
library of Steiner triple systems via difference triples.  A relabeling
trick produces pairwise affinely-inequivalent variants of a prime design.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .design import Design, is_automorphism, iso_in_group, verify_2design
from .errors import (
    BadParams,
    CriterionFailed,
    Infeasible,
    Unsat,
    VariantsExhausted,
    require,
)
from .exactcover import solve_exact_cover
from .gf import MultSubgroup, PrimeFieldCtx, coset_partition, is_prime, subgroup_of_order
from .permgrp import PermGroup, Permutation, orbit_sweep, set_images


# -- difference-family base designs --------------------------------------------

def _coset_criterion(block: tuple[int, ...], p: int, lookup: dict[int, int],
                     n_cosets: int) -> bool:
    """The k(k-1) signed differences of the block must hit every coset of the
    multiplier subgroup exactly once."""
    seen = 0
    count = 0
    for a, b in itertools.permutations(block, 2):
        bit = 1 << lookup[(a - b) % p]
        if seen & bit:
            return False
        seen |= bit
        count += 1
    return count == n_cosets


def wilson_base_block(p: int, k: int) -> tuple[int, ...] | None:
    """Lexicographically least base block A with 0 in A whose signed
    differences represent each multiplier-subgroup coset exactly once.

    Requires p prime with p = 1 mod k(k-1).  Returns None if the exhaustive
    scan finds nothing (the caller should pick another prime).
    """
    if not is_prime(p) or (p - 1) % (k * (k - 1)) != 0:
        raise BadParams(f"need p prime with p = 1 mod {k * (k - 1)}, got {p}")
    t = (p - 1) // (k * (k - 1))
    ctx = PrimeFieldCtx.create(p)
    sub = subgroup_of_order(ctx, t)
    _, lookup = coset_partition(sub)
    n_cosets = k * (k - 1)
    for rest in itertools.combinations(range(1, p), k - 1):
        block = (0,) + rest
        if _coset_criterion(block, p, lookup, n_cosets):
            return block
    return None


def multiplier_group(p: int, t: int) -> PermGroup:
    """The order p*t group {x -> s*x + b : s in S, b in F_p} on F_p."""
    ctx = PrimeFieldCtx.create(p)
    s_gen = pow(ctx.primitive_root, (p - 1) // t, p)
    translation = Permutation(tuple((x + 1) % p for x in range(p)))
    scaling = Permutation(tuple(s_gen * x % p for x in range(p)))
    return PermGroup(p, (translation, scaling))


@dataclass(frozen=True)
class BaseBlockDesign:
    """Orbit design {sA + b : s in S, b in F_p} of a base block A."""

    p: int
    k: int
    t: int
    subgroup: MultSubgroup
    base_block: tuple[int, ...]
    design: Design

    @property
    def aut_group(self) -> PermGroup:
        return multiplier_group(self.p, self.t)


def build_base_design(p: int, k: int, base_block) -> BaseBlockDesign:
    """Expand a base block to its p*t-block orbit design and verify it."""
    t = (p - 1) // (k * (k - 1))
    ctx = PrimeFieldCtx.create(p)
    sub = subgroup_of_order(ctx, t)
    _, lookup = coset_partition(sub)
    block = tuple(sorted(x % p for x in base_block))
    if len(block) != k or not _coset_criterion(block, p, lookup, k * (k - 1)):
        raise CriterionFailed(f"base block {block} fails the coset criterion at p={p}")
    scaled = np.outer(sub.elements, block)
    design = Design(p, k, ((scaled[:, None, :] + np.arange(p)[:, None]) % p).reshape(-1, k))
    report = verify_2design(design)
    if not report.ok:
        raise CriterionFailed(f"orbit design failed verification: {report}")
    return BaseBlockDesign(p, k, t, sub, block, design)


# -- prescribed-automorphism search --------------------------------------------

@dataclass(frozen=True)
class KMInstance:
    """Orbit data for a prescribed-group design search on (v, k)."""

    v: int
    k: int
    pair_orbit_reps: tuple[tuple[int, int], ...]
    block_orbit_reps: tuple[tuple[int, ...], ...]
    columns: dict[int, frozenset[int]]
    orbit_blocks: tuple[tuple[tuple[int, ...], ...], ...]
    dropped_columns: int


def km_instance(v: int, k: int, group: PermGroup,
                max_block_candidates: int = 2_000_000) -> KMInstance:
    """Orbits of the group on pairs and on k-subsets, and the exact-cover
    columns: block-orbit j covers pair-orbit i when exactly one block of the
    orbit contains the representative pair; orbits covering any pair orbit
    more than once can never appear in a lambda = 1 solution and are dropped.
    """
    if group.degree != v:
        raise BadParams(f"group degree {group.degree} != v {v}")
    n_candidates = math.comb(v, k)
    if n_candidates > max_block_candidates:
        raise Infeasible(f"{n_candidates} candidate blocks exceeds the bound "
                         f"{max_block_candidates}")
    pair_reps, block_reps, block_orbit, bounds, row, bad = _km_orbits(v, k, group.generators)
    columns = {cid: frozenset(row[bounds[cid]:bounds[cid + 1]])
               for cid in np.flatnonzero(~bad).tolist()}
    order = np.argsort(block_orbit, kind="stable")
    starts = np.searchsorted(block_orbit[order], np.arange(len(block_reps) + 1)).tolist()
    pairs = tuple(itertools.combinations(range(v), 2))
    blocks = tuple(itertools.combinations(range(v), k))
    by_orbit = tuple(map(blocks.__getitem__, order.tolist()))
    return KMInstance(v, k, tuple(map(pairs.__getitem__, pair_reps.tolist())),
                      tuple(map(blocks.__getitem__, block_reps.tolist())), columns,
                      tuple(by_orbit[s:e] for s, e in zip(starts, starts[1:])),
                      int(bad.sum()))


def _subsets(v: int, s: int) -> np.ndarray:
    """The s-subsets of range(v) as rows, in itertools.combinations order."""
    n = math.comb(v, s)
    flat = itertools.chain.from_iterable(itertools.combinations(range(v), s))
    return np.fromiter(flat, dtype=np.int64, count=n * s).reshape(n, s)


def _km_orbits(v: int, k: int, generators):
    """Orbits on the pairs and the k-subsets of range(v), in combinations
    order, and the cover counts of (block orbit, representative pair): per
    block orbit, its covered pair orbits' bounds in the row list, and whether
    it covers one of them twice."""
    pair_reps, pair_orbit = orbit_sweep(set_images(_subsets(v, 2), generators))
    rows = _subsets(v, k)
    block_reps, block_orbit = orbit_sweep(set_images(rows, generators))
    a, b = np.triu_indices(k, 1)
    x, y = rows[:, a], rows[:, b]
    pair = x * (2 * v - x - 1) // 2 + y - x - 1  # index in combinations order
    hit = np.isin(pair, pair_reps)
    n = len(pair_reps)
    keys, counts = np.unique(np.broadcast_to(block_orbit[:, None], pair.shape)[hit] * n
                             + pair_orbit[pair[hit]], return_counts=True)
    orbit, row = np.divmod(keys, n)
    bad = np.zeros(len(block_reps), dtype=bool)
    bad[orbit[counts > 1]] = True
    bounds = np.searchsorted(orbit, np.arange(len(block_reps) + 1)).tolist()
    return pair_reps, block_reps, block_orbit, bounds, row.tolist(), bad


def km_search(v: int, k: int, group: PermGroup, forced_blocks=(),
              max_block_candidates: int = 2_000_000,
              max_nodes: int = 50_000_000) -> Design:
    """Exact-cover search for a 2-(v,k,1)-design admitting the group.

    ``forced_blocks`` are k-subsets that must appear in the design (each
    forces its whole orbit).  Raises Unsat when the search is exhaustive and
    empty, Infeasible when the candidate-block count exceeds its bound.
    """
    inst = km_instance(v, k, group, max_block_candidates)
    orbit_of_block = {}
    for cid, blocks in enumerate(inst.orbit_blocks):
        for blk in blocks:
            orbit_of_block[blk] = cid
    forced = []
    for blk in forced_blocks:
        key = tuple(sorted(blk))
        cid = orbit_of_block.get(key)
        if cid is None or cid not in inst.columns:
            raise Unsat(f"forced block {key} has no usable orbit")
        if cid not in forced:
            forced.append(cid)
    chosen = solve_exact_cover(inst.columns, range(len(inst.pair_orbit_reps)),
                               forced=forced, max_nodes=max_nodes)
    if chosen is None:
        raise Unsat(f"no 2-({v},{k},1)-design with the prescribed group")
    blocks = [blk for cid in chosen for blk in inst.orbit_blocks[cid]]
    design = Design(v, k, blocks)
    report = verify_2design(design)
    require(report.ok, f"km_search result is a 2-design ({report})")
    for g in group.generators:
        require(is_automorphism(design, g), "km_search result admits every generator")
    return design


# -- Steiner triple system library ----------------------------------------------

def _difference_triples(v: int) -> list[tuple[int, int, int]] | None:
    """Partition the nonzero half-differences mod v into triples (a,b,c) with
    a + b = c or a + b + c = v, skipping v/3 when 3 | v."""
    top = (v - 1) // 2
    pool = set(range(1, top + 1))
    if v % 3 == 0:
        pool.discard(v // 3)
    out: list[tuple[int, int, int]] = []

    def extend() -> bool:
        if not pool:
            return True
        a = min(pool)
        pool.discard(a)
        for b in sorted(pool):
            for c in ((a + b), (v - a - b)):
                if c != b and c in pool:
                    pool.discard(b)
                    pool.discard(c)
                    out.append((a, b, c))
                    if extend():
                        return True
                    out.pop()
                    pool.add(b)
                    pool.add(c)
        pool.add(a)
        return False

    return out if extend() else None


def steiner_triple_system(v: int) -> Design:
    """An STS(v) for admissible v: cyclic via difference triples, with the
    affine plane of order 3 covering the one admissible order (v=9) that has
    no cyclic system."""
    if v == 3:
        return Design(3, 3, [[0, 1, 2]])
    if v == 9:
        blocks = [[3 * x + (m * x + b) % 3 for x in range(3)] for m in range(3) for b in range(3)]
        blocks += [[3 * c, 3 * c + 1, 3 * c + 2] for c in range(3)]
        return Design(9, 3, blocks)
    if v % 6 not in (1, 3):
        raise BadParams(f"no STS on {v} points: v must be 1 or 3 mod 6")
    triples = _difference_triples(v)
    if triples is None:
        raise Unsat(f"difference-triple search failed at v={v}")
    blocks = []
    for a, b, _ in triples:
        for i in range(v):
            blocks.append(sorted((i, (i + a) % v, (i + a + b) % v)))
    if v % 3 == 0:
        third = v // 3
        for i in range(third):
            blocks.append([i, i + third, i + 2 * third])
    design = Design(v, 3, blocks)
    require(verify_2design(design).ok, f"STS({v}) is a 2-design")
    return design


# -- pairwise inequivalent variants ----------------------------------------------

def affine_maps(p: int) -> list[Permutation]:
    """All p(p-1) maps x -> a*x + b on F_p, in (a, b) order."""
    return [Permutation(tuple((a * x + b) % p for x in range(p)))
            for a in range(1, p) for b in range(p)]


def inequivalent_variants(design: Design, count: int = 3) -> list[Design]:
    """Variants of a prime-order design that are pairwise non-isomorphic under
    the affine maps of F_p.

    Variant i is the image of the base design under an i-cycle on i
    consecutive points; if a cycle support collides with an earlier variant
    the support is shifted deterministically and retried.
    """
    p = design.v
    if count not in (2, 3) or p < 5:
        raise BadParams("count must be 2 or 3 and the design must have >= 5 points")
    maps = affine_maps(p)
    chosen = [design]
    for i in range(2, count + 1):
        placed = False
        for offset in range(p - i + 1):
            cyc = Permutation.from_cycles(p, [tuple(range(offset, offset + i))])
            candidate = design.relabel(cyc)
            if all(iso_in_group(candidate, other, maps) is None for other in chosen):
                chosen.append(candidate)
                placed = True
                break
        if not placed:
            raise VariantsExhausted(f"no {i}-cycle support yields a new variant")
    return chosen
