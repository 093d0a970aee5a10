"""Prime-order ingredient designs.

Three sources: difference-family base designs over F_p whose multiplier
subgroup acts block-regularly, a prescribed-automorphism exact-cover search
(the Kramer-Mesner method) for designs with a given group, and a small
library of Steiner triple systems via difference triples.  A relabeling
trick produces pairwise affinely-inequivalent variants of a prime design.

The search holds its candidates as one block array, every k-subset a row
with its orbit number; a design found is the rows of the chosen orbits.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .certify import certify, require_certified
from .design import Design, _sorted_columns, iso_in_group
from .errors import BadParams, Budget, Unsat
from .exactcover import solve_exact_cover
from .gf import MultSubgroup, PrimeFieldCtx, coset_partition, is_prime, subgroup_of_order
from .permgrp import PermGroup, Permutation, orbit_sweep

MAX_BLOCK_CANDIDATES = 2_000_000  # k-subsets ``km_instance`` enumerates before Budget


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


def _multiplier_cosets(p: int, k: int) -> tuple[int, MultSubgroup, dict[int, int]]:
    """t = (p-1)/k(k-1), the order-t multiplier subgroup and the coset of
    each nonzero residue, for k >= 2 and a prime p = 1 mod k(k-1)."""
    if k < 2:
        raise BadParams(f"need block size k >= 2, got {k}")
    if not is_prime(p) or (p - 1) % (k * (k - 1)) != 0:
        raise BadParams(f"need p prime with p = 1 mod {k * (k - 1)}, got {p}")
    t = (p - 1) // (k * (k - 1))
    sub = subgroup_of_order(PrimeFieldCtx.create(p), t)
    return t, sub, coset_partition(sub)[1]


def wilson_base_block(p: int, k: int) -> tuple[int, ...] | None:
    """Lexicographically least base block A with 0 in A whose signed
    differences represent each multiplier-subgroup coset exactly once.

    Requires p prime with p = 1 mod k(k-1).  Returns None if the exhaustive
    scan finds nothing (the caller should pick another prime).
    """
    _, _, lookup = _multiplier_cosets(p, k)
    for rest in itertools.combinations(range(1, p), k - 1):
        block = (0,) + rest
        if _coset_criterion(block, p, lookup, k * (k - 1)):
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
    t, sub, lookup = _multiplier_cosets(p, k)
    block = tuple(sorted(x % p for x in base_block))
    if len(block) != k or not _coset_criterion(block, p, lookup, k * (k - 1)):
        raise BadParams(f"base block {block} fails the coset criterion at p={p}")
    scaled = np.outer(sub.elements, block)
    design = Design(p, k, ((scaled[:, None, :] + np.arange(p)[:, None]) % p).reshape(-1, k))
    require_certified(certify(design), f"orbit design of {block} at p={p}")
    return BaseBlockDesign(p, k, t, sub, block, design)


# -- prescribed-automorphism search --------------------------------------------

@dataclass(frozen=True, eq=False)
class KMInstance:
    """Orbit data for a prescribed-group design search on (v, k): every
    k-subset as a read-only row of ``blocks`` in combinations order, each
    row's orbit number, the least pair of each pair orbit, the kept block
    orbits (``columns``, ascending) and the exact-cover incidence: block
    orbit ``cover_col[i]`` covers pair orbit ``cover_row[i]``, sorted by
    column and then by row."""

    v: int
    k: int
    blocks: np.ndarray
    block_orbit: np.ndarray
    pair_reps: np.ndarray
    columns: np.ndarray
    cover_col: np.ndarray
    cover_row: np.ndarray
    dropped_columns: int


def _subsets(v: int, s: int) -> np.ndarray:
    """The s-subsets of range(v) as rows, in itertools.combinations order:
    each level puts a before every row of the last level that starts above a."""
    rows = np.arange(v)[:, None]
    for _ in range(s - 1):
        start = np.searchsorted(rows[:, 0], np.arange(v), side="right")
        count = len(rows) - start
        tail = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - start, count)
        rows = np.column_stack((np.repeat(np.arange(v), count), rows[tail]))
    return rows


def _subset_rank(points, v: int) -> np.ndarray:
    """Index in itertools.combinations(range(v), s) order of s-subsets given
    as s arrays of points c_0 < ... < c_(s-1): C(v, s) - 1 - sum_i C(v-1-c_i, s-i).
    binom[r, n] = C(n, r) is the sum of C(m, r-1) over m < n, exact in int64
    while C(v, s) is."""
    s = len(points)
    binom = np.zeros((s + 1, v), dtype=np.int64)
    binom[0] = 1
    for r in range(1, s + 1):
        np.cumsum(binom[r - 1, :-1], out=binom[r, 1:])
    return math.comb(v, s) - 1 - sum(binom[s - i, v - 1 - c] for i, c in enumerate(points))


def _rank_images(rows: np.ndarray, v: int, perms) -> np.ndarray:
    """The (len(perms), n) image-index table of the s-subsets of range(v)
    in combinations order: entry [e, i] is the rank of row i's image."""
    out = np.empty((len(perms), len(rows)), dtype=np.int64)
    for slab, g in zip(out, perms):
        slab[:] = _subset_rank(_sorted_columns(g.images[rows], v)[0], v)
    return out


def km_instance(v: int, k: int, group: PermGroup) -> KMInstance:
    """Orbits of the group on pairs and on k-subsets, and the exact-cover
    incidence: block-orbit j covers pair-orbit i when exactly one block of the
    orbit contains the representative pair; orbits covering any pair orbit
    more than once can never appear in a lambda = 1 solution and are dropped.
    """
    if group.degree != v:
        raise BadParams(f"group degree {group.degree} != v {v}")
    n_candidates = math.comb(v, k)
    if n_candidates > MAX_BLOCK_CANDIDATES:
        raise Budget(f"{n_candidates} candidate blocks exceeds the bound {MAX_BLOCK_CANDIDATES}")
    pairs, blocks = _subsets(v, 2), _subsets(v, k)
    pair_reps, pair_orbit = orbit_sweep(_rank_images(pairs, v, group.generators))
    block_reps, block_orbit = orbit_sweep(_rank_images(blocks, v, group.generators))
    # cover counts of (block orbit, representative pair) over every block
    a, b = np.triu_indices(k, 1)
    pair = _subset_rank((blocks[:, a], blocks[:, b]), v)
    hit = np.isin(pair, pair_reps)
    n = len(pair_reps)
    keys, counts = np.unique(np.broadcast_to(block_orbit[:, None], pair.shape)[hit] * n
                             + pair_orbit[pair[hit]], return_counts=True)
    orbit, row = np.divmod(keys, n)
    bad = np.zeros(len(block_reps), dtype=bool)
    bad[orbit[counts > 1]] = True
    keep = ~bad[orbit]
    columns, cover_col, cover_row = np.flatnonzero(~bad), orbit[keep], row[keep]
    pair_reps = pairs[pair_reps]
    for arr in (blocks, block_orbit, pair_reps, columns, cover_col, cover_row):
        arr.setflags(write=False)
    return KMInstance(v, k, blocks, block_orbit, pair_reps, columns, cover_col, cover_row,
                      int(bad.sum()))


def km_search(v: int, k: int, group: PermGroup, forced_blocks=()) -> Design:
    """Exact-cover search for a 2-(v,k,1)-design admitting the group.

    ``forced_blocks`` are k-subsets that must appear in the design (each
    forces its whole orbit).  Raises Unsat when the search is exhaustive and
    empty, or a forced block is no k-subset of range(v) or lies in a dropped
    orbit; Budget when the candidate-block count exceeds its bound.
    """
    inst = km_instance(v, k, group)
    keys = [tuple(sorted(blk)) for blk in forced_blocks]
    subsets = [key for key in keys if len(set(key)) == len(key) == k
               and all(x in range(v) for x in key)]
    ranks = _subset_rank(np.array(subsets, np.int64).reshape(-1, k).T, v)
    orbit = dict(zip(subsets, inst.block_orbit[ranks].tolist()))
    forced = []
    for key in keys:
        cid = orbit.get(key)
        if cid not in inst.columns:
            raise Unsat(f"forced block {key} has no usable orbit")
        if cid not in forced:
            forced.append(cid)
    chosen = solve_exact_cover(inst.cover_col, inst.cover_row, len(inst.pair_reps), forced=forced)
    if chosen is None:
        raise Unsat(f"no 2-({v},{k},1)-design with the prescribed group")
    design = Design(v, k, inst.blocks[np.isin(inst.block_orbit, chosen)])
    require_certified(certify(design, group), "km_search result")
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
    require_certified(certify(design), f"STS({v})")
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
            raise Unsat(f"no {i}-cycle support yields a new variant")
    return chosen
