"""Compact point storage: block tables hold their points in ``point_dtype(v)``,
uint16 while v <= 65,536, else uint32, and every kernel does its arithmetic
in a dtype that holds the results: int64, or uint32 for the pair indices of
uint16 rows.

The kernels run on points near 65,535 in uint16, uint32 and int64 and are
compared with Python-integer references, where an unwidened uint16 product
i'(i'-1) of a reflected pair index or a*zlen would wrap.  Digests hash the
int64 bytes, so they do not depend on the dtype.
"""
from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from steinerkit import design
from steinerkit.affinelift import lift_odd
from steinerkit.basedesigns import build_base_design, steiner_triple_system, wilson_base_block
from steinerkit.compose import (
    CompositionPlan,
    _Indexer,
    _plant_td,
    cyclic_product_design,
    product_design,
)
from steinerkit.design import Design, _pair_chunks, read_design, write_design
from steinerkit.errors import BadParams
from steinerkit.netstd import cyclic_td
from steinerkit.permgrp import PermGroup, Permutation, row_keys, set_images
from steinerkit.textfile import point_dtype

DTYPES = (np.uint16, np.uint32, np.int64)


def holding(top: int) -> list[type]:
    """The dtypes of DTYPES that hold every point below top."""
    return [t for t in DTYPES if np.iinfo(t).max >= top - 1]


def near(top: int, shape: tuple[int, int], seed: int) -> np.ndarray:
    """int64 points below top, most of them within 300 of it, a few small."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(max(top - 300, 0), top, size=shape)
    rows[::7] = rng.integers(0, min(top, 300), size=rows[::7].shape)
    rows[:2] = top - 1
    return rows


@pytest.mark.parametrize("v, dtype", [(1, np.uint16), (65_535, np.uint16), (65_536, np.uint16),
                                      (65_537, np.uint32), (2**32, np.uint32),
                                      (2**32 + 1, np.int64)])
def test_point_dtype_switches_past_65536(v, dtype):
    assert point_dtype(v) == np.dtype(dtype)
    assert np.iinfo(point_dtype(v)).max >= v - 1


@pytest.mark.parametrize("n", [65_536, 65_537, 100_000])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 6])
def test_row_keys_near_65535_match_the_python_reference(n, s):
    rows = near(n, (300, s), seed=n + s)
    rows[-50:] = rows[:50]  # equal rows get equal keys
    bits = (n - 1).bit_length()
    for dtype in holding(n):
        if s * bits > 64:  # the rows have no key
            with pytest.raises(BadParams):
                row_keys(rows.astype(dtype), n)
            continue
        keys = row_keys(rows.astype(dtype), n)
        assert keys.dtype == np.uint64
        # the row's points as bit fields, side by side
        assert keys.tolist() == [sum(x << (bits * (s - 1 - i)) for i, x in enumerate(row))
                                 for row in rows.tolist()]


@pytest.mark.parametrize("top", [65_536, 65_537, 100_000])
def test_reflected_pair_chunks_near_65535_match_the_python_reference(top, monkeypatch):
    # the pair bitmap's layout: each point x read as top-1-x, so pair {i < j}
    # has index i'(i'-1)/2 + j' with i' = top-1-i; a uint16 product would wrap
    monkeypatch.setattr(design, "_ROWS", 40)  # several chunks
    rows = np.array([sorted(set(row)) for row in near(top, (400, 4), seed=top).tolist()
                     if len(set(row)) == 4])
    expect = []
    for row in rows.tolist():
        hi = top - 1 - row[0]  # the pairs through a row's first point lie in one window
        window = range(hi * (hi - 1) // 2, hi * (hi + 1) // 2)
        for i, j in itertools.combinations(row, 2):
            ri, rj = top - 1 - i, top - 1 - j
            expect.append(ri * (ri - 1) // 2 + rj)
            assert expect[-1] in window or i != row[0]
    for dtype in holding(top):
        got = np.concatenate([chunk() for chunk in _pair_chunks(rows.astype(dtype), top)])
        assert got.dtype == np.int64 and sorted(got.tolist()) == sorted(expect)
        assert got.max() < top * (top - 1) // 2


@pytest.mark.parametrize("v", [9, 70_000])
def test_digest_hashes_the_int64_bytes(v, monkeypatch):
    monkeypatch.setattr(design, "_ROWS", 5)  # the hash crosses chunk boundaries
    blocks = sorted({tuple(sorted(row)) for row in near(v, (23, 3), seed=v).tolist()
                     if len(set(row)) == 3})
    d = Design(v, 3, blocks[::-1])
    assert d.blocks.dtype == point_dtype(v) and d.b == len(blocks) > 5
    header = f"DESIGN v={v} k=3 b={len(blocks)}\n".encode()
    reference = hashlib.sha256(header + np.array(blocks, dtype=np.int64).tobytes())
    assert d.digest() == reference.hexdigest()


def test_canonical_compact_blocks_are_adopted_and_int64_are_narrowed():
    sts = steiner_triple_system(9)
    canonical = sts.blocks.copy()
    assert Design(9, 3, canonical).blocks is canonical
    for dtype in DTYPES:
        d = Design(9, 3, sts.blocks.astype(dtype))
        assert d.blocks.dtype == np.uint16 and d == sts
    with pytest.raises(ValueError, match="point index out of range"):
        Design(9, 3, np.array([[0, 1, -1]]))  # refused before a uint16 could wrap it
    with pytest.raises(ValueError, match="point index out of range"):
        Design(65_536, 2, np.array([[0, 65_536]]))


@pytest.mark.parametrize("v", [13, 65_536, 65_537, 100_000])
def test_written_design_reads_back_equal_in_its_dtype(v, tmp_path):
    rows = near(v, (60, 3), seed=v)
    d = Design(v, 3, rows[[len(set(row)) == 3 for row in rows.tolist()]])
    write_design(d, tmp_path / "d.design")
    back = read_design(tmp_path / "d.design")
    assert back == d and back.blocks.dtype == d.blocks.dtype == point_dtype(v)
    assert back.digest() == d.digest()


def test_set_images_refuses_a_point_a_compact_family_cannot_hold():
    # a negative point would wrap in the uint16 family and could match a set
    for rows in ([[0, 1], [1, -1]], [[0, 1], [1, 9]]):
        with pytest.raises(ValueError, match=r"^a set has a point outside 0\.\.8$"):
            set_images(np.array(rows), [Permutation.identity(9)])


def test_lift_odd_blocks_are_compact():
    base = build_base_design(7, 3, wilson_base_block(7, 3))
    d = lift_odd(PermGroup.trivial(3), 7, 3, base).design
    assert d.blocks.dtype == np.uint16 and d.v == 343


# -- symmetry checks on points past 65,535: a few disjoint blocks of 70,000 points,
# checked against Python sets of sorted tuples

WIDE = [(0, 1, 2), (3, 4, 5), (65_534, 65_535, 65_536), (69_997, 69_998, 69_999)]
SWAP = Permutation.from_cycles(70_000, [(0, 69_998), (1, 69_999), (2, 69_997),
                                        (65_534, 65_535, 65_536)])  # permutes the blocks
BREAK = Permutation.from_cycles(70_000, [(5, 6)])  # breaks {3, 4, 5} alone


def image_set(g: Permutation) -> set[tuple[int, ...]]:
    return {tuple(sorted(g.images[list(row)].tolist())) for row in WIDE}


def test_symmetry_checks_past_65535_match_python_sets():
    d = Design(70_000, 3, WIDE)
    assert d.blocks.dtype == np.uint32
    for g in (SWAP, BREAK):
        assert design.is_automorphism(d, g) == (image_set(g) == set(WIDE))
        image = d.relabel(g)
        assert image.blocks.dtype == np.uint32 and image.block_tuples() == sorted(image_set(g))
    broken = Design(70_000, 3, sorted(image_set(BREAK)))
    assert design.is_automorphism(d, SWAP) and not design.is_automorphism(d, BREAK)
    assert design.iso_in_group(d, d, [BREAK, SWAP]) is SWAP
    assert design.iso_in_group(d, broken, [SWAP, BREAK]) is BREAK
    assert design.iso_in_group(d, broken, [SWAP]) is None


def test_stabilizer_scan_past_65535_names_the_python_witness():
    d, group = Design(70_000, 3, WIDE), PermGroup(70_000, [SWAP])
    witness = next((row, g) for g in group.elements() if not g.is_identity()
                   for row in d.block_tuples()
                   if sorted(img := g.images[list(row)].tolist()) == list(row) and img != list(row))
    assert design.is_1_blocked(d, group) == (False, witness)
    assert witness[0] == (65_534, 65_535, 65_536)


# -- products whose points pass 65,535 from uint16 W blocks -----------------------
# W is a block list on 12,000 points (a design candidate, not a design) and Y the
# Fano plane with X = {0}: the product lives on 1 + 12,000 * 6 = 72,001 points, so
# a W point a >= 10,923 lands past 65,535 as 1 + 6a + rank.

W_ROWS = [(0, 4000, 8000), (1, 4001, 8001), (3, 7, 11_999), (5, 10_950, 11_998),
          (4003, 8007, 11_999 - 8000), (8003, 7, 4007)]


def fano() -> Design:
    return build_base_design(7, 3, (0, 1, 3)).design


def reference_product(w: Design, y: Design, td) -> list[tuple[int, ...]]:
    """The plain product with X = {0} in Python integers: Y's blocks copied at
    each W point, and a TD copy on A x Z per W block A."""
    zlen = y.v - 1

    def point(a: int, z: int) -> int:
        return 0 if z == 0 else 1 + a * zlen + z - 1

    out = {tuple(sorted(point(a, z) for z in row)) for a in range(w.v) for row in y.block_tuples()}
    group_of = {p: g for g, points in enumerate(td.groups.tolist()) for p in points}
    rank = {p: j for points in td.groups.tolist() for j, p in enumerate(points)}
    for ablock in w.block_tuples():
        out |= {tuple(sorted(1 + ablock[group_of[p]] * zlen + rank[p] for p in row))
                for row in td.blocks.tolist()}
    return sorted(out)


def test_product_points_past_65535_match_the_python_reference():
    w = Design(12_000, 3, W_ROWS)
    td = cyclic_td(3, 6).td
    d = product_design(CompositionPlan(w, fano(), (0,), td_supplier=lambda *_: td), check=False)
    assert w.blocks.dtype == np.uint16 and d.blocks.dtype == np.uint32 == point_dtype(d.v)
    assert d.v == 72_001 and int(d.blocks.max()) > 65_535
    assert d.block_tuples() == reference_product(w, fano(), td)


def test_td_plants_agree_from_uint16_and_int64_w_rows():
    w = Design(12_000, 3, W_ROWS)
    idx = _Indexer(CompositionPlan(w, fano(), (0,)))
    td = cyclic_td(3, 6).td
    compact = _plant_td(td, idx, w.blocks)
    wide = _plant_td(td, idx, w.blocks.astype(np.int64))
    assert compact.dtype == np.uint32 and np.array_equal(compact, wide)
    assert int(compact.max()) == 1 + 11_999 * 6 + 5
    bar = idx.bar(Permutation.identity(12_000))
    assert bar.dtype == np.uint32 and np.array_equal(bar, np.arange(idx.u))


def test_cyclic_product_past_65535_matches_the_plain_product():
    # rows closed under x -> x + 4000 mod 12,000: two stabilized orbit blocks
    # (aligned through the rotator) and free orbits
    shift = Permutation([(i + 4000) % 12_000 for i in range(12_000)])
    rows = {tuple(sorted(shift.images[list(row)].tolist())) for row in W_ROWS}
    for _ in range(2):
        rows |= {tuple(sorted(shift.images[list(row)].tolist())) for row in rows}
    w = Design(12_000, 3, sorted(rows))
    bundle = cyclic_td(3, 6)
    d, cbar = cyclic_product_design(w, shift, fano(), bundle.td, bundle.rotator, check=False)
    assert d.blocks.dtype == np.uint32 and d.v == 72_001
    assert design.is_automorphism(d, cbar.generators[0])
    plain, _ = cyclic_product_design(w, Permutation.identity(12_000), fano(), bundle.td, None,
                                     check=False)
    assert plain.block_tuples() == reference_product(w, fano(), bundle.td)
