"""The row-key kernel against the implementations it replaced.

``row_keys`` carries the canonical form of a block array, its equality
(``is_automorphism``, ``iso_in_group``) and set lookups (``set_images``);
``stabilizer_scan`` and ``verify_2design`` run over the same chunks of rows.
Each test draws point counts n and row widths s with n^s both below and above
2^63, where the keys need rank compression, and compares the kernel with the
old code, kept here as references.  The chunked kernels also run with
``design._ROWS`` patched small, so every chunk boundary is crossed.
"""
from __future__ import annotations

import contextlib
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerkit import design
from steinerkit.affinelift import lift_odd
from steinerkit.basedesigns import build_base_design, wilson_base_block
from steinerkit.design import (
    Design,
    VerifyReport,
    is_automorphism,
    iso_in_group,
    pair_counts,
    read_design,
    stabilizer_scan,
    verify_2design,
    write_design,
)
from steinerkit.errors import ActionEscape, BadParams
from steinerkit.netstd import mols_td
from steinerkit.permgrp import PermGroup, Permutation, row_keys, set_images

HYPOTHESIS = settings(max_examples=80, deadline=None)


def lexsort_canonical(rows: np.ndarray) -> np.ndarray:
    """Reference canonical form: sort each row, then lexsort the rows."""
    blocks = np.sort(rows, axis=1)
    if blocks.shape[0]:
        blocks = blocks[np.lexsort(blocks.T[::-1])]
    return blocks


def bytes_set_images(rows, perms) -> np.ndarray:
    """Reference set lookup: a dict keyed on the sorted rows' bytes."""
    keys = np.sort(np.asarray(rows, dtype=np.int64), axis=1)
    lookup = {row.tobytes(): i for i, row in enumerate(keys)}
    out = np.empty((len(perms), len(keys)), dtype=np.int64)
    for e, g in enumerate(perms):
        img = np.sort(g.images[keys], axis=1)
        try:
            out[e] = np.fromiter((lookup[row.tobytes()] for row in img),
                                 dtype=np.int64, count=len(keys))
        except KeyError:
            raise ActionEscape(f"element {e} maps a set outside the family")
    return out


def relabel_maps_onto(h: Permutation, d1: Design, d2: Design) -> bool:
    """Reference automorphism and isomorphism test: the old ``d1.relabel(h) ==
    d2``, with the image put in canonical form by the lexsort reference."""
    image = lexsort_canonical(h.images[d1.blocks])
    return image.shape == d2.blocks.shape and np.array_equal(image, d2.blocks)


def sorting_stabilizer_scan(d: Design, group: PermGroup):
    """Reference 1-blocked scan: every element maps the whole block array,
    whose rows are sorted and compared with the blocks."""
    blocks = d.blocks
    for g in group.elements():
        if g.is_identity():
            continue
        img = g.images[blocks]
        stabilized = np.all(np.sort(img, axis=1) == blocks, axis=1)
        pointwise = np.all(img == blocks, axis=1)
        bad = stabilized & ~pointwise
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            return False, (tuple(blocks[row].tolist()), g)
    return True, None


def counting_verify(d: Design) -> VerifyReport:
    """Reference lambda=1 check: the full pair count table, success or not."""
    counts = pair_counts(d.v, d.blocks)
    deficit = int(np.count_nonzero(counts == 0))
    surplus = int(np.count_nonzero(counts >= 2))
    return VerifyReport(deficit == 0 and surplus == 0, deficit, surplus, d.b)


def least_overflowing(s: int) -> int:
    """Least n with n^s >= 2^63."""
    n = int(2 ** (63 / s))
    while n**s >= 2**63:
        n -= 1
    while n**s < 2**63:
        n += 1
    return n


@st.composite
def point_count(draw, overflow: bool):
    """(n, s) with n^s below 2^63, or at and above it."""
    if overflow:
        s = draw(st.integers(7, 12))
        lo = least_overflowing(s)
        return draw(st.integers(lo, lo + 100)), s
    s = draw(st.integers(1, 6))
    return draw(st.integers(s, min(least_overflowing(s) - 1, 300))), s


def subsets(draw, n: int, s: int, max_size: int = 25) -> list[list[int]]:
    """Up to max_size s-subsets of range(n), in random order, possibly repeated."""
    subset = st.lists(st.integers(0, n - 1), min_size=s, max_size=s, unique=True)
    return draw(st.lists(subset, max_size=max_size))


@contextlib.contextmanager
def small_chunks(data):
    """``design._ROWS`` drawn small, so the chunked kernels cross chunk boundaries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design, "_ROWS", data.draw(st.integers(1, 5), label="_ROWS"))
        yield


def affine_plane(q: int) -> Design:
    """AG(2,q), q prime: point (x, y) is x*q + y; lines y = mx + c and x = c."""
    lines = [[x * q + (m * x + c) % q for x in range(q)] for m in range(q) for c in range(q)]
    return Design(q * q, q, lines + [[c * q + y for y in range(q)] for c in range(q)])


@st.composite
def affine_map(draw, q: int) -> Permutation:
    """(x, y) -> (ax + by + e, cx + dy + f) mod q, an automorphism of AG(2,q)."""
    a, b, c, d = draw(st.lists(st.integers(0, q - 1), min_size=4, max_size=4)
                      .filter(lambda m: (m[0] * m[3] - m[1] * m[2]) % q))
    e, f = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
    return Permutation(tuple(((a * x + b * y + e) % q) * q + (c * x + d * y + f) % q
                             for x in range(q) for y in range(q)))


@st.composite
def closed_family(draw, overflow: bool):
    """Distinct s-subsets closed under a random involution g, and g itself;
    with a coin flip, also a random permutation, which usually escapes."""
    n, s = draw(point_count(overflow))
    g = list(range(n))
    shuffled = draw(st.permutations(range(n)))
    for i in range(draw(st.integers(0, n // 2))):
        a, b = shuffled[2 * i], shuffled[2 * i + 1]
        g[a], g[b] = b, a
    seen, family = set(), []
    for row in subsets(draw, n, s, max_size=12):
        for image in (row, [g[x] for x in row]):
            if frozenset(image) not in seen:
                seen.add(frozenset(image))
                family.append(image)
    perms = [Permutation(tuple(g))]
    if draw(st.booleans()):
        perms.append(Permutation(tuple(draw(st.permutations(range(n))))))
    return n, s, family, perms


@pytest.mark.parametrize("overflow", [False, True])
@HYPOTHESIS
@given(data=st.data())
def test_row_keys_order_rows_lexicographically(overflow, data):
    n, s = data.draw(point_count(overflow))
    rows = np.array(data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=s,
                                                max_size=s), max_size=25)),
                    dtype=np.int64).reshape(-1, s)
    keys = row_keys(rows, n)
    pairs = sorted(set(zip(map(tuple, rows.tolist()), keys.tolist())))
    assert len({row for row, _ in pairs}) == len(pairs)  # equal rows, equal keys
    assert all(a[1] < b[1] for a, b in zip(pairs, pairs[1:]))  # key order is row order


@pytest.mark.parametrize("overflow", [False, True])
@HYPOTHESIS
@given(data=st.data())
def test_canonical_form_matches_lexsort(overflow, data):
    v, k = data.draw(point_count(overflow))
    rows = np.array(subsets(data.draw, v, k), dtype=np.int64).reshape(-1, k)
    with small_chunks(data):
        assert np.array_equal(Design(v, k, rows).blocks, lexsort_canonical(rows))


@pytest.mark.parametrize("overflow", [False, True])
@HYPOTHESIS
@given(data=st.data())
def test_set_images_matches_bytes_lookup(overflow, data):
    n, s, family, perms = data.draw(closed_family(overflow))
    rows = np.array(family, dtype=np.int64).reshape(-1, s)
    try:
        expect = bytes_set_images(rows, perms)
    except ActionEscape:
        with pytest.raises(ActionEscape):
            set_images(rows, perms)
    else:
        assert np.array_equal(set_images(rows, perms), expect)


@pytest.mark.parametrize("overflow", [False, True])
@HYPOTHESIS
@given(data=st.data())
def test_is_automorphism_matches_block_sets(overflow, data):
    v, k, family, perms = data.draw(closed_family(overflow))
    d = Design(v, k, np.array(family, dtype=np.int64).reshape(-1, k))
    with small_chunks(data):
        for g in perms:
            image = frozenset(tuple(sorted(g(x) for x in row)) for row in d.block_tuples())
            assert is_automorphism(d, g) == (image == d.block_set())
            assert is_automorphism(d, g) == relabel_maps_onto(g, d, d)


@pytest.mark.parametrize("overflow", [False, True])
@HYPOTHESIS
@given(data=st.data())
def test_scan_and_verify_match_references_on_families(overflow, data):
    v, k, family, perms = data.draw(closed_family(overflow))
    g = perms[0].images
    # plant a g-invariant set: g stabilizes it, pointwise only if g fixes it
    planted, points = [], data.draw(st.permutations(range(v)))
    for x in points:
        orbit = {x, g[x]}
        if len(planted) + len(orbit) <= k and not orbit & set(planted):
            planted += sorted(orbit)
    if len(planted) == k and frozenset(planted) not in map(frozenset, family):
        family.insert(data.draw(st.integers(0, len(family))), planted)
    d = Design(v, k, np.array(family, dtype=np.int64).reshape(-1, k))
    group = PermGroup(v, perms, _elements=(Permutation.identity(v), *perms))
    with small_chunks(data):
        assert stabilizer_scan(d, group) == sorting_stabilizer_scan(d, group)
        assert verify_2design(d) == counting_verify(d)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])  # AG(2,q) keys overflow from q = 11
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernels_match_references_on_affine_plane_mutants(q, data):
    plane = affine_plane(q)
    rows = plane.blocks.copy()
    mutation = data.draw(st.sampled_from(["none", "duplicate", "point", "relabel"]))
    i, j = data.draw(st.lists(st.integers(0, plane.b - 1), min_size=2, max_size=2, unique=True))
    if mutation == "duplicate":  # b stays the same, so the bitmap path runs and fails
        rows[i] = rows[j]
    elif mutation == "point":
        rows[i, data.draw(st.integers(0, q - 1))] = data.draw(
            st.sampled_from(sorted(set(range(q * q)) - set(rows[i].tolist()))))
    elif mutation == "relabel":
        rows = np.array(data.draw(st.permutations(range(q * q))))[rows]
    maps = [data.draw(affine_map(q)) for _ in range(2)]
    group = PermGroup(q * q, maps, _elements=(Permutation.identity(q * q), *maps))
    with small_chunks(data):
        d = Design(q * q, q, rows)
        assert np.array_equal(d.blocks, lexsort_canonical(rows))
        assert verify_2design(d) == counting_verify(d)
        assert verify_2design(d).ok == (mutation in ("none", "relabel"))
        for g in maps:
            assert is_automorphism(d, g) == relabel_maps_onto(g, d, d)
        assert iso_in_group(plane, d, maps) == next(
            (h for h in maps if relabel_maps_onto(h, plane, d)), None)
        assert stabilizer_scan(d, group) == sorting_stabilizer_scan(d, group)


@pytest.mark.parametrize("overflow", [False, True])
@HYPOTHESIS
@given(data=st.data())
def test_parse_inverts_serialize(overflow, data, tmp_path_factory):
    v, k = data.draw(point_count(overflow))
    d = Design(v, k, np.array(subsets(data.draw, v, k), dtype=np.int64).reshape(-1, k))
    path = tmp_path_factory.mktemp("designs") / "d.design"
    write_design(d, path)
    assert read_design(path) == d
    head, _, body = path.read_text().partition("\n")
    path.write_text(f"# before\n{head}\n# after the header\n\n{body}")
    assert read_design(path) == d


def test_empty_family_has_empty_image_table():
    table = set_images(np.empty((0, 3), dtype=np.int64), [Permutation.identity(5)] * 2)
    assert table.shape == (2, 0)


def test_set_images_wide_set_escape():
    # 16 points of 256 need rank compression: keyed in separate calls, the set
    # and its image would both be rank 0, and the image would look like a member
    wide = np.array([list(range(8)) + list(range(100, 108))])
    with pytest.raises(ActionEscape):
        set_images(wide, [Permutation.from_cycles(256, [(0, 50)])])
    assert set_images(wide, [Permutation.identity(256)]).tolist() == [[0]]


def test_td_is_automorphism_on_wide_blocks():
    td = mols_td(16, 16)  # 256 blocks of 16 points on 256 points
    for a, b in ((0, 50), (15, 16)):  # separately keyed, (15 16) passes
        assert not td.is_automorphism(Permutation.from_cycles(256, [(a, b)]))
    assert td.is_automorphism(Permutation.identity(256))


# -- mutation checks on a lifted design ----------------------------------------


@functools.cache
def lifted() -> Design:
    """2-(343,3,1): AG(3,7) lifted from the 7-point base design, 19,551 blocks."""
    base = build_base_design(7, 3, wilson_base_block(7, 3))
    return lift_odd(PermGroup.trivial(3), 7, 3, base).design


def translation(p: int, d: int) -> Permutation:
    """x -> x + e_0 on AG(d,p), point x numbered sum x_j p^j.  The base design
    is cyclic, so this maps the lift onto itself."""
    return Permutation(tuple(i - i % p + (i + 1) % p for i in range(p**d)))


@pytest.fixture(params=[design._ROWS, 1000], ids=["one-chunk", "20-chunks"])
def chunk_rows(request, monkeypatch):
    monkeypatch.setattr(design, "_ROWS", request.param)


def test_replaced_block_breaks_the_automorphism(chunk_rows):
    d, g = lifted(), translation(7, 3)
    assert is_automorphism(d, g) and relabel_maps_onto(g, d, d)
    assert (0, 1, 2) not in d.block_set()
    for i in (0, 9_999, d.b - 1):
        blocks = d.blocks.copy()
        blocks[i] = [0, 1, 2]
        mutant = Design(d.v, d.k, blocks)
        assert mutant.b == d.b
        assert not is_automorphism(mutant, g) and not relabel_maps_onto(g, mutant, mutant)
        assert iso_in_group(d, mutant, [Permutation.identity(d.v), g]) is None


def test_duplicated_block_reports_the_reference_deficit_and_surplus(chunk_rows):
    d = lifted()
    assert verify_2design(d) == counting_verify(d) and verify_2design(d).ok
    for i, j in ((5, 6), (0, d.b - 1), (12_345, 3)):
        blocks = d.blocks.copy()
        blocks[i] = blocks[j]
        mutant = Design(d.v, d.k, blocks)
        rep = verify_2design(mutant)
        assert mutant.b == d.b and not rep.ok
        assert rep == counting_verify(mutant)
        assert (rep.pair_deficit, rep.pair_surplus) == (3, 3)


def stabilizing(d: Design) -> tuple[tuple, Permutation, tuple, Permutation]:
    """Block 15,000 with a transposition of two of its points, and block 4,000
    with the 3-cycle on its points: each stabilizes its block, not pointwise."""
    late, early = d.block_tuples()[15_000], d.block_tuples()[4_000]
    return (late, Permutation.from_cycles(d.v, [late[:2]]),
            early, Permutation.from_cycles(d.v, [early]))


def test_stabilized_block_gives_the_reference_witness(chunk_rows):
    d = lifted()
    late, swap, early, turn = stabilizing(d)
    for perms, witness in (([swap], (late, swap)), ([turn], (early, turn)), ([swap, turn], None)):
        group = PermGroup(d.v, perms)
        got = stabilizer_scan(d, group)
        assert got == sorting_stabilizer_scan(d, group) and not got[0]
        assert witness is None or got[1] == witness
    assert stabilizer_scan(d, PermGroup(d.v, [translation(7, 3)])) == (True, None)


def test_symmetry_checks_build_no_image_design(monkeypatch):
    d, g = lifted(), translation(7, 3)
    late, swap, _, _ = stabilizing(d)

    def refuse(self, *args):
        raise AssertionError("a Design was built")

    monkeypatch.setattr(design.Design, "__init__", refuse)
    assert is_automorphism(d, g) and not is_automorphism(d, swap)
    assert iso_in_group(d, d, [swap, g]) == g
    assert stabilizer_scan(d, PermGroup(d.v, [g])) == (True, None)
    assert stabilizer_scan(d, PermGroup(d.v, [swap])) == (False, (late, swap))


# -- one worker or two -----------------------------------------------------------
# The kernels run their chunks through ``chunkmap.chunk_map``; forced to 1
# worker and to 2, on 20 chunks, they give the same answers.

@pytest.fixture
def twenty_chunks(monkeypatch):
    monkeypatch.setattr(design, "_ROWS", 1000)


def test_canonical_form_is_the_same_on_one_worker_or_two(twenty_chunks, one_and_two_workers):
    d = lifted()
    rng = np.random.default_rng(7)
    shuffled = np.array([rng.permutation(row) for row in d.blocks[rng.permutation(d.b)]])
    one, two = one_and_two_workers(lambda: Design(d.v, d.k, shuffled).blocks.tobytes())
    assert one == two == d.blocks.tobytes()
    repeated = shuffled.copy()
    repeated[12_345, 1] = repeated[12_345, 0]
    one, two = one_and_two_workers(lambda: Design(d.v, d.k, repeated))
    assert one == two == (BadParams, "repeated point inside a block")


def test_failing_verify_is_the_same_on_one_worker_or_two(twenty_chunks, one_and_two_workers):
    d = lifted()
    blocks = d.blocks.copy()
    blocks[12_345] = blocks[3]
    mutant = Design(d.v, d.k, blocks)
    one, two = one_and_two_workers(lambda: verify_2design(mutant))
    assert one == two == counting_verify(mutant) == VerifyReport(False, 3, 3, d.b)


def test_failing_automorphism_is_the_same_on_one_worker_or_two(twenty_chunks,
                                                                 one_and_two_workers):
    d, g = lifted(), translation(7, 3)
    blocks = d.blocks.copy()
    blocks[9_999] = [0, 1, 2]
    mutant = Design(d.v, d.k, blocks)
    assert one_and_two_workers(lambda: is_automorphism(d, g)) == [True, True]
    assert one_and_two_workers(lambda: is_automorphism(mutant, g)) == [False, False]


def test_first_stabilizer_violation_is_the_same_on_one_worker_or_two(twenty_chunks,
                                                                      one_and_two_workers):
    d = lifted()
    late, swap, early, turn = stabilizing(d)
    group = PermGroup(d.v, [swap, turn])
    one, two = one_and_two_workers(lambda: stabilizer_scan(d, group))
    assert one == two == sorting_stabilizer_scan(d, group)
    assert not one[0]
