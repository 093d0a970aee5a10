"""The row-key kernel against the implementations it replaced.

``row_keys`` carries the canonical form of a block array, its equality
(``is_automorphism``) and set lookups (``set_images``).  Each test draws point
counts n and row widths s with n^s both below and above 2^63, where the keys
need rank compression, and compares the kernel with the old code, kept here
as references.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerkit.design import Design, is_automorphism, read_design, write_design
from steinerkit.errors import ActionEscape
from steinerkit.netstd import mols_td
from steinerkit.permgrp import Permutation, row_keys, set_images

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
        img = np.sort(g.array[keys], axis=1)
        try:
            out[e] = np.fromiter((lookup[row.tobytes()] for row in img),
                                 dtype=np.int64, count=len(keys))
        except KeyError:
            raise ActionEscape(f"element {e} maps a set outside the family")
    return out


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
    for g in perms:
        image = frozenset(tuple(sorted(g(x) for x in row)) for row in d.block_tuples())
        assert is_automorphism(d, g) == (image == d.block_set())


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
