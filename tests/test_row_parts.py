"""Designs built from pushed row parts.

The lifts and the products hand ``Design`` a list of ``RowPart``s: each part
gathers its rows when it is made, and the design keys the parts into one key
array, sorts it and decodes it.  These tests hold that route to a plain
canonical form of the same rows (each row sorted, then the rows lexsorted),
to the same errors as array input, to the same bytes on one worker as on
all, and to a memory peak with no room for a full unsorted block table or a
full plant table.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from steinerkit import affinelift, chunkmap, compose, design, permgrp
from steinerkit.affinelift import lift_aligned, lift_odd
from steinerkit.basedesigns import build_base_design, km_search, steiner_triple_system
from steinerkit.compose import (
    CompositionPlan,
    cyclic_product_design,
    product_design,
    product_design_1blocked,
)
from steinerkit.design import Design
from steinerkit.errors import BadParams
from steinerkit.netstd import cyclic_td
from steinerkit.permgrp import PermGroup, Permutation, RowPart, push
from steinerkit.textfile import point_dtype


def fano() -> Design:
    return build_base_design(7, 3, (0, 1, 3)).design


@pytest.fixture(scope="module")
def sts19_with_inversion():
    inv = Permutation([(-x) % 19 for x in range(19)])
    return km_search(19, 3, PermGroup(19, [inv])), inv


@pytest.fixture(scope="module")
def sts21_with_z3():
    shift = Permutation([(i + 7) % 21 for i in range(21)])
    orbit_blocks = [(i, i + 7, i + 14) for i in range(7)]
    return km_search(21, 3, PermGroup(21, [shift]), forced_blocks=orbit_blocks), shift


def routes(sts19_with_inversion, sts21_with_z3):
    """Each route that builds from pushed parts: (module whose ``Design`` it
    calls, a call that builds the design)."""
    ingredient, inv = sts19_with_inversion
    w21, shift = sts21_with_z3
    sts9 = steiner_triple_system(9)
    block = sts9.block_tuples()[0]
    z7 = PermGroup(7, [Permutation([(i + 1) % 7 for i in range(7)])])
    bundle = cyclic_td(3, 18)
    return {
        "lift_odd": (affinelift, lambda: lift_odd(PermGroup.trivial(2), 19, 3,
                                                  build_base_design(19, 3, (0, 1, 4))).design),
        "lift_aligned": (affinelift, lambda: lift_aligned(
            PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])]), 19, 3, ingredient, inv).design),
        "plain product": (compose, lambda: product_design(CompositionPlan(fano(), sts9, block))),
        "1-blocked product": (compose, lambda: product_design_1blocked(
            CompositionPlan(fano(), sts9, block, group=z7))[0]),
        "cyclic product": (compose, lambda: cyclic_product_design(
            w21, shift, steiner_triple_system(19), bundle.td, bundle.rotator)[0]),
    }


ROUTES = ["lift_odd", "lift_aligned", "plain product", "1-blocked product", "cyclic product"]


@pytest.mark.parametrize("route", ROUTES)
def test_parts_build_the_plain_canonical_form(route, monkeypatch, sts19_with_inversion,
                                              sts21_with_z3):
    module, build = routes(sts19_with_inversion, sts21_with_z3)[route]
    monkeypatch.setattr(design, "_ROWS", 50)  # many key chunks
    monkeypatch.setattr(permgrp, "_PART_ROWS", 50)  # many parts per element
    seen = []

    def recording(v, k, parts):
        assert isinstance(parts, list) and all(isinstance(part, RowPart) for part in parts)
        seen.append(np.concatenate([part.make() for part in parts]))
        return Design(v, k, parts)

    monkeypatch.setattr(module, "Design", recording)
    d = build()
    rows, = seen
    assert len(rows) == d.b and len(rows) > 5 * 50
    plain = np.sort(rows.astype(np.int64), axis=1)
    plain = plain[np.lexsort(plain.T[::-1])]
    assert np.all(np.any(plain[1:] != plain[:-1], axis=1))  # no block twice
    assert d.blocks.dtype == point_dtype(d.v)
    assert not d.blocks.flags.writeable and d.blocks.base is None
    assert np.array_equal(d.blocks, plain)


def pushed(plant, images) -> list[RowPart]:
    """The parts of one orbit of one member: the line 0..4 read at the plant,
    through the point images."""
    lines = np.arange(5, dtype=np.uint16)[None]
    return push(np.array([images], dtype=np.uint16), lines, np.array(plant), np.zeros(1, int),
                np.zeros(1, int))


@pytest.mark.parametrize("plant, images, message", [
    ([[0, 1, 2], [1, 3, 3]], [0, 1, 2, 3, 4], "repeated point inside a block"),
    ([[0, 1, 2], [2, 3, 4]], [0, 1, 2, 3, 9], "point index out of range"),
])
def test_a_bad_part_raises_what_array_input_raises(plant, images, message):
    parts = pushed(plant, images)
    rows = np.concatenate([part.make() for part in parts])
    for blocks in (rows, parts):
        with pytest.raises(BadParams, match=f"^{message}$"):
            Design(9, 3, blocks)


@pytest.mark.parametrize("route", ["lift_aligned", "cyclic product"])
def test_one_worker_builds_the_same_bytes(route, monkeypatch, sts19_with_inversion,
                                         sts21_with_z3):
    monkeypatch.setattr(design, "_ROWS", 500)
    monkeypatch.setattr(permgrp, "_PART_ROWS", 500)
    build = routes(sts19_with_inversion, sts21_with_z3)[route][1]
    default = build()
    monkeypatch.setattr(chunkmap, "WORKERS", 1)
    alone = build()
    assert np.array_equal(alone.blocks, default.blocks)
    assert alone.digest() == default.digest()


def test_lift_builds_in_key_array_and_table_memory(monkeypatch):
    """From the end of the line stage to the end of the lift, the traced
    peak stays under the key array, the table and a few chunks.  With the
    trivial group every line is a representative, so a full plant table,
    like a full unsorted block table, takes as much room as the table."""
    rows = 1 << 12
    monkeypatch.setattr(design, "_ROWS", rows)
    monkeypatch.setattr(permgrp, "_PART_ROWS", rows)
    base = build_base_design(43, 3, (0, 1, 7))
    line_orbits = affinelift._line_orbits
    start = []

    def traced_line_orbits(*args):
        orb = line_orbits(*args)
        tracemalloc.reset_peak()
        start.append(tracemalloc.get_traced_memory()[0])
        return orb

    monkeypatch.setattr(affinelift, "_line_orbits", traced_line_orbits)
    tracemalloc.start()
    try:
        d = lift_odd(PermGroup.trivial(2), 43, 3, base).design
        peak = tracemalloc.get_traced_memory()[1] - start[0]
    finally:
        tracemalloc.stop()
    assert d.b == 1849 * 1848 // 6
    keys, table = d.b * 8, d.blocks.nbytes
    chunks = 4 * rows * 64  # a chunk's made, sorted and keyed rows, on a few workers
    assert peak < keys + table + chunks < keys + 2 * table
