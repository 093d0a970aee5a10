from __future__ import annotations

import builtins
import copy
import hashlib
import itertools
import pickle
import random
import sys

import numpy as np
import pytest

from steinerkit import chunkmap, design, textfile
from steinerkit.affinelift import lift_aligned
from steinerkit.basedesigns import build_base_design, km_search, steiner_triple_system
from steinerkit.compose import CompositionPlan, product_design_1blocked
from steinerkit.design import (
    Design,
    brute_aut,
    is_1_blocked,
    is_automorphism,
    is_subdesign,
    iso_in_group,
    read_design,
    stabilizer_scan,
    verify_2design,
    write_design,
)
from steinerkit.errors import BadParams, Budget, ParseError
from steinerkit.permgrp import PermGroup, Permutation


def fano() -> Design:
    return Design(7, 3, [sorted(((0 + i) % 7, (1 + i) % 7, (3 + i) % 7)) for i in range(7)])


def sts9() -> Design:
    # lines of the 3x3 affine plane over F_3, point (x,y) -> 3x + y
    blocks = []
    for m in range(3):
        for b in range(3):
            blocks.append(sorted(3 * x + (m * x + b) % 3 for x in range(3)))
    for c in range(3):
        blocks.append([3 * c, 3 * c + 1, 3 * c + 2])
    return Design(9, 3, blocks)


def shift7() -> Permutation:
    return Permutation(tuple((i + 1) % 7 for i in range(7)))


def test_design_canonical_form():
    d = Design(7, 3, [[3, 1, 0], [2, 1, 4]])
    assert d.block_tuples() == [(0, 1, 3), (1, 2, 4)]


def test_design_malformed():
    with pytest.raises(BadParams, match="point index out of range"):
        Design(7, 3, [[0, 1, 7]])
    with pytest.raises(BadParams, match="repeated point inside a block"):
        Design(7, 3, [[0, 1, 1]])
    with pytest.raises(BadParams, match="blocks must be rows of 3 points"):
        Design(7, 3, [[0, 1]])
    with pytest.raises(BadParams, match="blocks must be rows of 3 points"):
        Design(7, 3, np.empty((3, 0)))  # three rows of no points, not an empty design


@pytest.mark.parametrize("k, blocks", [(0, [[], [], []]), (0, []), (-1, [])])
def test_design_block_size_below_1_is_refused(k, blocks):
    with pytest.raises(BadParams, match=f"^block size k={k} must be at least 1$"):
        Design(5, k, blocks)


@pytest.mark.parametrize("v, k, message", [
    (-3, 3, r"^point count v=-3 must not be negative$"),
    (7.5, 3, r"^v=7\.5 and k=3 must be integers$"),
    (7, 3.0, r"^v=7 and k=3\.0 must be integers$"),
])
def test_design_refuses_a_negative_or_non_integral_v_or_k(v, k, message):
    with pytest.raises(BadParams, match=message):
        Design(v, k, [])


def test_design_takes_numpy_integers():
    d = Design(np.int64(7), np.uint8(3), fano().blocks)
    assert (type(d.v), type(d.k)) == (int, int) and d == fano()


def test_canonical_blocks_are_adopted():
    canonical = np.array(sts9().blocks)
    d = Design(9, 3, canonical)
    assert d.blocks is canonical and not canonical.flags.writeable
    # a view is copied, so writing through its base cannot change the design
    base = np.array(sts9().blocks)
    d = Design(9, 3, base[:])
    base[0] = [6, 7, 8]
    assert d == sts9() and base.flags.writeable
    # rows out of order, or points out of order, go through the sort
    assert Design(9, 3, canonical[::-1]) == Design(9, 3, canonical[:, ::-1]) == sts9()
    with pytest.raises(BadParams, match="point index out of range"):
        Design(9, 3, [[0, 1, 9]])


@pytest.mark.parametrize("swap", [3, 4, 9])  # at the first seam, inside a chunk, the last rows
def test_rows_out_of_order_at_a_chunk_seam_are_sorted(monkeypatch, swap):
    monkeypatch.setattr(design, "_ROWS", 4)  # seams after rows 3 and 7 of sts9's 12
    canonical = np.array(sts9().blocks)
    rows = canonical.copy()
    rows[[swap - 1, swap]] = rows[[swap, swap - 1]]
    d = Design(9, 3, rows)
    assert d == sts9() and d.blocks is not rows
    # canonical chunks key no full array, and the canonical table is adopted
    assert design._sorted_keys(design._parts(canonical), 9) is None
    assert Design(9, 3, canonical).blocks is canonical
    # a canonical image of canonical rows is compared as it stands
    assert is_automorphism(sts9(), Permutation.identity(9))
    assert not is_automorphism(sts9(), Permutation.from_cycles(9, [(0, 1)]))


def test_rows_keyed_on_more_workers_than_cores_lose_no_key(monkeypatch):
    """Chunks key their rows while one of them makes the shared key array: with
    four workers, two-row chunks and a short switch interval, every input
    order still gives the canonical design."""
    monkeypatch.setattr(chunkmap, "WORKERS", 4)
    monkeypatch.setattr(design, "_ROWS", 2)
    sts19 = build_base_design(19, 3, (0, 1, 4)).design  # 57 rows, 29 chunks
    canonical = np.array(sts19.blocks)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for swap in range(1, len(canonical)):
            rows = canonical.copy()
            rows[[swap - 1, swap]] = rows[[swap, swap - 1]]
            assert Design(19, 3, rows) == sts19
        assert Design(19, 3, canonical[::-1]) == sts19
        assert Design(19, 3, canonical).blocks is canonical
    finally:
        sys.setswitchinterval(interval)


def test_verify_fano_ok():
    rep = verify_2design(fano())
    assert rep.ok and (rep.pair_deficit, rep.pair_surplus) == (0, 0)


def test_verify_sts9_ok():
    assert verify_2design(sts9()).ok


def test_verify_missing_block():
    d = fano()
    rep = verify_2design(Design(7, 3, d.blocks[1:]))
    assert not rep.ok
    assert rep.pair_deficit == 3
    assert rep.pair_surplus == 0


def test_verify_duplicated_block():
    d = fano()
    rep = verify_2design(Design(7, 3, np.vstack([d.blocks, d.blocks[:1]])))
    assert not rep.ok and rep.pair_surplus == 3


def test_verify_equivalences_on_mutants():
    # ok <=> block count right AND pairwise intersections <= 1
    base = fano()
    mutants = [base,
               Design(7, 3, base.blocks[1:]),
               Design(7, 3, np.vstack([base.blocks[1:], [[0, 1, 2]]])),
               Design(7, 3, np.vstack([base.blocks, [[0, 2, 4]]]))]
    for d in mutants:
        rep = verify_2design(d)
        count_ok = d.b == d.v * (d.v - 1) // (d.k * (d.k - 1))
        inter_ok = all(len(set(a) & set(b)) <= 1
                       for a, b in itertools.combinations(d.block_tuples(), 2))
        assert rep.ok == (count_ok and inter_ok)


def test_is_automorphism_fano_shift():
    assert is_automorphism(fano(), shift7())
    assert is_automorphism(fano(), Permutation.identity(7))


def test_is_automorphism_transposition_fails():
    g = Permutation.from_cycles(7, [(0, 1)])
    # {1,2,4} maps to {0,2,4}, which is not a block
    assert not is_automorphism(fano(), g)
    with pytest.raises(BadParams, match="permutation degree 8 != v 7"):
        is_automorphism(fano(), Permutation.identity(8))


def test_is_1_blocked_fano_z7():
    ok, witness = is_1_blocked(fano(), PermGroup(7, [shift7()]))
    assert ok and witness is None


def test_is_1_blocked_z7_product_sts45():
    y, z7 = sts9(), PermGroup(7, [shift7()])
    d, bar = product_design_1blocked(CompositionPlan(fano(), y, y.block_tuples()[0], group=z7))
    assert d.v == 45 and bar.order() == 7
    assert is_1_blocked(d, bar) == (True, None)


def test_is_1_blocked_block_stabilizer_fails():
    d = fano()
    aut = brute_aut(d)
    block = frozenset({0, 1, 3})
    stab = [g for g in aut.elements()
            if frozenset(g.images[p] for p in block) == block]
    grp = PermGroup(7, tuple(stab), _elements=None)
    ok, witness = is_1_blocked(d, grp)
    assert not ok
    blk, g = witness
    assert frozenset(g.images[p] for p in blk) == frozenset(blk)
    assert any(g.images[p] != p for p in blk)


def test_is_1_blocked_requires_automorphisms():
    with pytest.raises(BadParams, match="^generator .* is not an automorphism$"):
        is_1_blocked(fano(), PermGroup(7, [Permutation.from_cycles(7, [(0, 1)])]))


def test_even_order_never_1_blocked():
    # any automorphism group of even order has a violating involution
    for d in (fano(), sts9()):
        aut = brute_aut(d)
        involutions = [g for g in aut.elements() if g.order() == 2]
        assert involutions
        for g in involutions[:10]:
            ok, witness = is_1_blocked(d, PermGroup(d.v, [g]))
            assert not ok and witness is not None


def test_is_subdesign_block():
    d = sts9()
    assert is_subdesign(d, d.block_tuples()[0]) is True


def test_is_subdesign_not_closed():
    d = sts9()
    block = d.block_tuples()[0]
    off = next(p for p in range(9) if p not in block)
    assert is_subdesign(d, list(block[:2]) + [off]) is False


def test_is_subdesign_degenerate():
    d = sts9()
    assert is_subdesign(d, [4]) is True


@pytest.mark.parametrize("pts", [[0.5, 1.7, 2.2], [True, 1], [0, np.float64(1.0)]],
                         ids=["floats", "bool", "numpy-float"])
def test_is_subdesign_refuses_points_that_are_not_integers(pts):
    # truncated, the floats were the points 0, 1, 2, and True was point 1
    with pytest.raises(BadParams, match=r"^point .* is not an integer$"):
        is_subdesign(fano(), pts)


def test_stabilizer_scan_refuses_a_group_of_another_degree():
    with pytest.raises(BadParams, match="^group degree 3 != v 7$"):
        stabilizer_scan(fano(), PermGroup(3, [Permutation.from_cycles(3, [(1, 2)])]))


def test_brute_aut_fano():
    assert brute_aut(fano()).order() == 168


def test_brute_aut_elements_in_image_table_order():
    els = brute_aut(fano()).elements()
    assert [e.images.tolist() for e in els] == sorted(e.images.tolist() for e in els)


def test_brute_aut_sts9():
    assert brute_aut(sts9()).order() == 432


def test_brute_aut_single_block():
    d = Design(3, 3, [[0, 1, 2]])
    assert brute_aut(d).order() == 6


def test_brute_aut_too_large():
    with pytest.raises(Budget, match="brute_aut bounded to v <= 30, got 31"):
        brute_aut(Design(31, 3, np.empty((0, 3), dtype=np.int64)))


def test_iso_in_group_identity():
    d = fano()
    assert iso_in_group(d, d, [Permutation.identity(7)]) == Permutation.identity(7)


def test_iso_in_group_refuses_a_design_one_block_short(monkeypatch):
    # the identity carries the first b-1 blocks of d onto those of d minus
    # its last block, chunk by chunk: only the block counts tell them apart
    monkeypatch.setattr(design, "_ROWS", 3)
    d = fano()
    short = Design(7, 3, d.blocks[:-1])
    identity = [Permutation.identity(7)]
    assert iso_in_group(d, short, identity) is None
    assert iso_in_group(short, d, identity) is None


def test_iso_in_group_affine_scan():
    d = fano()
    shifted = d.relabel(shift7())
    agl = [Permutation(tuple((a * x + b) % 7 for x in range(7)))
           for a in range(1, 7) for b in range(7)]
    h = iso_in_group(d, shifted, agl)
    assert h is not None
    assert d.relabel(h) == shifted


def test_iso_in_group_none():
    d1 = Design(4, 3, [[0, 1, 2]])
    d2 = Design(4, 3, [[0, 1, 3]])
    assert iso_in_group(d1, d2, [Permutation.identity(4)]) is None


def test_serialize_round_trip(tmp_path):
    d = fano()
    path = tmp_path / "fano.design"
    write_design(d, path)
    text = path.read_text()
    assert text.startswith("DESIGN v=7 k=3 b=7\n")
    assert read_design(path) == d
    path.write_text("# note\n" + text)
    assert read_design(path) == d


def test_serialize_degenerate(tmp_path):
    d = Design(1, 3, np.empty((0, 3), dtype=np.int64))
    write_design(d, tmp_path / "point.design")
    assert read_design(tmp_path / "point.design") == d


def test_degenerate_designs_verify():
    # a single point with no blocks and a single full block are both legal
    one_point = Design(1, 3, np.empty((0, 3), dtype=np.int64))
    assert verify_2design(one_point).ok
    assert verify_2design(Design(3, 3, [[0, 1, 2]])).ok


def test_write_design_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "d.design"
    digest = write_design(fano(), path)
    old = path.read_bytes()
    assert digest == hashlib.sha256(old).hexdigest()

    class HalfWriter:
        """A file that takes half of what it is given, then reports a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(textfile, "open",
                        lambda file, mode="r": HalfWriter(builtins.open(file, mode)),
                        raising=False)
    with pytest.raises(OSError):
        write_design(sts9(), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["d.design"]


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.design"
    path.write_text("DESIGN v=17 k=3 b=2\n10 11 12\n10 11\n")
    with pytest.raises(ParseError) as exc:
        read_design(path)
    assert exc.value.line_no == 3
    path.write_text("DESIGN v=17 k=3 b=2\n10 11 12\n")
    with pytest.raises(ParseError):
        read_design(path)
    path.write_text("nonsense\n")
    with pytest.raises(ParseError) as exc:
        read_design(path)
    assert exc.value.line_no == 1


def test_digest_stability():
    assert fano().digest() == fano().digest()
    assert fano().digest() != sts9().digest()


def test_relabel_preserves_design_axioms():
    d = sts9()
    g = Permutation.from_cycles(9, [(0, 5, 7), (1, 2)])
    assert verify_2design(d.relabel(g)).ok


def test_automorphism_closure_under_inverse_and_image():
    d = fano()
    for g in brute_aut(d).elements():
        assert is_automorphism(d, g)
        assert is_automorphism(d, g.inverse())
        assert verify_2design(d.relabel(g)).ok


# -- an immutable Design keeps the verdict of each check run on it

def test_design_refuses_any_assignment_or_deletion():
    d = fano()
    with pytest.raises(AttributeError, match="immutable: blocks cannot be set"):
        d.blocks = sts9().blocks
    with pytest.raises(AttributeError, match="immutable: v cannot be set"):
        d.v = 9
    with pytest.raises(AttributeError, match="immutable: k cannot be deleted"):
        del d.k
    with pytest.raises(AttributeError):
        d.extra = 1
    assert (d.v, d.k, d.b) == (7, 3, 7) and d == fano()


def test_a_copied_design_starts_with_no_verdicts(counted):
    d = fano()
    assert verify_2design(d).ok
    for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert twin == d and twin is not d
        assert verify_2design(twin).ok
    assert counted["_pair_cover"] == 4


def test_each_verdict_is_computed_once_per_design(counted):
    d = fano()
    report = verify_2design(d)
    assert verify_2design(d) is report and report.ok
    assert is_automorphism(d, shift7()) and is_automorphism(d, shift7())
    assert counted == {"_maps_onto": 1, "_pair_cover": 1}
    # an equal design built on its own is checked in full
    assert verify_2design(fano()).ok and is_automorphism(fano(), shift7())
    assert counted == {"_maps_onto": 2, "_pair_cover": 2}


def test_a_false_verdict_is_kept(counted):
    d = fano()
    swap = Permutation.from_cycles(7, [(0, 1)])
    assert is_automorphism(d, swap) is False
    assert is_automorphism(d, swap) is False
    short = Design(7, 3, d.blocks[:-1])
    report = verify_2design(short)
    assert not report.ok and verify_2design(short) is report
    assert counted == {"_maps_onto": 1, "_pair_cover": 1}


def test_an_equal_permutation_built_elsewhere_finds_the_verdict(counted):
    d = fano()
    assert is_automorphism(d, shift7())
    again = Permutation.from_cycles(7, [tuple(range(7))])
    assert again == shift7() and again is not shift7()
    assert is_automorphism(d, again)
    assert counted["_maps_onto"] == 1
    assert is_automorphism(d, again * again)  # another permutation: checked
    assert counted["_maps_onto"] == 2


def test_refusals_run_on_every_call(counted):
    d = fano()
    for _ in range(2):
        with pytest.raises(BadParams, match="permutation degree 8 != v 7"):
            is_automorphism(d, Permutation.identity(8))
    big = Design(design.PAIR_TABLE_MAX_V + 1, 3, np.empty((0, 3), dtype=np.int64))
    for _ in range(2):
        with pytest.raises(Budget, match="pair table"):
            verify_2design(big)
    assert counted == {"_maps_onto": 2, "_pair_cover": 0}


def test_the_gate_checks_each_generator_of_a_lift_once(counted):
    inv = Permutation(tuple((-x) % 19 for x in range(19)))
    ingredient = km_search(19, 3, PermGroup(19, [inv]))
    result = lift_aligned(PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])]), 19, 3,
                          ingredient, inv)
    d, group = result.design, result.group
    before = counted["_maps_onto"]
    assert verify_2design(d).ok
    assert all(is_automorphism(d, g) for g in group.generators)
    ok, witness = is_1_blocked(d, group)  # Z2: an involution stabilizes some block
    assert not ok and witness is not None
    assert counted["_maps_onto"] - before == len(group.generators)


# -- stabilizer_scan scans one element of each cyclic subgroup

def reference_scan(d: Design, group: PermGroup):
    """Every non-identity element in order, every block in order: the first
    block whose set-stabilizer moves one of its points, with that element."""
    for g in group.elements():
        if g.is_identity():
            continue
        for block in d.block_tuples():
            image = tuple(g(x) for x in block)
            if sorted(image) == list(block) and image != block:
                return False, (block, g)
    return True, None


def random_groups(d: Design, rng: random.Random, count: int):
    """Seeded groups of order at most 2,000: one or two elements of Aut(d),
    or the cyclic group of a random permutation (no automorphism, mostly)."""
    aut = brute_aut(d).elements()
    found = 0
    while found < count:
        if rng.random() < 0.2:
            points = list(range(d.v))
            rng.shuffle(points)
            gens = [Permutation(points)]
        else:
            gens = [rng.choice(aut) for _ in range(rng.choice([1, 1, 2]))]
        group = PermGroup(d.v, gens)
        if group.order() <= 2000:
            found += 1
            yield group


@pytest.mark.parametrize("v", [7, 9, 13, 15])
def test_stabilizer_scan_is_the_reference_scan(v):
    d = steiner_triple_system(v)
    for group in random_groups(d, random.Random(v), 25):
        assert stabilizer_scan(d, group) == reference_scan(d, group), group


def cyclic(d: Design, order: int) -> PermGroup:
    """The cyclic group of the first automorphism of this order."""
    return PermGroup(d.v, [next(g for g in brute_aut(d).elements() if g.order() == order)])


def symmetric3(d: Design) -> PermGroup:
    """An S3 in Aut(d): elements of order 3 and 2 that do not commute and
    generate a group of order 6."""
    aut = brute_aut(d).elements()
    return next(group for a in aut if a.order() == 3 for b in aut
                if b.order() == 2 and a * b != b * a
                and (group := PermGroup(d.v, [a, b])).order() == 6)


@pytest.mark.parametrize("d, group", [
    (sts9(), cyclic(sts9(), 6)), (fano(), symmetric3(fano())), (sts9(), cyclic(sts9(), 4))],
    ids=["Z6", "S3", "Z4"])
def test_stabilizer_scan_finds_the_reference_witness(d, group):
    ok, witness = stabilizer_scan(d, group)
    assert not ok and (ok, witness) == reference_scan(d, group)
    block, g = witness
    assert sorted(g(x) for x in block) == list(block)
    assert any(g(x) != x for x in block)


def test_stabilizer_scan_scans_z7_once(monkeypatch):
    d, scans = fano(), []
    real = design._row_map
    monkeypatch.setattr(design, "_row_map", lambda fn, n: scans.append(n) or real(fn, n))
    assert stabilizer_scan(d, PermGroup(7, [shift7()])) == (True, None)
    assert scans == [7]  # one of the six generators of Z7, over the 7 blocks
