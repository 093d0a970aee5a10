"""The one checker: its log holds exactly the checks that ran, and every
library route with ``check=True`` raises on a failed entry, naming it."""
from __future__ import annotations

import pytest

from steinerkit import design as design_module
from steinerkit.basedesigns import build_base_design, km_search, steiner_triple_system
from steinerkit.certify import certify, entry, require_certified
from steinerkit.compose import (
    CompositionPlan,
    cyclic_product_design,
    product_design,
    product_design_1blocked,
)
from steinerkit.design import VerifyReport
from steinerkit.errors import AxiomViolation, BadParams
from steinerkit.netstd import cyclic_td
from steinerkit.permgrp import PermGroup, Permutation


def fano():
    return build_base_design(7, 3, (0, 1, 3)).design


def z7() -> PermGroup:
    return PermGroup(7, [Permutation(tuple((i + 1) % 7 for i in range(7)))])


def test_log_names_every_claim_in_order():
    log = certify(fano(), z7(), one_blocked=True)
    assert [(c.name, c.ok) for c in log] == [
        ("pairs_once", True), ("group_is_automorphisms", True), ("one_blocked", True)]
    assert log[0].detail == "deficit=0 surplus=0"
    assert all(c.seconds >= 0 for c in log)
    assert [c.name for c in certify(fano())] == ["pairs_once"]


def test_no_one_blocked_entry_after_failed_automorphisms():
    swap = PermGroup(7, [Permutation.from_cycles(7, [(0, 1)])])
    log = certify(fano(), swap, one_blocked=True)
    assert [(c.name, c.ok) for c in log] == [
        ("pairs_once", True), ("group_is_automorphisms", False)]
    with pytest.raises(AxiomViolation, match="^fano fails the group_is_automorphisms check$"):
        require_certified(log, "fano")


def test_one_blocked_failure_names_a_witness():
    # the multiplier x -> 2x fixes the block {1, 2, 4} and moves its points
    log = certify(fano(), PermGroup(7, [Permutation(tuple(2 * x % 7 for x in range(7)))]),
                  one_blocked=True)
    assert not log[-1].ok and log[-1].name == "one_blocked"
    assert log[-1].detail.startswith("witness=((1, 2, 4), ")


def test_claims_without_a_group_are_refused():
    with pytest.raises(BadParams):
        certify(fano(), one_blocked=True)
    with pytest.raises(BadParams):
        certify(fano(), fixed=(0,))


def test_fixed_points_are_checked_on_every_element_not_only_the_generators():
    # (1 2)(3 4 5 6) fixes only 0, but its square (3 5)(4 6) fixes 0, 1 and 2
    group = PermGroup(7, [Permutation.from_cycles(7, [(1, 2), (3, 4, 5, 6)])])
    assert group.generators[0].fixed_points() == (0,)
    log = certify(fano(), group, fixed=[0])
    assert [c.ok for c in log if c.name == "fixes_exactly_one_point"] == [False]


def test_entry_turns_an_axiom_violation_into_a_failed_entry():
    def broken():
        raise AxiomViolation("two lines meet twice")

    check = entry("net_axioms", broken)
    assert (check.name, check.ok, check.detail) == ("net_axioms", False, "two lines meet twice")


FAILING = {
    "verify_2design": lambda d: VerifyReport(False, 1, 0),
    "is_automorphism": lambda d, g: False,
    "stabilizer_scan": lambda d, group: (False, ((0, 1, 2), group.generators[0])),
}


def _failing_on(v: int, kernel: str):
    """The design kernel, failing on the design with v points only (so that
    the routes' input preconditions still pass)."""
    real, fail = getattr(design_module, kernel), FAILING[kernel]
    return lambda d, *args: (fail if d.v == v else real)(d, *args)


def _product():
    sts9 = steiner_triple_system(9)
    return product_design(CompositionPlan(fano(), sts9, sts9.block_tuples()[0]))


def _product_1blocked():
    sts9 = steiner_triple_system(9)
    return product_design_1blocked(CompositionPlan(fano(), sts9, sts9.block_tuples()[0],
                                                   group=z7()))


def _cyclic_product():
    shift = Permutation(tuple((i + 7) % 21 for i in range(21)))
    w = km_search(21, 3, PermGroup(21, [shift]),
                  forced_blocks=[(i, i + 7, i + 14) for i in range(7)])
    bundle = cyclic_td(3, 18)
    return cyclic_product_design(w, shift, steiner_triple_system(19), bundle.td, bundle.rotator)


def _km_search():
    return km_search(13, 3, PermGroup(13, [Permutation(tuple((i + 1) % 13 for i in range(13)))]))


@pytest.mark.parametrize("build, kernel, v, name", [
    (_product, "verify_2design", 45, "pairs_once"),
    (_product_1blocked, "stabilizer_scan", 45, "one_blocked"),
    (_cyclic_product, "is_automorphism", 379, "group_is_automorphisms"),
    (_km_search, "verify_2design", 13, "pairs_once"),
], ids=["product", "product-1blocked", "cyclic-product", "km-search"])
def test_checked_routes_raise_naming_the_failed_check(monkeypatch, build, kernel, v, name):
    build()
    monkeypatch.setattr(design_module, kernel, _failing_on(v, kernel))
    with pytest.raises(AxiomViolation, match=f"fails the {name} check"):
        build()
