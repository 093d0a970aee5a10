"""Tests of the benchmark's own machinery: the correctness gate, the seed
variants and the span-coverage guard.

    python3 -m pytest certbench
"""
from __future__ import annotations

import json
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from certify import Certificate, Outcome, certify  # noqa: E402
from spans import GuardError, Tracer, check_coverage  # noqa: E402
from steinerkit import affinelift  # noqa: E402
from steinerkit.basedesigns import build_base_design  # noqa: E402
from steinerkit.design import Design  # noqa: E402
from workloads import WORKLOADS, _coset_multiplier  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())


@pytest.fixture(scope="module")
def fano():
    return build_base_design(7, 3, (0, 1, 3))


def _one_point_changed(d: Design) -> Design:
    blocks = d.blocks.copy()
    blocks[0, 0] = next(x for x in range(d.v) if x not in blocks[0])
    return Design(d.v, d.k, blocks)


def test_gate_passes_unchanged_certificate(fano, tmp_path):
    cert = Certificate(fano.design, fano.aut_group.generators)
    assert certify("fano", cert, tmp_path / "f.design", fano.design.digest()).ok


def test_gate_counts_certificate_with_one_point_changed(fano, tmp_path):
    mutated = _one_point_changed(fano.design)
    gens = fano.aut_group.generators
    builders = [("fano", lambda: Certificate(fano.design, gens)),
                ("fano-mutated", lambda: Certificate(mutated, gens))]
    goldens = {"fano": fano.design.digest(), "fano-mutated": fano.design.digest()}
    _, outcomes = run.run_pass(builders, tmp_path, goldens)
    assert [o.failure for o in outcomes] == [None, "verify_2design"]
    assert run.count_failures([(0.0, outcomes)]) == ["pass 0: fano-mutated: verify_2design"]


def test_gate_counts_golden_mismatch_and_exception(fano, tmp_path):
    gens = fano.aut_group.generators

    def broken():
        raise ValueError("construction failed")

    builders = [("fano", lambda: Certificate(fano.design, gens)), ("broken", broken)]
    _, outcomes = run.run_pass(builders, tmp_path, {"fano": "0" * 64})
    assert outcomes[0].failure == "golden_digest"
    assert outcomes[1].failure == "ValueError: construction failed"
    assert run.count_failures([(0.0, [Outcome("fano", 7, "a" * 64, None)]),
                               (0.0, outcomes[1:])]) == [
        "pass 1: broken: ValueError: construction failed"]


def test_every_seed_has_stored_digests_and_a_wrong_one_fails(fano, tmp_path):
    workload = "odd-lift-z3"
    stored = EXPECTED[workload]["digests"]
    variants = {WORKLOADS[workload](seed, tmp_path)[0] for seed in range(24)}
    assert variants == set(stored)
    # the seed's stored digest gates the run: a wrong one counts as failed
    variant = WORKLOADS[workload](3, tmp_path)[0]
    digests = {v: dict(d) for v, d in stored.items()}
    digests[variant] = {"fano": fano.design.digest()}
    cert = [("fano", lambda: Certificate(fano.design, fano.aut_group.generators))]
    assert run.count_failures([run.run_pass(cert, tmp_path, digests[variant])]) == []
    digests[variant]["fano"] = stored[variant][workload]
    assert run.count_failures([run.run_pass(cert, tmp_path, digests[variant])]) == [
        "pass 0: fano: golden_digest"]


def test_odd_lift_seed_plants_a_different_valid_base_design():
    plain = build_base_design(19, 3, (0, 1, 4)).design
    variants = set()
    for seed in range(1, 6):
        a = _coset_multiplier(19, 3, seed)
        assert a == _coset_multiplier(19, 3, seed)
        variants.add(build_base_design(19, 3, tuple(a * x % 19 for x in (0, 1, 4))).design)
    assert any(d != plain for d in variants)


@pytest.fixture(scope="module")
def traced_small_certs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("small")
    variant, builders = WORKLOADS["small-certs"](7, workdir)
    with Tracer() as tracer:
        _, outcomes = run.run_pass(builders, workdir, EXPECTED["small-certs"]["digests"][variant])
    return tracer, outcomes


def test_small_certs_seed_only_reorders_and_matches_goldens(traced_small_certs):
    _, outcomes = traced_small_certs
    assert all(o.ok for o in outcomes)
    digests = {o.name: o.digest for o in outcomes}
    golden = EXPECTED["small-certs"]["digests"]["any-order"]
    assert digests == golden
    assert [o.name for o in outcomes] != list(golden)


def test_guard_passes_on_unchanged_code(traced_small_certs):
    tracer, _ = traced_small_certs
    check_coverage(tracer, EXPECTED["small-certs"])
    metrics = tracer.metrics()
    assert metrics["affinelift.lines"] == 380
    assert metrics["basedesigns.km_columns"] > 0 and metrics["exactcover.calls"] == 17
    assert 0 < metrics["trace.overhead_s"] < 1


def test_guard_fails_when_a_span_never_fires(traced_small_certs):
    tracer, _ = traced_small_certs
    calls = tracer.calls.pop("exactcover.solve")
    try:
        with pytest.raises(GuardError, match="never fired: exactcover.solve"):
            check_coverage(tracer, EXPECTED["small-certs"])
    finally:
        tracer.calls["exactcover.solve"] = calls


def test_guard_fails_when_an_exact_count_changes(traced_small_certs):
    tracer, _ = traced_small_certs
    tracer.counts["affinelift.line_orbits"] += 1
    try:
        with pytest.raises(GuardError, match="affinelift.line_orbits changed"):
            check_coverage(tracer, EXPECTED["small-certs"])
    finally:
        tracer.counts["affinelift.line_orbits"] -= 1
    tracer.km_instances[0][1] += 1
    try:
        with pytest.raises(GuardError, match="per instance changed"):
            check_coverage(tracer, EXPECTED["small-certs"])
    finally:
        tracer.km_instances[0][1] -= 1


def test_guard_fails_when_a_wrapped_name_is_gone(monkeypatch):
    original = affinelift.all_lines
    monkeypatch.delattr(affinelift, "induced_perm_on_line")
    with pytest.raises(GuardError, match="induced_perm_on_line no longer exists"):
        Tracer().install()
    assert affinelift.all_lines is original  # a failed install restores every name


def test_odd_lift_expected_counts_are_the_documented_ones():
    assert EXPECTED["odd-lift-z3"]["counts"] == {
        "affinelift.lines": 137_541,
        "affinelift.line_orbits": 45_873,
        "affinelift.lift_identity_calls": 45_951,
    }
    assert EXPECTED["odd-lift-z3"]["digests"]["a=1"]["odd-lift-z3"] == (
        "74fa12f729693e8e85712e22c69c236995c1576eb03185450bc720be840c972c")


def test_speed_probe_samples_while_running_and_then_stops():
    from speed import REFERENCE_S, SpeedProbe
    with SpeedProbe() as probe:
        end = time.perf_counter() + 1.0
        while time.perf_counter() < end:
            pass
    units = len(probe.samples)
    assert units >= 2
    assert probe.factor() == pytest.approx(REFERENCE_S / statistics.fmean(probe.samples))
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    time.sleep(0.6)
    assert len(probe.samples) == units


def test_compare_verdicts():
    from compare import verdict
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]
    assert verdict(parent, [x * 0.8 for x in parent], "lower", 0.1).startswith("improved")
    assert verdict(parent, [x * 1.2 for x in parent], "lower", 0.1).startswith("worse")
    assert verdict(parent, [x * 1.01 for x in parent], "lower", 0.1) == "unchanged"
    assert verdict(parent[:9], parent[:9], "lower", 0.1).startswith("unresolved")
    noisy = [10.0, 14.0, 7.0, 12.0, 8.0, 13.0, 9.0, 11.0, 6.0, 15.0]
    assert verdict(parent, noisy, "lower", 0.1).startswith("unresolved")
    assert verdict(parent, [x * 1.2 for x in parent], "higher", 0.1).startswith("improved")
