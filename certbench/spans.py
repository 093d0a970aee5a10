"""Spans and counters recorded from the benchmark's own files.

A traced pass wraps public ``steinerkit`` functions and rebinds the names
through which they are called: module attributes the benchmark calls, the
names one module imports from another (``affinelift.Design``,
``basedesigns.km_instance``, ...) and two methods.  Each call becomes a span;
a span's self time is its duration minus the time of the spans it encloses.

The span-coverage guard makes a traced run fail loudly instead of reading
"0 s" when a later refactor bypasses a wrapped name: the name must exist,
every span expected for the workload must fire, and the exact counts must
repeat.
"""
from __future__ import annotations

import functools
import os
import resource
import statistics
import time
from collections import defaultdict

from steinerkit import affinelift, basedesigns, compose, netstd, paramsearch
from steinerkit import design as sk_design
from steinerkit.permgrp import PermGroup, Permutation


class GuardError(RuntimeError):
    """The trace no longer covers what the benchmark claims it measures."""


class Tracer:
    """Self time, call counts and counters per span name for one pass."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self.km_instances: list[list[int]] = []
        self._stack: list[list[float]] = []  # [start, child seconds] per open span
        self._open: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(result, args)`` adds counters."""
        stack = self._stack
        is_open = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            is_open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                is_open[name] -= 1
                stack.pop()
                total = time.perf_counter() - frame[0]
                self.self_s[name] += total - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += total
            if after is not None:
                after(result, args)
            return result

        return traced

    def rebind(self, owner, attr: str, name: str, after=None) -> None:
        if attr not in vars(owner):
            raise GuardError(f"wrapped name {getattr(owner, '__name__', owner)}.{attr} "
                             f"no longer exists")
        original = vars(owner)[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def install(self) -> "Tracer":
        count = self.counts

        def lines(table, args):
            count["affinelift.lines"] += len(table)

        def identity(result, args):
            if self._open["affinelift.lift"]:
                count["affinelift.lift_identity_calls"] += 1

        def lift(result, args):
            count["affinelift.line_orbits"] += result.orbit_count

        def rows(d, args):
            count["design.construct_rows"] += d.b

        def pairs(report, args):
            v = args[0].v
            count["design.verify_pairs"] += v * (v - 1) // 2

        def written(digest, args):
            count["design.bytes_written"] += os.path.getsize(args[1])
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            count["design.write_peak_rss_mb"] = max(count["design.write_peak_rss_mb"], peak_mb)

        def read(d, args):
            count["design.bytes_read"] += os.path.getsize(args[0])

        def km(inst, args):
            count["basedesigns.km_columns"] += len(inst.columns)
            count["basedesigns.km_dropped_columns"] += inst.dropped_columns
            self.km_instances.append([inst.v, len(inst.columns), inst.dropped_columns])

        try:
            # names one module imports from another
            self.rebind(affinelift, "all_lines", "affinelift.all_lines", lines)
            self.rebind(affinelift, "Design", "design.construct", rows)
            self.rebind(affinelift, "is_automorphism", "design.automorphism")
            self.rebind(affinelift, "induced_perm_on_line", "affinelift.induced_perm")
            self.rebind(basedesigns, "km_instance", "basedesigns.km_instance", km)
            self.rebind(basedesigns, "solve_exact_cover", "exactcover.solve")
            self.rebind(compose, "Design", "design.construct", rows)
            self.rebind(Permutation, "is_identity", "permgrp.is_identity", identity)
            self.rebind(PermGroup, "elements", "permgrp.elements")
            # module attributes the benchmark calls
            self.rebind(affinelift, "lift_odd", "affinelift.lift", lift)
            self.rebind(affinelift, "lift_aligned", "affinelift.lift", lift)
            self.rebind(sk_design, "verify_2design", "design.verify", pairs)
            self.rebind(sk_design, "is_automorphism", "design.automorphism")
            self.rebind(sk_design, "is_1_blocked", "design.one_blocked")
            self.rebind(sk_design, "write_design", "design.write", written)
            self.rebind(sk_design, "read_design", "design.read", read)
            self.rebind(compose, "cyclic_product_design", "compose.cyclic_product")
            self.rebind(compose, "product_design_1blocked", "compose.product_1blocked")
            self.rebind(netstd, "cyclic_td", "netstd.td")
            self.rebind(netstd, "mols_td", "netstd.td")
            self.rebind(basedesigns, "km_search", "basedesigns.km_search")
            self.rebind(basedesigns, "build_base_design", "basedesigns.build_base")
            self.rebind(basedesigns, "wilson_base_block", "basedesigns.base_block")
            for attr in ("prime_for_odd_group", "prime_for_even_group", "cyclic_assembly_params"):
                self.rebind(paramsearch, attr, "paramsearch.scan")
        except GuardError:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, zero where the layer did not run."""
        out = {f"{name}_s": self.self_s.get(name, 0.0) for name in TIMED_SPANS}
        out["permgrp.is_identity_calls"] = self.calls.get("permgrp.is_identity", 0)
        out["design.automorphism_calls"] = self.calls.get("design.automorphism", 0)
        out["exactcover.calls"] = self.calls.get("exactcover.solve", 0)
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        out["trace.overhead_s"] = sum(self.calls.values()) * wrapper_cost_s()
        return out


PROBE_CALLS = 100_000
PROBE_REPEATS = 5


def wrapper_cost_s() -> float:
    """Median time one span wrapper (with a counter callback) adds to a call.

    The tracing overhead of a pass is this cost times the pass's span calls:
    timing a traced and an untraced pass and subtracting would leave the
    pass-to-pass noise, which on a long pass swamps the wrappers' cost.
    """
    def plain():
        return None

    tally = []
    wrapped = Tracer().wrap("probe", plain, lambda result, args: tally.append(1))
    samples = []
    for _ in range(PROBE_REPEATS):
        tally.clear()
        start = time.perf_counter()
        for _ in range(PROBE_CALLS):
            plain()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(PROBE_CALLS):
            wrapped()
        samples.append((time.perf_counter() - start - bare) / PROBE_CALLS)
    return max(statistics.median(samples), 0.0)


TIMED_SPANS = (
    "permgrp.is_identity", "permgrp.elements",
    "affinelift.lift", "affinelift.all_lines", "affinelift.induced_perm",
    "design.construct", "design.verify", "design.automorphism", "design.one_blocked",
    "design.write", "design.read",
    "compose.cyclic_product", "compose.product_1blocked", "netstd.td",
    "basedesigns.km_search", "basedesigns.km_instance", "exactcover.solve",
    "basedesigns.build_base", "basedesigns.base_block", "paramsearch.scan",
)
COUNTERS = (
    "affinelift.lines", "affinelift.line_orbits", "affinelift.lift_identity_calls",
    "design.construct_rows", "design.verify_pairs",
    "design.bytes_written", "design.write_peak_rss_mb", "design.bytes_read",
    "basedesigns.km_columns", "basedesigns.km_dropped_columns",
)


def check_coverage(tracer: Tracer, expected: dict) -> None:
    """Raise GuardError when an expected span never fired or an exact count
    differs from the recorded one."""
    silent = [name for name in expected["spans"] if not tracer.calls.get(name)]
    if silent:
        raise GuardError(f"expected spans never fired: {', '.join(silent)}")
    for name, want in expected["counts"].items():
        got = tracer.counts.get(name, 0)
        if got != want:
            raise GuardError(f"count {name} changed: expected {want}, got {got}")
    got = sorted(tracer.km_instances)
    if got != sorted(expected["km_instances"]):
        raise GuardError(f"km_instance columns/dropped per instance changed: "
                         f"expected {expected['km_instances']}, got {got}")
