"""Command-line pipelines binding the construction modules together.

Every subcommand emits a plain-text report of key=value lines including a
re-runnable command line, per-phase timings, the verification outcomes it
actually executed, and sha256 digests of output files.  The exit code is 0
only when every executed check passed.  All searches are deterministic:
identical commands produce bit-identical output files.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import compose, paramsearch, textfile
from .affinelift import lift_aligned, lift_odd
from .basedesigns import build_base_design, km_search, steiner_triple_system, wilson_base_block
from .certify import Check, certify, entry
from .design import Design, read_design, write_design
from .errors import BadParams, SteinerError
from .gf import is_prime
from .netstd import (cyclic_td, mols_td, net_file, net_from_affine_plane, semilinear_net,
                     td_file, verify_net, verify_td)
from .permgrp import PermGroup, Permutation, group_from_text, is_semiregular, orbit_sweep


class Report:
    """Accumulates parameters, executed checks, timings and output digests."""

    def __init__(self, tag: str, argv: list[str]):
        self.lines: list[tuple[str, str]] = [("report", tag),
                                             ("command", "steinerkit " + " ".join(argv))]
        self.failed = False

    def param(self, key: str, value) -> None:
        self.lines.append((key, str(value)))

    def checks(self, log: list[Check]) -> None:
        """Each entry as its time.<name> line, then its check.<name> line."""
        for c in log:
            self.timing(c.name, c.seconds)
            detail = f" ({c.detail})" if c.detail else ""
            self.lines.append((f"check.{c.name}", ("ok" if c.ok else "FAIL") + detail))
            self.failed |= not c.ok

    def timing(self, name: str, seconds: float) -> None:
        self.lines.append((f"time.{name}", f"{seconds:.3f}"))

    def output(self, path: str, digest: str) -> None:
        self.lines.append(("output", path))
        self.lines.append(("sha256", digest))

    def error(self, message: str) -> None:
        self.lines.append(("error", message))
        self.failed = True

    def render(self) -> str:
        status = "fail" if self.failed else "ok"
        return "\n".join(f"{k}={v}" for k, v in self.lines + [("status", status)])


def _timed(report: Report, name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, reported as the phase time.<name>."""
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        report.timing(name, time.perf_counter() - start)


def _load_group(path: str) -> PermGroup:
    return group_from_text(Path(path).read_text())


def _parse_int_list(text: str, option: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise BadParams(f"{option} {text!r} is not a list of integers") from None


def _parse_perm(text: str, option: str) -> Permutation:
    images = _parse_int_list(text, option)
    try:
        return Permutation(images)
    except ValueError:
        raise BadParams(f"{option} {text!r} is not a permutation of "
                        f"0..{len(images) - 1}") from None


# hashed into every cache key, so an entry of an older file format is a miss
CACHE_FORMAT = "design-file-v1:"


def _need(args, mode: str, names) -> None:
    """BadParams naming each option of ``names`` that ``mode`` needs and was not given."""
    missing = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is None]
    if missing:
        raise BadParams(f"--mode {mode} needs {' '.join(missing)}")


def _cache_path(cache_dir: str | None, key: str) -> Path | None:
    if not cache_dir:
        return None
    digest = hashlib.sha256((CACHE_FORMAT + key).encode()).hexdigest()[:24]
    root = Path(cache_dir)
    root.mkdir(parents=True, exist_ok=True)
    return root / f"{digest}.design"


def _cached_design(report: Report, cache_dir: str | None, key: str, group: PermGroup,
                   k: int, build) -> Design:
    """The design cached under the key, re-verified before use, or else the
    design ``build`` returns, then cached.  The keyed group acts on its points."""
    path = _cache_path(cache_dir, key)
    if path is not None and path.exists():
        report.param("cache", "hit")
        d = read_design(path, digest=False)
        failed = ("(v, k)" if (d.v, d.k) != (group.degree, k) else
                  next((c.name for c in certify(d, group) if not c.ok), None))
        if failed:
            raise SteinerError(f"cache entry {path} fails the {failed} check")
        return d
    result = build()
    if path is not None:
        report.param("cache", "miss")
        write_design(result, path, comments=[f"cache key: {key}"])
    return result


def _certified(report: Report, d: Design, out: str | None, comment: str, **claims) -> None:
    """Print the check log of the design and the claims about it, then write
    the design to ``out`` if one is given."""
    report.checks(certify(d, **claims))
    if out:
        report.output(out, write_design(d, out, comments=[comment]))


def _cyclic_product(report: Report, w: Design, cyc: Permutation, y: Design,
                    out: str | None, comment: str) -> None:
    bundle = cyclic_td(w.k, y.v - 1)
    d, cbar = _timed(report, "compose", compose.cyclic_product_design, w, cyc, y, bundle.td,
                     bundle.rotator, check=False)
    report.param("v", d.v)
    _certified(report, d, out, comment, group=cbar, fixed=(0,))


# -- subcommands ------------------------------------------------------------------

def _lift_group(args, report: Report) -> tuple[PermGroup, int]:
    """The coordinate group of a lift and its order, reported with k and d."""
    group = _load_group(args.group_file)
    h = group.order()
    report.param("k", args.k)
    report.param("group_order", h)
    report.param("d", group.degree)
    return group, h


def cmd_construct_odd(args, report: Report) -> None:
    group, h = _lift_group(args, report)
    k = args.k
    if h % 2 == 0:
        raise BadParams(f"group order {h} is even")
    if args.p is not None:
        p = args.p
        if k < 3 or not is_prime(p) or (p - 1) % (k * (k - 1)) != 0:
            raise BadParams(f"need k >= 3 and --p a prime with (p-1) mod k(k-1) = 0; "
                            f"got k={k}, p={p}")
        t = (p - 1) // (k * (k - 1))
    else:
        p, t = _timed(report, "prime_search", paramsearch.prime_for_odd_group, k, h)
    report.param("p", p)
    report.param("t", t)
    if args.base_block:
        block = _parse_int_list(args.base_block, "--base-block")
    else:
        block = _timed(report, "base_block_search", wilson_base_block, p, k)
        if block is None:
            report.error(f"no base block at p={p}; pick another prime")
            return
    report.param("base_block", ",".join(map(str, block)))
    base = build_base_design(p, k, block)
    result = _timed(report, "lift", lift_odd, group, p, k, base)
    report.param("v", result.design.v)
    report.param("blocks", result.design.b)
    report.param("line_orbits", result.orbit_count)
    _certified(report, result.design, args.out,
               f"odd-order line filling: k={k} p={p} d={group.degree} "
               f"base_block={','.join(map(str, block))}",
               group=result.group, one_blocked=True)


def cmd_construct_aligned(args, report: Report) -> None:
    group, h = _lift_group(args, report)
    k = args.k
    if k < 3 or k % 2 == 0 or math.gcd(k, h) != 1 or h % 2 != 0:
        raise SteinerError(f"need k odd and >= 3, |G| even, gcd(k,|G|)=1; got k={k}, |G|={h}")
    h4 = math.lcm(h, 4)
    report.param("h", h4)
    if args.p is not None:
        p = args.p
        if not is_prime(p) or (p - 1) % (k - 1) != 0:
            raise BadParams(f"--p {p} must be a prime with (p-1) mod (k-1) = 0")
        n = (p - 1) // (k - 1)
    else:
        p, n = _timed(report, "prime_search", paramsearch.prime_for_even_group, k, h4)
    report.param("p", p)
    report.param("n", n)
    if args.cyclic:
        cyc = _parse_perm(args.cyclic, "--cyclic")
        if cyc.degree != p:
            raise BadParams(f"--cyclic has degree {cyc.degree}, the ingredient needs degree p={p}")
    else:
        # canonical one-fixed-point, semiregular-elsewhere generator of order k-1
        cyc = Permutation.from_cycles(p, [range(j, j + k - 1) for j in range(1, p, k - 1)])
    if args.ingredient:
        ingredient = read_design(args.ingredient, digest=False)
    else:
        key = f"km:v={p}:k={k}:cyclic={','.join(map(str, cyc.images.tolist()))}"
        cyc_group = PermGroup(p, [cyc])
        ingredient = _timed(report, "ingredient_search", _cached_design, report, args.cache_dir,
                            key, cyc_group, k, lambda: km_search(p, k, cyc_group))
    report.param("ingredient_blocks", ingredient.b)
    result = _timed(report, "lift", lift_aligned, group, p, k, ingredient, cyc)
    report.param("v", result.design.v)
    report.param("blocks", result.design.b)
    _certified(report, result.design, args.out,
               f"aligned line filling: k={k} p={p} d={group.degree}", group=result.group)


def cmd_compose(args, report: Report) -> None:
    mode = args.mode
    report.param("mode", mode)
    if mode == "cyclic" and args.w is None:
        _compose_cyclic_auto(args, report)
        return
    needed = {"1blocked": ("group_file",), "cyclic": ("cyclic",)}.get(mode, ())
    _need(args, mode, ("w", "y", *needed))
    x_points = _parse_int_list(args.x_points, "--x-points")
    w = read_design(args.w, digest=False)
    y = read_design(args.y, digest=False)
    report.param("w", w.v)
    report.param("y", y.v)
    report.param("x", len(x_points))
    if mode == "rc":
        plan = compose.CompositionPlan(w, y, x_points)
        out = _timed(report, "compose", compose.product_design, plan, check=False)
        report.param("v", out.v)
        _certified(report, out, args.out, f"product of w={w.v} and y={y.v}, x={len(x_points)}")
    elif mode == "1blocked":
        group = _load_group(args.group_file)
        plan = compose.CompositionPlan(w, y, x_points, group=group)
        out, bar = _timed(report, "compose", compose.product_design_1blocked, plan, check=False)
        report.param("v", out.v)
        _certified(report, out, args.out,
                   f"1-blocked product of w={w.v} and y={y.v}, x={len(x_points)}",
                   group=bar, one_blocked=True)
    elif mode == "cyclic":
        _cyclic_product(report, w, _parse_perm(args.cyclic, "--cyclic"), y, args.out,
                        f"cyclic product: w={w.v} y={y.v}")
    else:
        raise SteinerError(f"unknown mode {mode}")


def _compose_cyclic_auto(args, report: Report) -> None:
    """Full cyclic pipeline: parameters, the small ingredient with its
    semiregular group, the TD, the large ingredient, then assembly."""
    _need(args, "cyclic without --w", ("k", "h"))
    k, h = args.k, args.h
    report.param("k", k)
    report.param("h", h)
    params = _timed(report, "params", paramsearch.cyclic_assembly_params, k, h, s_min=args.s_min)
    for name in ("q", "pi", "s", "p", "y", "w"):
        report.param(name, getattr(params, name))
    report.checks([entry("gcd_condition", lambda: (
        params.gcd_condition_ok or math.gcd(k - 1, h) != 1,
        f"gcd(p-1,h)={math.gcd(params.p - 1, h)}"))])
    v_w = params.w
    shift = Permutation(tuple((i + params.q) % v_w for i in range(v_w)))
    orbit_blocks = [tuple(sorted((i + j * params.q) % v_w for j in range(k)))
                    for i in range(params.q)]
    key = f"km:v={v_w}:k={k}:semiregular_shift={params.q}:orbit-blocks"
    shift_group = PermGroup(v_w, [shift])
    w = _timed(report, "ingredient_w", _cached_design, report, args.cache_dir, key, shift_group,
               k, lambda: km_search(v_w, k, shift_group, forced_blocks=orbit_blocks))
    report.param("w_blocks", w.b)
    if k != 3:
        raise SteinerError("the large ingredient library covers k=3 only")
    _cyclic_product(report, w, shift, steiner_triple_system(params.y), args.out,
                    f"cyclic pipeline: k={k} h={h} p={params.p}")


def cmd_search_base_block(args, report: Report) -> None:
    report.param("p", args.p)
    report.param("k", args.k)
    block = _timed(report, "search", wilson_base_block, args.p, args.k)
    if block is None:
        report.error("no base block meets the coset criterion")
        return
    report.param("base_block", ",".join(map(str, block)))
    base = build_base_design(args.p, args.k, block)
    report.param("blocks", base.design.b)
    _certified(report, base.design, args.out,
               f"base-block search: p={args.p} k={args.k} block={','.join(map(str, block))}")


def cmd_km_search(args, report: Report) -> None:
    group = _load_group(args.group_file)
    report.param("v", args.v)
    report.param("k", args.k)
    report.param("group_order", group.order())
    forced = ()
    if args.orbit_blocks:
        point_images = np.array([g.images for g in group.generators], dtype=np.int64)
        reps, orbit_of = orbit_sweep(point_images.reshape(-1, group.degree))
        forced = tuple(tuple(np.flatnonzero(orbit_of == r).tolist()) for r in range(len(reps)))
        if any(len(f) != args.k for f in forced):
            raise SteinerError("point orbits are not k-sets; cannot force them as blocks")
        report.param("forced_orbit_blocks", len(forced))
    d = _timed(report, "search", km_search, args.v, args.k, group, forced_blocks=forced)
    report.param("blocks", d.b)
    _certified(report, d, args.out, f"prescribed-group search: v={args.v} k={args.k} "
               f"group={Path(args.group_file).name}", group=group)


def cmd_plan_spectrum(args, report: Report) -> None:
    x1s = list(_parse_int_list(args.x1, "--x1"))
    report.param("k", args.k)
    report.param("w", args.w)
    report.param("x1", ",".join(map(str, x1s)))
    bound = paramsearch.spectrum_bound(args.k, args.w, x1s)
    report.param("bound", bound)
    lo = args.lo if args.lo is not None else bound
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            plan = paramsearch.spectrum_plan(args.k, args.w, x1s, (lo, lo + args.width),
                                             x0=args.x0)
        finally:
            for warning in caught:
                report.param("warning", warning.message)
    report.param("witnesses", len(plan.witnesses))
    report.param("uncovered", len(plan.uncovered))
    report.checks([entry("window_covered", lambda: (
        not plan.uncovered, "" if not plan.uncovered else f"first={plan.uncovered[0]}"))])


def cmd_verify(args, report: Report) -> None:
    if args.one_blocked and not args.group_file:
        raise BadParams("--one-blocked needs --group-file")
    d = read_design(args.design)
    report.param("v", d.v)
    report.param("k", d.k)
    report.param("blocks", d.b)
    report.param("digest", d.digest())  # kept from the read if the rows were canonical as written
    group = _load_group(args.group_file) if args.group_file else None
    report.checks(certify(d, group, one_blocked=args.one_blocked))


def cmd_net(args, report: Report) -> None:
    _need(args, args.mode, ("n",) if args.mode == "affine" else ("q", "m"))
    if args.mode == "affine":
        net = net_from_affine_plane(args.n, args.k)
        report.param("n", net.n)
        report.param("lines", len(net.lines))
        report.checks([entry("net_axioms", lambda: verify_net(net) is None)])
    else:
        result = semilinear_net(args.q, args.m, args.k)
        net = result.net
        report.param("n", net.n)
        report.param("lines", len(net.lines))
        report.param("g_order", result.g.order())
        report.param("c_order", result.c.order())
        points = PermGroup.cyclic_from(result.c), range(net.point_count)
        lines = PermGroup.cyclic_from(net.line_action(result.c)), range(len(net.lines))
        report.checks([entry("c_semiregular_points", lambda: is_semiregular(*points)[0]),
                       entry("c_semiregular_lines", lambda: is_semiregular(*lines)[0])])
    if args.out:
        report.output(args.out, textfile.write(args.out, *net_file(net)))


def cmd_td(args, report: Report) -> None:
    if args.mode == "cyclic":
        bundle = cyclic_td(args.k, args.n)
        td = bundle.td
        report.param("translation_order", bundle.translation.order())
        report.param("rotator", "yes" if bundle.rotator is not None else "no")
    else:
        td = mols_td(args.k, args.n)
    report.param("k", td.k)
    report.param("n", td.n)
    report.param("blocks", len(td.blocks))
    report.checks([entry("td_axioms", lambda: verify_td(td) is None)])
    if args.out:
        report.output(args.out, textfile.write(args.out, *td_file(td)))


def cmd_params(args, report: Report) -> None:
    report.param("search", args.search)
    report.param("k", args.k)
    report.param("h", args.h)
    if args.search == "odd":
        p, t = paramsearch.prime_for_odd_group(args.k, args.h)
        report.param("p", p)
        report.param("t", t)
        report.checks([entry("t_odd_and_h_divides", lambda: t % 2 == 1 and t % args.h == 0)])
    elif args.search == "even":
        p, n = paramsearch.prime_for_even_group(args.k, args.h)
        report.param("p", p)
        report.param("n", n)
        report.checks([entry("gcd_condition",
                             lambda: math.gcd(p - 1, args.h) == math.gcd(args.k - 1, args.h))])
    else:
        params = paramsearch.cyclic_assembly_params(args.k, args.h, s_min=args.s_min)
        for name in ("h0", "h_coprime", "pi", "q", "s", "p", "y", "w"):
            report.param(name, getattr(params, name))
        report.checks([entry("prime", lambda: is_prime(params.p))])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinerkit",
        description="Construct and verify 2-(v,k,1) designs with prescribed "
                    "automorphism groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct-odd", help="line filling for odd-order groups")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--group-file", required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--base-block")
    p.add_argument("--out", help="output design file")
    p.set_defaults(func=cmd_construct_odd)

    p = sub.add_parser("construct-aligned", help="line filling via cyclic alignment")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--group-file", required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--ingredient", help="design file on p points")
    p.add_argument("--cyclic", help="images of the ingredient's cyclic automorphism")
    p.add_argument("--out", help="output design file")
    p.add_argument("--cache-dir", help="content-addressed ingredient cache")
    p.set_defaults(func=cmd_construct_aligned)

    p = sub.add_parser("compose", help="product constructions")
    p.add_argument("--mode", choices=["rc", "1blocked", "cyclic"], default="rc")
    p.add_argument("--w", help="design file for the small factor")
    p.add_argument("--y", help="design file for the large factor")
    p.add_argument("--x-points", default="0", help="comma-separated subdesign points of Y")
    p.add_argument("--group-file", help="1-blocked group on W's points")
    p.add_argument("--cyclic", help="images of the semiregular cyclic generator on W")
    p.add_argument("--k", type=int, help="auto cyclic pipeline: block size")
    p.add_argument("--h", type=int, help="auto cyclic pipeline: group-order parameter")
    p.add_argument("--s-min", type=int, default=1)
    p.add_argument("--out", help="output design file")
    p.add_argument("--cache-dir", help="content-addressed ingredient cache")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("search-base-block", help="difference-family base block scan")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", help="output design file")
    p.set_defaults(func=cmd_search_base_block)

    p = sub.add_parser("km-search", help="prescribed-group exact-cover search")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--group-file", required=True)
    p.add_argument("--orbit-blocks", action="store_true",
                   help="force the group's point orbits to be blocks")
    p.add_argument("--out", help="output design file")
    p.set_defaults(func=cmd_km_search)

    p = sub.add_parser("plan-spectrum", help="coverage witnesses for large orders")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--x1", required=True, help="comma-separated base orders")
    p.add_argument("--width", type=int, default=10000)
    p.add_argument("--lo", type=int)
    p.add_argument("--x0", type=int, default=0,
                   help="subdesign-embedding threshold (0 warns)")
    p.set_defaults(func=cmd_plan_spectrum)

    p = sub.add_parser("verify", help="exhaustively verify a design file")
    p.add_argument("--design", required=True)
    p.add_argument("--group-file")
    p.add_argument("--one-blocked", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("net", help="construct a net")
    p.add_argument("--mode", choices=["affine", "semilinear"], default="affine")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--out", help="output design file")
    p.set_defaults(func=cmd_net)

    p = sub.add_parser("td", help="construct a transversal design")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["macneish", "cyclic"], default="macneish")
    p.add_argument("--out", help="output design file")
    p.set_defaults(func=cmd_td)

    p = sub.add_parser("params", help="number-theoretic parameter searches")
    p.add_argument("--search", choices=["odd", "even", "cyclic-assembly"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--s-min", type=int, default=1)
    p.set_defaults(func=cmd_params)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(args.command, argv)
    try:
        args.func(args, report)
    except (SteinerError, OSError, MemoryError) as exc:  # a header can ask for any size
        report.error(f"{type(exc).__name__}: {exc}")
    print(report.render())
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
