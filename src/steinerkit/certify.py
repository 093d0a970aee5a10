"""One checker for every claim made about a constructed design.

``certify`` runs the checks a route's claims call for and returns them as an
ordered log; a check that did not run has no entry.  The CLI prints the log,
and the library raises through ``require_certified``.  Kernels are called as
``design.<name>`` module attributes, so a tracer rebinding them sees every call.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from . import design, permgrp
from .errors import AxiomViolation, BadParams


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str
    seconds: float


def entry(name: str, check: Callable[[], bool | tuple[bool, str]]) -> Check:
    """Run and time ``check``, which returns its verdict or (verdict, detail);
    a raised AxiomViolation is a failed entry whose detail is the message."""
    start = time.perf_counter()
    try:
        result = check()
    except AxiomViolation as exc:
        result = False, str(exc)
    ok, detail = result if isinstance(result, tuple) else (result, "")
    return Check(name, bool(ok), detail, time.perf_counter() - start)


def certify(d: design.Design, group: permgrp.PermGroup | None = None,
            one_blocked: bool = False, fixed: Sequence[int] | None = None) -> list[Check]:
    """The check log of a design and the claims made about it.

    Always ``pairs_once``.  With a group, ``group_is_automorphisms`` on its
    generators, then ``one_blocked`` if claimed and the generators passed.
    With a fixed-point set, ``fixes_exactly_one_point`` (every non-identity
    element fixes exactly that set) and ``semiregular_elsewhere``.
    """
    if group is None and (one_blocked or fixed is not None):
        raise BadParams("a 1-blocked or fixed-point claim needs a group")

    def pairs():
        rep = design.verify_2design(d)
        return rep.ok, f"deficit={rep.pair_deficit} surplus={rep.pair_surplus}"

    def blocked():
        ok, witness = design.stabilizer_scan(d, group)
        return ok, "" if ok else f"witness={witness}"

    log = [entry("pairs_once", pairs)]
    if group is not None:
        log.append(entry("group_is_automorphisms",
                         lambda: all(design.is_automorphism(d, g) for g in group.generators)))
        if one_blocked and log[-1].ok:
            log.append(entry("one_blocked", blocked))
    if fixed is not None:
        fixed = tuple(sorted(set(fixed)))
        rest = sorted(set(range(d.v)) - set(fixed))
        log.append(entry("fixes_exactly_one_point", lambda: all(
            g.fixed_points() == fixed for g in group.elements() if not g.is_identity())))
        log.append(entry("semiregular_elsewhere",
                         lambda: permgrp.is_semiregular(group, rest)[0]))
    return log


def require_certified(log: Sequence[Check], what: str) -> None:
    """Raise AxiomViolation naming the first failed entry of the log, if any."""
    failed = next((c for c in log if not c.ok), None)
    if failed is not None:
        detail = f" ({failed.detail})" if failed.detail else ""
        raise AxiomViolation(f"{what} fails the {failed.name} check{detail}")
