"""The correctness gate every benchmark certificate passes through.

A certificate counts as passed only when the design verifies pair by pair,
every claimed automorphism and extra property checks out, the written file
reads back to the same digest, and that digest equals the one stored for
the run's variant.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

from steinerkit import design as sk_design
from steinerkit.design import Design
from steinerkit.permgrp import Permutation


@dataclass(frozen=True)
class Certificate:
    """A design plus the symmetry claims that must be re-checked."""

    design: Design
    automorphisms: Sequence[Permutation]
    checks: Sequence[tuple[str, Callable[[Design], bool]]] = ()


@dataclass(frozen=True)
class Outcome:
    name: str
    blocks: int
    digest: str | None
    failure: str | None  # None when every check passed

    @property
    def ok(self) -> bool:
        return self.failure is None


def certify(name: str, cert: Certificate, path: str | os.PathLike,
            golden: str) -> Outcome:
    """Run every check on the certificate; the first one to fail is recorded.

    ``golden`` is the stored digest.  The calls go through the module so
    that a traced run sees them.
    """
    d = cert.design
    digest = d.digest()

    def fail(reason: str) -> Outcome:
        return Outcome(name, d.b, digest, reason)

    if not sk_design.verify_2design(d).ok:
        return fail("verify_2design")
    for g in cert.automorphisms:
        if not sk_design.is_automorphism(d, g):
            return fail("is_automorphism")
    for check_name, check in cert.checks:
        if not check(d):
            return fail(check_name)
    sk_design.write_design(d, path)
    try:
        back = sk_design.read_design(path).digest()
    finally:
        os.remove(path)
    if back != digest:
        return fail("read_back_digest")
    if digest != golden:
        return fail("golden_digest")
    return Outcome(name, d.b, digest, None)
