"""Shared fixtures."""
from __future__ import annotations

import pytest

from steinerkit import chunkmap, design


@pytest.fixture
def one_and_two_workers(monkeypatch):
    """``outcomes(run)``: what ``run()`` gives with the chunk map forced to 1
    worker and then to 2, each a result or an exception's type and message."""

    def outcomes(run):
        got = []
        for workers in (1, 2):
            monkeypatch.setattr(chunkmap, "WORKERS", workers)
            try:
                got.append(run())
            except Exception as exc:
                got.append((type(exc), str(exc)))
        return got

    return outcomes


@pytest.fixture
def counted(monkeypatch):
    """Calls of the automorphism and pair-cover kernels, by name."""
    calls = {"_maps_onto": 0, "_pair_cover": 0}
    for name in calls:
        def count(*args, _name=name, _real=getattr(design, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(design, name, count)
    return calls
