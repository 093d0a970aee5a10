"""The mutant list of ``tools/mutants.py`` names code that exists: each old
text occurs exactly once in its file, so the list cannot drift from the code
unnoticed.  The mutants themselves run outside these tests."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", [*mutants.MUTANTS, mutants.NO_OP],
                         ids=[*(f"{i}-{Path(m.path).stem}" for i, m in enumerate(mutants.MUTANTS)),
                              "no-op"])
def test_each_mutant_replaces_text_that_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
