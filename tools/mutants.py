"""Mutation check of the certificate checkers: every mutant must fail the tests.

    python3 tools/mutants.py

A mutant is one text replacement in one file of ``src/`` that breaks a check
the certificates rely on.  For each run the script copies the files git lists
in the repository (tracked, staged or untracked but not ignored: ``src/``,
``tests/``, ``certbench/``, ``pyproject.toml`` and what the tests read) to a
temporary directory, makes the replacement there and runs the tier-1 tests of
``pyproject.toml``'s test paths in that copy, stopping at the first failure.
``tests/test_mutants.py`` is left out of the run: it checks that each old text
is in the unmutated file.  A mutant that passes every test survives.

Two controls run first, and the script stops with exit 2 if either goes
wrong: the unmutated copy must pass every test, and NO_OP, a replacement that
keeps the meaning of the code, must survive.  So a copy that misses a file
the tests need cannot report every mutant killed.  Then the script prints one
line a mutant, with the first test that failed or errored on it, and exits 1
if any survived.  A survivor or a control costs a whole run of the tests,
about 70-80 s on two CPUs; a mutant is killed sooner.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    breaks: str


DESIGN, CERTIFY = "src/steinerkit/design.py", "src/steinerkit/certify.py"
MUTANTS = [
    Mutant(DESIGN, "        twice[idx[1:][idx[1:] == idx[:-1]]] = True\n", "",
           "a pair covered twice inside one chunk of the counting pass is not counted"),
    Mutant(DESIGN, "        twice[idx[seen[idx]]] = True\n", "",
           "a pair covered again in a later chunk is not counted"),
    Mutant(DESIGN, "        twice[idx[seen[idx]]] = True\n        seen[idx] = True\n",
           "        seen[idx] = True\n        twice[idx[seen[idx]]] = True\n",
           "the counting pass sets a chunk's pairs before it tests them: every pair is twice"),
    Mutant(DESIGN, "lambda pairs: np.sort(pairs())", "lambda pairs: pairs()",
           "repeats inside a chunk are found only where they lie side by side"),
    Mutant(DESIGN, "    if sum(len(t) * (t.shape[1] * (t.shape[1] - 1) // 2) for t in tables)"
                   " == total:\n", "    if True:\n",
           "the verdict pass passes rows that cover every pair and one of them twice"),
    Mutant(DESIGN, "np.subtract(v - 1, cols, out=cols)", "np.subtract(v, cols, out=cols)",
           "pairs are reflected by v, so point 0's pairs index past the bitmap"),
    Mutant(CERTIFY, "for g in group.elements() if not g.is_identity())))",
           "for g in group.generators if not g.is_identity())))",
           "fixes_exactly_one_point looks at the generators only"),
    Mutant(DESIGN, "    if d1.b != d2.b:\n        return False\n", "",
           "_maps_onto compares only the first d2.b keys of a larger d1"),
]


NO_OP = Mutant(DESIGN, "np.subtract(v - 1, cols, out=cols)",
               "np.subtract(-1 + v, cols, out=cols)",
               "nothing: v - 1 written as -1 + v")


def _files() -> list[str]:
    """The files of the repository as git lists them, ignored ones left out."""
    out = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                         cwd=ROOT, check=True, capture_output=True).stdout
    return [name for name in out.decode().split("\0") if name and (ROOT / name).is_file()]


def run(mutant: Mutant | None) -> tuple[bool, str]:
    """(True if the tests pass on a copy that holds the mutant, the first
    failed test); None runs the unmutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in _files():
            Path(tmp, name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, Path(tmp, name))
        if mutant is not None:
            target = Path(tmp, mutant.path)
            text = target.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.path}: the old text of '{mutant.breaks}' "
                                 "is not there once")
            target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p",
                               "no:cacheprovider", "--ignore=tests/test_mutants.py"],
                              cwd=tmp, env=env, capture_output=True, text=True)
        if done.returncode not in (0, 1):
            what = mutant.breaks if mutant else "the unmutated copy"
            raise SystemExit(f"pytest exited {done.returncode} on '{what}'")
        failed = [line for line in done.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        return done.returncode == 0, failed[0] if failed else ""


def main() -> int:
    start = time.perf_counter()
    passed, failed = run(None)
    if not passed:
        print(f"the unmutated copy fails {failed}: no mutant can be judged", file=sys.stderr)
        return 2
    print(f"control passed {time.perf_counter() - start:.0f}s: the unmutated copy", flush=True)
    start = time.perf_counter()
    passed, failed = run(NO_OP)
    if not passed:
        print(f"the no-op mutant {NO_OP.new!r} fails {failed}", file=sys.stderr)
        return 2
    print(f"control survived {time.perf_counter() - start:.0f}s {NO_OP.path}: {NO_OP.breaks}",
          flush=True)
    survivors = 0
    for i, mutant in enumerate(MUTANTS):
        start = time.perf_counter()
        survived, failed = run(mutant)
        survivors += survived
        print(f"{i} {'SURVIVED' if survived else 'killed'} {time.perf_counter() - start:.0f}s "
              f"{mutant.path}: {mutant.breaks}" + ("" if survived else f"\n    {failed}"),
              flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
