"""Certificate benchmark for steinerkit.

    python3 certbench/run.py --workload odd-lift-z3 --seed 0 --seconds 45 --trace 0

Builds the library from the checkout's ``src`` (nothing is installed), sets
up the workload's ingredients, then runs timed passes of the workload's
certificates until the next pass would overrun ``--seconds`` (at least one
pass), and reports their mean time.  The timings are scaled to a reference
processor speed that speed.py samples during the run, because the speed a
process gets on a shared machine drifts by more than a run can average out.
Every certificate goes through the correctness gate in certify.py,
against the digests that expected.json stores for the seed's variant.
With ``--trace 1`` a single pass runs with spans installed instead; it
reports the per-layer metrics and the tracing overhead and enforces the
span-coverage guard.  The last line of standard output is the JSON result;
``--record`` appends the full run record to a JSON-lines file for
compare.py.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_PROBE = "import steinerkit.cli"


def _load_library():
    """Import steinerkit from this checkout's src, and nowhere else."""
    if not (SRC / "steinerkit" / "__init__.py").is_file():
        raise SystemExit(f"certbench: no steinerkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import steinerkit
    if Path(steinerkit.__file__).resolve().parent != SRC / "steinerkit":
        raise SystemExit(f"certbench: imported steinerkit from {steinerkit.__file__}, "
                         f"not from {SRC}")


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup(workload, seed: int, workdir: Path) -> tuple[str, list, list[float]]:
    """Set up SETUP_REPEATS times; each sample is a fresh interpreter's
    start-up plus library import, then the in-process ingredient set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                       cwd=ROOT)
        variant, builders = workload(seed, workdir)
        samples.append(time.perf_counter() - start)
    return variant, builders, samples


def run_pass(builders, workdir: Path, goldens: dict[str, str]):
    """One timed pass over the certificates; returns (seconds, outcomes).

    ``goldens`` maps certificate name to its stored digest; a certificate
    without one fails.
    """
    from certify import Outcome, certify  # needs steinerkit on the path first
    outcomes = []
    gc.collect()
    start = time.perf_counter()
    for name, build in builders:
        golden = goldens.get(name, "")
        try:
            outcomes.append(certify(name, build(), workdir / f"{name}.design", golden))
        except Exception as exc:  # a failed certificate is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outcomes.append(Outcome(name, 0, None, f"{type(exc).__name__}: {exc}"))
    return time.perf_counter() - start, outcomes


def count_failures(passes) -> list[str]:
    """Failed certificates over all passes."""
    return [f"pass {i}: {o.name}: {o.failure}"
            for i, (_, outcomes) in enumerate(passes) for o in outcomes if not o.ok]


def _passed_blocks(outcomes) -> int:
    return sum(o.blocks for o in outcomes if o.ok)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run record to this JSON-lines file")
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()

    _load_library()
    import numpy
    from spans import GuardError, Tracer, check_coverage
    from speed import SpeedProbe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload}; choose from {', '.join(WORKLOADS)}")
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]

    workdir = ROOT / ".certbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    probe = SpeedProbe()
    per_layer = tracer = metrics = None
    passes = []
    try:
        with contextlib.nullcontext() if args.trace else probe:
            variant, builders, setup_samples = _setup(WORKLOADS[args.workload], args.seed,
                                                      workdir)
            goldens = expected["digests"].get(variant, {})
            if args.trace:
                try:
                    with Tracer() as tracer:
                        passes.append(run_pass(builders, workdir, goldens))
                    check_coverage(tracer, expected)
                except GuardError as exc:
                    print(f"certbench: span-coverage guard failed: {exc}", file=sys.stderr)
                    return 3
            else:
                start = time.perf_counter()
                while True:
                    passes.append(run_pass(builders, workdir, goldens))
                    elapsed = time.perf_counter() - start
                    if elapsed + passes[-1][0] > args.seconds:
                        break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    walls = [dt for dt, _ in passes]
    failures = count_failures(passes)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    measured = speed = None
    if args.trace:
        per_layer = tracer.metrics()
    else:
        measured = {
            "wall_s": statistics.fmean(walls),
            "blocks_per_s": sum(_passed_blocks(o) for _, o in passes) / sum(walls),
            "setup_s": statistics.median(setup_samples),
        }
        speed = probe.factor()
        metrics = {
            "wall_s": measured["wall_s"] * speed,
            "blocks_per_s": measured["blocks_per_s"] / speed,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "setup_s": measured["setup_s"] * speed,
            "ops": statistics.median_low(len(o) for _, o in passes),
        }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": _git_commit(), "loadavg_start": loadavg, "variant": variant,
        "pass_wall_s": walls, "setup_samples_s": setup_samples,
        "cpu_user_s": usage.ru_utime, "cpu_sys_s": usage.ru_stime,
        "probe_units": len(probe.samples), "speed_factor": speed, "measured": measured,
        "metrics": metrics, "per_layer": per_layer,
        "attempted": sum(len(o) for _, o in passes), "failed": len(failures),
        "failures": failures,
        "digests": {o.name: o.digest for o in passes[0][1]},
    }
    if tracer is not None:
        record["span_calls"] = dict(sorted(tracer.calls.items()))
        record["km_instances"] = sorted(tracer.km_instances)
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")

    for line in failures:
        print(f"FAILED {line}")
    shown = {m["name"]: {"value": (per_layer if args.trace else metrics)[m["name"]],
                         "unit": m["unit"]}
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    print(f"{args.workload} {'traced' if args.trace else 'timed'} passes = {len(walls)}")
    for name, m in shown.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} ops_failed = {len(failures)} count")
    if measured:
        print(f"{args.workload} speed factor = {speed:.4f} from {len(probe.samples)} probe units; "
              f"as measured: " + ", ".join(f"{k} = {v:.6g}" for k, v in measured.items()))
    result = {
        "correct": not failures,
        "attempted": record["attempted"],
        "failed": len(failures),
        "metrics": shown,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
