"""Compare two sets of benchmark runs, workload by workload.

    python3 certbench/compare.py pairs PARENT_DIR CHANGE_DIR --workload small-certs \\
        --parent-out parent.jsonl --change-out change.jsonl
    python3 certbench/compare.py diff parent.jsonl change.jsonl

``pairs`` runs the benchmark from two checkouts in alternating order
(parent first on even pairs, change first on odd ones), MIN_PAIRS pairs at
seeds 1, 2, ... for run_seconds of BENCHMARK.json each, and appends each
run record to a JSON-lines file.  ``diff`` reads two such files and gives each
end-to-end metric of each workload a verdict:

- improved: the change wins at least 9 in 10 pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile range;
- unresolved: fewer than 10 pairs, or the spread (interquartile range over
  median) of either side exceeds the metric's bound, unless every change
  run reads better than every parent run;
- worse: the change's median is worse than the parent's by more than the
  metric's bound from BENCHMARK.json;
- unchanged: otherwise.

For traced runs it also prints the per-layer self-time diff.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _records(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _by_workload(records, trace: int) -> dict[str, list[dict]]:
    out = defaultdict(list)
    for r in records:
        if r["trace"] == trace:
            out[r["workload"]].append(r)
    return out


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One end-to-end metric's verdict from paired runs (i-th with i-th)."""
    pairs = min(len(parent), len(change))
    if pairs < MIN_PAIRS:
        return f"unresolved ({pairs} pairs < {MIN_PAIRS})"
    parent, change = parent[:pairs], change[:pairs]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    if wins >= WIN_SHARE * pairs and sign * (c_med - p_med) > p_q3 - p_q1:
        return f"improved ({wins}/{pairs} wins)"
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if spread > bound and not all_better:
        return f"unresolved (spread {spread:.3f} > bound {bound})"
    worse_by = -sign * (c_med - p_med) / abs(p_med)
    if worse_by > bound:
        return f"worse (by {worse_by:.3f} > bound {bound})"
    return "unchanged"


def diff(parent_path, change_path) -> int:
    parent = _records(parent_path)
    change = _records(change_path)
    worse = False
    p_runs, c_runs = _by_workload(parent, 0), _by_workload(change, 0)
    for workload in sorted(set(p_runs) | set(c_runs)):
        print(f"== {workload}: {len(p_runs[workload])} parent / "
              f"{len(c_runs[workload])} change runs")
        for m in BENCHMARK["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name] for r in p_runs[workload]]
            c = [r["metrics"][name] for r in c_runs[workload]]
            if not p or not c:
                print(f"  {name}: unresolved (no runs on one side)")
                continue
            v = verdict(p, c, m["better"], m["bound"])
            worse |= v.startswith("worse")
            print(f"  {name}: parent {statistics.median(p):.6g} "
                  f"change {statistics.median(c):.6g} {m['unit']}: {v}")
    p_tr, c_tr = _by_workload(parent, 1), _by_workload(change, 1)
    for workload in sorted(set(p_tr) & set(c_tr)):
        print(f"== {workload}: per-layer self time, median of "
              f"{len(p_tr[workload])} parent / {len(c_tr[workload])} change traced runs")
        names = p_tr[workload][0]["per_layer"]
        for name in names:
            if not name.endswith("_s"):
                continue
            p = statistics.median(r["per_layer"][name] for r in p_tr[workload])
            c = statistics.median(r["per_layer"][name] for r in c_tr[workload])
            if p or c:
                print(f"  {name}: {p:.4f} -> {c:.4f} s ({c - p:+.4f})")
    return 1 if worse else 0


def pairs(args) -> int:
    sides = [(Path(args.parent), args.parent_out), (Path(args.change), args.change_out)]
    for i in range(MIN_PAIRS):
        for checkout, out in (sides if i % 2 == 0 else sides[::-1]):
            cmd = [sys.executable, "certbench/run.py", "--workload", args.workload,
                   "--seed", str(1 + i), "--seconds", str(BENCHMARK["run_seconds"]),
                   "--trace", str(args.trace), "--record", str(Path(out).resolve())]
            subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("diff", help="verdict per workload and end-to-end metric")
    p.add_argument("parent")
    p.add_argument("change")
    p = sub.add_parser("pairs", help="run alternating parent/change pairs")
    p.add_argument("parent", help="parent checkout")
    p.add_argument("change", help="change checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--parent-out", required=True)
    p.add_argument("--change-out", required=True)
    args = parser.parse_args(argv)
    if args.command == "diff":
        return diff(args.parent, args.change)
    return pairs(args)


if __name__ == "__main__":
    sys.exit(main())
