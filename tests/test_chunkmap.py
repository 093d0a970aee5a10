"""The ordered chunk map: the loop's results and exceptions, on any number
of workers, and no thread where a call has one chunk."""
from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import steinerkit
from steinerkit import chunkmap
from steinerkit.chunkmap import chunk_map, chunk_stream


@pytest.fixture(params=[1, 2, 3], ids=["1-worker", "2-workers", "3-workers"])
def workers(request, monkeypatch):
    monkeypatch.setattr(chunkmap, "WORKERS", request.param)
    return request.param


def test_results_come_in_index_order(workers):
    assert chunk_map(lambda i: i * i, 50) == [i * i for i in range(50)]
    assert chunk_map(lambda i: i, 1) == [0]
    assert chunk_map(lambda i: i, 0) == []


def test_the_lowest_failing_index_raises(workers):
    ran = []

    def fn(i):
        ran.append(i)
        if i in (3, 7):
            raise ValueError(f"chunk {i}")
        return i

    with pytest.raises(ValueError, match="^chunk 3$"):
        chunk_map(fn, 40)
    assert set(range(4)) <= set(ran)  # every chunk before the failing one ran


def test_a_map_inside_a_chunk_finishes(workers):
    assert chunk_map(lambda i: sum(chunk_map(lambda j: i * j, 5)), 6) == [
        10 * i for i in range(6)]


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_a_stream_consumes_every_result_in_order(workers, n):
    seen, batches = [], []

    def consume(made):
        seen.extend(made)
        batches.append(len(made))

    chunk_stream([lambda i=i: i * i for i in range(n)], consume)
    assert seen == [i * i for i in range(n)]
    assert sum(batches) == n and max(batches) <= workers


def test_one_chunk_or_one_worker_starts_no_thread(tmp_path):
    """In a fresh interpreter: importing the CLI, the small-design kernels
    and one-chunk maps leave the thread count alone; a map of two chunks on
    two workers starts the one helper."""
    script = textwrap.dedent("""
        import threading
        before = threading.active_count()
        import steinerkit.cli
        from steinerkit import chunkmap, design
        from steinerkit.basedesigns import build_base_design
        from steinerkit.chunkmap import chunk_map
        from steinerkit.permgrp import PermGroup, Permutation
        assert threading.active_count() == before, "import"
        chunkmap.WORKERS = 2
        base = build_base_design(7, 3, (0, 1, 3))
        d = design.Design(7, 3, base.design.blocks[::-1])
        design.write_design(d, "fano.design")
        assert design.read_design("fano.design") == d
        assert design.verify_2design(d).ok
        shift = Permutation([(i + 1) % 7 for i in range(7)])
        assert design.is_1_blocked(d, PermGroup(7, [shift]))[0]
        assert chunk_map(lambda i: i, 1) == [0]
        assert threading.active_count() == before, "one chunk"
        chunkmap.WORKERS = 1
        assert chunk_map(lambda i: i, 9) == list(range(9))
        assert threading.active_count() == before, "one worker"
        chunkmap.WORKERS = 2
        assert chunk_map(lambda i: i, 2) == [0, 1]
        assert threading.active_count() == before + 1, "two chunks"
        print("ok")
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(steinerkit.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_worker_count_is_the_cpus_this_process_may_use():
    expect = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    assert chunkmap.WORKERS == expect
