"""The ordered chunk map and pipeline: the loop's results and exceptions,
on any number of workers, and no thread where a call has one chunk."""
from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap
import threading
import time
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


@pytest.mark.parametrize("n", [0, 1, 2, 7, 500])
def test_a_stream_consumes_every_result_in_order(workers, n):
    seen, consuming = [], threading.Lock()

    def make(i):
        if i % 3 == 0:
            time.sleep(0.0005)  # later items finish first
        return i * i

    def consume(made):
        assert consuming.acquire(blocking=False), "two consumes at once"
        seen.append(made)
        consuming.release()

    chunk_stream(range(n), make, consume)
    assert seen == [i * i for i in range(n)]


def failing_at(fail, exc_type, slow=()):
    """A step that raises on the items in ``fail``, after a pause on those in ``slow``."""
    def step(i):
        if i in slow:
            time.sleep(0.05)
        if i in fail:
            raise exc_type(f"item {i}")
        return i
    return step


def test_a_stream_raises_the_lowest_failing_index(workers):
    # on more workers the later failure is met first, while the earlier pauses
    consumed = []
    with pytest.raises(ValueError, match="^item 3$"):  # make
        chunk_stream(range(40), failing_at({3, 4}, ValueError, slow={3}), consumed.append)
    assert consumed == [0, 1, 2]

    consumed.clear()
    consume = failing_at({5}, KeyError, slow={5})
    with pytest.raises(KeyError, match="item 5"):  # consume, before a later make
        chunk_stream(range(40), failing_at({7}, ValueError),
                     lambda i: consumed.append(consume(i)))
    assert consumed == [0, 1, 2, 3, 4]

    def source():  # the draw itself
        yield from range(4)
        raise OSError("draw 4")

    consumed.clear()
    with pytest.raises(OSError, match="^draw 4$"):
        chunk_stream(source(), lambda i: i, consumed.append)
    assert consumed == [0, 1, 2, 3]


def test_a_failed_stream_draws_no_further_than_the_bound(workers):
    drawn = []

    def source():  # endless: only the failure ends the stream
        for i in itertools.count():
            drawn.append(i)
            yield i

    with pytest.raises(ValueError, match="^item 5$"):
        chunk_stream(source(), failing_at({5}, ValueError), lambda i: None)
    assert 5 < len(drawn) <= 5 + 2 * workers + 1  # the window, and the item drawn ahead


def test_at_most_twice_the_workers_wait_to_be_consumed(workers):
    lock, state = threading.Lock(), {"made": 0, "consumed": 0, "most": 0}

    def make(i):
        with lock:
            state["made"] += 1
            state["most"] = max(state["most"], state["made"] - state["consumed"])
        return i

    def consume(i):
        time.sleep(0.001)  # the slow step: made results pile up behind it
        with lock:
            state["consumed"] += 1

    chunk_stream(range(60), make, consume)
    assert state["consumed"] == 60
    assert 1 <= state["most"] <= 2 * workers


def test_a_map_of_two_chunks_runs_them_side_by_side(monkeypatch):
    # each chunk waits for the other: made one after the other, they time out
    monkeypatch.setattr(chunkmap, "WORKERS", 2)
    both = threading.Barrier(2, timeout=30)
    assert chunk_map(lambda i: both.wait() * 0 + i, 2) == [0, 1]


def test_a_map_inside_a_stream_finishes(workers):
    seen = []
    chunk_stream(range(20), lambda i: sum(chunk_map(lambda j: i * j, 5)), seen.append)
    assert seen == [10 * i for i in range(20)]


def test_a_stream_under_fast_thread_switches_keeps_its_order(monkeypatch):
    """More workers than CPUs, a thread switch every microsecond: a lost
    update of the turn or of the results would drop, repeat or reorder one."""
    monkeypatch.setattr(chunkmap, "WORKERS", 4)
    seen, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run = threading.Thread(target=chunk_stream, args=(range(3000), lambda i: -i, seen.append))
        run.start()
        run.join(timeout=120)
        assert not run.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert seen == [-i for i in range(3000)]


def test_one_chunk_or_one_worker_starts_no_thread(tmp_path):
    """In a fresh interpreter: importing the CLI, the small-design kernels
    and one-chunk maps leave the thread count alone; a map of two chunks on
    two workers starts the one helper."""
    script = textwrap.dedent("""
        import threading
        before = threading.active_count()
        import steinerkit.cli
        from steinerkit import chunkmap, design, textfile
        from steinerkit.basedesigns import build_base_design
        from steinerkit.chunkmap import chunk_map
        from steinerkit.permgrp import PermGroup, Permutation, group_from_text, group_to_text
        assert threading.active_count() == before, "import"
        chunkmap.WORKERS = 2
        base = build_base_design(7, 3, (0, 1, 3))
        d = design.Design(7, 3, base.design.blocks[::-1])
        design.write_design(d, "fano.design")  # one chunk
        assert design.read_design("fano.design") == d  # one piece
        group = PermGroup(7, [Permutation([(i + 1) % 7 for i in range(7)])])
        assert group_from_text(group_to_text(group)).generators == group.generators
        assert chunkmap.chunk_stream([3], lambda i: i, lambda i: None) is None
        assert design.verify_2design(d).ok
        shift = Permutation([(i + 1) % 7 for i in range(7)])
        assert design.is_1_blocked(d, PermGroup(7, [shift]))[0]
        assert chunk_map(lambda i: i, 1) == [0]
        assert threading.active_count() == before, "one chunk"
        chunkmap.WORKERS = 1
        assert chunk_map(lambda i: i, 9) == list(range(9))
        textfile._READ_BYTES, textfile._WRITE_ROWS = 8, 2  # many pieces, many chunks
        design.write_design(d, "fano.design")
        assert design.read_design("fano.design") == d
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
