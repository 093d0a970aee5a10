"""One ordered map over independent chunks, run on every CPU of the process.

``chunk_map(fn, n)`` is ``[fn(0), ..., fn(n-1)]``.  The calling thread and
WORKERS - 1 helper threads claim indices from one shared counter, so no more
threads are busy than there are CPUs.  With one chunk or one CPU the map is
the plain loop in the caller; the helpers start on the first map that needs
them.  A chunk that raises stops further claims, and the map raises the
exception of the lowest index that raised, as the loop would.  No two chunks
may write the same array element.  The design and file kernels use it on
numpy work that releases the GIL, so their output is the loop's, byte for byte.
``chunk_stream`` runs an ordered consumer of each batch beside the next one.
"""
from __future__ import annotations

import os
import queue
import threading
from functools import partial
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # a platform without CPU affinity
    WORKERS = os.cpu_count() or 1

_tasks: queue.SimpleQueue = queue.SimpleQueue()
_helpers: list[threading.Thread] = []
_start = threading.Lock()


def _serve(tasks: queue.SimpleQueue) -> None:
    while True:
        tasks.get()()


def _forget_helpers() -> None:
    """A forked child has none of its parent's threads."""
    global _tasks, _start
    _tasks, _start = queue.SimpleQueue(), threading.Lock()
    _helpers.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


class _Run:
    """One map: the next index to claim, how many claimed chunks still run,
    the results and the exceptions by index."""

    def __init__(self, fn: Callable[[int], T], n: int):
        self.fn, self.n, self.next, self.running = fn, n, 0, 0
        self.results: list = [None] * n
        self.errors: dict[int, BaseException] = {}
        self.lock, self.done = threading.Lock(), threading.Event()

    def drain(self) -> None:
        """Run claimed chunks until none is left; the last to finish sets done."""
        i = None
        while True:
            with self.lock:
                if i is not None:
                    self.running -= 1
                if self.next == self.n or self.errors:
                    if not self.running:
                        self.done.set()
                    return
                i, self.next, self.running = self.next, self.next + 1, self.running + 1
            try:
                self.results[i] = self.fn(i)
            except BaseException as exc:
                with self.lock:
                    self.errors[i] = exc


def chunk_map(fn: Callable[[int], T], n: int) -> list[T]:
    """``[fn(0), ..., fn(n-1)]``, the chunks run on every CPU."""
    workers = min(WORKERS, n)
    if workers <= 1:
        return [fn(i) for i in range(n)]
    run = _Run(fn, n)
    with _start:
        while len(_helpers) < workers - 1:
            _helpers.append(threading.Thread(target=_serve, args=(_tasks,), daemon=True,
                                             name="chunk_map"))
            _helpers[-1].start()
    for _ in range(workers - 1):
        _tasks.put(run.drain)
    run.drain()
    run.done.wait()
    if run.errors:
        raise run.errors[min(run.errors)]
    return run.results


def chunk_stream(calls: Sequence[Callable[[], T]], consume: Callable[[list[T]], None]) -> None:
    """``consume`` the results of the calls, WORKERS at a time and in order;
    each batch is consumed in the chunk map that makes the next, so that an
    ordered step (a write, a scatter) runs beside the chunks it does not need."""
    made: list = []
    for lo in range(0, len(calls), WORKERS):
        jobs = [partial(consume, made), *calls[lo:lo + WORKERS]]
        if len(jobs) > 2:
            made = chunk_map(lambda i: jobs[i](), len(jobs))[1:]
        else:  # one chunk: no thread beside it
            made = [job() for job in jobs][1:]
    consume(made)
