"""One ordered pipeline over independent chunks, run on every CPU of the process.

``chunk_stream(source, make, consume)`` is ``for item in source: consume(make(item))``:
the calling thread and WORKERS - 1 helper threads draw items in turn, make them side by
side and consume each result in draw order once it is made, so no item waits for a
batch.  ``chunk_map(fn, n)`` is ``[fn(0), ..., fn(n-1)]``.  With one item or one CPU
either is the plain loop in the caller; the helpers start on the first call that needs
them.  Both raise the exception of the lowest index, as the loop would, and are used on
numpy work that releases the GIL: their output is the loop's, byte for byte.
"""
from __future__ import annotations

import os
import queue
import threading
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
U = TypeVar("U")

try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # a platform without CPU affinity
    WORKERS = os.cpu_count() or 1

_tasks: queue.SimpleQueue = queue.SimpleQueue()
_helpers: list[threading.Thread] = []
_start = threading.Lock()
_END = object()  # a stream's source has no item left


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


def _ahead(items: Iterator) -> Iterator[tuple[object, bool]]:
    """Each item and whether another follows, drawn one ahead; a failed draw raises in turn."""
    after = next(items, _END)
    while (item := after) is not _END:
        try:
            after = next(items, _END)
        except BaseException:
            yield item, True
            raise
        yield item, after is not _END


class _Stream:
    """One pipeline: its steps, the items drawn, the index to consume next,
    the threads in it, and by index the results not consumed and the exceptions."""

    def __init__(self, source: Iterable, make: Callable, consume: Callable):
        self.source, self.make, self.consume = _ahead(iter(source)), make, consume
        self.workers, self.drawn, self.turn, self.running = WORKERS, 0, 0, 0
        self.waiting = False  # a drawer waits for the window to open
        self.results, self.errors = {}, {}
        self.stop, self.drawing, self.consuming = False, threading.Lock(), threading.Lock()
        self.state = threading.Condition()

    def drain(self) -> None:
        """Draw, make and consume till the draws stop."""
        with self.state:
            if self.stop:
                return
            self.running += 1
        try:
            while True:
                try:
                    with self.drawing:
                        at = self.drawn
                        # the turn only grows, so a window seen open stays open
                        if at - self.turn >= 2 * self.workers:
                            with self.state:
                                self.waiting = True  # set before the test, read after a turn
                                self.state.wait_for(
                                    lambda: self.stop or at - self.turn < 2 * self.workers)
                                self.waiting = False
                        if self.stop:
                            return
                        if (drawn := next(self.source, None)) is None:
                            self.stop = True
                            return
                        self.drawn += 1
                    item, more = drawn
                    if at == 0 and more and self.workers > 1:  # call in the helpers
                        with _start:
                            while len(_helpers) < self.workers - 1:
                                _helpers.append(threading.Thread(
                                    target=_serve, args=(_tasks,), daemon=True, name="chunk_map"))
                                _helpers[-1].start()
                        for _ in range(self.workers - 1):
                            _tasks.put(self.drain)
                    self.results[at] = self.make(item)
                    # the turn's holder consumes in order, and tests again after its release
                    while self.turn in self.results and self.consuming.acquire(blocking=False):
                        while (result := self.results.pop(self.turn, _END)) is not _END:
                            at = self.turn
                            self.consume(result)
                            self.turn += 1  # written by the turn's holder alone
                            if self.waiting:  # notify only a drawer that waits
                                with self.state:
                                    self.state.notify_all()
                        self.consuming.release()
                except BaseException as exc:  # a failed consume keeps the turn
                    with self.state:
                        self.errors[at], self.stop = exc, True
                        self.state.notify_all()
                    return
        finally:
            with self.state:
                self.running -= 1
                self.state.notify_all()


def chunk_stream(source: Iterable[T], make: Callable[[T], U],
                 consume: Callable[[U], None]) -> None:
    """``consume(make(item))`` for each item of ``source``, in order; ``make`` runs on
    every CPU and reads nothing ``consume`` writes.  At most 2*WORKERS + 1 items are
    drawn and not consumed, and none is drawn after a step raises."""
    stream = _Stream(source, make, consume)
    stream.drain()
    with stream.state:
        stream.state.wait_for(lambda: not stream.running)
    if stream.errors:
        raise stream.errors[min(stream.errors)]


def chunk_map(fn: Callable[[int], T], n: int) -> list[T]:
    """``[fn(0), ..., fn(n-1)]``, the chunks run on every CPU."""
    if min(WORKERS, n) <= 1:
        return [fn(i) for i in range(n)]
    results: list[T] = []
    chunk_stream(range(n), fn, results.append)
    return results
