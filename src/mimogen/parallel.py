"""Per-step work in forked worker processes, taken in step order.

``trace``, ``build`` and ``beams`` write their files from one step loop,
``OrderedPool.map``: forked workers run a task per step, at most 2 per
worker pending, and this process takes the results, pickled back,
strictly in step order, so what it writes does not depend on the number
of workers. Without workers the same tasks run here as they are drawn.
``trace``'s results are its encoded ray-file chunks; the records of
``build`` and ``beams``, too large to pickle, stay in a ``Ring`` of
shared slots, one per pending step, which the pool's window keeps from
being reused before its step has been taken.
"""

from __future__ import annotations

import collections
import mmap
import os
import resource
import sys
from concurrent.futures import BrokenExecutor, Future
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np


class WorkerError(Exception):
    """A worker's task raised, or a worker process ended abruptly."""


def worker_count() -> int:
    """Worker processes of a pool: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def peak_rss_kib() -> int:
    """This process's peak RSS in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Ring:
    """The slot ring: ``slots`` slots of a shared anonymous mapping, each
    one step of ``users`` records of ``dtype`` for each of ``shards``
    shards. Step n has slot n mod ``slots``."""

    def __init__(self, slots: int, dtype: np.dtype, shards: int, users: int):
        self.records = np.frombuffer(mmap.mmap(-1, slots * shards * users * dtype.itemsize),
                                     dtype).reshape(slots, shards, users)

    def put(self, step: int, batches: Sequence[np.ndarray]) -> None:
        """Copy step ``step``'s batches into its slot."""
        for records, batch in zip(self.records[step % len(self.records)], batches):
            records[:len(batch)] = batch

    def get(self, step: int, count: int) -> tuple[np.ndarray, ...]:
        """Writable views of the first ``count`` records of each batch in
        step ``step``'s slot."""
        return tuple(self.records[step % len(self.records), :, :count])


_task: Callable[..., Any] | None = None      # in each worker process


def _start_worker(task: Callable[..., Any]) -> None:
    global _task
    _task = task


def _run(*args: Any) -> tuple[Any, int]:
    """The one worker task: ``task(*args)`` and this worker's peak RSS."""
    return _task(*args), peak_rss_kib()


class OrderedPool:
    """``workers`` forked worker processes, or none; ``window`` is the most
    tasks pending at once (2 per worker, 1 without workers). Use the pool as
    a context manager, which shuts it down, its workers waited for.
    ``name`` names the pool in its errors; ``peak_rss_kib`` is the largest
    peak RSS a worker has reported (0 without workers)."""

    def __init__(self, name: str, workers: int):
        self.name = name
        self.workers = workers
        self.window = max(1, 2 * workers)
        self.peak_rss_kib = 0
        self._executor = None

    def __enter__(self) -> "OrderedPool":
        return self

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)

    def map(self, task: Callable[..., Any], args: Iterable[tuple]) -> Iterator[Any]:
        """``task(*a)`` for each ``a`` of ``args``, in order. ``task``
        reaches the workers through the fork, unpickled. Task n is drawn
        and submitted once the consumer has come back for the result after
        task n - ``window``'s. A task that raises in a worker, or a worker
        that dies, is a ``WorkerError``; in this process the task's own
        exception propagates."""
        if not self.workers:
            yield from (task(*a) for a in args)
            return
        import multiprocessing      # here: runs without workers skip the import
        from concurrent.futures import ProcessPoolExecutor

        sys.stdout.flush()          # a worker must not write again what is buffered
        sys.stderr.flush()
        # fork: the workers inherit ``task`` and what it reaches, such as a
        # ring, which an anonymous mapping can only reach that way. They are
        # forked at the first submit, before any thread of the pool starts.
        self._executor = ProcessPoolExecutor(
            self.workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(task,))
        pending: collections.deque[Future] = collections.deque()
        try:
            for a in args:
                pending.append(self._executor.submit(_run, *a))
                if len(pending) == self.window:
                    yield self._take(pending)
            while pending:
                yield self._take(pending)
        except BrokenExecutor as exc:   # found by a submit or by a result
            raise WorkerError(f"a {self.name} worker process ended abruptly: {exc}") from exc

    def _take(self, pending: collections.deque[Future]) -> Any:
        try:
            result, peak_rss_kib = pending.popleft().result()
        except BrokenExecutor:
            raise
        except Exception as exc:
            raise WorkerError(
                f"a {self.name} worker failed: {type(exc).__name__}: {exc}") from exc
        self.peak_rss_kib = max(self.peak_rss_kib, peak_rss_kib)
        return result
