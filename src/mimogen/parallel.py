"""Per-step work in forked worker processes, taken in step order.

``trace``, ``build`` and ``beams`` write their files from one step loop,
``OrderedPool.map``: forked workers run a task per step, at most 2 per
worker pending, and this process takes the results, pickled back,
strictly in step order, so what it writes does not depend on the number
of workers. Without workers the same tasks run here as they are drawn.
A task is drawn only after the result ``window`` tasks before it has been
taken, so a caller can keep each pending step's data in one of ``window``
slots that the workers reach through the fork: ``trace``'s results are its
encoded ray-file chunks, pickled back; ``dataset.write_steps`` keeps the
records of ``build`` and ``beams``, too large to pickle, in such a ring.
"""

from __future__ import annotations

import collections
import os
import resource
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

if TYPE_CHECKING:
    from concurrent.futures import Future


class WorkerError(Exception):
    """A worker's task raised, or a worker process ended abruptly."""


def worker_count() -> int:
    """Worker processes of a pool: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def peak_rss_kib() -> int:
    """This process's peak RSS in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


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

    def counters(self, users_per_step: int) -> dict[str, int]:
        """``workers``, ``users_per_step`` and ``workers_peak_rss_kib``, for a run manifest."""
        return {"workers": self.workers, "users_per_step": users_per_step,
                "workers_peak_rss_kib": self.peak_rss_kib}

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
        import multiprocessing      # here: runs without workers skip the imports
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        sys.stdout.flush()          # a worker must not write again what is buffered
        sys.stderr.flush()
        # fork: the workers inherit ``task`` and what it reaches, such as an
        # anonymous shared mapping, which they can only reach that way. They
        # are forked at the first submit, before any thread of the pool starts.
        self._executor = ProcessPoolExecutor(
            self.workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(task,))
        pending: collections.deque[Future] = collections.deque()

        def take() -> Any:
            try:
                result, peak_rss_kib = pending.popleft().result()
            except BrokenExecutor:
                raise
            except Exception as exc:
                raise WorkerError(
                    f"a {self.name} worker failed: {type(exc).__name__}: {exc}") from exc
            self.peak_rss_kib = max(self.peak_rss_kib, peak_rss_kib)
            return result

        try:
            for a in args:
                pending.append(self._executor.submit(_run, *a))
                if len(pending) == self.window:
                    yield take()
            while pending:
                yield take()
        except BrokenExecutor as exc:   # found by a submit or by a result
            raise WorkerError(f"a {self.name} worker process ended abruptly: {exc}") from exc
