"""Per-step work in forked worker processes over a shared ring of slots.

``build`` and ``beams`` write their files from one step loop,
``SlotPool.steps``. Each step in flight has a slot in a ring, an anonymous
shared mapping that the workers inherit through the fork. A worker fills
the slot (records computed from ray files) or this process copies in the
step it drew (such as a step read from shards, whose checks run here);
the worker then scores it (``beams``: the CSV rows).
This process takes the steps strictly in step order and reuses a slot only
once its step has been taken and used, so what it writes does not depend
on the number of workers.
"""

from __future__ import annotations

import collections
import mmap
import os
import resource
import sys
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np


class WorkerError(Exception):
    """A worker's task raised, or a worker process ended abruptly."""


def worker_count() -> int:
    """Worker processes of a pool: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Ring:
    """The slot ring: a shared anonymous mapping of ``slots`` slots, each
    one step of ``users`` records for each of ``shards`` shards, batch
    after batch."""
    buf: mmap.mmap
    dtype: np.dtype
    shards: int
    users: int

    @property
    def batch_bytes(self) -> int:
        return self.users * self.dtype.itemsize

    @property
    def slots(self) -> int:
        return len(self.buf) // (self.shards * self.batch_bytes)

    def put(self, slot: int, step: Sequence[np.ndarray]) -> None:
        """Copy a step's batches into ``slot``."""
        at = slot * self.shards * self.batch_bytes
        for batch in step:
            self.buf[at: at + batch.nbytes] = np.ascontiguousarray(batch)
            at += self.batch_bytes

    def get(self, slot: int, count: int) -> tuple[np.ndarray, ...]:
        """Writable views of the first ``count`` records of each batch in
        ``slot``."""
        at = slot * self.shards * self.batch_bytes
        return tuple(np.frombuffer(self.buf, self.dtype, count, at + b * self.batch_bytes)
                     for b in range(self.shards))


_worker: tuple = ()         # (ring, compute, score) in each worker process


def _start_worker(*context: Any) -> None:
    global _worker
    _worker = context


def _step(slot: int, lo: int, count: int) -> tuple[Any, int]:
    """The one worker task: compute the ``count`` records of each shard
    from user ``lo`` into ``slot``, if the pool computes its steps, and
    score them; returns the score (None without ``score``) and this
    worker's peak RSS in KiB (Linux)."""
    ring, compute, score = _worker
    batches = ring.get(slot, count)
    if compute is not None:
        compute(batches, lo)
    return (None if score is None else score(batches),
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class SlotPool:
    """``workers`` forked worker processes and a ring of 2 slots per worker,
    each slot a step of ``users`` records of ``dtype`` for each of
    ``shards`` shards. ``compute(batches, lo)`` and ``score(batches)``
    reach the workers through the fork, unpickled; a score is pickled
    back. Use the pool as a context manager, which shuts it down, its
    workers waited for. ``name`` names the pool in its errors;
    ``peak_rss_kib`` is the largest peak RSS a worker has reported.
    """

    def __init__(self, name: str, workers: int, dtype: np.dtype, shards: int, users: int,
                 compute: Callable[[tuple[np.ndarray, ...], int], Any] | None = None,
                 score: Callable[[tuple[np.ndarray, ...]], Any] | None = None):
        # Imported here: the subcommands without a pool would pay for it at
        # start-up.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self.name = name
        self.peak_rss_kib = 0
        self.ring = Ring(mmap.mmap(-1, 2 * workers * shards * users * dtype.itemsize),
                         dtype, shards, users)
        # A worker that writes to stdio must not write again what this
        # process has buffered.
        sys.stdout.flush()
        sys.stderr.flush()
        # fork: the workers inherit the ring, which an anonymous mapping can
        # only reach that way. They are forked at the first submit, before
        # any thread of the pool is started.
        self._pool = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(self.ring, compute, score))

    def __enter__(self) -> "SlotPool":
        return self

    def __exit__(self, *exc) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)

    def steps(self, n_users: int,
              drawn: Iterable[Sequence[np.ndarray]] | None = None
              ) -> Iterator[tuple[tuple[np.ndarray, ...], Any]]:
        """Every step of ``n_users`` users, ``ring.users`` per shard per
        step, in step order: its batches, views of its slot, and its score.
        A worker computes each step into its slot, or, with ``drawn``, this
        process copies in the next step it draws from it. Step n goes to
        slot n mod S once the consumer has come back for the step after
        step n - S, the slot's previous step. A task that raises, or a
        worker that dies, is a ``WorkerError``.
        """
        pending: collections.deque[tuple[int, int, Future]] = collections.deque()
        users = self.ring.users
        try:
            for n, step in enumerate(range(0, n_users, users) if drawn is None else drawn):
                slot, lo = n % self.ring.slots, n * users
                if drawn is None:
                    count = min(users, n_users - lo)
                else:
                    self.ring.put(slot, step)
                    count = len(step[0])
                pending.append((slot, count, self._pool.submit(_step, slot, lo, count)))
                # Taken before the next step is drawn: its slot is the one
                # this frees, and no more than S - 1 results wait meanwhile.
                if len(pending) == self.ring.slots:
                    yield self._take(pending)
            while pending:
                yield self._take(pending)
        except BrokenExecutor as exc:   # found by a submit or by a result
            raise WorkerError(f"a {self.name} worker process ended abruptly: {exc}") from exc

    def _take(self, pending: collections.deque[tuple[int, int, Future]]
              ) -> tuple[tuple[np.ndarray, ...], Any]:
        slot, count, future = pending.popleft()
        try:
            score, peak_rss_kib = future.result()
        except BrokenExecutor:
            raise
        except Exception as exc:
            raise WorkerError(
                f"a {self.name} worker failed: {type(exc).__name__}: {exc}") from exc
        self.peak_rss_kib = max(self.peak_rss_kib, peak_rss_kib)
        return self.ring.get(slot, count), score
