"""Per-step work in forked worker processes over a shared ring of slots.

``beams`` and ``build`` run the heavy part of each step in a pool of
forked worker processes. Each step in flight has a slot in a ring, an
anonymous shared mapping that the workers inherit through the fork. This
process takes the steps' results strictly in step order and reuses a slot
only once its step's result has been taken and used, so what it writes
does not depend on the number of workers.
"""

from __future__ import annotations

import collections
import itertools
import mmap
import os
import sys
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

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


_worker: tuple = ()         # (ring, context) in each worker process


def _start_worker(ring: Ring, context: Any) -> None:
    global _worker
    _worker = ring, context


def _run(task: Callable[..., Any], slot: int, args: tuple) -> Any:
    return task(*_worker, slot, *args)


class SlotPool:
    """``workers`` forked worker processes and a ring of 2 slots per worker,
    each slot a step of ``users`` records of ``dtype`` for each of
    ``shards`` shards. ``context`` is what the workers' tasks read besides
    the ring; it reaches them through the fork, unpickled. Use it as a
    context manager, which shuts the pool down, its workers waited for.
    ``name`` names the pool in its errors.
    """

    def __init__(self, name: str, workers: int, dtype: np.dtype, shards: int, users: int,
                 context: Any):
        # Imported here: the subcommands without a pool would pay for it at
        # start-up.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self.name = name
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
            initializer=_start_worker, initargs=(self.ring, context))

    def __enter__(self) -> "SlotPool":
        return self

    def __exit__(self, *exc) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)

    def in_order(self, next_task: Callable[[int], tuple | None]) -> Iterator[tuple[int, Any]]:
        """The slot and result of every step, in step order. ``next_task(slot)``
        readies the next step's ``slot`` in this process and returns its
        task, ``(task, *args)``, or None when no step is left; a worker runs
        ``task(ring, context, slot, *args)``, where ``task`` is a
        module-level function (it is pickled by name). Step n goes to slot
        n mod S once the consumer has come back for the step after step
        n - S, the slot's previous step. A task that raises, or a worker
        that dies, is a ``WorkerError``.
        """
        pending: collections.deque[tuple[int, Future]] = collections.deque()
        try:
            for n in itertools.count():
                if len(pending) == self.ring.slots:
                    yield self._take(pending)
                slot = n % self.ring.slots
                job = next_task(slot)
                if job is None:
                    break
                task, *args = job
                pending.append((slot, self._pool.submit(_run, task, slot, args)))
            while pending:
                yield self._take(pending)
        except BrokenExecutor as exc:   # found by a submit or by a result
            raise WorkerError(f"a {self.name} worker process ended abruptly: {exc}") from exc

    def _take(self, pending: collections.deque[tuple[int, Future]]) -> tuple[int, Any]:
        slot, future = pending.popleft()
        try:
            return slot, future.result()
        except BrokenExecutor:
            raise
        except Exception as exc:
            raise WorkerError(
                f"a {self.name} worker failed: {type(exc).__name__}: {exc}") from exc
