"""The pipeline's output files: the one atomic writer, the one content hash,
the magic numbers of the ray files and shards, the manifests' names, the
path cap that ray files and ``num_paths`` share, and the base errors.

The module imports no numpy, so the subcommands that need no arrays
(``scene``, ``validate <scene file>``) write, hash, name files and report
errors without it.
"""

from __future__ import annotations

import contextlib
import hashlib
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")

RAY_FILE_MAGIC = b"DMRF"         # the first 4 bytes of a ray file (``rayio``)...
SHARD_MAGIC = b"DMDS"            # ...and of a dataset shard (``dataset``)
MANIFEST = "manifest.txt"        # the manifest of a `build` output directory...
ML_MANIFEST = "ml_manifest.txt"  # ...and of a `beams` output directory
MAX_PATHS = 25                   # the most paths a ray record or `num_paths` holds
_READ_BYTES = 2**16              # chunk size when hashing a whole file


class RayFileError(Exception):
    """Base class for every ray-file read/write failure."""


class DatasetError(Exception):
    """Base class for every dataset-file, manifest or producer failure."""


def hex16(sha: hashlib._Hash) -> str:
    """The ``content_hash`` of what the SHA-256 object ``sha`` has hashed."""
    return sha.hexdigest()[:16]


def content_hash(data: bytes) -> str:
    """64-bit content hash: first 16 hex digits of SHA-256."""
    return hex16(hashlib.sha256(data))


class HashingSink:
    """A file being written: counts and SHA-256-hashes what goes into it."""

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        self._sha = hashlib.sha256()
        self.size = 0

    def write(self, chunk: Any) -> None:
        """Write ``chunk``: bytes or any C-contiguous buffer, such as an array."""
        self.size += self._fh.write(chunk)
        self._sha.update(chunk)

    @property
    def digest(self) -> str:
        """The ``content_hash`` of what was written."""
        return hex16(self._sha)


def write_files(
    paths: Sequence[Path],
    heads: Sequence[bytes],
    steps: Iterable[T],
    encode: Callable[[T], tuple[Sequence[int], Sequence[bytes | memoryview]]] | None,
    progress: Callable[[int], None] | None = None,
) -> tuple[list[HashingSink], tuple[int, int]]:
    """The one atomic writer: to a temp file beside each path, its head,
    then per step one chunk, from ``encode(step)``: the indices of the
    step's users and one chunk per path; ``progress(done)`` follows each
    step with the users written. Only after the last step is every temp
    file renamed over its path; when anything raises, every temp file is
    removed and the paths are left as they were. Returns one
    ``HashingSink`` per path (byte count and ``content_hash``) and the first
    and last user of the steps, (0, 0) when they hold none.
    """
    tmps = [path.with_name(path.name + ".tmp~") for path in paths]
    first = last = None
    done = 0
    try:
        with contextlib.ExitStack() as files:
            sinks = [HashingSink(files.enter_context(tmp.open("wb"))) for tmp in tmps]
            for sink, head in zip(sinks, heads, strict=True):
                sink.write(head)
            for step in steps:
                users, chunks = encode(step)
                for sink, chunk in zip(sinks, chunks, strict=True):
                    sink.write(chunk)
                if len(users):
                    first = int(users[0]) if first is None else first
                    last = int(users[-1])
                done += len(users)
                if progress is not None:
                    progress(done)
        for tmp, path in zip(tmps, paths):
            tmp.replace(path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise
    return sinks, (0, 0) if first is None else (first, last)


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through ``write_files``."""
    write_files([path], [data], (), None)


def file_digest(path: Path) -> tuple[int, str]:
    """Byte count and ``content_hash`` of a file, read a chunk at a time."""
    sha = hashlib.sha256()
    size = 0
    with path.open("rb") as fh:
        while chunk := fh.read(_READ_BYTES):
            sha.update(chunk)
            size += len(chunk)
    return size, hex16(sha)
