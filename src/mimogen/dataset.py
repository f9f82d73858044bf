"""Dataset assembly, indexing, and on-disk container.

A dataset holds, for every active base station and active user, the M x |K|
channel matrix and the user location. Access is by 1-based ordinals: the
b-th active base station and the u-th active user.

In memory and on disk the dataset is one fixed-stride record per (active
BS, active user) pair, with the numpy structured dtype
``record_dtype(params)``: global_index u64, location 3 x f64, then channel
as a (|K|, M) complex128 block, which is the M x |K| matrix in column-major
order. ``Dataset.shards`` holds one such record array per active base
station.

On disk the dataset is a directory of per-base-station shards plus a text
manifest, ``files.MANIFEST``. Shard layout (little-endian): magic ``DMDS``
(``files.SHARD_MAGIC``), version u32, echo block (u32 byte length + UTF-8
key=value text carrying the parameter set, ``bs_id``, ``user_count``, and
``scenario``), then the record array's buffer. The manifest has one line
per shard: ``filename bs_id first_user last_user bytes hash`` where the
hash is the first 16 hex digits of the shard's SHA-256.

Three producers serve the same records through one surface: ``params``,
``scenario_name``, ``bs_ids`` (the parameters' ``active_BS``), ``n_users``,
``fill(batches, lo)``, which writes the records of the users from ``lo``
into the caller's arrays, one ``record_dtype`` batch per active base
station, in any process, and ``check(batches, lo)``, which takes them in
order. ``shard_sources``' ``RayDataset`` computes them from ray files'
``rayio.RayRows``; ``DatasetReader`` reads them from a shard directory, its
``check`` running every check of the shards; ``Dataset`` copies them.
``write_shards`` and ``beams.write_ml_dataset`` drain any of them with
``write_steps`` (planned by ``pool_plan``): the ordered pool of
``parallel`` over a shared ring of record slots that each step's task
fills, into ``files.write_files``, the one atomic writer, so memory is
bounded by a step, not the dataset. ``trace`` runs the same pool and writer
over its ray-file chunks. ``steps`` fills and checks reused buffers step by
step, and ``load_dataset`` drains them once; ``build_dataset`` fills whole
arrays at once. ``get_channel`` and ``get_location`` copy one user's record
of any producer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import mmap
import os
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence, TypeVar

import numpy as np

from . import parallel
from .channel import ChannelMatrix, channel_matrices_batch
from .files import (  # noqa: F401  (content_hash: re-exported)
    MANIFEST, SHARD_MAGIC, DatasetError, HashingSink, atomic_write, content_hash, file_digest,
    hex16, write_files,
)
from .kvconfig import ConfigError, read_text
from .params import ParamSet, parse_params, serialize_params, subcarrier_set
from .rayio import RayFile, RayRows
from .scene import Scene, user_positions, users_in_row_range

T = TypeVar("T")

SHARD_VERSION = 1
CSV_SIZE_CAP_BYTES = 64 * 1024 * 1024  # refuse CSV export above this estimate

_BATCH_BYTES = 16 * 2**20        # record bytes per channel-construction batch...
_MAX_BATCH_USERS = 256           # ...and at most this many users in it
_USERS_SHOWN = 5                 # missing users a ray file's refusal names
_POSITION_TOL = 1e-6             # m a ray record's user may sit from the scene's
_PREAMBLE = struct.Struct("<4sII")    # magic, version, echo block length


class MissingRaySourceError(DatasetError):
    """No ray file for an active base station."""


class ScenarioMismatchError(DatasetError):
    """Ray files traced for another base station, scenario or layout."""


def record_dtype(params: ParamSet) -> np.dtype:
    """The one (BS, user) record, in memory and on disk: a (|K|, M) C-order
    channel block is the column-major M x |K| matrix."""
    return np.dtype([
        ("global_index", "<u8"),
        ("location", "<f8", (3,)),
        ("channel", "<c16", (params.ofdm_limit, params.num_antennas)),
    ])


@dataclass(frozen=True)
class Dataset:
    params: ParamSet
    scenario_name: str
    shards: tuple[np.ndarray, ...]     # per active BS: record_dtype(params) array
    bs_ids = property(lambda self: self.params.active_bs)     # active order

    @property
    def n_users(self) -> int:
        return len(self.shards[0]) if self.shards else 0

    def bs_for_ordinal(self, b_ord: int) -> int:
        """Map the 1-based active-BS ordinal to the base station id."""
        return self.bs_ids[_ordinal("BS", b_ord, len(self.bs_ids))]

    def user_for_ordinal(self, u_ord: int) -> int:
        """Map the 1-based active-user ordinal to the global user index."""
        return int(self.shards[0]["global_index"][_ordinal("user", u_ord, self.n_users)])

    def fill(self, batches: Sequence[np.ndarray], lo: int) -> None:
        """Copy the records of the users from ``lo`` into ``batches``, one
        per shard, as many as each holds."""
        for batch, records in zip(batches, self.shards, strict=True):
            batch[:] = records[lo: lo + len(batch)]

    def check(self, _batches: Sequence[np.ndarray], _lo: int) -> None:
        """Nothing to check: the records come from memory."""


def _ordinal(what: str, ordinal: int, count: int) -> int:
    """The 0-based index of the 1-based ordinal of ``count`` active ``what``s."""
    if not 1 <= ordinal <= count:
        raise IndexError(f"active-{what} ordinal {ordinal} out of range 1..{count}")
    return ordinal - 1


def _record(source: Source, b_ord: int, u_ord: int) -> np.void:
    """The record of the b-th active BS and u-th active user (1-based) of
    ``source``, filled into a batch of its own (the other batches empty)."""
    b = _ordinal("BS", b_ord, len(source.bs_ids))
    batches = [np.empty(int(i == b), record_dtype(source.params))
               for i in range(len(source.bs_ids))]
    source.fill(batches, _ordinal("user", u_ord, source.n_users))
    return batches[b][0]


def get_channel(source: Source, b_ord: int, u_ord: int) -> ChannelMatrix:
    """Channel matrix of the b-th active BS and u-th active user (1-based)
    of any producer: a copy of its record's."""
    record = _record(source, b_ord, u_ord)
    return ChannelMatrix(record["channel"].T, source.bs_ids[b_ord - 1],
                         int(record["global_index"]))


def get_location(source: Source, b_ord: int, u_ord: int) -> np.ndarray:
    """User location (3-vector) for the given ordinals: a copy of the record's."""
    return _record(source, b_ord, u_ord)["location"]


def active_user_indices(scene: Scene, params: ParamSet) -> np.ndarray:
    return users_in_row_range(scene, params.active_user_first, params.active_user_last)


def batch_users(params: ParamSet, shards: int = 1) -> int:
    """Users per batch: as many as keep one batch of records for each of
    ``shards`` shards within ``_BATCH_BYTES``, at least 1 and at most
    ``_MAX_BATCH_USERS``."""
    return max(1, min(_MAX_BATCH_USERS,
                      _BATCH_BYTES // (shards * record_dtype(params).itemsize)))


def steps(source: Source, users: int | None = None) -> Iterator[tuple[np.ndarray, ...]]:
    """``source``'s records, ``users`` per active base station per step
    (default ``batch_users(params, len(bs_ids))``), each step filled into
    one set of buffers that the next step overwrites."""
    users = users or batch_users(source.params, len(source.bs_ids))
    bufs = [np.empty(min(users, source.n_users), record_dtype(source.params))
            for _ in source.bs_ids]
    for lo in range(0, source.n_users, users):
        batches = tuple(buf[: source.n_users - lo] for buf in bufs)
        source.fill(batches, lo)
        source.check(batches, lo)
        yield batches


def pool_plan(source: Source, scored: bool) -> tuple[int, int]:
    """(worker processes, users per shard per step) of ``write_steps`` over
    ``source``, ``scored`` if the workers score its steps. Unscored, only
    the records of a ``RayDataset`` beyond one ``_BATCH_BYTES`` step are
    worth a pool; otherwise the workers are 0. The 2 ring slots per worker
    hold ``_BATCH_BYTES`` of records in all; the calling process holds only
    the slot it writes. The steps shrink with the workers, and the workers
    are fewer than ``worker_count()`` only when even one-user steps would
    not fit or ``source`` has fewer steps than that."""
    shards = len(source.bs_ids)
    user_bytes = shards * record_dtype(source.params).itemsize
    if not (scored or isinstance(source, RayDataset)
            and source.n_users * user_bytes > _BATCH_BYTES):
        return 0, batch_users(source.params, shards)
    fit = _BATCH_BYTES // user_bytes       # one-user steps within the budget
    workers = max(1, min(parallel.worker_count(), fit // 2))
    users = batch_users(source.params, shards * 2 * workers)
    steps = -(-source.n_users // users)
    return max(1, min(workers, steps)), users


@dataclass(frozen=True)
class RayDataset:
    """The dataset that one ray file per active base station gives, checked
    by ``shard_sources``, which refuses a file that lacks an active user;
    its records are computed only as they are filled."""
    params: ParamSet
    scenario_name: str
    rays: tuple[RayRows, ...]       # per active BS: its file's rows of the active users
    bs_ids = property(lambda self: self.params.active_bs)     # active order

    @property
    def n_users(self) -> int:
        return len(self.rays[0])

    def fill(self, batches: Sequence[np.ndarray], lo: int) -> None:
        """Compute the records of the users from ``lo`` into ``batches``, one
        per active base station, as many as each holds, from the ray rows
        of just those users."""
        for batch, rays in zip(batches, self.rays, strict=True):
            rays = rays.rows(lo, lo + len(batch))
            batch["global_index"] = rays.users["user_index"]
            batch["location"] = rays.users["position"]
            batch["channel"] = channel_matrices_batch(rays, self.params).transpose(0, 2, 1)

    def check(self, _batches: Sequence[np.ndarray], _lo: int) -> None:
        """Nothing to check: ``shard_sources`` checked the ray files."""


def shard_sources(
    ray_sources: Mapping[int, RayFile],
    params: ParamSet,
    scene: Scene,
) -> RayDataset:
    """Check the ray files against the scene; returns the dataset they give,
    whose records are computed only as they are filled.

    A ray file traced from another base station, or for another scenario
    or carrier frequency, one that lacks a record of an active user, or one
    that puts a user more than ``_POSITION_TOL`` from where the scene puts
    it, is a ``ScenarioMismatchError``: ``trace`` writes a record of every
    user of its rows, so a missing one means the rays were traced for
    another parameter set or scene. Records of users outside the active rows are
    left unread. Each ray file's user indices must be strictly ascending,
    as ``read_rayfile`` checks; otherwise it is a ``DatasetError``. Each
    message names the ray file.
    """
    indices = active_user_indices(scene, params).astype(np.uint64)
    positions = user_positions(scene, indices)
    rays = []
    for bs_id in params.active_bs:
        if bs_id not in ray_sources:
            raise MissingRaySourceError(f"no ray source provided for active base station {bs_id}")
        rf = ray_sources[bs_id]
        index = rf.rows.users["user_index"]
        if np.any(index[1:] <= index[:-1]):
            raise rf.error(DatasetError, f"rays for base station {bs_id}: user indices are "
                                         f"not strictly ascending")
        header = rf.header
        if header.bs_id != bs_id:
            raise rf.error(ScenarioMismatchError, f"rays for base station {bs_id} were traced "
                                                  f"from base station {header.bs_id}")
        if (header.scenario, header.carrier_freq) != (scene.name, scene.carrier_freq):
            raise rf.error(ScenarioMismatchError,
                           f"rays for base station {bs_id} were traced in scenario "
                           f"{header.scenario!r} at {header.carrier_freq:g} Hz, but the scene "
                           f"is {scene.name!r} at {scene.carrier_freq:g} Hz")
        # The active users are one run of indices, so they are one run of rows.
        lo = int(np.searchsorted(index, indices[0]))
        active = rf.rows.rows(lo, lo + indices.size)
        if not np.array_equal(active.users["user_index"], indices):
            missing = np.setdiff1d(indices, index, assume_unique=True)
            raise rf.error(ScenarioMismatchError, f"rays for base station {bs_id} hold no "
                           f"record of {missing.size} of the {indices.size} active users "
                           f"(user {', '.join(map(str, missing[:_USERS_SHOWN].tolist()))}"
                           f"{', ...' if missing.size > _USERS_SHOWN else ''}): they were "
                           f"traced for another parameter set or scene")
        got = active.users["position"]
        bad = np.flatnonzero(~(np.abs(got - positions).max(axis=1) <= _POSITION_TOL))  # NaN too
        if bad.size:
            j = int(bad[0])
            raise rf.error(ScenarioMismatchError, f"rays for base station {bs_id} put user "
                           f"{int(indices[j])} at {_xyz(got[j])}, but the scene puts it at "
                           f"{_xyz(positions[j])}")
        rays.append(active)
    return RayDataset(params, scene.name, tuple(rays))


def _ids(bs_ids: Iterable[int]) -> str:
    return ",".join(map(str, bs_ids))


def _xyz(p: np.ndarray) -> str:
    return "(" + ", ".join(f"{float(x):.6g}" for x in p) + ") m"


def build_dataset(
    ray_sources: Mapping[int, RayFile],
    params: ParamSet,
    scene: Scene,
) -> Dataset:
    """Assemble the dataset in memory from one ray file per active base
    station: ``shard_sources``' records filled into whole arrays in one call."""
    source = shard_sources(ray_sources, params, scene)
    shards = tuple(np.empty(source.n_users, record_dtype(params)) for _ in source.bs_ids)
    source.fill(shards, 0)
    return Dataset(params=params, scenario_name=source.scenario_name, shards=shards)


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifestEntry:
    filename: str
    bs_id: int
    first_user: int
    last_user: int
    byte_size: int
    content_hash: str


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...]

    def to_text(self) -> str:
        lines = ["# mimogen dataset manifest v1"]
        for e in self.entries:
            lines.append(
                f"{e.filename} {e.bs_id} {e.first_user} {e.last_user} "
                f"{e.byte_size} {e.content_hash}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def read(cls, path: Path) -> "Manifest":
        return cls.from_text(read_text(path, DatasetError))

    @classmethod
    def from_text(cls, text: str) -> "Manifest":
        entries = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                name, bs_id, first, last, size, digest = line.split()
                entry = ManifestEntry(name, int(bs_id), int(first), int(last), int(size), digest)
            except ValueError:
                raise DatasetError(
                    f"manifest line {lineno}: expected 'filename bs_id first_user "
                    f"last_user byte_size hash', got {line!r}") from None
            if name in (".", "..") or Path(name).name != name:     # a file beside the manifest
                raise DatasetError(
                    f"manifest line {lineno}: {name!r} is not a file name in its directory")
            entries.append(entry)
        return cls(tuple(entries))


def verify_files(directory: Path, manifest: Manifest) -> None:
    """Check every file a manifest lists against its byte size and hash."""
    for e in manifest.entries:
        size, digest = file_digest(directory / e.filename)
        if size != e.byte_size:
            raise DatasetError(f"{e.filename}: {size} bytes, manifest says {e.byte_size}")
        if digest != e.content_hash:
            raise DatasetError(f"{e.filename}: content hash mismatch")


def _shard_echo(params: ParamSet, scenario: str, bs_id: int, n_users: int) -> bytes:
    return (
        serialize_params(params)
        + f"bs_id={bs_id}\nuser_count={n_users}\nscenario={scenario}\n"
    ).encode("utf-8")


def _shard_head(params: ParamSet, scenario: str, bs_id: int, n_users: int) -> bytes:
    """Preamble and echo block: everything before the first record."""
    echo = _shard_echo(params, scenario, bs_id, n_users)
    return _PREAMBLE.pack(SHARD_MAGIC, SHARD_VERSION, len(echo)) + echo


def _shard_records(params: ParamSet, records: np.ndarray) -> memoryview:
    if records.dtype != record_dtype(params):
        raise ValueError(f"record dtype {records.dtype} does not match the parameter set")
    return memoryview(records)


def shard_bytes(
    params: ParamSet,
    scenario: str,
    bs_id: int,
    records: np.ndarray,
) -> bytes:
    """Encode one BS's ``record_dtype(params)`` array as a shard."""
    return b"".join([_shard_head(params, scenario, bs_id, len(records)),
                     _shard_records(params, records)])


def shard_size_bytes(params: ParamSet, n_users: int, scenario: str, bs_id: int) -> int:
    """Exact on-disk size of a shard, from the documented layout."""
    echo = _shard_echo(params, scenario, bs_id, n_users)
    return _PREAMBLE.size + len(echo) + n_users * record_dtype(params).itemsize


class ShardReader:
    """One shard: its records read at their offsets, and checked in order.

    Opening reads the preamble and echo block and checks them: magic,
    version, a parsable echo whose parameter set constructs (so it has a
    ``record_dtype``), and a byte size that is exactly the head plus
    ``user_count`` records from byte ``offset``; given the shard's manifest
    line, also its byte size and ``bs_id``. ``read_into`` reads any records;
    ``check`` takes them in order and, with a manifest line, once the last
    record has passed, checks the first and last user and the SHA-256 of
    the whole file. Error messages start with ``name``.
    """

    def __init__(self, fh: BinaryIO, name: str = "", entry: ManifestEntry | None = None):
        self.name = name
        self._fh = fh
        self._entry = entry
        self._sha = hashlib.sha256()
        size = fh.seek(0, io.SEEK_END)
        fh.seek(0)
        if entry is not None and size != entry.byte_size:
            self._fail(f"{size} bytes, manifest says {entry.byte_size}")
        if size < _PREAMBLE.size:
            self._fail(f"truncated shard: {size} bytes")
        preamble = fh.read(_PREAMBLE.size)
        magic, version, echo_len = _PREAMBLE.unpack(preamble)
        if magic != SHARD_MAGIC:
            self._fail(f"bad shard magic {magic!r}")
        if version != SHARD_VERSION:
            self._fail(f"unsupported shard version {version}")
        if _PREAMBLE.size + echo_len > size:
            self._fail(f"echo block overruns file: {echo_len} bytes claimed")
        echo = fh.read(echo_len)
        self._sha.update(preamble)
        self._sha.update(echo)
        self.params, self.scenario, self.bs_id, self.user_count = self._parse_echo(echo)
        self.dtype = record_dtype(self.params)
        self.offset = _PREAMBLE.size + echo_len        # of the first record
        if self.offset + self.user_count * self.dtype.itemsize != size:
            self._fail(f"shard length {size} does not match {self.user_count} user "
                       f"records of {self.dtype.itemsize} bytes")
        if entry is not None and self.bs_id != entry.bs_id:
            self._fail(f"bs_id {self.bs_id}, manifest says {entry.bs_id}")
        self._checked = 0
        self._span = (0, 0)         # first and last user checked; (0, 0) for none
        if not self.user_count:
            self.check(np.empty(0, self.dtype))     # the end checks, at once

    def _fail(self, message: str) -> NoReturn:
        raise DatasetError(f"{self.name}: {message}" if self.name else message)

    def _parse_echo(self, echo: bytes) -> tuple[ParamSet, str, int, int]:
        try:
            text = echo.decode("utf-8")
        except UnicodeDecodeError as exc:
            self._fail(f"echo block is not valid UTF-8: {exc}")
        extra = {}
        plines = []
        for line in text.splitlines():
            key = line.split("=", 1)[0]
            if key in ("bs_id", "user_count", "scenario"):
                extra[key] = line.split("=", 1)[1] if "=" in line else ""
            else:
                plines.append(line)
        try:
            params = parse_params("\n".join(plines))
            bs_id = int(extra["bs_id"])
            user_count = int(extra["user_count"])
            scenario = extra["scenario"]
        except (ConfigError, KeyError, ValueError) as exc:
            self._fail(f"bad shard echo block: {exc}")
        if user_count < 0:
            self._fail(f"negative user_count {user_count}")
        return params, scenario, bs_id, user_count

    def read_into(self, batch: np.ndarray, lo: int) -> None:
        """Read the records of the users from ``lo`` into ``batch``, a
        contiguous ``dtype`` array, by positional reads of the file."""
        raw = batch.view(np.uint8)
        at = self.offset + lo * self.dtype.itemsize
        done = 0
        while done < raw.size:
            if not (got := os.preadv(self._fh.fileno(), [raw[done:]], at + done)):
                self._fail("shard ended early")      # the file shrank while read
            done += got

    def check(self, batch: np.ndarray) -> None:
        """Take the next ``len(batch)`` records, as read, into the shard's
        SHA-256; with a manifest line, the batch that reaches the last record
        runs the first/last user and hash checks."""
        self._sha.update(batch.view(np.uint8))
        if len(batch):
            index = batch["global_index"]
            self._span = (self._span[0] if self._checked else int(index[0]), int(index[-1]))
        self._checked += len(batch)
        entry = self._entry
        if entry is None or self._checked < self.user_count:
            return
        if self._span != (entry.first_user, entry.last_user):
            self._fail(f"first/last user {self._span}, manifest says "
                       f"{(entry.first_user, entry.last_user)}")
        if hex16(self._sha) != entry.content_hash:
            self._fail("content hash mismatch")


class DatasetReader:
    """A dataset directory opened for one pass over its records.

    Opening reads ``manifest.txt`` and every shard's head, and checks that
    each shard matches its manifest line, that all shards agree on the
    parameter set, scenario and user count, and that the manifest lists
    one shard per base station of their ``active_BS``, in that order.
    ``fill`` then reads records, in any process that inherits the open
    files, and ``check`` takes them in order. Use it as a context manager,
    which closes the shard files.
    """

    def __init__(self, source: Path | str):
        source = Path(source)
        manifest = Manifest.read(source / MANIFEST)
        if not manifest.entries:
            raise DatasetError("empty manifest")
        self._files = contextlib.ExitStack()
        try:
            self.shards = []
            for entry in manifest.entries:
                fh = self._files.enter_context((source / entry.filename).open("rb"))
                self.shards.append(ShardReader(fh, entry.filename, entry))
            head = self.shards[0]
            for shard in self.shards[1:]:
                if (shard.params, shard.scenario) != (head.params, head.scenario):
                    raise ScenarioMismatchError(f"{shard.name}: inconsistent shard metadata")
                if shard.user_count != head.user_count:
                    raise DatasetError(f"{shard.name}: user list differs from {head.name}")
            listed = [shard.bs_id for shard in self.shards]
            if listed != list(head.params.active_bs):
                raise DatasetError(f"{MANIFEST} lists base stations {_ids(listed)}, but "
                                   f"the shards' active_BS is {_ids(head.params.active_bs)}")
        except BaseException:
            self._files.close()
            raise
        self.params = head.params
        self.scenario_name = head.scenario
        self.bs_ids = tuple(shard.bs_id for shard in self.shards)
        self.n_users = head.user_count
        self._next = 0             # the user the next check starts from

    def __enter__(self) -> "DatasetReader":
        return self

    def __exit__(self, *exc) -> None:
        self._files.close()

    @property
    def verified(self) -> int:
        """Shards whose hash has been checked: all, once every record is checked."""
        return len(self.shards) if self._next == self.n_users else 0

    def fill(self, batches: Sequence[np.ndarray], lo: int) -> None:
        """Read the records of the users from ``lo`` into ``batches``, one
        per shard in manifest order."""
        for shard, batch in zip(self.shards, batches, strict=True):
            shard.read_into(batch, lo)

    def check(self, batches: Sequence[np.ndarray], lo: int) -> None:
        """Check the records ``fill`` read from ``lo``, where the last check
        ended (else ``ValueError``): each shard's checks, its hash as its last
        record passes, and that the shards hold the same users."""
        if lo != self._next:
            raise ValueError(f"records are checked in order: the next check is from "
                             f"user {self._next}, not {lo}")
        for shard, batch in zip(self.shards, batches, strict=True):
            shard.check(batch)
        head = self.shards[0]
        for shard, batch in zip(self.shards[1:], batches[1:]):
            if not np.array_equal(batch["global_index"], batches[0]["global_index"]):
                raise DatasetError(f"{shard.name}: user list differs from {head.name}")
        self._next = lo + len(batches[0])


#: The producers of records, each with the one surface: ``fill`` and ``check``.
Source = Dataset | DatasetReader | RayDataset


def parse_shard(data: bytes) -> tuple[ParamSet, str, int, np.ndarray]:
    """Decode a shard held in memory: its parameter set, scenario, bs_id and
    ``record_dtype`` records."""
    reader = ShardReader(io.BytesIO(data))
    records = np.frombuffer(data, reader.dtype, reader.user_count, reader.offset).copy()
    return reader.params, reader.scenario, reader.bs_id, records


def _channels_csv(params: ParamSet, records: np.ndarray) -> bytes:
    lines = []
    ks = subcarrier_set(params)
    for rec in records:
        head = ",".join([str(int(rec["global_index"]))]
                        + [repr(float(x)) for x in rec["location"]])
        for k, row in zip(ks, rec["channel"]):
            for mi, c in enumerate(row):
                lines.append(f"{head},{int(k)},{mi},{float(c.real)!r},{float(c.imag)!r}\n")
    return "".join(lines).encode()


# Export format -> (per-BS file name pattern, file head, encoder of a batch of records).
_EXPORT_FORMATS = {
    "binary": ("shard_bs{:03d}.dmds", _shard_head, _shard_records),
    "csv": ("bs{:03d}_channels.csv",
            lambda params, scenario, bs_id, n_users: b"user_index,px,py,pz,k,m,re,im\n",
            _channels_csv),
}


def write_steps(
    name: str,
    source: Source,
    paths: Sequence[Path],
    heads: Sequence[bytes],
    encode: Callable[[tuple[np.ndarray, ...], T], Sequence[bytes | memoryview]],
    score: Callable[[tuple[np.ndarray, ...]], T] | None = None,
    progress: Callable[[int], None] | None = None,
    counters: dict[str, int] | None = None,
) -> tuple[list[HashingSink], tuple[int, int]]:
    """The step loop of ``build`` and ``beams``: ``write_files`` over the
    steps of ``source``, each written as ``encode(batches, score)``. Step n
    has slot n mod window of a shared ring (whole pages), one slot per step
    pending in an ``OrderedPool`` named ``name`` with ``pool_plan``'s
    workers. Its task fills the slot and scores it with ``score`` (None
    without it); this process checks it (``source.check``, in step order),
    writes it and, with workers, drops its own pages of it, so it holds one
    slot, not the ring. ``progress(done)`` gets the (BS, user) pairs written
    after each step; ``counters`` gets the pool's (``OrderedPool.counters``).
    """
    shards, n_users = len(source.bs_ids), source.n_users
    workers, users = pool_plan(source, score is not None)
    with parallel.OrderedPool(name, workers) as pool:
        dtype = record_dtype(source.params)
        stride = -(-shards * users * dtype.itemsize // mmap.PAGESIZE) * mmap.PAGESIZE
        ring = mmap.mmap(-1, pool.window * stride)

        def slot(n: int) -> tuple[np.ndarray, ...]:
            records = np.frombuffer(ring, dtype, shards * users, n % pool.window * stride)
            return tuple(records.reshape(shards, users)[:, : min(users, n_users - n * users)])

        def task(n: int) -> T | None:
            source.fill(slot(n), n * users)
            return None if score is None else score(slot(n))

        def taken() -> Iterator[tuple[tuple[np.ndarray, ...], T | None]]:
            scored = pool.map(task, ((n,) for n in range(-(-n_users // users))))
            for n, step_score in enumerate(scored):
                source.check(slot(n), n * users)
                yield slot(n), step_score
                if pool.workers:        # written: the workers' pages of the slot stay
                    ring.madvise(mmap.MADV_DONTNEED, n % pool.window * stride, stride)

        written = write_files(
            paths, heads, taken(), lambda step: (step[0][0]["global_index"], encode(*step)),
            None if progress is None else lambda done: progress(shards * done))
    if counters is not None:
        counters.update(pool.counters(users))
    return written


def write_shards(
    sink: Path | str,
    source: Source,
    fmt: str = "binary",
    progress: Callable[[int], None] | None = None,
    counters: dict[str, int] | None = None,
) -> Manifest:
    """Write one file per active base station of ``source`` in one pass
    over its steps (``write_steps``, with its ``progress`` and
    ``counters``), then the manifest; returns the manifest. Each step is
    encoded, written and hashed, then dropped, so memory is bounded by a
    step and not by the dataset, and no file is renamed into place until
    the last step is written.

    ``fmt="csv"`` writes a readable tree instead and is refused above a
    documented size cap (CSV_SIZE_CAP_BYTES). Either is refused, before
    the first step, when its (estimated) size exceeds the free space of
    ``sink``'s file system.
    """
    sink = Path(sink)
    if fmt not in _EXPORT_FORMATS:
        raise ValueError(f"unknown export format {fmt!r}")
    params, scenario, n_users = source.params, source.scenario_name, source.n_users
    size = sum(shard_size_bytes(params, n_users, scenario, bs_id) for bs_id in source.bs_ids)
    if fmt == "csv":
        size *= 3
        if size > CSV_SIZE_CAP_BYTES:
            raise DatasetError(
                f"csv export refused: estimated {size} bytes exceeds cap "
                f"{CSV_SIZE_CAP_BYTES}"
            )
    free = shutil.disk_usage(next(p for p in (sink, *sink.parents) if p.exists())).free
    if size > free:
        raise DatasetError(
            f"{sink}: the dataset needs {size} bytes but only {free} bytes are free")
    sink.mkdir(parents=True, exist_ok=True)
    name_format, head, encode = _EXPORT_FORMATS[fmt]
    names = [name_format.format(bs_id) for bs_id in source.bs_ids]
    sinks, users = write_steps(
        "build", source, [sink / name for name in names],
        [head(params, scenario, bs_id, n_users) for bs_id in source.bs_ids],
        lambda batches, _: [encode(params, batch) for batch in batches],
        progress=progress, counters=counters)
    manifest = Manifest(tuple(ManifestEntry(name, bs_id, *users, s.size, s.digest)
                              for name, bs_id, s in zip(names, source.bs_ids, sinks)))
    atomic_write(sink / MANIFEST, manifest.to_text().encode())
    return manifest


def load_dataset(source: Path | str) -> DatasetReader:
    """Open the dataset directory ``source``, check it with one ``steps``
    pass (every check of ``DatasetReader``, each shard's SHA-256 included)
    and return the open reader, its pass spent: random access hashes nothing."""
    reader = DatasetReader(source)
    try:
        for _ in steps(reader):
            pass
    except BaseException:
        reader.__exit__()       # close its files
        raise
    return reader
