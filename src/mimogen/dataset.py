"""Dataset assembly, indexing, and on-disk container.

A dataset holds, for every active base station and active user, the M x |K|
channel matrix and the user location. Access is by 1-based ordinals: the
b-th active base station and the u-th active user.

In memory and on disk the dataset is one fixed-stride record per (active
BS, active user) pair, with the numpy structured dtype
``record_dtype(params)``: global_index u64, location 3 x f64, then channel
as a (|K|, M) complex128 block, which is the M x |K| matrix in column-major
order. ``Dataset.shards`` holds one such record array per active base
station; ``get_channel(...).entries`` and ``get_location`` are views into
it, read-only after ``load_dataset``.

On disk the dataset is a directory of per-base-station shards plus a text
manifest. Shard layout (little-endian): magic ``DMDS``, version u32, echo
block (u32 byte length + UTF-8 key=value text carrying the parameter set,
``bs_id``, ``user_count``, and ``scenario``), then the record array's
buffer. The manifest has one line per shard:
``filename bs_id first_user last_user bytes hash`` where the hash is the
first 16 hex digits of the shard's SHA-256.

Three producers serve the same records through one surface: ``params``,
``scenario_name``, ``bs_ids``, ``n_users`` and ``steps(users=None)``, one
``record_dtype`` batch per active base station per step, all of the same
users, within ``_BATCH_BYTES`` in all. ``shard_sources``' ``RayDataset``
computes them from ray files; ``DatasetReader`` reads them from a shard
directory, one ``ShardReader`` per shard, each checking its SHA-256 as its
last record is read; ``Dataset`` holds them in memory. ``write_shards``
and ``beams.write_ml_dataset`` drain any of them with ``write_steps``
(planned by ``pool_plan``): the ordered pool of ``parallel`` over a ring
of record slots, into ``write_files``, the one atomic writer, so memory is
bounded by a step, not the dataset. ``trace`` runs the same pool and
writer over its ray-file chunks.
``build_dataset`` and ``load_dataset`` take one step over all users.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import logging
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence, TypeVar

import numpy as np

from . import parallel
from .channel import ChannelMatrix, channel_matrices_batch
from .kvconfig import ConfigError
from .params import ParamSet, parse_params, serialize_params, subcarrier_set
from .rayio import RayFile
from .scene import Scene, user_positions, users_in_row_range
from .tracer import USER_ROW, RayRows

log = logging.getLogger(__name__)
T = TypeVar("T")

SHARD_MAGIC = b"DMDS"
SHARD_VERSION = 1
CSV_SIZE_CAP_BYTES = 64 * 1024 * 1024  # refuse CSV export above this estimate

_BATCH_BYTES = 16 * 2**20        # record bytes per channel-construction batch...
_MAX_BATCH_USERS = 256           # ...and at most this many users in it
_GAPS_SHOWN = 5                  # users named in a base station's gap warning
_POSITION_TOL = 1e-6             # m a ray record's user may sit from the scene's
_READ_BYTES = 2**16              # chunk size when hashing a whole file
_PREAMBLE = struct.Struct("<4sII")    # magic, version, echo block length


class DatasetError(Exception):
    pass


class MissingRaySourceError(DatasetError):
    def __init__(self, bs_id: int):
        super().__init__(f"no ray source provided for active base station {bs_id}")
        self.bs_id = bs_id


class ScenarioMismatchError(DatasetError):
    def __init__(self, message: str, bs_id: int | None = None):
        super().__init__(message)
        self.bs_id = bs_id      # the base station whose ray file disagrees, if any


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
    bs_ids: tuple[int, ...]            # active order
    shards: tuple[np.ndarray, ...]     # per active BS: record_dtype(params) array

    @property
    def n_users(self) -> int:
        return len(self.shards[0]) if self.shards else 0

    def bs_for_ordinal(self, b_ord: int) -> int:
        """Map the 1-based active-BS ordinal to the base station id."""
        if not 1 <= b_ord <= len(self.bs_ids):
            raise IndexError(
                f"active-BS ordinal {b_ord} out of range 1..{len(self.bs_ids)}"
            )
        return self.bs_ids[b_ord - 1]

    def user_for_ordinal(self, u_ord: int) -> int:
        """Map the 1-based active-user ordinal to the global user index."""
        if not 1 <= u_ord <= self.n_users:
            raise IndexError(
                f"active-user ordinal {u_ord} out of range 1..{self.n_users}"
            )
        return int(self.shards[0]["global_index"][u_ord - 1])

    def steps(self, users: int | None = None) -> Iterator[tuple[np.ndarray, ...]]:
        """Views of the shards, ``users`` per shard per step (default
        ``batch_users(params, len(bs_ids))``)."""
        users = users or batch_users(self.params, len(self.bs_ids))
        for lo in range(0, self.n_users, users):
            yield tuple(records[lo: lo + users] for records in self.shards)


def get_channel(ds: Dataset, b_ord: int, u_ord: int) -> ChannelMatrix:
    """Channel matrix of the b-th active BS and u-th active user (1-based).
    Its entries are a view of the record, read-only after load_dataset."""
    bs_id = ds.bs_for_ordinal(b_ord)
    gidx = ds.user_for_ordinal(u_ord)
    return ChannelMatrix(entries=ds.shards[b_ord - 1]["channel"][u_ord - 1].T,
                         bs_id=bs_id, user_index=gidx)


def get_location(ds: Dataset, b_ord: int, u_ord: int) -> np.ndarray:
    """User location (3-vector view of the record) for the given ordinals."""
    ds.bs_for_ordinal(b_ord)
    ds.user_for_ordinal(u_ord)
    return ds.shards[b_ord - 1]["location"][u_ord - 1]


def active_user_indices(scene: Scene, params: ParamSet) -> np.ndarray:
    return users_in_row_range(scene, params.active_user_first, params.active_user_last)


def batch_users(params: ParamSet, shards: int = 1) -> int:
    """Users per batch: as many as keep one batch of records for each of
    ``shards`` shards within ``_BATCH_BYTES``, at least 1 and at most
    ``_MAX_BATCH_USERS``."""
    return max(1, min(_MAX_BATCH_USERS,
                      _BATCH_BYTES // (shards * record_dtype(params).itemsize)))


def pool_plan(source: Dataset | DatasetReader | RayDataset, scored: bool) -> tuple[int, int]:
    """(worker processes, users per shard per step) of ``write_steps`` over
    ``source``, ``scored`` if the workers score its steps. Unscored, only
    the records of a ``RayDataset`` beyond one ``_BATCH_BYTES`` step are
    worth a pool; otherwise the workers are 0. The 2 ring slots per worker,
    and the step this process draws from a source other than a
    ``RayDataset``, hold ``_BATCH_BYTES`` of records in all, so the steps
    shrink with the workers, and the workers are fewer than
    ``worker_count()`` only when even one-user steps would not fit or
    ``source`` has fewer steps than that."""
    shards = len(source.bs_ids)
    user_bytes = shards * record_dtype(source.params).itemsize
    computed = isinstance(source, RayDataset)
    if not (scored or computed and source.n_users * user_bytes > _BATCH_BYTES):
        return 0, batch_users(source.params, shards)
    held = 0 if computed else 1            # steps drawn in this process
    fit = _BATCH_BYTES // user_bytes       # one-user steps within the budget
    workers = max(1, min(parallel.worker_count(), (fit - held) // 2))
    users = batch_users(source.params, shards * (2 * workers + held))
    steps = -(-source.n_users // users)
    return max(1, min(workers, steps)), users


def _records(buf: np.ndarray, params: ParamSet, rays: RayRows) -> np.ndarray:
    """Fill the first records of ``buf`` from one base station's ray rows
    ``rays``; returns them."""
    block = buf[: len(rays)]          # every field is assigned below
    block["global_index"] = rays.users["user_index"]
    block["location"] = rays.users["position"]
    block["channel"] = channel_matrices_batch(rays, params).transpose(0, 2, 1)
    return block


@dataclass(frozen=True)
class RayDataset:
    """The dataset that one ray file per active base station gives, checked
    by ``shard_sources``; its records are computed only as steps are drawn."""
    params: ParamSet
    scenario_name: str
    bs_ids: tuple[int, ...]                    # active order
    rays: tuple[RayRows, ...]                  # per active BS: a user row per active user
    gaps: tuple[int, ...]                      # per active BS: users without a ray record

    @property
    def n_users(self) -> int:
        return len(self.rays[0])

    def steps(self, users: int | None = None) -> Iterator[tuple[np.ndarray, ...]]:
        """Every active base station's records, ``users`` per base station
        per step (default ``batch_users(params, len(bs_ids))``), computed as
        the step is drawn. A step's batches are views that the next step
        overwrites."""
        users = users or batch_users(self.params, len(self.bs_ids))
        bufs = [np.empty(min(users, self.n_users), record_dtype(self.params))
                for _ in self.rays]
        for lo in range(0, self.n_users, users):
            yield self._compute(bufs, lo)

    def _compute(self, bufs: Sequence[np.ndarray], lo: int) -> tuple[np.ndarray, ...]:
        """The records of the users from ``lo``, as many as each of ``bufs``
        holds, computed into the first records of ``bufs`` (in ``write_steps``, a
        ring slot)."""
        return tuple(_records(buf, self.params, rays.rows(lo, lo + len(buf)))
                     for buf, rays in zip(bufs, self.rays))


def shard_sources(
    ray_sources: Mapping[int, RayFile],
    params: ParamSet,
    scene: Scene,
) -> RayDataset:
    """Check the ray files against the scene; returns the dataset they give,
    whose records are computed only as its steps are drawn.

    A ray file traced for another scenario or carrier frequency, or one
    that puts a user more than ``_POSITION_TOL`` from where the scene puts
    it, is a ``ScenarioMismatchError``. A (bs, user) pair absent from its
    ray file yields an all-zero channel; each base station with such gaps
    logs one warning with their count and first few users. Each ray file's
    user indices must be strictly ascending, as ``read_rayfile`` checks;
    otherwise it is a ``DatasetError``.
    """
    for bs_id in params.active_bs:
        if bs_id not in ray_sources:
            raise MissingRaySourceError(bs_id)
        index = ray_sources[bs_id].rows.users["user_index"]
        if np.any(index[1:] <= index[:-1]):
            raise DatasetError(f"rays for base station {bs_id}: user indices are not "
                               f"strictly ascending")
        header = ray_sources[bs_id].header
        if (header.scenario, header.carrier_freq) != (scene.name, scene.carrier_freq):
            raise ScenarioMismatchError(
                f"rays for base station {bs_id} were traced in scenario "
                f"{header.scenario!r} at {header.carrier_freq:g} Hz, but the scene is "
                f"{scene.name!r} at {scene.carrier_freq:g} Hz", bs_id=bs_id)

    indices = active_user_indices(scene, params)
    positions = user_positions(scene, indices)
    rays, gaps = [], []
    for bs_id in params.active_bs:
        active, found = _active_rows(ray_sources[bs_id].rows, indices, positions)
        _check_positions(active, bs_id, positions)
        missing = indices[~found].tolist()
        if missing:
            log.warning("no ray record for bs %d: %d of %d users get a zero channel "
                        "(user %s%s)", bs_id, len(missing), indices.size,
                        ", ".join(map(str, missing[:_GAPS_SHOWN])),
                        ", ..." if len(missing) > _GAPS_SHOWN else "")
        rays.append(active)
        gaps.append(len(missing))
    return RayDataset(params, scene.name, tuple(params.active_bs), tuple(rays), tuple(gaps))


def _active_rows(rows: RayRows, indices: np.ndarray,
                 positions: np.ndarray) -> tuple[RayRows, np.ndarray]:
    """The rows of the users ``indices`` in that order, each user absent
    from ``rows`` an empty one at its scene position in ``positions``; and
    the mask of the users ``rows`` has."""
    have = rows.users["user_index"]
    wanted = indices.astype(np.uint64)
    at = np.searchsorted(have, wanted)
    found = at < have.size
    found[found] = have[at[found]] == wanted[found]
    users = np.empty(indices.size, USER_ROW)
    users["user_index"] = wanted
    users["position"] = positions
    users["n_paths"] = 0
    take = at[found]
    users[found] = rows.users[take]
    if np.array_equal(take, np.arange(len(rows))):
        paths = rows.paths
    else:
        counts = rows.users["n_paths"][take].astype(np.intp)
        first = np.repeat(rows.starts[take] - (np.cumsum(counts) - counts), counts)
        paths = rows.paths[first + np.arange(first.size)]
    return RayRows(rows.bs_id, users, paths), found


def _check_positions(rays: RayRows, bs_id: int, positions: np.ndarray) -> None:
    """Raise ``ScenarioMismatchError`` on the first ray record whose user
    position is not within ``_POSITION_TOL`` of the scene's ``positions``."""
    got = rays.users["position"]
    bad = np.flatnonzero(~(np.abs(got - positions).max(axis=1) <= _POSITION_TOL))  # NaN too
    if bad.size:
        j = int(bad[0])
        raise ScenarioMismatchError(
            f"rays for base station {bs_id} put user {int(rays.users['user_index'][j])} at "
            f"{_xyz(got[j])}, but the scene puts it at {_xyz(positions[j])}", bs_id=bs_id)


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
    station: ``shard_sources``' dataset gathered in one step."""
    return _gather(shard_sources(ray_sources, params, scene))


def _gather(source: RayDataset | DatasetReader) -> Dataset:
    """All of ``source``'s records in memory: one step over every user."""
    steps = list(source.steps(max(1, source.n_users)))
    shards = steps[0] if steps else [np.empty(0, record_dtype(source.params))
                                     for _ in source.bs_ids]
    return Dataset(params=source.params, scenario_name=source.scenario_name,
                   bs_ids=tuple(source.bs_ids), shards=tuple(shards))


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
    def from_text(cls, text: str) -> "Manifest":
        entries = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                name, bs_id, first, last, size, digest = line.split()
                entries.append(ManifestEntry(name, int(bs_id), int(first), int(last),
                                             int(size), digest))
            except ValueError:
                raise DatasetError(
                    f"manifest line {lineno}: expected 'filename bs_id first_user "
                    f"last_user byte_size hash', got {line!r}") from None
        return cls(tuple(entries))


def _hex16(sha: hashlib._Hash) -> str:
    return sha.hexdigest()[:16]


def content_hash(data: bytes) -> str:
    """64-bit content hash: first 16 hex digits of SHA-256."""
    return _hex16(hashlib.sha256(data))


class HashingSink:
    """A file being written: counts and SHA-256-hashes what goes into it."""

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        self._sha = hashlib.sha256()
        self.size = 0

    def write(self, chunk: bytes | memoryview | np.ndarray) -> None:
        self.size += self._fh.write(chunk)
        self._sha.update(chunk)

    @property
    def digest(self) -> str:
        """The ``content_hash`` of what was written."""
        return _hex16(self._sha)


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


def atomic_write(path: Path, data: bytes) -> tuple[int, str]:
    """Write ``data`` to ``path`` through ``write_files``. Returns the byte
    count and the ``content_hash`` of what was written."""
    (sink,), _ = write_files([path], [data], (), None)
    return sink.size, sink.digest


def file_digest(path: Path) -> tuple[int, str]:
    """Byte count and ``content_hash`` of a file, read a chunk at a time."""
    sha = hashlib.sha256()
    size = 0
    with path.open("rb") as fh:
        while chunk := fh.read(_READ_BYTES):
            sha.update(chunk)
            size += len(chunk)
    return size, _hex16(sha)


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
    """One shard read front to back in batches of records.

    Opening reads the preamble and echo block and checks them: magic,
    version, a parsable echo, and a byte size that is exactly the head plus
    ``user_count`` records; given the shard's manifest line, also its byte
    size and ``bs_id``. ``batches`` then reads the records, and with a
    manifest line checks the first and last user and, once the last record
    is read, the SHA-256 of the whole file. Error messages start with
    ``name``.
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
        if _PREAMBLE.size + echo_len + self.user_count * self.dtype.itemsize != size:
            self._fail(f"shard length {size} does not match {self.user_count} user "
                       f"records of {self.dtype.itemsize} bytes")
        if entry is not None and self.bs_id != entry.bs_id:
            self._fail(f"bs_id {self.bs_id}, manifest says {entry.bs_id}")

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
            record_dtype(params)
        except (ConfigError, KeyError, ValueError) as exc:
            self._fail(f"bad shard echo block: {exc}")
        if user_count < 0:
            self._fail(f"negative user_count {user_count}")
        return params, scenario, bs_id, user_count

    def batches(self, users: int) -> Iterator[np.ndarray]:
        """The records, ``users`` at a time (the last batch may be shorter).
        Each batch is a view of one buffer that the next batch overwrites."""
        buf = np.empty(min(users, self.user_count), self.dtype)
        raw = buf.view(np.uint8)
        first = last = 0            # a shard without users lists (0, 0)
        for lo in range(0, self.user_count, users):
            batch = buf[: min(users, self.user_count - lo)]
            chunk = raw[: batch.nbytes]
            if self._fh.readinto(chunk) != chunk.size:
                self._fail("shard ended early")      # the file shrank while read
            self._sha.update(chunk)
            first = int(batch["global_index"][0]) if lo == 0 else first
            last = int(batch["global_index"][-1])
            yield batch
        entry = self._entry
        if entry is None:
            return
        if (first, last) != (entry.first_user, entry.last_user):
            self._fail(f"first/last user {(first, last)}, manifest says "
                       f"{(entry.first_user, entry.last_user)}")
        if _hex16(self._sha) != entry.content_hash:
            self._fail("content hash mismatch")


class DatasetReader:
    """A dataset directory opened for one pass over its records.

    Opening reads ``manifest.txt`` and every shard's head, and checks that
    each shard matches its manifest line, that all shards agree on the
    parameter set, scenario and user count, and that the manifest lists
    one shard per base station of their ``active_BS``, in that order.
    ``steps`` then yields, per step, one batch of records per shard, in
    manifest order, holding the same users; it checks that they are the
    same users, and raises on the step after the last if any shard fails
    its first/last user or hash check.
    Use it as a context manager, which closes the shard files.
    """

    def __init__(self, source: Path | str):
        source = Path(source)
        manifest = Manifest.from_text((source / "manifest.txt").read_text())
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
                raise DatasetError(f"manifest.txt lists base stations {_ids(listed)}, but "
                                   f"the shards' active_BS is {_ids(head.params.active_bs)}")
        except BaseException:
            self._files.close()
            raise
        self.params = head.params
        self.scenario_name = head.scenario
        self.bs_ids = tuple(shard.bs_id for shard in self.shards)
        self.n_users = head.user_count
        self.verified = 0          # shards whose hash has been checked

    def __enter__(self) -> "DatasetReader":
        return self

    def __exit__(self, *exc) -> None:
        self._files.close()

    def steps(self, users: int | None = None) -> Iterator[tuple[np.ndarray, ...]]:
        """Every shard's records, ``users`` per shard per step (default
        ``batch_users(params, len(shards))``). A step's batches are views
        that the next step overwrites. Every shard's hash is checked once
        the last step has been taken, so consume the steps to the end."""
        users = users or batch_users(self.params, len(self.shards))
        head = self.shards[0]
        # strict: when one shard ends, every other shard is read to its end
        # too, so each runs its hash check.
        for step in zip(*(shard.batches(users) for shard in self.shards), strict=True):
            for shard, batch in zip(self.shards[1:], step[1:]):
                if not np.array_equal(batch["global_index"], step[0]["global_index"]):
                    raise DatasetError(f"{shard.name}: user list differs from {head.name}")
            yield step
        self.verified = len(self.shards)


def parse_shard(data: bytes) -> tuple[ParamSet, str, int, np.ndarray]:
    """Decode a shard held in memory: its parameter set, scenario, bs_id and
    ``record_dtype`` records."""
    reader = ShardReader(io.BytesIO(data))
    records = np.concatenate([np.empty(0, reader.dtype),
                              *reader.batches(max(1, reader.user_count))])
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
    source: Dataset | DatasetReader | RayDataset,
    paths: Sequence[Path],
    heads: Sequence[bytes],
    encode: Callable[[tuple[np.ndarray, ...], T], Sequence[bytes | memoryview]],
    score: Callable[[tuple[np.ndarray, ...]], T] | None = None,
    progress: Callable[[int, int], None] | None = None,
    counters: dict[str, int] | None = None,
) -> tuple[list[HashingSink], tuple[int, int]]:
    """The step loop of ``build`` and ``beams``: ``write_files`` over the
    steps of ``source``, each written as ``encode(batches, score)``. An
    ``OrderedPool`` named ``name``, with ``pool_plan``'s workers, runs a
    task per step on the step's ``Ring`` slot: it computes a
    ``RayDataset``'s records there, or finds the step this process drew
    and copied in (so a ``DatasetReader`` checks its shards here), and
    scores them with ``score`` (None without it). ``progress(done, total)``
    counts the (BS, user) pairs written; ``counters`` gets ``workers``,
    ``users_per_step`` and ``workers_peak_rss_kib`` (0 without workers).
    """
    shards, n_users = len(source.bs_ids), source.n_users
    workers, users = pool_plan(source, score is not None)
    with parallel.OrderedPool(name, workers) as pool:
        ring = parallel.Ring(pool.window, record_dtype(source.params), shards, users)
        computed = isinstance(source, RayDataset)

        def task(n: int, count: int) -> tuple[int, T | None]:
            batches = ring.get(n, count)
            if computed:
                batches = source._compute(batches, n * users)
            return count, None if score is None else score(batches)

        def drawn() -> Iterator[tuple[int, int]]:
            for n, step in enumerate(source.steps(users)):
                ring.put(n, step)
                yield n, len(step[0])

        tasks = (((n, min(users, n_users - lo)) for n, lo in enumerate(range(0, n_users, users)))
                 if computed else drawn())
        steps = ((ring.get(n, count), s) for n, (count, s) in enumerate(pool.map(task, tasks)))
        written = write_files(
            paths, heads, steps, lambda step: (step[0][0]["global_index"], encode(*step)),
            None if progress is None else lambda done: progress(shards * done, shards * n_users))
    if counters is not None:
        counters.update(workers=workers, users_per_step=users,
                        workers_peak_rss_kib=pool.peak_rss_kib)
    return written


def write_shards(
    sink: Path | str,
    source: Dataset | DatasetReader | RayDataset,
    fmt: str = "binary",
    progress: Callable[[int, int], None] | None = None,
    counters: dict[str, int] | None = None,
) -> Manifest:
    """Write one file per active base station of ``source`` in one pass
    over its steps (``write_steps``, with its ``progress`` and
    ``counters``), then the manifest; returns the manifest. Each step is
    encoded, written and hashed, then dropped, so memory is bounded by a
    step and not by the dataset, and no file is renamed into place until
    the last step is written.

    A ``source`` whose base stations are not its ``active_BS``, in that
    order, is refused, as ``DatasetReader`` would refuse its shards.
    ``fmt="csv"`` writes a readable tree instead and is refused above a
    documented size cap (CSV_SIZE_CAP_BYTES). Either is refused, before
    the first step, when its (estimated) size exceeds the free space of
    ``sink``'s file system.
    """
    sink = Path(sink)
    if fmt not in _EXPORT_FORMATS:
        raise ValueError(f"unknown export format {fmt!r}")
    params, scenario, n_users = source.params, source.scenario_name, source.n_users
    if list(source.bs_ids) != list(params.active_bs):
        raise DatasetError(f"the dataset's base stations {_ids(source.bs_ids)} are not "
                           f"its active_BS {_ids(params.active_bs)}")
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
    atomic_write(sink / "manifest.txt", manifest.to_text().encode())
    return manifest


def load_dataset(source: Path | str) -> Dataset:
    """Re-import a binary dataset directory written by ``write_shards``: one
    ``DatasetReader`` step over all users, so every check of the reader
    applies. The record arrays are read-only."""
    with DatasetReader(source) as reader:
        # A single step's buffers are not reused, so they are the shards.
        ds = _gather(reader)
    for records in ds.shards:
        records.flags.writeable = False
    return ds
