"""Binary ray-file interchange format: per-path parameters for one base
station against a block of users.

Layout (all little-endian):

* header, 64 bytes: magic ``DMRF``, version u32 (=1), bs_id u32,
  carrier_freq f64 (Hz), user_count u64, scenario name (32 bytes,
  zero-padded UTF-8), then 4 zero bytes of padding (bytes 60-63), so that
  one content has one encoding;
* then per user: global_index u64, position 3 x f64 (m), n_paths u16, and
  per path: aod_az, aod_el, aoa_az, aoa_el (f64, degrees), power (f64, W),
  phase (f64, rad), delay (f64, s), n_reflections u16.

The ray data model lives here, with its format: in memory a file's payload
is a ``RayRows``, its user rows in the ``USER_ROW`` layout and its path
rows in the ``PATH_ROW`` layout; ``PathList`` and ``PathRecord`` view one
user's rows. The tracer writes them, ``channel`` and ``dataset`` read them.
The one encoder comes in two parts, so a file can be written a step of
users at a time: ``encode_head`` packs the header and ``encode_rows``
checks a block of records and writes both row kinds through one user-row
mask (``write_rayfile`` is one head and one block). The one decoder scans
the users' path counts, gathers both through that mask and drops the
file's bytes; the one validator then checks the invariants column by
column, for the first 10 records (``_SHOWN``) that break any. A trace
directory holds base station N's rays as ``FILE_NAME.format(N)``, and the
reader refuses a file so named that holds another's.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import re
import struct
from dataclasses import dataclass, replace
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .files import MAX_PATHS, RAY_FILE_MAGIC, RayFileError
from .scene import NAME_BYTES


@dataclass(frozen=True)
class PathRecord:
    """One propagation path between a transmitter and a receiver.

    Angles are in degrees: azimuth in [-180, 180), elevation is the polar
    angle from +z in [0, 180]. Power is linear watts at unit transmit power,
    phase is radians in [0, 2*pi), delay is seconds.
    """

    aod_az: float
    aod_el: float
    aoa_az: float
    aoa_el: float
    power: float
    phase: float
    delay: float
    n_reflections: int


@dataclass(frozen=True)
class PathList:
    bs_id: int
    user_index: int
    user_position: tuple[float, float, float]
    paths: tuple[PathRecord, ...]


# The two row layouts of the ray file (little-endian, packed): a user row,
# then that user's ``n_paths`` path rows, strongest first.
USER_ROW = np.dtype([("user_index", "<u8"), ("position", "<f8", (3,)), ("n_paths", "<u2")])
PATH_FIELDS = ("aod_az", "aod_el", "aoa_az", "aoa_el", "power", "phase", "delay")
PATH_ROW = np.dtype([(name, "<f8") for name in PATH_FIELDS] + [("n_reflections", "<u2")])
_PATH_VALUES = operator.attrgetter(*PATH_ROW.names)


def _path_records(paths: np.ndarray) -> list[PathRecord]:
    """One ``PathRecord`` per ``PATH_ROW`` row."""
    return [PathRecord(*v) for v in zip(*(paths[name].tolist() for name in PATH_ROW.names))]


@dataclass(frozen=True, eq=False)
class RayRows:
    """One base station's paths to a block of users as two row arrays:
    ``users`` (U,) of ``USER_ROW`` and ``paths`` (P,) of ``PATH_ROW``, each
    user's ``n_paths`` rows in user order. Indexing and iteration give each
    user's ``PathList``, built one user at a time as it is asked for."""

    bs_id: int
    users: np.ndarray
    paths: np.ndarray

    @classmethod
    def from_path_lists(cls, path_lists: Sequence[PathList]) -> "RayRows":
        """The rows of ``path_lists``, which must share one base station."""
        ids = {pl.bs_id for pl in path_lists}
        if len(ids) > 1:
            raise ValueError(f"path lists of base stations {sorted(ids)} in one block")
        bs_id = ids.pop() if ids else 0
        users = np.empty(len(path_lists), USER_ROW)
        users["user_index"] = [pl.user_index for pl in path_lists]
        users["position"] = np.array([pl.user_position for pl in path_lists],
                                     dtype=float).reshape(-1, 3)
        users["n_paths"] = [len(pl.paths) for pl in path_lists]
        paths = np.array([_PATH_VALUES(p) for pl in path_lists for p in pl.paths], PATH_ROW)
        return cls(bs_id, users, paths)

    @functools.cached_property
    def starts(self) -> np.ndarray:
        """(U + 1,) index of each user's first path row, then P."""
        starts = np.zeros(len(self.users) + 1, dtype=np.intp)
        np.cumsum(self.users["n_paths"], out=starts[1:])
        return starts

    def rows(self, lo: int, hi: int) -> "RayRows":
        """Users ``lo:hi`` (``hi`` clipped to the user count) and their paths,
        as views."""
        hi = min(hi, len(self))
        return RayRows(self.bs_id, self.users[lo:hi],
                       self.paths[self.starts[lo]: self.starts[hi]])

    def __len__(self) -> int:
        return len(self.users)

    def __getitem__(self, u: int) -> PathList:
        u = range(len(self))[u]
        return PathList(bs_id=self.bs_id, user_index=int(self.users["user_index"][u]),
                        user_position=tuple(self.users["position"][u].tolist()),
                        paths=tuple(_path_records(
                            self.paths[self.starts[u]: self.starts[u + 1]])))

    def __iter__(self) -> Iterator[PathList]:
        return (self[u] for u in range(len(self)))


FILE_NAME = "rays_bs{:03d}.drf"      # base station N's ray file in a trace directory
VERSION = 1
HEADER_SIZE = 64

_HEADER = struct.Struct(f"<4sIId Q{NAME_BYTES}s")
_N_PATHS = struct.Struct("<H")
_N_PATHS_AT = USER_ROW.fields["n_paths"][1]     # offset of n_paths in a user row
_ASCENDING = "must be strictly ascending"
_SHOWN = 10     # records a check lists the violations of; violations a message shows
_WORD = np.dtype(np.uint16)     # both row sizes are even: a payload splits on 2-byte words
_FILE_BS = re.compile(r"rays_bs(\d+)\.drf")     # the N of a ``FILE_NAME``: whose rays it holds


class RayFileFormatError(RayFileError):
    """Bad magic, malformed header, or undecodable metadata."""


class RayFileVersionError(RayFileError):
    """Recognized file with an unsupported version."""


class RayFileCorruptionError(RayFileError):
    """Truncated or overlong payload; message cites the byte offset."""


class RayFileSemanticError(RayFileError):
    """Structurally sound file whose records violate invariants."""


@dataclass(frozen=True)
class RayFileHeader:
    bs_id: int
    carrier_freq: float
    user_count: int
    scenario: str


@dataclass(frozen=True)
class RayFile:
    header: RayFileHeader
    rows: RayRows
    name: str | None = None     # the file it was read from; None for one without a name

    records = property(lambda self: self.rows)     # their older name, read by bench/gate.py

    def error(self, kind: type[Exception], message: str) -> Exception:
        """The error ``kind`` with ``message``, which names this file."""
        return kind(_named(self.name, message))


def _named(name: str | None, message: object) -> str:
    """``message`` after the name of the ray file it is about, if it has one."""
    return str(message) if name is None else f"{name}: {message}"


@dataclass(frozen=True)
class Violation:
    record_index: int   # -1 for file-level violations
    field: str
    rule: str

    def __str__(self) -> str:
        where = "file" if self.record_index < 0 else f"record {self.record_index}"
        return f"{where}: {self.field}: {self.rule}"


def validate_rayfile(rf: RayFile) -> list[Violation]:
    """Check every invariant; returns an empty list iff the file is valid.
    File-level violations come first, then the first bad records' (``row_violations``).
    """
    header, rows = rf.header, rf.rows
    out = [] if header.user_count == len(rows) else [Violation(
        -1, "user_count", f"header says {header.user_count}, file has {len(rows)}")]
    return out + _head_violations(header) + row_violations(rows, header.bs_id)


def _head_violations(header: RayFileHeader) -> list[Violation]:
    finite = math.isfinite(header.carrier_freq) and header.carrier_freq > 0
    return [] if finite else [Violation(-1, "carrier_freq", "must be finite and > 0")]


def row_violations(rows: RayRows, bs_id: int, first: int = 0) -> list[Violation]:
    """The violations of the first ``_SHOWN`` records that have any, of
    records ``first``... of a file of base station ``bs_id`` with rows
    ``rows``: each record's user index (from the second on; ``check_follows``
    checks the first), base station and path count, then each path's, in
    path order, non-finite fields first; the range and order rules skip a
    path whose power or delay is not finite."""
    users, paths, starts = rows.users, rows.paths, rows.starts
    index = users["user_index"]
    descends = np.zeros(len(users), dtype=bool)
    descends[1:] = index[1:] <= index[:-1]
    record_rules = [
        ("user_index", _ASCENDING, descends),
        ("bs_id", f"must match header bs_id {bs_id}", np.full(len(users), rows.bs_id != bs_id)),
        ("paths", f"at most {MAX_PATHS} paths per record", users["n_paths"] > MAX_PATHS),
    ]
    later = np.ones(len(paths), dtype=bool)         # not its record's first path
    later[starts[:-1][users["n_paths"] > 0]] = False
    power, delay = paths["power"], paths["delay"]
    prev = np.roll(power, 1)
    ranged = np.isfinite(power) & np.isfinite(delay)

    def outside(name: str, lo: float, hi: float, closed: bool) -> np.ndarray:
        x = paths[name]
        return ranged & ~((x >= lo) & ((x <= hi) if closed else (x < hi)))

    path_rules = [(name, "must be finite", ~np.isfinite(paths[name])) for name in PATH_FIELDS]
    path_rules += [
        ("power", "power > 0", ranged & (power <= 0)),
        ("delay", "delay > 0", ranged & (delay <= 0)),
        ("aod_az", "azimuth in [-180, 180)", outside("aod_az", -180.0, 180.0, False)),
        ("aoa_az", "azimuth in [-180, 180)", outside("aoa_az", -180.0, 180.0, False)),
        ("aod_el", "elevation in [0, 180]", outside("aod_el", 0.0, 180.0, True)),
        ("aoa_el", "elevation in [0, 180]", outside("aoa_el", 0.0, 180.0, True)),
        ("phase", "phase in [0, 2*pi)", outside("phase", 0.0, 2.0 * math.pi + 1e-12, False)),
        ("power", "paths sorted by power descending",
         ranged & later & np.isfinite(prev) & (power > prev)),
    ]

    # Walk the records that break a rule in order, each record's rules and
    # then its paths', but only as far as the first _SHOWN of them.
    bad = functools.reduce(np.logical_or, [mask for _, _, mask in record_rules])
    bad_path = functools.reduce(np.logical_or, [mask for _, _, mask in path_rules])
    bad[np.searchsorted(starts, np.flatnonzero(bad_path), side="right") - 1] = True
    out = []
    for i in np.flatnonzero(bad)[:_SHOWN].tolist():
        out += [Violation(first + i, name, rule) for name, rule, mask in record_rules if mask[i]]
        lo = starts[i]
        for j in np.flatnonzero(bad_path[lo: starts[i + 1]]).tolist():
            out += [Violation(first + i, f"paths[{j}].{name}", rule)
                    for name, rule, mask in path_rules if mask[lo + j]]
    return out


def check_follows(before: int | None, index: np.ndarray, first: int) -> None:
    """Refuse the user indices ``index`` of records ``first``... unless the
    first exceeds ``before``, the user index of record ``first - 1`` (None
    at the file's start): the user-index rule across a step boundary."""
    if before is not None and len(index) and index[0] <= before:
        _refuse([Violation(first, "user_index", _ASCENDING)])


def _refuse(violations: list[Violation]) -> None:
    if violations:
        raise RayFileSemanticError(
            "refusing to write invalid ray data: " + "; ".join(str(v) for v in violations[:5]))


def _user_words(n_paths: np.ndarray) -> np.ndarray:
    """The mask of the user-row words (``_WORD``) of a payload whose users
    have ``n_paths`` paths, each user's row followed by its path rows."""
    sizes = np.column_stack([np.full(n_paths.size, USER_ROW.itemsize),    # a user's row,
                             PATH_ROW.itemsize * n_paths.astype(np.intp)])  # then its paths
    return np.repeat(np.tile([True, False], n_paths.size), sizes.ravel() // _WORD.itemsize)


def encode_head(header: RayFileHeader) -> bytes:
    """The header of a file of ``header.user_count`` users. A carrier
    frequency that is not finite and > 0 is refused, as is a scenario name
    that does not encode in ``NAME_BYTES`` of UTF-8."""
    _refuse(_head_violations(header))
    try:
        scenario = header.scenario.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise RayFileFormatError(f"scenario name not encodable: {exc}") from None
    if len(scenario) > NAME_BYTES:
        raise RayFileFormatError(f"scenario name longer than {NAME_BYTES} bytes")
    return _HEADER.pack(RAY_FILE_MAGIC, VERSION, header.bs_id, header.carrier_freq,
                        header.user_count, scenario) + bytes(HEADER_SIZE - _HEADER.size)


def encode_rows(rows: RayRows, bs_id: int, first: int = 0) -> np.ndarray:
    """The payload bytes of the records ``rows``, records ``first``... of a
    file of base station ``bs_id``: each user row, then its path rows.
    Rows that break an invariant (``row_violations``) are refused with a
    ``RayFileSemanticError``."""
    _refuse(row_violations(rows, bs_id, first))
    return _pack(rows)


def _pack(rows: RayRows) -> np.ndarray:
    user_words = _user_words(rows.users["n_paths"])
    data = np.empty(user_words.size, dtype=_WORD)
    data[user_words] = np.ascontiguousarray(rows.users).view(_WORD)
    data[~user_words] = np.ascontiguousarray(rows.paths).view(_WORD)
    return data.view(np.uint8)


def write_rayfile(
    rays: RayRows | Sequence[PathList],
    header: RayFileHeader,
    sink: BinaryIO,
) -> int:
    """Serialize to the binary layout, ``encode_head`` with the user count of
    ``rays`` and one block of records; returns the byte count written. Input
    that breaks an invariant raises :class:`RayFileSemanticError` first."""
    if not isinstance(rays, RayRows):
        try:
            rays = RayRows.from_path_lists(rays)
        except ValueError as exc:
            raise RayFileSemanticError(f"refusing to write invalid ray data: {exc}") from None
    header = replace(header, user_count=len(rays))
    _refuse(validate_rayfile(RayFile(header, rays)))
    head, data = encode_head(header), _pack(rays)
    sink.write(head)
    sink.write(memoryview(data))
    return len(head) + data.size


def read_rayfile(source: BinaryIO) -> RayFile:
    """Parse and fully validate a binary ray file, named ``source.name`` if that
    is a string (a file opened by path), as base station N's ``FILE_NAME`` only
    if it holds N's rays. Raises a :class:`RayFileError` subclass, after the
    name, on any defect; never returns a partial file."""
    name = source.name if isinstance(getattr(source, "name", None), str) else None
    try:
        rf = _parse(source)
        named = _FILE_BS.fullmatch(os.path.basename(name or ""))
        if named and int(named[1]) != rf.header.bs_id:
            raise RayFileError(f"rays for base station {int(named[1])} were traced "
                               f"from base station {rf.header.bs_id}")
    except RayFileError as exc:
        raise type(exc)(_named(name, exc)) from None
    return replace(rf, name=name)


def _parse(source: BinaryIO) -> RayFile:
    """``read_rayfile`` of an unnamed ``source``."""
    data = source.read()
    if len(data) < HEADER_SIZE:
        raise RayFileCorruptionError(
            f"truncated header: got {len(data)} bytes, need {HEADER_SIZE}"
        )
    magic, version, bs_id, carrier_freq, user_count, scenario_raw = _HEADER.unpack_from(data)
    if magic != RAY_FILE_MAGIC:
        raise RayFileFormatError(f"bad magic {magic!r}, expected {RAY_FILE_MAGIC!r}")
    if version != VERSION:
        raise RayFileVersionError(f"unsupported version {version} (supported: {VERSION})")
    try:
        scenario = scenario_raw.rstrip(b"\0").decode("utf-8")
    except UnicodeDecodeError:
        raise RayFileFormatError("scenario name is not valid UTF-8") from None
    for offset in range(_HEADER.size, HEADER_SIZE):
        if data[offset]:
            raise RayFileFormatError(f"non-zero header padding at byte {offset}")
    if user_count > (len(data) - HEADER_SIZE) // USER_ROW.itemsize:
        raise RayFileCorruptionError(
            f"header claims {user_count} user records but only "
            f"{len(data) - HEADER_SIZE} payload bytes follow"
        )

    # One scan for each user's path count; the rows are then gathered whole.
    n_paths = np.empty(user_count, dtype=np.intp)
    n_paths_at = _N_PATHS.unpack_from
    offset = HEADER_SIZE
    for u in range(user_count):
        if offset + USER_ROW.itemsize > len(data):
            raise RayFileCorruptionError(f"truncated user record at byte {offset}")
        n = n_paths[u] = n_paths_at(data, offset + _N_PATHS_AT)[0]
        offset += USER_ROW.itemsize
        need = n * PATH_ROW.itemsize
        if offset + need > len(data):
            raise RayFileCorruptionError(
                f"truncated path block at byte {offset}: need {need} bytes, "
                f"have {len(data) - offset}"
            )
        offset += need
    if offset != len(data):
        raise RayFileCorruptionError(
            f"{len(data) - offset} trailing bytes after last record (offset {offset})"
        )

    raw = np.frombuffer(data, dtype=_WORD, offset=HEADER_SIZE)
    user_words = _user_words(n_paths)
    users = raw[user_words].view(USER_ROW)
    paths = raw[np.logical_not(user_words, out=user_words)].view(PATH_ROW)
    del data, raw, user_words       # the file's bytes and the mask: not held while checking
    rf = RayFile(RayFileHeader(bs_id, carrier_freq, user_count, scenario),
                 RayRows(bs_id, users, paths))
    violations = validate_rayfile(rf)
    if violations:
        raise RayFileSemanticError("; ".join(str(v) for v in violations[:_SHOWN]))
    return rf
