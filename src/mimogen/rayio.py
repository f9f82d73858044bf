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

In memory a file's payload is a ``tracer.RayRows``: its user rows in the
``USER_ROW`` layout and its path rows in the ``PATH_ROW`` layout. The one
encoder comes in two parts, so a file can be written a step of users at a
time: ``encode_head`` packs the header and ``encode_rows`` checks a block
of records and scatters both row kinds into one buffer (``write_rayfile``
is one head and one block). The one decoder scans the users' offsets and
gathers both back with ``np.frombuffer``; the one validator checks the
invariants column by column.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from typing import BinaryIO, Sequence

import numpy as np

from .files import RayFileError
from .tracer import PATH_FIELDS, PATH_ROW, USER_ROW, PathList, RayRows

MAGIC = b"DMRF"
VERSION = 1
HEADER_SIZE = 64
MAX_PATHS = 25

_HEADER = struct.Struct("<4sIId Q32s")
_N_PATHS = struct.Struct("<H")
_N_PATHS_AT = USER_ROW.fields["n_paths"][1]     # offset of n_paths in a user row
_ASCENDING = "must be strictly ascending"


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
    version: int = VERSION


@dataclass(frozen=True)
class RayFile:
    header: RayFileHeader
    rows: RayRows

    records = property(lambda self: self.rows)     # their older name, read by bench/gate.py


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
    File-level violations come first, then each record's (``row_violations``).
    """
    header, rows = rf.header, rf.rows
    out = [] if header.user_count == len(rows) else [Violation(
        -1, "user_count", f"header says {header.user_count}, file has {len(rows)}")]
    return out + _head_violations(header) + row_violations(rows, header.bs_id)


def _head_violations(header: RayFileHeader) -> list[Violation]:
    finite = math.isfinite(header.carrier_freq) and header.carrier_freq > 0
    return [] if finite else [Violation(-1, "carrier_freq", "must be finite and > 0")]


def row_violations(rows: RayRows, bs_id: int, first: int = 0) -> list[Violation]:
    """The violations of records ``first``... of a file of base station
    ``bs_id``, whose rows are ``rows``: each record's user index (from the
    second on; ``check_follows`` checks the first), base station and path
    count, then each path's, in path order, non-finite fields first; the
    range and order rules skip a path whose power or delay is not finite."""
    users, paths = rows.users, rows.paths
    index = users["user_index"]
    record_rules = [
        ("user_index", _ASCENDING, np.concatenate([[False], index[1:] <= index[:-1]])),
        ("bs_id", f"must match header bs_id {bs_id}", np.full(len(users), rows.bs_id != bs_id)),
        ("paths", f"at most {MAX_PATHS} paths per record", users["n_paths"] > MAX_PATHS),
    ]
    record = np.repeat(np.arange(len(users)), users["n_paths"])   # of each path
    place = np.arange(len(paths)) - rows.starts[record]           # in its record
    power, delay = paths["power"], paths["delay"]
    prev = np.concatenate([[np.nan], power[:-1]])
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
         ranged & (place > 0) & np.isfinite(prev) & (power > prev)),
    ]

    # Order the violations as one pass over records, then paths, would.
    keyed: list[tuple[tuple[int, int, int, int], Violation]] = []
    for k, (name, rule, mask) in enumerate(record_rules):
        keyed += [((i, 0, 0, k), Violation(first + i, name, rule))
                  for i in np.flatnonzero(mask).tolist()]
    for k, (name, rule, mask) in enumerate(path_rules):
        for i, j in zip(record[mask].tolist(), place[mask].tolist()):
            keyed.append(((i, 1, j, k), Violation(first + i, f"paths[{j}].{name}", rule)))
    keyed.sort(key=lambda kv: kv[0])
    return [v for _, v in keyed]


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


def _layout(n_paths: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The (U, user row size) byte offsets of each user row in a
    ``size``-byte payload whose users have ``n_paths`` paths, and the mask
    of its path-row bytes, the others."""
    path_bytes = PATH_ROW.itemsize * n_paths.astype(np.intp)
    start = USER_ROW.itemsize * np.arange(n_paths.size) + np.cumsum(path_bytes) - path_bytes
    user_bytes = start[:, None] + np.arange(USER_ROW.itemsize)
    path_mask = np.ones(size, dtype=bool)
    path_mask[user_bytes] = False
    return user_bytes, path_mask


def encode_head(header: RayFileHeader) -> bytes:
    """The header of a file of ``header.user_count`` users. A carrier
    frequency that is not finite and > 0 is refused, as is a scenario name
    that does not encode in 32 bytes of UTF-8."""
    _refuse(_head_violations(header))
    try:
        scenario = header.scenario.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise RayFileFormatError(f"scenario name not encodable: {exc}") from None
    if len(scenario) > 32:
        raise RayFileFormatError("scenario name longer than 32 bytes")
    return _HEADER.pack(MAGIC, VERSION, header.bs_id, header.carrier_freq,
                        header.user_count, scenario) + bytes(HEADER_SIZE - _HEADER.size)


def encode_rows(rows: RayRows, bs_id: int, first: int = 0) -> np.ndarray:
    """The payload bytes of the records ``rows``, records ``first``... of a
    file of base station ``bs_id``: each user row, then its path rows.
    Rows that break an invariant (``row_violations``) are refused with a
    ``RayFileSemanticError``."""
    _refuse(row_violations(rows, bs_id, first))
    return _pack(rows)


def _pack(rows: RayRows) -> np.ndarray:
    data = np.empty(len(rows) * USER_ROW.itemsize + len(rows.paths) * PATH_ROW.itemsize,
                    dtype=np.uint8)
    user_bytes, path_bytes = _layout(rows.users["n_paths"], data.size)
    data[user_bytes] = np.ascontiguousarray(rows.users).view(np.uint8).reshape(user_bytes.shape)
    data[path_bytes] = np.ascontiguousarray(rows.paths).view(np.uint8)
    return data


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
    """Parse and fully validate a binary ray file.

    Raises a :class:`RayFileError` subclass on any defect; never returns a
    partially initialized structure.
    """
    data = source.read()
    if len(data) < HEADER_SIZE:
        raise RayFileCorruptionError(
            f"truncated header: got {len(data)} bytes, need {HEADER_SIZE}"
        )
    magic, version, bs_id, carrier_freq, user_count, scenario_raw = _HEADER.unpack(
        data[: _HEADER.size]
    )
    if magic != MAGIC:
        raise RayFileFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
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

    raw = np.frombuffer(data, dtype=np.uint8, offset=HEADER_SIZE)
    user_bytes, path_bytes = _layout(n_paths, raw.size)
    rows = RayRows(bs_id, raw[user_bytes].view(USER_ROW).reshape(user_count),
                   raw[path_bytes].view(PATH_ROW))
    del user_bytes, path_bytes      # a byte each of the file: not held while validating
    rf = RayFile(
        header=RayFileHeader(bs_id=bs_id, carrier_freq=carrier_freq,
                             user_count=user_count, scenario=scenario),
        rows=rows,
    )
    violations = validate_rayfile(rf)
    if violations:
        raise RayFileSemanticError("; ".join(str(v) for v in violations[:10]))
    return rf
