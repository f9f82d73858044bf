"""Binary ray-file interchange format: per-path parameters for one base
station against a block of users.

Layout (all little-endian):

* header, 64 bytes: magic ``DMRF``, version u32 (=1), bs_id u32,
  carrier_freq f64 (Hz), user_count u64, scenario name (32 bytes,
  zero-padded UTF-8), zero padding up to byte 64;
* then per user: global_index u64, position 3 x f64 (m), n_paths u16, and
  per path: aod_az, aod_el, aoa_az, aoa_el (f64, degrees), power (f64, W),
  phase (f64, rad), delay (f64, s), n_reflections u16.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Sequence

from .tracer import PathList, PathRecord

MAGIC = b"DMRF"
VERSION = 1
HEADER_SIZE = 64
MAX_PATHS = 25

_HEADER = struct.Struct("<4sIId Q32s")
_USER = struct.Struct("<Q3dH")
_PATH = struct.Struct("<7dH")


class RayFileError(Exception):
    """Base class for every ray-file read/write failure."""


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
    records: tuple[PathList, ...]


@dataclass(frozen=True)
class Violation:
    record_index: int   # -1 for file-level violations
    field: str
    rule: str

    def __str__(self) -> str:
        where = "file" if self.record_index < 0 else f"record {self.record_index}"
        return f"{where}: {self.field}: {self.rule}"


def validate_rayfile(rf: RayFile) -> list[Violation]:
    """Check every invariant; returns an empty list iff the file is valid."""
    out: list[Violation] = []
    if rf.header.user_count != len(rf.records):
        out.append(Violation(-1, "user_count",
                             f"header says {rf.header.user_count}, file has {len(rf.records)}"))
    if rf.header.carrier_freq <= 0 or not math.isfinite(rf.header.carrier_freq):
        out.append(Violation(-1, "carrier_freq", "must be finite and > 0"))
    prev_index = None
    for i, pl in enumerate(rf.records):
        if prev_index is not None and pl.user_index <= prev_index:
            out.append(Violation(i, "user_index", "must be strictly ascending"))
        prev_index = pl.user_index
        if pl.bs_id != rf.header.bs_id:
            out.append(Violation(i, "bs_id", f"must match header bs_id {rf.header.bs_id}"))
        if len(pl.paths) > MAX_PATHS:
            out.append(Violation(i, "paths", f"at most {MAX_PATHS} paths per record"))
        prev_power = None
        for j, p in enumerate(pl.paths):
            f = f"paths[{j}]"
            for name in ("aod_az", "aod_el", "aoa_az", "aoa_el", "power", "phase", "delay"):
                if not math.isfinite(getattr(p, name)):
                    out.append(Violation(i, f"{f}.{name}", "must be finite"))
            if not math.isfinite(p.power) or not math.isfinite(p.delay):
                prev_power = p.power
                continue
            if p.power <= 0:
                out.append(Violation(i, f"{f}.power", "power > 0"))
            if p.delay <= 0:
                out.append(Violation(i, f"{f}.delay", "delay > 0"))
            if not -180.0 <= p.aod_az < 180.0:
                out.append(Violation(i, f"{f}.aod_az", "azimuth in [-180, 180)"))
            if not -180.0 <= p.aoa_az < 180.0:
                out.append(Violation(i, f"{f}.aoa_az", "azimuth in [-180, 180)"))
            if not 0.0 <= p.aod_el <= 180.0:
                out.append(Violation(i, f"{f}.aod_el", "elevation in [0, 180]"))
            if not 0.0 <= p.aoa_el <= 180.0:
                out.append(Violation(i, f"{f}.aoa_el", "elevation in [0, 180]"))
            if not 0.0 <= p.phase < 2.0 * math.pi + 1e-12:
                out.append(Violation(i, f"{f}.phase", "phase in [0, 2*pi)"))
            if prev_power is not None and math.isfinite(prev_power) and p.power > prev_power:
                out.append(Violation(i, f"{f}.power", "paths sorted by power descending"))
            prev_power = p.power
    return out


def write_rayfile(
    path_lists: Sequence[PathList],
    header: RayFileHeader,
    sink: BinaryIO,
) -> int:
    """Serialize to the binary layout; returns the byte count written.

    The input is validated first; an unsorted or invariant-breaking input
    raises :class:`RayFileSemanticError`.
    """
    rf = RayFile(header=RayFileHeader(
        bs_id=header.bs_id, carrier_freq=header.carrier_freq,
        user_count=len(path_lists), scenario=header.scenario,
    ), records=tuple(path_lists))
    violations = validate_rayfile(rf)
    if violations:
        raise RayFileSemanticError(
            "refusing to write invalid ray data: " + "; ".join(str(v) for v in violations[:5])
        )
    try:
        scenario = header.scenario.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise RayFileFormatError(f"scenario name not encodable: {exc}") from None
    if len(scenario) > 32:
        raise RayFileFormatError("scenario name longer than 32 bytes")

    buf = io.BytesIO()
    head = _HEADER.pack(MAGIC, VERSION, header.bs_id, header.carrier_freq,
                        len(path_lists), scenario)
    buf.write(head.ljust(HEADER_SIZE, b"\0"))
    for pl in path_lists:
        buf.write(_USER.pack(pl.user_index, *pl.user_position, len(pl.paths)))
        for p in pl.paths:
            buf.write(_PATH.pack(p.aod_az, p.aod_el, p.aoa_az, p.aoa_el,
                                 p.power, p.phase, p.delay, p.n_reflections))
    data = buf.getvalue()
    sink.write(data)
    return len(data)


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
    if user_count > (len(data) - HEADER_SIZE) // _USER.size:
        raise RayFileCorruptionError(
            f"header claims {user_count} user records but only "
            f"{len(data) - HEADER_SIZE} payload bytes follow"
        )

    offset = HEADER_SIZE
    records: list[PathList] = []
    for _ in range(user_count):
        if offset + _USER.size > len(data):
            raise RayFileCorruptionError(f"truncated user record at byte {offset}")
        gidx, px, py, pz, n_paths = _USER.unpack_from(data, offset)
        offset += _USER.size
        need = n_paths * _PATH.size
        if offset + need > len(data):
            raise RayFileCorruptionError(
                f"truncated path block at byte {offset}: need {need} bytes, "
                f"have {len(data) - offset}"
            )
        paths = []
        for _ in range(n_paths):
            vals = _PATH.unpack_from(data, offset)
            offset += _PATH.size
            paths.append(PathRecord(*vals))
        records.append(PathList(bs_id=bs_id, user_index=gidx,
                                user_position=(px, py, pz), paths=tuple(paths)))
    if offset != len(data):
        raise RayFileCorruptionError(
            f"{len(data) - offset} trailing bytes after last record (offset {offset})"
        )

    rf = RayFile(
        header=RayFileHeader(bs_id=bs_id, carrier_freq=carrier_freq,
                             user_count=user_count, scenario=scenario),
        records=tuple(records),
    )
    violations = validate_rayfile(rf)
    if violations:
        raise RayFileSemanticError("; ".join(str(v) for v in violations[:10]))
    return rf

