"""Dataset parameter set: parsing, validation, and derived quantities.

``ParamSet`` checks every rule on the parameters, each field's exact kind
first, so a set that constructs works in every stage and reads back from
its own file, and a bad one is refused where it is read, before anything
is written. Each field declares its key in the parameter file (and the
equivalent ``trace`` and ``build`` flag) and its kind; ``KEYS`` maps the
keys, in field order, to the fields, and the reader, the writer and the
CLI flags all come from it. The keys are the generator's documented names
(``bandwidth`` in GHz).
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, field, fields
from typing import TYPE_CHECKING, Any, Mapping

from .files import MAX_PATHS
from .kvconfig import ConfigError, KVEntry, as_float, as_int, as_int_list, parse_kv

if TYPE_CHECKING:
    import numpy as np

#: The most bytes of a record: numpy sizes a dtype with a C int.
MAX_RECORD_BYTES = 2**31 - 1


class ParamError(ConfigError):
    """Invalid dataset parameters."""


def _param(key: str, kind: str, default: Any) -> Any:
    """A ``ParamSet`` field read from and written to the file key ``key`` as
    a value of ``kind`` (a key of ``_READ``, ``_WRITE`` and ``_KIND``)."""
    return field(default=default, metadata={"key": key, "kind": kind})


@dataclass(frozen=True)
class ParamSet:
    active_bs: tuple[int, ...] = _param("active_BS", "int_list", (3, 4, 5, 6))
    active_user_first: int = _param("active_user_first", "int", 1000)
    active_user_last: int = _param("active_user_last", "int", 1300)
    num_ant_x: int = _param("num_ant_x", "int", 1)
    num_ant_y: int = _param("num_ant_y", "int", 32)
    num_ant_z: int = _param("num_ant_z", "int", 8)
    ant_spacing: float = _param("ant_spacing", "float", 0.5)    # in wavelengths
    bandwidth: float = _param("bandwidth", "float", 0.5)        # GHz
    num_ofdm: int = _param("num_OFDM", "int", 1024)
    ofdm_sampling_factor: int = _param("OFDM_sampling_factor", "int", 1)
    ofdm_limit: int = _param("OFDM_limit", "int", 64)
    num_paths: int = _param("num_paths", "int", 5)

    def __post_init__(self) -> None:
        for key, f in KEYS.items():
            what, is_kind = _KIND[f.metadata["kind"]]
            if not is_kind(value := getattr(self, f.name)):
                raise ParamError(f"{key}: must be {what}, got {value!r}")
        if not self.active_bs:
            raise ParamError("active_BS: at least one base station required")
        if len(set(self.active_bs)) != len(self.active_bs):
            raise ParamError("active_BS: duplicate ids")
        if self.active_user_first > self.active_user_last:
            raise ParamError(
                f"active_user_first ({self.active_user_first}) must be <= "
                f"active_user_last ({self.active_user_last})"
            )
        for key in ("num_ant_x", "num_ant_y", "num_ant_z", "num_OFDM", "OFDM_sampling_factor",
                    "OFDM_limit"):
            if (count := getattr(self, KEYS[key].name)) < 1:
                raise ParamError(f"{key}: must be >= 1, got {count}")
        if self.num_ofdm > 2**63 - 1:       # the subcarrier indices are int64
            raise ParamError(f"num_OFDM: must be <= {2**63 - 1}, got {self.num_ofdm}")
        for key, value in (("ant_spacing", self.ant_spacing), ("bandwidth", self.bandwidth)):
            if not value > 0:
                raise ParamError(f"{key}: must be > 0, got {value}")
            if not math.isfinite(value):
                raise ParamError(f"{key}: must be finite, got {value}")
        if not 1 <= self.num_paths <= MAX_PATHS:
            raise ParamError(f"num_paths: must be in 1..{MAX_PATHS}, got {self.num_paths}")
        if (last := 1 + (self.ofdm_limit - 1) * self.ofdm_sampling_factor) > self.num_ofdm:
            raise ParamError(
                f"subcarrier set exceeds num_OFDM: 1 + (OFDM_limit-1)*OFDM_sampling_factor = "
                f"{last} > num_OFDM = {self.num_ofdm} (OFDM_limit={self.ofdm_limit}, "
                f"OFDM_sampling_factor={self.ofdm_sampling_factor}, num_OFDM={self.num_ofdm})"
            )
        # A dataset.record_dtype: index and location, then OFDM_limit x M complex128.
        if (size := 32 + 16 * self.num_antennas * self.ofdm_limit) > MAX_RECORD_BYTES:
            raise ParamError(f"record size: 32 + 16*num_ant_x*num_ant_y*num_ant_z*OFDM_limit "
                             f"= {size} bytes, more than a record holds ({MAX_RECORD_BYTES})")

    @property
    def num_antennas(self) -> int:
        return self.num_ant_x * self.num_ant_y * self.num_ant_z

    @property
    def bandwidth_hz(self) -> float:
        return self.bandwidth * 1e9

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.num_ant_x, self.num_ant_y, self.num_ant_z)


#: File key -> ``ParamSet`` field, in field order.
KEYS: dict[str, Field] = {f.metadata["key"]: f for f in fields(ParamSet)}

#: Per kind: how a value is read from a ``KVEntry`` and how it is written.
_READ = {"int": as_int, "float": as_float, "int_list": lambda e: tuple(as_int_list(e))}
_WRITE = {"int": str, "float": repr, "int_list": lambda v: ",".join(map(str, v))}
#: Per kind: the exact type a field holds, so that it is written as it is
#: read: ``True`` and ``4.0`` are no int, ``1`` is no float, a list no tuple.
_KIND = {"int": ("an integer", lambda v: type(v) is int),
         "float": ("a float", lambda v: type(v) is float),
         "int_list": ("a tuple of integers",
                      lambda v: type(v) is tuple and all(type(x) is int for x in v))}


def params_from_entries(entries: Mapping[str, KVEntry]) -> ParamSet:
    """The parameter set of parsed key=value entries. Unspecified keys keep defaults."""
    overrides = {}
    for key, entry in entries.items():
        if key not in KEYS:
            raise ParamError(f"{entry.where}: unknown parameter {key!r}")
        f = KEYS[key]
        overrides[f.name] = _READ[f.metadata["kind"]](entry)
    return ParamSet(**overrides)


def parse_params(text: str) -> ParamSet:
    """Parse a key=value parameter document. Unspecified keys keep defaults."""
    return params_from_entries(parse_kv(text))


def serialize_params(p: ParamSet) -> str:
    """Canonical key=value rendering, one line per key of ``KEYS``;
    parse_params round-trips it."""
    return "".join(f"{key}={_WRITE[f.metadata['kind']](getattr(p, f.name))}\n"
                   for key, f in KEYS.items())


def subcarrier_set(p: ParamSet) -> np.ndarray:
    """The 1-based subcarrier indices {1, 1+f, 1+2f, ...}, `OFDM_limit` of
    them; ``ParamSet`` keeps the last within `num_OFDM`."""
    import numpy as np      # here: the CLI reads ``KEYS`` without numpy

    f = p.ofdm_sampling_factor
    return np.array(range(1, 1 + p.ofdm_limit * f, f), dtype=np.int64)
