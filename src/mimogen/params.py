"""Dataset parameter set: parsing, validation, and derived quantities.

Each ``ParamSet`` field declares its key in the parameter file (and the
equivalent ``build`` flag) and its kind; ``KEYS`` maps the keys, in field
order, to the fields, and the reader, the writer and the CLI flags all come
from it. The keys are the generator's documented names (``bandwidth`` in GHz).
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, field, fields, replace
from typing import Any, Mapping

import numpy as np

from .kvconfig import ConfigError, KVEntry, as_float, as_int, as_int_list, parse_kv


class ParamError(ConfigError):
    """Invalid dataset parameters."""


def _param(key: str, kind: str, default: Any) -> Any:
    """A ``ParamSet`` field read from and written to the file key ``key`` as
    a value of ``kind`` (a key of ``_READ`` and ``_WRITE``)."""
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
        if not self.active_bs:
            raise ParamError("active_BS: at least one base station required")
        if len(set(self.active_bs)) != len(self.active_bs):
            raise ParamError("active_BS: duplicate ids")
        if self.active_user_first > self.active_user_last:
            raise ParamError(
                f"active_user_first ({self.active_user_first}) must be <= "
                f"active_user_last ({self.active_user_last})"
            )
        for name in ("num_ant_x", "num_ant_y", "num_ant_z"):
            if getattr(self, name) < 1:
                raise ParamError(f"{name}: must be >= 1, got {getattr(self, name)}")
        for key, value in (("ant_spacing", self.ant_spacing), ("bandwidth", self.bandwidth)):
            if not value > 0:
                raise ParamError(f"{key}: must be > 0, got {value}")
            if not math.isfinite(value):
                raise ParamError(f"{key}: must be finite, got {value}")
        if self.num_ofdm < 1:
            raise ParamError(f"num_OFDM: must be >= 1, got {self.num_ofdm}")
        if self.ofdm_sampling_factor < 1:
            raise ParamError(
                f"OFDM_sampling_factor: must be >= 1, got {self.ofdm_sampling_factor}"
            )
        if self.ofdm_limit < 1:
            raise ParamError(f"OFDM_limit: must be >= 1, got {self.ofdm_limit}")
        if not 1 <= self.num_paths <= 25:
            raise ParamError(f"num_paths: must be in 1..25, got {self.num_paths}")

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


def params_from_entries(entries: Mapping[str, KVEntry], base: ParamSet | None = None) -> ParamSet:
    """Apply parsed key=value entries to ``base``. Unspecified keys keep defaults."""
    overrides = {}
    for key, entry in entries.items():
        if key not in KEYS:
            raise ParamError(f"{entry.where}: unknown parameter {key!r}")
        f = KEYS[key]
        overrides[f.name] = _READ[f.metadata["kind"]](entry)
    return replace(base or ParamSet(), **overrides)


def parse_params(text: str, base: ParamSet | None = None) -> ParamSet:
    """Parse a key=value parameter document. Unspecified keys keep defaults."""
    return params_from_entries(parse_kv(text), base)


def serialize_params(p: ParamSet) -> str:
    """Canonical key=value rendering, one line per key of ``KEYS``;
    parse_params round-trips it."""
    return "".join(f"{key}={_WRITE[f.metadata['kind']](getattr(p, f.name))}\n"
                   for key, f in KEYS.items())


def subcarrier_set(p: ParamSet) -> np.ndarray:
    """The 1-based subcarrier indices {1, 1+f, 1+2f, ...}, `OFDM_limit` of them."""
    last = 1 + (p.ofdm_limit - 1) * p.ofdm_sampling_factor
    if last > p.num_ofdm:
        raise ParamError(
            f"subcarrier set exceeds num_OFDM: 1 + (OFDM_limit-1)*OFDM_sampling_factor = "
            f"{last} > num_OFDM = {p.num_ofdm} "
            f"(OFDM_limit={p.ofdm_limit}, OFDM_sampling_factor={p.ofdm_sampling_factor}, "
            f"num_OFDM={p.num_ofdm})"
        )
    return np.arange(1, last + 1, p.ofdm_sampling_factor, dtype=np.int64)
