"""Dataset parameter set: parsing, validation, and derived quantities.

Keys in the parameter file (and the equivalent CLI flags) use the same
names as the generator's documented interface: ``active_BS``,
``active_user_first``, ``active_user_last``, ``num_ant_x``, ``num_ant_y``,
``num_ant_z``, ``ant_spacing``, ``bandwidth`` (GHz), ``num_OFDM``,
``OFDM_sampling_factor``, ``OFDM_limit``, ``num_paths``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .kvconfig import ConfigError, KVEntry, as_float, as_int, as_int_list, parse_kv


class ParamError(ConfigError):
    """Invalid dataset parameters."""


@dataclass(frozen=True)
class ParamSet:
    active_bs: tuple[int, ...] = (3, 4, 5, 6)
    active_user_first: int = 1000
    active_user_last: int = 1300
    num_ant_x: int = 1
    num_ant_y: int = 32
    num_ant_z: int = 8
    ant_spacing: float = 0.5     # in wavelengths
    bandwidth: float = 0.5       # GHz
    num_ofdm: int = 1024
    ofdm_sampling_factor: int = 1
    ofdm_limit: int = 64
    num_paths: int = 5

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
        if self.ant_spacing <= 0:
            raise ParamError(f"ant_spacing: must be > 0, got {self.ant_spacing}")
        if self.bandwidth <= 0:
            raise ParamError(f"bandwidth: must be > 0, got {self.bandwidth}")
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


_KEY_MAP = {
    "active_BS": ("active_bs", "int_list"),
    "active_user_first": ("active_user_first", "int"),
    "active_user_last": ("active_user_last", "int"),
    "num_ant_x": ("num_ant_x", "int"),
    "num_ant_y": ("num_ant_y", "int"),
    "num_ant_z": ("num_ant_z", "int"),
    "ant_spacing": ("ant_spacing", "float"),
    "bandwidth": ("bandwidth", "float"),
    "num_OFDM": ("num_ofdm", "int"),
    "OFDM_sampling_factor": ("ofdm_sampling_factor", "int"),
    "OFDM_limit": ("ofdm_limit", "int"),
    "num_paths": ("num_paths", "int"),
}


def params_from_entries(entries: Mapping[str, KVEntry], base: ParamSet | None = None) -> ParamSet:
    """Apply parsed key=value entries to ``base``. Unspecified keys keep defaults."""
    overrides = {}
    for key, entry in entries.items():
        if key not in _KEY_MAP:
            raise ParamError(f"{entry.where}: unknown parameter {key!r}")
        attr, kind = _KEY_MAP[key]
        if kind == "int":
            overrides[attr] = as_int(entry)
        elif kind == "float":
            overrides[attr] = as_float(entry)
        else:
            overrides[attr] = tuple(as_int_list(entry))
    return replace(base or ParamSet(), **overrides)


def parse_params(text: str, base: ParamSet | None = None) -> ParamSet:
    """Parse a key=value parameter document. Unspecified keys keep defaults."""
    return params_from_entries(parse_kv(text), base)


def serialize_params(p: ParamSet) -> str:
    """Canonical key=value rendering; parse_params round-trips it."""
    lines = [
        "active_BS=" + ",".join(str(b) for b in p.active_bs),
        f"active_user_first={p.active_user_first}",
        f"active_user_last={p.active_user_last}",
        f"num_ant_x={p.num_ant_x}",
        f"num_ant_y={p.num_ant_y}",
        f"num_ant_z={p.num_ant_z}",
        f"ant_spacing={p.ant_spacing!r}",
        f"bandwidth={p.bandwidth!r}",
        f"num_OFDM={p.num_ofdm}",
        f"OFDM_sampling_factor={p.ofdm_sampling_factor}",
        f"OFDM_limit={p.ofdm_limit}",
        f"num_paths={p.num_paths}",
    ]
    return "\n".join(lines) + "\n"


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
