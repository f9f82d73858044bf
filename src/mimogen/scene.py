"""Street-canyon scenario geometry: buildings, base stations, and user grids.

The default scene is a two-street outdoor layout: a 600 m x 40 m main street
along the x axis, a 440 m x 40 m cross street along the y axis, 18 base
stations and three uniform user grids totalling 1,184,923 users. All key
numbers can be overridden through a flat key=value config.

Coordinate frame: x along the main street, y along the cross street, z up.
The main street occupies y in [0, 40]; the cross street occupies
x in [300, 340], running from y = -240 to y = +200.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .kvconfig import ConfigError, KVEntry, as_float

SPEED_OF_LIGHT = 299_792_458.0

BUILDING_MATERIAL = "building_wall"
GROUND_MATERIAL = "ground"

#: Default loss per specular bounce when a material has no explicit entry.
DEFAULT_REFLECTION_LOSS_DB = 6.0


class SceneConfigError(ConfigError):
    """Invalid scene configuration; the message names the offending field."""


@dataclass(frozen=True)
class Building:
    """Axis-aligned solid box."""

    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]
    material_id: str = BUILDING_MATERIAL

    def __post_init__(self) -> None:
        for a in range(3):
            if not self.min_corner[a] < self.max_corner[a]:
                raise SceneConfigError(
                    f"building corner axis {a}: min {self.min_corner[a]} must be "
                    f"< max {self.max_corner[a]}"
                )

    def contains(self, p: Sequence[float], margin: float = 0.0) -> bool:
        return all(
            self.min_corner[a] + margin < p[a] < self.max_corner[a] - margin for a in range(3)
        )


@dataclass(frozen=True)
class BaseStation:
    id: int
    position: tuple[float, float, float]
    antenna_axis: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self) -> None:
        if self.position[2] <= 0:
            raise SceneConfigError(f"bs.{self.id}.z: height must be > 0")


@dataclass(frozen=True)
class UserGrid:
    """Uniform rectangular grid of user positions.

    Row ``r`` (1-based within the grid), column ``c`` sits at
    ``origin + (r-1)*spacing*row_axis + (c-1)*spacing*col_axis``.
    """

    origin: tuple[float, float, float]
    row_axis: tuple[float, float, float]
    col_axis: tuple[float, float, float]
    n_rows: int
    users_per_row: int
    spacing: float
    first_row_label: int

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise SceneConfigError(f"grid n_rows: must be >= 1, got {self.n_rows}")
        if self.users_per_row < 1:
            raise SceneConfigError(f"grid users_per_row: must be >= 1, got {self.users_per_row}")
        if not self.spacing > 0:
            raise SceneConfigError(f"grid spacing_m: must be > 0, got {self.spacing}")
        dot = sum(a * b for a, b in zip(self.row_axis, self.col_axis))
        if abs(dot) > 1e-9:
            raise SceneConfigError("grid axes: row_axis and col_axis must be perpendicular")

    @property
    def user_count(self) -> int:
        return self.n_rows * self.users_per_row

    @property
    def last_row_label(self) -> int:
        return self.first_row_label + self.n_rows - 1


# eq=False: identity-based hashing so per-scene tracer geometry can be cached.
@dataclass(frozen=True, eq=False)
class Scene:
    buildings: tuple[Building, ...]
    base_stations: tuple[BaseStation, ...]
    grids: tuple[UserGrid, ...]
    carrier_freq: float
    ground_z: float = 0.0
    material_losses: Mapping[str, float] = field(default_factory=dict)
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.carrier_freq <= 0:
            raise SceneConfigError(f"carrier_freq_hz: must be > 0, got {self.carrier_freq}")
        ids = [bs.id for bs in self.base_stations]
        if sorted(ids) != list(range(1, len(ids) + 1)):
            raise SceneConfigError("base station ids must be unique and contiguous from 1")
        for bs in self.base_stations:
            for b in self.buildings:
                if b.contains(bs.position):
                    raise SceneConfigError(
                        f"bs.{bs.id}: position {bs.position} lies inside a building"
                    )
        label = None
        for i, g in enumerate(self.grids):
            if label is not None and g.first_row_label != label + 1:
                raise SceneConfigError(
                    f"grid {i + 1}: first_row_label {g.first_row_label} breaks contiguous "
                    f"row labelling (expected {label + 1})"
                )
            label = g.last_row_label

    @property
    def total_users(self) -> int:
        return sum(g.user_count for g in self.grids)

    @property
    def total_rows(self) -> int:
        return sum(g.n_rows for g in self.grids)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    def bs_by_id(self, bs_id: int) -> BaseStation:
        for bs in self.base_stations:
            if bs.id == bs_id:
                return bs
        raise KeyError(f"unknown base station id {bs_id} (valid: 1..{len(self.base_stations)})")

    def reflection_loss_db(self, material_id: str) -> float:
        return float(self.material_losses.get(material_id, DEFAULT_REFLECTION_LOSS_DB))


@dataclass(frozen=True)
class UserRecord:
    global_index: int
    row_label: int
    col_index: int
    position: tuple[float, float, float]


# ---------------------------------------------------------------------------
# Default ("O1"-like) scene construction
# ---------------------------------------------------------------------------

_MAIN_STREET_LEN = 600.0
_STREET_WIDTH = 40.0
_CROSS_X0 = 300.0            # cross-street corridor: x in [300, 340]
_CROSS_Y_MIN = -240.0        # southern end of the cross street
_CROSS_Y_MAX = 200.0         # northern end (total length 440 m)
_BLOCK_MAIN = 30.0           # main-street building base: 30 m along x, 60 m deep
_BLOCK_DEPTH = 60.0
_BLOCK_CROSS = 60.0          # cross-street building base: 60 m x 60 m


def _default_buildings(height: float) -> list[Building]:
    bld: list[Building] = []
    corridor = (_CROSS_X0, _CROSS_X0 + _STREET_WIDTH)

    def main_blocks(y0: float, y1: float) -> None:
        x = 0.0
        while x + _BLOCK_MAIN <= _MAIN_STREET_LEN + 1e-9:
            x1 = x + _BLOCK_MAIN
            if not (x1 <= corridor[0] + 1e-9 or x >= corridor[1] - 1e-9):
                x = corridor[1]  # skip the cross-street corridor, resume at its far edge
                continue
            bld.append(Building((x, y0, 0.0), (x1, y1, height)))
            x = x1

    main_blocks(-_BLOCK_DEPTH, 0.0)                       # south side of main street
    main_blocks(_STREET_WIDTH, _STREET_WIDTH + _BLOCK_DEPTH)  # north side

    def cross_blocks(x0: float, x1: float) -> None:
        # South of the main street: stop where the main-street building row takes over.
        y = _CROSS_Y_MIN
        while y + _BLOCK_CROSS <= -_BLOCK_DEPTH + 1e-9:
            bld.append(Building((x0, y, 0.0), (x1, y + _BLOCK_CROSS, height)))
            y += _BLOCK_CROSS
        # North of the main street, above the main-street building row.
        y = _STREET_WIDTH + _BLOCK_DEPTH
        while y + _BLOCK_CROSS <= _CROSS_Y_MAX + 1e-9:
            bld.append(Building((x0, y, 0.0), (x1, y + _BLOCK_CROSS, height)))
            y += _BLOCK_CROSS

    cross_blocks(_CROSS_X0 - _BLOCK_CROSS, _CROSS_X0)     # west side of cross street
    cross_blocks(_CROSS_X0 + _STREET_WIDTH, _CROSS_X0 + _STREET_WIDTH + _BLOCK_CROSS)
    return bld


def _default_base_stations(height: float) -> list[BaseStation]:
    # Main street: 12 BSs, 6 per side, 100 m separation within each triple.
    # Cross street: 6 BSs, 3 per side, 150 m separation.
    south_y, north_y = 0.5, _STREET_WIDTH - 0.5
    west_x, east_x = _CROSS_X0 + 0.5, _CROSS_X0 + _STREET_WIDTH - 0.5
    coords = {
        1: (100.0, south_y), 3: (200.0, south_y), 5: (300.0, south_y),
        2: (100.0, north_y), 4: (200.0, north_y), 6: (300.0, north_y),
        7: (350.0, south_y), 9: (450.0, south_y), 11: (550.0, south_y),
        8: (350.0, north_y), 10: (450.0, north_y), 12: (550.0, north_y),
        13: (west_x, -180.0), 15: (west_x, -30.0), 17: (west_x, 120.0),
        14: (east_x, -180.0), 16: (east_x, -30.0), 18: (east_x, 120.0),
    }
    return [
        BaseStation(i, (coords[i][0], coords[i][1], height)) for i in sorted(coords)
    ]


def _default_grids(user_z: float) -> list[UserGrid]:
    # Grid 1: along the main street, 550 m long, starting 15 m in from the
    # street start, 36 m wide centered in the 40 m street.
    g1 = UserGrid(
        origin=(15.0, 2.0, user_z), row_axis=(1.0, 0.0, 0.0), col_axis=(0.0, 1.0, 0.0),
        n_rows=2751, users_per_row=181, spacing=0.2, first_row_label=1,
    )
    # Grid 2: southern segment of the cross street, rows advancing north.
    g2 = UserGrid(
        origin=(_CROSS_X0 + 2.0, -230.0, user_z),
        row_axis=(0.0, 1.0, 0.0), col_axis=(1.0, 0.0, 0.0),
        n_rows=1101, users_per_row=181, spacing=0.2, first_row_label=2752,
    )
    # Grid 3: northern segment of the cross street, denser 0.1 m spacing.
    g3 = UserGrid(
        origin=(_CROSS_X0 + 2.0, 52.5, user_z),
        row_axis=(0.0, 1.0, 0.0), col_axis=(1.0, 0.0, 0.0),
        n_rows=1351, users_per_row=361, spacing=0.1, first_row_label=3853,
    )
    return [g1, g2, g3]


def build_o1_scene(cfg: Mapping[str, KVEntry] | None = None) -> Scene:
    """Build the default two-street scene, applying any config overrides.

    Unrecognized keys, non-numeric values, and out-of-range values raise
    :class:`SceneConfigError` naming the field.
    """
    cfg = dict(cfg or {})

    def pop_float(key: str, default: float) -> float:
        e = cfg.pop(key, None)
        return default if e is None else as_float(e)

    carrier = pop_float("carrier_freq_hz", 60e9)
    ground_z = pop_float("ground_z_m", 0.0)
    user_z = pop_float("user_height_m", 2.0)
    bs_z = pop_float("bs_height_m", 6.0)
    bld_h = pop_float("building_height_m", 15.0)
    losses = {
        BUILDING_MATERIAL: pop_float("material.building.loss_db", DEFAULT_REFLECTION_LOSS_DB),
        GROUND_MATERIAL: pop_float("material.ground.loss_db", DEFAULT_REFLECTION_LOSS_DB),
    }
    if not bld_h > 0:
        raise SceneConfigError(f"building_height_m: must be > 0, got {bld_h}")

    grids: list[UserGrid] = []
    for i, g in enumerate(_default_grids(user_z), start=1):
        # Every key of the grid is read before any value is checked.
        n_rows = pop_float(f"grid{i}.n_rows", g.n_rows)
        upr = pop_float(f"grid{i}.users_per_row", g.users_per_row)
        spacing = pop_float(f"grid{i}.spacing_m", g.spacing)
        origin = tuple(pop_float(f"grid{i}.origin_{a}", v) for a, v in zip("xyz", g.origin))
        for key, count in ((f"grid{i}.n_rows", n_rows), (f"grid{i}.users_per_row", upr)):
            if not (math.isfinite(count) and count == int(count)):
                raise SceneConfigError(f"{key}: must be a whole number, got {count}")
            if count < 1:
                raise SceneConfigError(f"{key}: must be >= 1, got {int(count)}")
        if not spacing > 0:
            raise SceneConfigError(f"grid{i}.spacing_m: must be > 0, got {spacing}")
        n_rows, upr = int(n_rows), int(upr)
        label = grids[-1].last_row_label + 1 if grids else 1
        grids.append(UserGrid(origin, g.row_axis, g.col_axis, n_rows, upr, spacing, label))

    stations = [
        BaseStation(bs.id, tuple(pop_float(f"bs.{bs.id}.{a}", v)
                                 for a, v in zip("xyz", bs.position)), bs.antenna_axis)
        for bs in _default_base_stations(bs_z)
    ]

    if cfg:
        unknown = sorted(cfg)[0]
        raise SceneConfigError(f"unknown scene config key {unknown!r}")

    return Scene(
        buildings=tuple(_default_buildings(bld_h)),
        base_stations=tuple(stations),
        grids=tuple(grids),
        carrier_freq=carrier,
        ground_z=ground_z,
        material_losses=losses,
        name="o1",
    )


# ---------------------------------------------------------------------------
# User enumeration
# ---------------------------------------------------------------------------

def grid_start_indices(scene: Scene) -> list[int]:
    """Global index of the first user of each grid (1-based)."""
    starts = []
    acc = 1
    for g in scene.grids:
        starts.append(acc)
        acc += g.user_count
    return starts


def enumerate_users(scene: Scene) -> Iterator[UserRecord]:
    """Yield every user in deterministic order: grids, then rows, then columns."""
    idx = 1
    for g in scene.grids:
        o = np.asarray(g.origin)
        ra = np.asarray(g.row_axis)
        ca = np.asarray(g.col_axis)
        for r in range(g.n_rows):
            base = o + r * g.spacing * ra
            for c in range(g.users_per_row):
                p = base + c * g.spacing * ca
                yield UserRecord(idx, g.first_row_label + r, c + 1, tuple(p))
                idx += 1


def users_in_row_range(scene: Scene, first_row: int, last_row: int) -> np.ndarray:
    """Global indices of all users whose row label is in [first_row, last_row]."""
    lo, hi = 1, scene.total_rows
    if not (lo <= first_row <= last_row <= hi):
        raise IndexError(
            f"row range R{first_row}..R{last_row} invalid: rows must satisfy "
            f"R{lo} <= first <= last <= R{hi}"
        )
    chunks = []
    for g, start in zip(scene.grids, grid_start_indices(scene)):
        r0 = max(first_row, g.first_row_label)
        r1 = min(last_row, g.last_row_label)
        if r0 > r1:
            continue
        i0 = start + (r0 - g.first_row_label) * g.users_per_row
        i1 = start + (r1 - g.first_row_label + 1) * g.users_per_row
        chunks.append(np.arange(i0, i1, dtype=np.int64))
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def user_positions(scene: Scene, indices: np.ndarray) -> np.ndarray:
    """Positions (N, 3) for the given global user indices; vectorized."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 1 or indices.max() > scene.total_users):
        raise IndexError(
            f"user index out of range: valid range is 1..{scene.total_users}"
        )
    out = np.empty((indices.size, 3), dtype=float)
    for g, start in zip(scene.grids, grid_start_indices(scene)):
        sel = (indices >= start) & (indices < start + g.user_count)
        if not sel.any():
            continue
        local = indices[sel] - start
        row = local // g.users_per_row
        col = local % g.users_per_row
        o = np.asarray(g.origin)
        ra = np.asarray(g.row_axis)
        ca = np.asarray(g.col_axis)
        out[sel] = o + row[:, None] * g.spacing * ra + col[:, None] * g.spacing * ca
    return out


# ---------------------------------------------------------------------------
# Scene (de)serialization
# ---------------------------------------------------------------------------

SCENE_FORMAT = "mimogen-scene"
SCENE_VERSION = 1


def scene_to_json(scene: Scene) -> str:
    doc = {
        "format": SCENE_FORMAT,
        "version": SCENE_VERSION,
        "name": scene.name,
        "carrier_freq": scene.carrier_freq,
        "ground_z": scene.ground_z,
        "material_losses": dict(scene.material_losses),
        "buildings": [
            {"min": list(b.min_corner), "max": list(b.max_corner), "material": b.material_id}
            for b in scene.buildings
        ],
        "base_stations": [
            {"id": bs.id, "position": list(bs.position), "antenna_axis": list(bs.antenna_axis)}
            for bs in scene.base_stations
        ],
        "grids": [
            {
                "origin": list(g.origin), "row_axis": list(g.row_axis),
                "col_axis": list(g.col_axis), "n_rows": g.n_rows,
                "users_per_row": g.users_per_row, "spacing": g.spacing,
                "first_row_label": g.first_row_label,
            }
            for g in scene.grids
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def scene_from_json(text: str) -> Scene:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneConfigError(f"not a scene file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != SCENE_FORMAT:
        raise SceneConfigError("not a scene file: missing format marker")
    if doc.get("version") != SCENE_VERSION:
        raise SceneConfigError(f"unsupported scene file version {doc.get('version')!r}")
    try:
        return Scene(
            buildings=tuple(
                Building(tuple(b["min"]), tuple(b["max"]), b["material"])
                for b in doc["buildings"]
            ),
            base_stations=tuple(
                BaseStation(bs["id"], tuple(bs["position"]), tuple(bs["antenna_axis"]))
                for bs in doc["base_stations"]
            ),
            grids=tuple(
                UserGrid(
                    tuple(g["origin"]), tuple(g["row_axis"]), tuple(g["col_axis"]),
                    g["n_rows"], g["users_per_row"], g["spacing"], g["first_row_label"],
                )
                for g in doc["grids"]
            ),
            carrier_freq=doc["carrier_freq"],
            ground_z=doc["ground_z"],
            material_losses=doc["material_losses"],
            name=doc.get("name", "custom"),
        )
    except (KeyError, TypeError) as exc:
        raise SceneConfigError(f"malformed scene file: {exc!r}") from None
