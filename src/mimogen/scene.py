"""Street-canyon scenario geometry: buildings, base stations, and user grids.

The default scene is a two-street outdoor layout: a 600 m x 40 m main street
along the x axis, a 440 m x 40 m cross street along the y axis, 18 base
stations and three uniform user grids totalling 1,184,923 users. All key
numbers can be overridden through a flat key=value config.

Coordinate frame: x along the main street, y along the cross street, z up.
The main street occupies y in [0, 40]; the cross street occupies
x in [300, 340], running from y = -240 to y = +200.

A ``Scene`` compares by value, so any that constructs equals its JSON round trip.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

from .kvconfig import ConfigError, KVEntry, as_float

if TYPE_CHECKING:
    import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

BUILDING_MATERIAL = "building_wall"
GROUND_MATERIAL = "ground"

#: Default loss per specular bounce when a material has no explicit entry.
DEFAULT_REFLECTION_LOSS_DB = 6.0

#: The longest scene name, in UTF-8 bytes, that a ray-file header carries.
NAME_BYTES = 32
_POSITION_USERS = 2**16      # users ``user_positions`` locates at a time: bounds its temporaries


class SceneConfigError(ConfigError):
    """Invalid scene configuration; the message names the offending field."""


class RowRangeError(ConfigError, IndexError):
    """A row range that is not within the scene's rows: a usage error, and an
    ``IndexError`` like any other index out of range."""


def _key(key: str, kind: str | type, optional: bool = False, **field_kw: Any) -> Any:
    """A field kept under the scene-file key ``key`` as a value of ``kind``: a
    key of ``_KINDS``, or a class for a tuple of its objects (a list of
    objects in the file). Only an ``optional`` key may be missing from a file."""
    return field(metadata={"key": key, "kind": kind, "optional": optional}, **field_kw)


class _KindError(SceneConfigError):
    """A field's value of another kind than its ``_key`` declares."""


def _check_kinds(obj: Any) -> None:
    """Refuse the first field of the dataclass ``obj`` whose value is not of
    its ``_key``'s kind, shown as JSON (``true``, not ``True``)."""
    for f in fields(obj):
        kind, value = f.metadata["kind"], getattr(obj, f.name)
        if isinstance(kind, str):
            expected, ok = kind, _KINDS[kind](value)
        else:
            expected = "a list of objects"
            ok = type(value) is tuple and all(type(v) is kind for v in value)
        if not ok:
            try:
                shown = json.dumps(value)
            except (TypeError, ValueError):     # no JSON text: a tuple key, say
                shown = repr(value)
            raise _KindError(f"{f.metadata['key']}: expected {expected}, got {shown}")


def _require_finite(name: str, value: float | tuple[float, ...]) -> None:
    """Refuse a NaN or infinity in ``value``, one number or a tuple."""
    if not all(math.isfinite(v) for v in (value if isinstance(value, tuple) else (value,))):
        raise SceneConfigError(f"{name}: must be finite, got {value}")


@dataclass(frozen=True)
class Building:
    """Axis-aligned solid box."""

    min_corner: tuple[float, float, float] = _key("min", "3 numbers")
    max_corner: tuple[float, float, float] = _key("max", "3 numbers")
    material_id: str = _key("material", "a string", default=BUILDING_MATERIAL)

    def __post_init__(self) -> None:
        _check_kinds(self)
        _require_finite("building corners", self.min_corner + self.max_corner)
        for a in range(3):
            if not self.min_corner[a] < self.max_corner[a]:
                raise SceneConfigError(f"building corner axis {a}: min {self.min_corner[a]} "
                                       f"must be < max {self.max_corner[a]}")

    def contains(self, p: Sequence[float]) -> bool:
        return all(self.min_corner[a] < p[a] < self.max_corner[a] for a in range(3))


@dataclass(frozen=True)
class BaseStation:
    id: int = _key("id", "an integer")
    position: tuple[float, float, float] = _key("position", "3 numbers")
    antenna_axis: tuple[float, float, float] = _key("antenna_axis", "3 numbers",
                                                    default=(0.0, 0.0, 1.0))

    def __post_init__(self) -> None:
        _check_kinds(self)
        _require_finite(f"bs.{self.id} position", self.position)
        _require_finite(f"bs.{self.id} antenna_axis", self.antenna_axis)
        if self.position[2] <= 0:
            raise SceneConfigError(f"bs.{self.id}.z: height must be > 0")


@dataclass(frozen=True)
class UserGrid:
    """Uniform rectangular grid of user positions.

    Row ``r`` (1-based within the grid), column ``c`` sits at
    ``origin + (r-1)*spacing*row_axis + (c-1)*spacing*col_axis``.
    """

    origin: tuple[float, float, float] = _key("origin", "3 numbers")
    row_axis: tuple[float, float, float] = _key("row_axis", "3 numbers")
    col_axis: tuple[float, float, float] = _key("col_axis", "3 numbers")
    n_rows: int = _key("n_rows", "an integer")
    users_per_row: int = _key("users_per_row", "an integer")
    spacing: float = _key("spacing", "a number")
    first_row_label: int = _key("first_row_label", "an integer")

    def __post_init__(self) -> None:
        _check_kinds(self)
        for key, count in (("n_rows", self.n_rows), ("users_per_row", self.users_per_row)):
            if count < 1:
                raise SceneConfigError(f"grid {key}: must be >= 1, got {count}")
        if not self.spacing > 0:
            raise SceneConfigError(f"grid spacing_m: must be > 0, got {self.spacing}")
        _require_finite("grid spacing_m", self.spacing)
        for key in ("origin", "row_axis", "col_axis"):
            _require_finite(f"grid {key}", getattr(self, key))
        dot = sum(a * b for a, b in zip(self.row_axis, self.col_axis))
        if abs(dot) > 1e-9:
            raise SceneConfigError("grid axes: row_axis and col_axis must be perpendicular")

    @property
    def user_count(self) -> int:
        return self.n_rows * self.users_per_row

    @property
    def last_row_label(self) -> int:
        return self.first_row_label + self.n_rows - 1


@dataclass(frozen=True)
class Scene:
    buildings: tuple[Building, ...] = _key("buildings", Building)
    base_stations: tuple[BaseStation, ...] = _key("base_stations", BaseStation)
    grids: tuple[UserGrid, ...] = _key("grids", UserGrid)
    carrier_freq: float = _key("carrier_freq", "a number")
    ground_z: float = _key("ground_z", "a number", default=0.0)
    material_losses: Mapping[str, float] = _key("material_losses", "an object of numbers",
                                                default_factory=dict)
    name: str = _key("name", "a string", optional=True, default="custom")

    def __post_init__(self) -> None:
        _check_kinds(self)
        # Every artifact carries the name: a ray-file header in NAME_BYTES of
        # UTF-8, a shard's echo block on one line.
        raw = self.name.encode("utf-8", "replace")     # a lone surrogate becomes "?"
        if (len(raw) > NAME_BYTES or raw.decode() != self.name or "\0" in self.name
                or "".join(self.name.splitlines()) != self.name):
            raise SceneConfigError(f"name: must be one line of at most {NAME_BYTES} bytes "
                                   f"of UTF-8 without NUL, got {self.name!r}")
        _require_finite("carrier_freq_hz", self.carrier_freq)
        if self.carrier_freq <= 0:
            raise SceneConfigError(f"carrier_freq_hz: must be > 0, got {self.carrier_freq}")
        _require_finite("ground_z_m", self.ground_z)
        for material, loss in self.material_losses.items():
            _require_finite(f"material {material!r} loss_db", loss)
        ids = [bs.id for bs in self.base_stations]
        if sorted(ids) != list(range(1, len(ids) + 1)):
            raise SceneConfigError("base station ids must be unique and contiguous from 1")
        for bs in self.base_stations:
            if any(b.contains(bs.position) for b in self.buildings):
                raise SceneConfigError(f"bs.{bs.id}: position {bs.position} lies inside "
                                       "a building")
        if self.total_users > 2**63 - 1:       # the int64 user indices of users_in_row_range
            raise SceneConfigError(f"grids: {self.total_users} users in all, more than a "
                                   f"user index holds ({2**63 - 1})")
        # Rows are numbered 1..total_rows, grid after grid.
        labels = itertools.accumulate((g.n_rows for g in self.grids), initial=1)
        for i, (g, label) in enumerate(zip(self.grids, labels), start=1):
            if g.first_row_label != label:
                raise SceneConfigError(f"grid {i}: first_row_label {g.first_row_label} "
                                       f"breaks contiguous row labelling (expected {label})")

    @property
    def total_users(self) -> int:
        return sum(g.user_count for g in self.grids)

    @property
    def total_rows(self) -> int:
        return sum(g.n_rows for g in self.grids)

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
                                 for a, v in zip("xyz", bs.position)))
        for bs in _default_base_stations(bs_z)
    ]

    if cfg:
        raise SceneConfigError(f"unknown scene config key {min(cfg)!r}")

    return Scene(buildings=tuple(_default_buildings(bld_h)), base_stations=tuple(stations),
                 grids=tuple(grids), carrier_freq=carrier, ground_z=ground_z,
                 material_losses=losses, name="o1")


# ---------------------------------------------------------------------------
# User enumeration
# ---------------------------------------------------------------------------

def grid_start_indices(scene: Scene) -> list[int]:
    """Global index of the first user of each grid (1-based)."""
    return list(itertools.accumulate([g.user_count for g in scene.grids], initial=1))[:-1]


def enumerate_users(scene: Scene) -> Iterator[UserRecord]:
    """Yield every user in deterministic order: grids, then rows, then columns."""
    import numpy as np      # here and below: `scene` and `validate <scene>` run without it

    idx = 1
    for g in scene.grids:
        o, ra, ca = map(np.asarray, (g.origin, g.row_axis, g.col_axis))
        for r in range(g.n_rows):
            base = o + r * g.spacing * ra
            for c in range(g.users_per_row):
                p = base + c * g.spacing * ca
                yield UserRecord(idx, g.first_row_label + r, c + 1, tuple(p))
                idx += 1


def users_in_row_range(scene: Scene, first_row: int, last_row: int) -> np.ndarray:
    """Global indices of all users whose row label is in [first_row, last_row]:
    one run, as ``Scene`` numbers the rows 1..total_rows, grid after grid."""
    import numpy as np

    lo, hi = 1, scene.total_rows
    if not (lo <= first_row <= last_row <= hi):
        raise RowRangeError(
            f"row range R{first_row}..R{last_row} invalid: rows must satisfy "
            f"R{lo} <= first <= last <= R{hi}"
        )

    def before(row: int) -> int:
        """The users in the rows before ``row``."""
        return sum(min(max(row - g.first_row_label, 0), g.n_rows) * g.users_per_row
                   for g in scene.grids)

    return np.arange(1 + before(first_row), 1 + before(last_row + 1), dtype=np.int64)


def user_positions(scene: Scene, indices: np.ndarray) -> np.ndarray:
    """Positions (N, 3) for the given global user indices; vectorized."""
    import numpy as np

    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 1 or indices.max() > scene.total_users):
        raise IndexError(f"user index out of range: valid range is 1..{scene.total_users}")
    out = np.empty((indices.size, 3), dtype=float)
    for lo in range(0, indices.size, _POSITION_USERS):
        chunk, at = indices[lo: lo + _POSITION_USERS], out[lo: lo + _POSITION_USERS]
        for g, start in zip(scene.grids, grid_start_indices(scene)):
            sel = (chunk >= start) & (chunk < start + g.user_count)
            if not sel.any():
                continue
            local = chunk[sel] - start
            row = local // g.users_per_row
            col = local % g.users_per_row
            o, ra, ca = map(np.asarray, (g.origin, g.row_axis, g.col_axis))
            at[sel] = o + row[:, None] * g.spacing * ra + col[:, None] * g.spacing * ca
    return out


# ---------------------------------------------------------------------------
# Scene (de)serialization
# ---------------------------------------------------------------------------

SCENE_FORMAT = "mimogen-scene"
SCENE_VERSION = 1


def _is_number(v: Any) -> bool:
    """A JSON number that a float holds; ``bool`` is none."""
    return type(v) is float or type(v) is int and abs(v) <= sys.float_info.max


#: The test of a field's value of each kind that ``_key`` names with a string.
_KINDS = {
    "3 numbers": lambda v: type(v) is tuple and len(v) == 3 and all(map(_is_number, v)),
    "a number": _is_number,
    "an integer": lambda v: type(v) is int,
    "a string": lambda v: type(v) is str,
    "an object of numbers": lambda v: type(v) is dict and all(type(k) is str for k in v)
    and all(map(_is_number, v.values())),
}


def _to_doc(obj: Any) -> dict:
    """The scene-file object of the dataclass ``obj``: each field's value
    under its key, a list of objects as a list of their ``_to_doc``."""
    return {f.metadata["key"]: [_to_doc(v) for v in getattr(obj, f.name)]
            if isinstance(f.metadata["kind"], type) else getattr(obj, f.name)
            for f in fields(obj)}


def _from_doc(cls: type, doc: Any, where: str = "") -> Any:
    """The ``cls`` that the scene-file object ``doc`` at JSON path ``where``
    holds, its lists as tuples; ``cls`` checks each value, and a value of
    another kind is named by its JSON path."""
    if type(doc) is not dict:
        raise SceneConfigError(f"{where}: expected an object, got {json.dumps(doc)}")
    values = {}
    for f in fields(cls):
        key, kind = f.metadata["key"], f.metadata["kind"]
        path = f"{where}.{key}" if where else key
        if key not in doc:
            if not f.metadata["optional"]:
                raise SceneConfigError(f"{path}: missing")
            continue
        value = doc[key]
        if isinstance(kind, type) and type(value) is list:
            value = [_from_doc(kind, item, f"{path}[{i}]") for i, item in enumerate(value)]
        values[f.name] = tuple(value) if type(value) is list else value
    try:
        return cls(**values)
    except _KindError as exc:
        raise SceneConfigError(f"{where}.{exc}" if where else str(exc)) from None


def scene_to_json(scene: Scene) -> str:
    doc = {"format": SCENE_FORMAT, "version": SCENE_VERSION, **_to_doc(scene)}
    return json.dumps(doc, indent=1, sort_keys=True)


def scene_from_json(text: str) -> Scene:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:     # ValueError: an integer of 4,300+ digits
        raise SceneConfigError(f"not a scene file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != SCENE_FORMAT:
        raise SceneConfigError("not a scene file: missing format marker")
    if type(doc.get("version")) is not int or doc["version"] != SCENE_VERSION:  # not true, 1.0
        raise SceneConfigError(f"unsupported scene file version {doc.get('version')!r}")
    return _from_doc(Scene, doc)
