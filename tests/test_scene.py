import io
import json
import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimogen.dataset import content_hash, parse_shard, record_dtype, shard_bytes
from mimogen.kvconfig import ConfigError, parse_kv
from mimogen.params import ParamSet
from mimogen.rayio import RayFileHeader, encode_head, read_rayfile
from mimogen.scene import (
    _POSITION_USERS,
    NAME_BYTES,
    BaseStation,
    Building,
    Scene,
    SceneConfigError,
    UserGrid,
    build_o1_scene,
    enumerate_users,
    grid_start_indices,
    scene_from_json,
    scene_to_json,
    user_positions,
    users_in_row_range,
)


@pytest.fixture(scope="module")
def o1():
    return build_o1_scene()


def small_scene(rows=(2, 2, 2), users=(3, 3, 3)):
    overrides = []
    for i, (r, u) in enumerate(zip(rows, users), start=1):
        overrides.append(f"grid{i}.n_rows={r}")
        overrides.append(f"grid{i}.users_per_row={u}")
    return build_o1_scene(parse_kv("\n".join(overrides)))


class TestCensus:
    def test_base_station_count(self, o1):
        assert len(o1.base_stations) == 18

    def test_total_rows(self, o1):
        assert o1.total_rows == 5203

    def test_total_users(self, o1):
        # 2751*181 + 1101*181 + 1351*361, integer arithmetic
        assert o1.total_users == 2751 * 181 + 1101 * 181 + 1351 * 361 == 1_184_923

    def test_grid3_row_labels(self, o1):
        g3 = o1.grids[2]
        assert g3.first_row_label == 3853
        assert g3.last_row_label == 5203

    def test_grid_shapes(self, o1):
        shapes = [(g.n_rows, g.users_per_row, g.spacing) for g in o1.grids]
        assert shapes == [(2751, 181, 0.2), (1101, 181, 0.2), (1351, 361, 0.1)]

    def test_bs_heights(self, o1):
        assert all(bs.position[2] == 6.0 for bs in o1.base_stations)

    def test_building_bases(self, o1):
        for b in o1.buildings:
            dx = b.max_corner[0] - b.min_corner[0]
            dy = b.max_corner[1] - b.min_corner[1]
            assert sorted((dx, dy)) in ([30.0, 60.0], [60.0, 60.0])

    def test_streets_dimensions_via_grid1(self, o1):
        g1 = o1.grids[0]
        # grid 1 runs 550 m along the 600 m main street
        assert (g1.n_rows - 1) * g1.spacing == pytest.approx(550.0)

    def test_scaled_grids(self):
        sc = small_scene()
        assert sc.total_users == 18


class TestEnumeration:
    def test_first_user(self, o1):
        first = next(enumerate_users(o1))
        assert first.global_index == 1
        assert first.row_label == 1
        assert first.col_index == 1
        assert first.position == o1.grids[0].origin

    def test_small_scene_bijection(self):
        sc = small_scene()
        recs = list(enumerate_users(sc))
        assert [r.global_index for r in recs] == list(range(1, 19))
        assert len({r.position for r in recs}) == 18

    def test_last_index_matches_total(self, o1):
        # arithmetic: last grid start + its size - 1
        starts = grid_start_indices(o1)
        assert starts[-1] + o1.grids[-1].user_count - 1 == 1_184_923

    def test_deterministic(self):
        sc = small_scene()
        a = [(r.global_index, r.position) for r in enumerate_users(sc)]
        b = [(r.global_index, r.position) for r in enumerate_users(sc)]
        assert a == b

    def test_single_user_grid(self):
        sc = build_o1_scene(parse_kv(
            "grid1.n_rows=1\ngrid1.users_per_row=1\n"
            "grid1.origin_x=5\ngrid1.origin_y=5\ngrid1.origin_z=2\n"
            "grid2.n_rows=1\ngrid2.users_per_row=1\n"
            "grid3.n_rows=1\ngrid3.users_per_row=1"
        ))
        rec = next(enumerate_users(sc))
        assert rec.position == (5.0, 5.0, 2.0)

    def test_positions_match_enumeration(self):
        sc = small_scene(rows=(3, 2, 2), users=(4, 3, 2))
        recs = list(enumerate_users(sc))
        idx = np.array([r.global_index for r in recs])
        pos = user_positions(sc, idx)
        assert np.allclose(pos, np.array([r.position for r in recs]))

    def test_positions_of_indices_outside_the_scene(self, o1):
        for index in (0, o1.total_users + 1):
            with pytest.raises(IndexError, match=f"^user index out of range: valid range is "
                                                 f"1..{o1.total_users}$"):
                user_positions(o1, np.array([1, index]))

    def test_row_spacing_exact(self, o1):
        idx = users_in_row_range(o1, 100, 100)
        pos = user_positions(o1, idx)
        gaps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        assert np.max(np.abs(gaps - 0.2)) < 1e-12

    def test_whole_scene_in_bounded_memory(self, o1):
        idx = np.arange(1, o1.total_users + 1)
        tracemalloc.start()
        try:
            pos = user_positions(o1, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= pos.nbytes + 8 * 2**20
        # The users on both sides of each step's edge, each located alone.
        edges = np.arange(0, idx.size, _POSITION_USERS)[:, None] + [-1, 0, 1]
        near = np.unique(np.clip(edges, 0, idx.size - 1))
        alone = np.concatenate([user_positions(o1, idx[i: i + 1]) for i in near.tolist()])
        assert alone.tobytes() == pos[near].tobytes()

    def test_positions_inside_grid_rectangle(self, o1):
        for gi, g in enumerate(o1.grids):
            idx = users_in_row_range(o1, g.first_row_label, g.first_row_label)
            pos = user_positions(o1, np.concatenate([
                idx, users_in_row_range(o1, g.last_row_label, g.last_row_label)
            ]))
            o = np.asarray(g.origin)
            length = (g.n_rows - 1) * g.spacing
            width = (g.users_per_row - 1) * g.spacing
            rel = pos - o
            along = rel @ np.asarray(g.row_axis)
            across = rel @ np.asarray(g.col_axis)
            assert along.min() >= -1e-9 and along.max() <= length + 1e-9
            assert across.min() >= -1e-9 and across.max() <= width + 1e-9


class TestRowRange:
    def test_single_row_count(self, o1):
        assert len(users_in_row_range(o1, 1000, 1000)) == 181

    def test_full_range(self, o1):
        assert len(users_in_row_range(o1, 1, 5203)) == 1_184_923

    def test_spanning_grids(self, o1):
        got = users_in_row_range(o1, 2751, 2752)
        assert len(got) == 362
        assert list(got[:3]) == [2751 * 181 - 180, 2751 * 181 - 179, 2751 * 181 - 178]

    def test_out_of_range(self, o1):
        with pytest.raises(IndexError, match="R1 <= first <= last <= R5203"):
            users_in_row_range(o1, 0, 10)
        with pytest.raises(IndexError):
            users_in_row_range(o1, 5000, 6000)

    def test_single_row_scene(self):
        sc = small_scene(rows=(1, 1, 1))
        assert len(users_in_row_range(sc, 1, 1)) == 3


class TestConfig:
    def test_zero_rows_rejected(self):
        with pytest.raises(SceneConfigError, match="grid1.n_rows"):
            build_o1_scene(parse_kv("grid1.n_rows=0"))

    def test_negative_spacing_rejected(self):
        with pytest.raises(SceneConfigError, match="grid2.spacing_m"):
            build_o1_scene(parse_kv("grid2.spacing_m=-0.5"))

    @pytest.mark.parametrize("key", ["grid1.n_rows", "grid3.n_rows", "grid2.users_per_row"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "7.9"])
    def test_grid_counts_must_be_whole_numbers(self, key, value):
        with pytest.raises(SceneConfigError) as exc:
            build_o1_scene(parse_kv(f"{key}={value}"))
        assert str(exc.value) == f"{key}: must be a whole number, got {float(value)}"

    def test_whole_number_written_as_a_float(self):
        assert build_o1_scene(parse_kv("grid3.n_rows=7.0")).grids[2].n_rows == 7

    @pytest.mark.parametrize("key", ["grid2.spacing_m", "building_height_m"])
    def test_nan_length_rejected(self, key):
        with pytest.raises(SceneConfigError, match=f"^{key}: must be > 0, got nan$"):
            build_o1_scene(parse_kv(f"{key}=nan"))

    def test_user_count_within_the_index_type(self):
        # Grid 1 and 2 hold 2 x 3 and 1 x 1 users: grid 3 brings the total to
        # the largest int64 user index, then one past it.
        doc = json.loads(scene_to_json(small_scene(rows=(2, 1, 1), users=(3, 1, 1))))
        doc["grids"][2]["n_rows"] = 2**63 - 8
        assert scene_from_json(json.dumps(doc)).total_users == 2**63 - 1
        doc["grids"][2]["n_rows"] += 1
        with pytest.raises(SceneConfigError, match=f"^grids: {2**63} users in all, more "
                                                   f"than a user index holds"):
            scene_from_json(json.dumps(doc))

    def test_unknown_key_rejected(self):
        with pytest.raises(SceneConfigError, match="no_such_key"):
            build_o1_scene(parse_kv("no_such_key=3"))

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="carrier_freq_hz"):
            build_o1_scene(parse_kv("carrier_freq_hz=sixty"))

    def test_comments_and_blank_lines(self):
        sc = build_o1_scene(parse_kv("# comment\n\nuser_height_m=1.5\n"))
        assert sc.grids[0].origin[2] == 1.5

    def test_bs_override(self):
        sc = build_o1_scene(parse_kv("bs.3.x=123.0\nbs.3.z=7.5"))
        assert sc.bs_by_id(3).position[0] == 123.0
        assert sc.bs_by_id(3).position[2] == 7.5

    @pytest.mark.parametrize("text,message", [
        ("bs.3.z=0", "bs.3.z: height must be > 0"),
        ("bs.3.y=-10", "bs.3: position (200.0, -10.0, 6.0) lies inside a building"),
        ("carrier_freq_hz=0", "carrier_freq_hz: must be > 0, got 0.0"),
    ])
    def test_override_refused(self, text, message):
        with pytest.raises(SceneConfigError) as exc:
            build_o1_scene(parse_kv(text))
        assert str(exc.value) == message

    def test_default_carrier_is_60ghz(self):
        assert build_o1_scene().carrier_freq == 60e9

    def test_grid_keys_checked_in_order(self):
        # A grid's row count is read before its origin, so it is named first.
        with pytest.raises(ConfigError) as exc:
            build_o1_scene(parse_kv("grid1.origin_x=y\ngrid1.n_rows=x"))
        assert exc.type is ConfigError
        assert str(exc.value) == "line 2: key 'grid1.n_rows' expects a number, got 'x'"


class TestSerialization:
    def test_default_scene_bytes(self):
        assert content_hash(scene_to_json(build_o1_scene()).encode()) == "ade46eda4b87cff7"

    def test_roundtrip(self):
        sc = small_scene()
        sc2 = scene_from_json(scene_to_json(sc))
        assert sc2.total_users == sc.total_users
        assert sc2.buildings == sc.buildings
        assert sc2.base_stations == sc.base_stations
        assert sc2.grids == sc.grids
        assert sc2.carrier_freq == sc.carrier_freq

    def test_a_scene_is_a_value(self, o1):
        assert scene_from_json(scene_to_json(o1)) == o1
        assert build_o1_scene() == o1
        moved = build_o1_scene(parse_kv("bs.3.x=150.5"))
        assert moved != o1
        assert scene_from_json(scene_to_json(moved)) == moved

    @pytest.mark.parametrize("key", ["n_rows", "users_per_row"])
    @pytest.mark.parametrize("value", [7.9, 7.0, True, "7", None])
    def test_file_grid_counts_must_be_integers(self, key, value):
        doc = json.loads(scene_to_json(small_scene()))
        doc["grids"][2][key] = value
        with pytest.raises(SceneConfigError) as exc:
            scene_from_json(json.dumps(doc))
        assert str(exc.value) == f"grids[2].{key}: expected an integer, got {json.dumps(value)}"

    def test_bad_json(self):
        with pytest.raises(SceneConfigError, match="not a scene file"):
            scene_from_json("{}")
        with pytest.raises(SceneConfigError):
            scene_from_json("not json at all")

    # One value of each kind, and a list of objects, made malformed: the
    # message names the value's JSON path.
    @pytest.mark.parametrize("path,value,message", [
        (("name",), 5, "name: expected a string, got 5"),
        (("material_losses",), [6.0, 6.0],
         "material_losses: expected an object of numbers, got [6.0, 6.0]"),
        (("material_losses", "ground"), True,
         'material_losses: expected an object of numbers, got {"building_wall": 6.0, '
         '"ground": true}'),
        (("grids", 0, "origin"), [15.0, 2.0],
         "grids[0].origin: expected 3 numbers, got [15.0, 2.0]"),
        (("base_stations", 2, "position"), [200.0, 0.5],
         "base_stations[2].position: expected 3 numbers, got [200.0, 0.5]"),
        (("base_stations", 0, "id"), 1.0, "base_stations[0].id: expected an integer, got 1.0"),
        (("grids", 1, "spacing"), "0.2", 'grids[1].spacing: expected a number, got "0.2"'),
        (("carrier_freq",), 10**400, "carrier_freq: expected a number, got 1" + "0" * 400),
        (("buildings",), {}, "buildings: expected a list of objects, got {}"),
        (("buildings", 1), None, "buildings[1]: expected an object, got null"),
    ])
    def test_malformed_value_names_its_path(self, path, value, message):
        doc = json.loads(scene_to_json(small_scene()))
        _put(doc, path, value)
        with pytest.raises(SceneConfigError) as exc:
            scene_from_json(json.dumps(doc))
        assert str(exc.value) == message

    # Well-formed values that break a rule of the scene.
    _BS_IDS = "base station ids must be unique and contiguous from 1"

    @pytest.mark.parametrize("path,value,message", [
        (("buildings", 1, "max", 2), 0.0, "building corner axis 2: min 0.0 must be < max 0.0"),
        (("grids", 0, "n_rows"), 0, "grid n_rows: must be >= 1, got 0"),
        (("grids", 2, "users_per_row"), -1, "grid users_per_row: must be >= 1, got -1"),
        (("grids", 1, "spacing"), 0.0, "grid spacing_m: must be > 0, got 0.0"),
        (("grids", 0, "col_axis"), [1.0, 1.0, 0.0],
         "grid axes: row_axis and col_axis must be perpendicular"),
        (("base_stations", 17, "id"), 20, _BS_IDS),
        (("base_stations", 4, "id"), 4, _BS_IDS),
        (("grids", 2, "first_row_label"), 5,
         "grid 3: first_row_label 5 breaks contiguous row labelling (expected 4)"),
        (("grids", 0, "first_row_label"), 0,
         "grid 1: first_row_label 0 breaks contiguous row labelling (expected 1)"),
    ])
    def test_scene_rule_refused(self, path, value, message):
        doc = json.loads(scene_to_json(small_scene(rows=(2, 1, 1))))
        _put(doc, path, value)
        with pytest.raises(SceneConfigError) as exc:
            scene_from_json(json.dumps(doc))
        assert str(exc.value) == message

    @pytest.mark.parametrize("path,message", [
        (("ground_z",), "ground_z: missing"),
        (("grids", 2, "first_row_label"), "grids[2].first_row_label: missing"),
        (("buildings", 0, "material"), "buildings[0].material: missing"),
    ])
    def test_every_key_but_the_name_is_required(self, path, message):
        doc = json.loads(scene_to_json(small_scene()))
        *parents, last = path
        value = _get(doc, parents).pop(last)
        with pytest.raises(SceneConfigError, match=f"^{re.escape(message)}$"):
            scene_from_json(json.dumps(doc))
        _put(doc, path, value)
        del doc["name"]
        assert scene_from_json(json.dumps(doc)).name == "custom"

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
    def test_version_must_be_the_integer_1(self, version):
        doc = json.loads(scene_to_json(small_scene()))
        doc["version"] = version
        with pytest.raises(SceneConfigError,
                           match=f"^unsupported scene file version {re.escape(repr(version))}$"):
            scene_from_json(json.dumps(doc))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_mutated_value_gives_a_scene_or_a_scene_config_error(self, data):
        doc = json.loads(_SMALL)
        path = data.draw(st.sampled_from(_PATHS))
        _put(doc, path, data.draw(_JSON_VALUES))
        try:
            scene = scene_from_json(json.dumps(doc))
        except SceneConfigError:
            return
        assert scene_to_json(scene_from_json(scene_to_json(scene))) == scene_to_json(scene)


class TestDefinition:
    """A scene is half of a dataset's definition: any that constructs
    survives its own file, whatever kind of value each field was given."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_scene_that_constructs_round_trips(self, data):
        scene = scene_from_json(_SMALL)
        fields_ = data.draw(st.lists(st.sampled_from(_FIELDS), min_size=1, max_size=3,
                                     unique=True))
        try:
            for owner, name in fields_:
                if owner is not None and not getattr(scene, owner):
                    continue        # a list made empty
                if owner is None:
                    value = data.draw(_of_any_kind(getattr(scene, name)), label=name)
                    scene = replace(scene, **{name: value})
                else:
                    first, *rest = getattr(scene, owner)
                    value = data.draw(_of_any_kind(getattr(first, name)),
                                      label=f"{owner}[0].{name}")
                    scene = replace(scene, **{owner: (replace(first, **{name: value}), *rest)})
        except SceneConfigError:        # and no other error
            return
        text = scene_to_json(scene)
        assert scene_from_json(text) == scene
        assert scene_to_json(scene_from_json(text)) == text

    @pytest.mark.parametrize("owner,name,value,message", [
        ("grids", "first_row_label", True, "first_row_label: expected an integer, got true"),
        ("grids", "first_row_label", 1.0, "first_row_label: expected an integer, got 1.0"),
        ("base_stations", "id", True, "id: expected an integer, got true"),
        ("grids", "n_rows", 1.0, "n_rows: expected an integer, got 1.0"),
        ("buildings", "min_corner", [0.0, 0.0, 0.0],
         "min: expected 3 numbers, got [0.0, 0.0, 0.0]"),
        ("base_stations", "antenna_axis", (0.0, 0.0, math.nan),
         "bs.1 antenna_axis: must be finite, got (0.0, 0.0, nan)"),
        (None, "material_losses", {3: 1.0},
         'material_losses: expected an object of numbers, got {"3": 1.0}'),
        (None, "buildings", [], "buildings: expected a list of objects, got []"),
    ])
    def test_refused_at_construction(self, owner, name, value, message):
        scene = scene_from_json(_SMALL)
        with pytest.raises(SceneConfigError) as exc:
            if owner is None:
                replace(scene, **{name: value})
            else:
                replace(getattr(scene, owner)[0], **{name: value})
        assert str(exc.value) == message


class TestName:
    """Every artifact carries the scene's name: a ray-file header in
    ``NAME_BYTES`` of UTF-8, a shard's echo block on one line."""

    @pytest.mark.parametrize("name", ["a\nb", "a\r", "x\u2028y", "x\x1cy", "x\x85",
                                      "tail\0", "x" * (NAME_BYTES + 1), "\u00e9" * 17,
                                      "\ud800"])
    def test_refused(self, name):
        doc = json.loads(scene_to_json(small_scene()))
        doc["name"] = name
        with pytest.raises(SceneConfigError, match=f"^name: must be one line of at most "
                                                   f"{NAME_BYTES} bytes of UTF-8 without NUL"):
            scene_from_json(json.dumps(doc))

    @pytest.mark.parametrize("name", ["", "x" * NAME_BYTES, "\u00e9" * 16, " a#b=c\t "])
    def test_carried_by_a_ray_file_and_a_shard(self, name):
        doc = json.loads(scene_to_json(small_scene()))
        doc["name"] = name
        scene = scene_from_json(json.dumps(doc))
        head = encode_head(RayFileHeader(3, scene.carrier_freq, 0, scene.name))
        assert read_rayfile(io.BytesIO(head)).header.scenario == name
        params = ParamSet(active_bs=(3,), num_ant_y=1, num_ant_z=1, num_ofdm=1, ofdm_limit=1)
        records = np.zeros(0, record_dtype(params))
        assert parse_shard(shard_bytes(params, scene.name, 3, records))[1] == name


_SMALL = scene_to_json(small_scene(rows=(1, 1, 1), users=(1, 1, 1)))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _put(doc, path, value):
    *parents, last = path
    _get(doc, parents)[last] = value


def _paths(value, path=()):
    """The path of every value in ``value``, in a list its first item's only."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,)
            yield from _paths(item, path + (key,))
    elif isinstance(value, list) and value:
        yield path + (0,)
        yield from _paths(value[0], path + (0,))


_PATHS = sorted(set(_paths(json.loads(_SMALL))), key=repr)

#: Any JSON value: of the wrong type, a list of the wrong length, a bool,
#: null, a nested object or list, or an integer no float holds.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=40)
    | st.sampled_from([10**400, -(10**400)]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                               max_size=3),
    max_leaves=8,
)

#: (the list field of a ``Scene`` whose first object holds it, or None for
#: the scene's own, field name) of every field.
_FIELDS = [(None, f.name) for f in fields(Scene)] + [
    (owner, f.name) for owner, cls in (("buildings", Building),
                                       ("base_stations", BaseStation), ("grids", UserGrid))
    for f in fields(cls)]


def _of_any_kind(value):
    """``value`` itself, values of another kind that may compare equal to it
    (a bool, a whole float, an int, a list for a tuple, a tuple of floats or
    of bools), and values of no field's kind."""
    items = list(value) if isinstance(value, tuple) else [value]
    numbers = [v for v in items if isinstance(v, (int, float)) and math.isfinite(v)]
    return st.sampled_from([
        value, items, tuple(items), None, "1", math.nan, math.inf, 10**400, (), {},
        {"ground": 1}, {"ground": True}, {3: 1.0}, (0.0, 0.0, math.nan),
        *[v for n in numbers[:1] for v in (bool(n), float(n), int(n), -n)],
        *([tuple(map(float, numbers)), tuple(map(int, numbers)), tuple(map(bool, numbers))]
          if numbers and len(numbers) == len(items) > 1 else [])])
