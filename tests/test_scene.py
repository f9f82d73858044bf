import numpy as np
import pytest

from mimogen.dataset import content_hash
from mimogen.kvconfig import ConfigError, parse_kv
from mimogen.scene import (
    SceneConfigError,
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

    def test_row_spacing_exact(self, o1):
        idx = users_in_row_range(o1, 100, 100)
        pos = user_positions(o1, idx)
        gaps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        assert np.max(np.abs(gaps - 0.2)) < 1e-12

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

    def test_bad_json(self):
        with pytest.raises(SceneConfigError, match="not a scene file"):
            scene_from_json("{}")
        with pytest.raises(SceneConfigError):
            scene_from_json("not json at all")
