import io
import os
import re
import struct
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mimogen import dataset, parallel
from mimogen.beams import BeamEvalConfig, dft_codebook, write_ml_dataset
from mimogen.dataset import (
    Dataset,
    DatasetError,
    DatasetReader,
    Manifest,
    ManifestEntry,
    MissingRaySourceError,
    RayDataset,
    ScenarioMismatchError,
    ShardReader,
    active_user_indices,
    batch_users,
    build_dataset,
    content_hash,
    get_channel,
    get_location,
    load_dataset,
    parse_shard,
    pool_plan,
    record_dtype,
    shard_bytes,
    shard_size_bytes,
    shard_sources,
    write_shards,
)
from mimogen.kvconfig import parse_kv
from mimogen.parallel import WorkerError
from mimogen.params import ParamSet, serialize_params, subcarrier_set
from mimogen.rayio import RayFile, RayFileHeader, RayRows
from mimogen.scene import build_o1_scene, user_positions, users_in_row_range

from conftest import (
    channel_matrix_oracle, compute_channels_parallel, random_path_list, rewrite_shard,
)


@pytest.fixture(scope="module")
def tiny_scene():
    # grid1: rows 1-2 (3 users each), grid2: row 3, grid3: row 4
    return build_o1_scene(parse_kv(
        "grid1.n_rows=2\ngrid1.users_per_row=3\n"
        "grid2.n_rows=1\ngrid2.users_per_row=1\n"
        "grid3.n_rows=1\ngrid3.users_per_row=1\n"
    ))


def _params(**kw):
    base = dict(active_bs=(3, 5), active_user_first=1, active_user_last=2,
                num_ant_x=1, num_ant_y=4, num_ant_z=2,
                num_ofdm=16, ofdm_limit=8, num_paths=5)
    base.update(kw)
    return ParamSet(**base)


def _ray_sources(rng, scene, params, skip=(), rows=None):
    """In-memory ray files with random paths for every user of the rows
    ``rows`` (first, last), by default the active rows, but the (bs, user)
    pairs ``skip``."""
    indices = users_in_row_range(scene, *(rows or (params.active_user_first,
                                                   params.active_user_last)))
    positions = user_positions(scene, indices)
    sources = {}
    for bs_id in params.active_bs:
        records = []
        for gidx, pos in zip(indices, positions):
            if (bs_id, int(gidx)) in skip:
                continue
            pl = random_path_list(rng, bs_id, int(gidx))
            records.append(type(pl)(bs_id=bs_id, user_index=int(gidx),
                                    user_position=tuple(pos), paths=pl.paths))
        sources[bs_id] = RayFile(
            header=RayFileHeader(bs_id=bs_id, carrier_freq=scene.carrier_freq,
                                 user_count=len(records), scenario=scene.name),
            rows=RayRows.from_path_lists(records),
        )
    return sources


class TestBuild:
    def test_shape_and_ordinals(self, rng, tiny_scene):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        assert ds.bs_ids == (3, 5)
        assert ds.n_users == 6
        assert ds.bs_for_ordinal(1) == 3
        assert ds.bs_for_ordinal(2) == 5
        assert ds.user_for_ordinal(1) == 1
        assert ds.user_for_ordinal(6) == 6

    def test_ordinal_bounds(self, rng, tiny_scene):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        with pytest.raises(IndexError, match="1..2"):
            ds.bs_for_ordinal(3)
        with pytest.raises(IndexError, match="1..6"):
            ds.user_for_ordinal(0)
        with pytest.raises(IndexError):
            get_channel(ds, 1, 7)

    def test_channels_match_direct_construction(self, rng, tiny_scene):
        p = _params()
        sources = _ray_sources(rng, tiny_scene, p)
        ds = build_dataset(sources, p, tiny_scene)
        for b_ord, bs_id in enumerate(ds.bs_ids, start=1):
            by_index = {pl.user_index: pl for pl in sources[bs_id].rows}
            for u_ord in range(1, ds.n_users + 1):
                gidx = ds.user_for_ordinal(u_ord)
                want = channel_matrix_oracle(by_index[gidx].paths, p)
                got = get_channel(ds, b_ord, u_ord).entries
                assert np.max(np.abs(got - want)) < 1e-12 * (1 + np.max(np.abs(want)))

    def test_ray_users_outside_the_active_rows_are_skipped(self, rng, tmp_path, tiny_scene):
        # Files of rows 1-4 that lack user 2 of row 1 and user 7 of row 3;
        # the parameter set's rows are 2 (users 4-6).
        p = _params(active_user_first=2, active_user_last=2)
        sources = _ray_sources(rng, tiny_scene, p, skip={(3, 2), (5, 7)}, rows=(1, 4))
        ds = build_dataset(sources, p, tiny_scene)
        for b_ord, bs_id in enumerate(ds.bs_ids, start=1):
            by_index = {pl.user_index: pl for pl in sources[bs_id].rows}
            for u_ord in range(1, ds.n_users + 1):
                gidx = ds.user_for_ordinal(u_ord)
                want = channel_matrix_oracle(by_index[gidx].paths, p)
                got = get_channel(ds, b_ord, u_ord).entries
                assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.max(np.abs(want)))
        assert [ds.user_for_ordinal(u) for u in (1, 2, 3)] == [4, 5, 6]
        # The same bytes as files of just those users.
        exact = {b: replace(rf, header=replace(rf.header, user_count=3),
                            rows=RayRows.from_path_lists(list(rf.rows)[lo: lo + 3]))
                 for b, rf, lo in [(3, sources[3], 2), (5, sources[5], 3)]}
        assert [[pl.user_index for pl in rf.rows] for rf in exact.values()] == [[4, 5, 6]] * 2
        want = write_shards(tmp_path / "exact", shard_sources(exact, p, tiny_scene))
        assert write_shards(tmp_path / "wide", shard_sources(sources, p, tiny_scene)) == want
        for name in [e.filename for e in want.entries] + ["manifest.txt"]:
            assert (tmp_path / "wide" / name).read_bytes() == \
                (tmp_path / "exact" / name).read_bytes()

    def test_locations(self, rng, tiny_scene):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        indices = active_user_indices(tiny_scene, p)
        positions = user_positions(tiny_scene, indices)
        for u_ord in range(1, ds.n_users + 1):
            assert get_location(ds, 1, u_ord) == pytest.approx(
                tuple(positions[u_ord - 1])
            )

    def test_missing_source(self, rng, tiny_scene):
        p = _params()
        sources = _ray_sources(rng, tiny_scene, p)
        del sources[5]
        with pytest.raises(MissingRaySourceError, match="5"):
            build_dataset(sources, p, tiny_scene)

    def test_scenario_mismatch(self, rng, tiny_scene):
        p = _params()
        sources = _ray_sources(rng, tiny_scene, p)
        h = sources[5].header
        sources[5] = RayFile(
            header=RayFileHeader(bs_id=5, carrier_freq=h.carrier_freq,
                                 user_count=h.user_count, scenario="other"),
            rows=sources[5].rows,
        )
        with pytest.raises(ScenarioMismatchError, match="other"):
            build_dataset(sources, p, tiny_scene)

    def test_missing_user_zero_channel(self, rng, tiny_scene):
        # A user without a ray record gets no zero channel: the rays are refused.
        p = _params()
        sources = _ray_sources(rng, tiny_scene, p, skip={(3, 4)})
        with pytest.raises(ScenarioMismatchError) as exc:
            build_dataset(sources, p, tiny_scene)
        assert str(exc.value) == (
            "rays for base station 3 hold no record of 1 of the 6 active users (user 4): they "
            "were traced for another parameter set or scene")

    def test_one_gap_warning_per_bs(self, rng, tiny_scene):
        # One error, for the first base station whose file lacks active users,
        # naming their count and the first five.
        p = _params()
        skip = {(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2)}
        sources = {b: replace(rf, name=f"rays/rays_bs{b:03d}.drf")
                   for b, rf in _ray_sources(rng, tiny_scene, p, skip=skip).items()}
        with pytest.raises(ScenarioMismatchError) as exc:
            shard_sources(sources, p, tiny_scene)
        assert str(exc.value) == (
            "rays/rays_bs003.drf: rays for base station 3 hold no record of 6 of the 6 active "
            "users (user 1, 2, 3, 4, 5, ...): they were traced for another parameter set or "
            "scene")
        del sources[3]
        with pytest.raises(ScenarioMismatchError, match="^rays/rays_bs005.drf: .* 1 of the 6 "
                                                        r"active users \(user 2\):"):
            shard_sources(sources, replace(p, active_bs=(5,)), tiny_scene)

    def test_unordered_ray_users_refused(self, rng, tiny_scene):
        p = _params()
        sources = _ray_sources(rng, tiny_scene, p)
        sources[5] = replace(sources[5],
                             rows=RayRows.from_path_lists(list(sources[5].rows)[::-1]))
        with pytest.raises(DatasetError, match="base station 5.*ascending"):
            shard_sources(sources, p, tiny_scene)

    def test_carrier_mismatch(self, rng, tiny_scene):
        p = _params()
        sources = _ray_sources(rng, tiny_scene, p)
        sources[3] = replace(sources[3], header=replace(sources[3].header, carrier_freq=28e9))
        with pytest.raises(ScenarioMismatchError, match="base station 3.*2.8e"):
            build_dataset(sources, p, tiny_scene)

    def test_ray_file_of_another_base_station(self, rng, tiny_scene):
        p = _params(active_bs=(3, 4))
        rf = _ray_sources(rng, tiny_scene, p)
        with pytest.raises(ScenarioMismatchError,
                           match="^rays for base station 3 were traced from base station 4$"):
            shard_sources({3: rf[4], 4: rf[3]}, p, tiny_scene)

    @pytest.mark.parametrize("name", [None, "rays/rays_bs005.drf"], ids=["unnamed", "named"])
    @pytest.mark.parametrize("breaks,error,message", [
        (lambda rf, other: replace(rf, header=other.header), ScenarioMismatchError,
         "rays for base station 5 were traced from base station 3"),
        (lambda rf, other: replace(rf, header=replace(rf.header, carrier_freq=28e9)),
         ScenarioMismatchError, "rays for base station 5 were traced in scenario 'o1' at "
                                "2.8e+10 Hz, but the scene is 'o1' at 6e+10 Hz"),
        (lambda rf, other: replace(rf, rows=RayRows.from_path_lists(list(rf.rows)[::-1])),
         DatasetError, "rays for base station 5: user indices are not strictly ascending"),
        (lambda rf, other: replace(rf, rows=RayRows.from_path_lists(
            [replace(pl, user_position=(0.0, 0.0, 0.0)) for pl in rf.rows])),
         ScenarioMismatchError, "rays for base station 5 put user 1 at (0, 0, 0) m, but the "
                                "scene puts it at (15, 2, 2) m"),
    ], ids=["base_station", "carrier", "order", "position"])
    def test_each_message_names_the_ray_file(self, rng, tiny_scene, breaks, error, message,
                                             name):
        p = _params()
        sources = _ray_sources(rng, tiny_scene, p)
        sources[5] = replace(breaks(sources[5], sources[3]), name=name)
        with pytest.raises(error) as exc:
            shard_sources(sources, p, tiny_scene)
        assert str(exc.value) == (message if name is None else f"{name}: {message}")

    def test_ray_positions_must_match_scene(self, rng, tiny_scene):
        # Same grids and user indices, but grid 1 moved by 0.5 m along x.
        moved = build_o1_scene(parse_kv(
            "grid1.n_rows=2\ngrid1.users_per_row=3\ngrid1.origin_x=15.5\n"
            "grid2.n_rows=1\ngrid2.users_per_row=1\n"
            "grid3.n_rows=1\ngrid3.users_per_row=1\n"
        ))
        p = _params()
        assert np.array_equal(active_user_indices(moved, p), active_user_indices(tiny_scene, p))
        sources = _ray_sources(rng, tiny_scene, p)
        with pytest.raises(ScenarioMismatchError,
                           match=r"base station 3 put user 1 at \(15, 2, 2\) m, but the "
                                 r"scene puts it at \(15.5, 2, 2\) m"):
            shard_sources(sources, p, moved)
        # Within the tolerance the ray file's positions are accepted as they are.
        shifted = build_o1_scene(parse_kv(
            "grid1.n_rows=2\ngrid1.users_per_row=3\ngrid1.origin_x=15.0000001\n"
            "grid2.n_rows=1\ngrid2.users_per_row=1\n"
            "grid3.n_rows=1\ngrid3.users_per_row=1\n"
        ))
        ds = build_dataset(sources, p, shifted)
        assert tuple(ds.shards[0]["location"][0]) == sources[3].rows[0].user_position

    def test_progress_reaches_total(self, rng, tiny_scene, tmp_path, monkeypatch):
        p = _params()
        source = shard_sources(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        calls = []
        write_shards(tmp_path / "one_step", source, progress=calls.append)
        assert calls == [12]
        # A pool's one-user steps are counted as they are written.
        monkeypatch.setattr(dataset, "_BATCH_BYTES", 1)
        calls.clear()
        write_shards(tmp_path / "pool", source, progress=calls.append)
        assert calls == [2, 4, 6, 8, 10, 12]



class TestShard:
    def test_size_formula_matches(self, rng, tiny_scene):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        data = shard_bytes(p, ds.scenario_name, 3, ds.shards[0])
        assert len(data) == shard_size_bytes(p, ds.n_users, ds.scenario_name, 3)

    def test_roundtrip_bit_exact(self, rng, tiny_scene):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        data = shard_bytes(p, ds.scenario_name, 3, ds.shards[0])
        p2, scen, bs_id, records = parse_shard(data)
        assert (p2, scen, bs_id) == (p, tiny_scene.name, 3)
        for a, b in zip(ds.shards[0], records):
            assert a["global_index"] == b["global_index"]
            assert np.array_equal(a["location"], b["location"])
            assert np.array_equal(a["channel"], b["channel"])

    def test_trailing_bytes_rejected(self, rng, tiny_scene):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        data = shard_bytes(p, ds.scenario_name, 3, ds.shards[0])
        with pytest.raises(DatasetError, match="does not match"):
            parse_shard(data + b"\x00")

    def test_bad_magic(self):
        with pytest.raises(DatasetError, match="magic"):
            parse_shard(b"NOPE" + b"\x00" * 20)

    def test_records_of_another_parameter_set(self, rng, tiny_scene):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        with pytest.raises(ValueError, match="does not match the parameter set"):
            shard_bytes(replace(p, ofdm_limit=p.ofdm_limit - 1), ds.scenario_name, 3,
                        ds.shards[0])

    def test_echo_parameter_set_that_breaks_a_rule(self, rng, tiny_scene):
        # num_OFDM below OFDM_limit (8), in an echo of the same length.
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        data = shard_bytes(p, ds.scenario_name, 3, ds.shards[0])
        assert data.count(b"num_OFDM=16\n") == 1
        with pytest.raises(DatasetError, match="^bad shard echo block: subcarrier set exceeds "
                                               "num_OFDM: "):
            parse_shard(data.replace(b"num_OFDM=16\n", b"num_OFDM=07\n"))


def _oracle_shard(params, scenario, bs_id, indices, locations, mats) -> bytes:
    """The shard layout written out user by user, independently of the
    record dtype: preamble, echo, then per user the record head and the
    M x |K| matrix in column-major order."""
    echo = (serialize_params(params) + f"bs_id={bs_id}\nuser_count={len(indices)}\n"
            f"scenario={scenario}\n").encode()
    parts = [struct.pack("<4sII", b"DMDS", 1, len(echo)), echo]
    for gidx, loc, mat in zip(indices, locations, mats):
        parts.append(struct.pack("<Q3d", gidx, *loc))
        parts.append(np.asarray(mat, dtype="<c16").ravel(order="F").tobytes())
    return b"".join(parts)


@st.composite
def _shard_cases(draw):
    dims = [draw(st.integers(1, 3)) for _ in range(3)]
    k = draw(st.integers(1, 4))
    params = ParamSet(active_bs=(1,), num_ant_x=dims[0], num_ant_y=dims[1],
                      num_ant_z=dims[2], num_ofdm=draw(st.integers(k, 2 * k)),
                      ofdm_limit=k)
    n = draw(st.integers(0, 4))
    indices = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
    locations = draw(arrays(np.float64, (n, 3)))
    mats = draw(arrays(np.complex128, (n, params.num_antennas, k)))
    scenario = draw(st.text("abcXYZ019_", min_size=1, max_size=8))
    bs_id = draw(st.integers(1, 999))
    return params, scenario, bs_id, indices, locations, mats


class TestShardProperty:
    @settings(deadline=None)
    @given(_shard_cases())
    def test_encode_parse_and_oracle(self, case):
        params, scenario, bs_id, indices, locations, mats = case
        records = np.zeros(len(indices), dtype=record_dtype(params))
        records["global_index"] = indices
        records["location"] = locations
        records["channel"] = mats.transpose(0, 2, 1)
        data = shard_bytes(params, scenario, bs_id, records)
        assert len(data) == shard_size_bytes(params, len(indices), scenario, bs_id)
        assert data == _oracle_shard(params, scenario, bs_id, indices, locations, mats)
        p2, scen, b2, back = parse_shard(data)
        assert (p2, scen, b2) == (params, scenario, bs_id)
        assert back.dtype == records.dtype
        assert back.tobytes() == records.tobytes()
        assert [int(g) for g in back["global_index"]] == indices


def _small_scene(users_per_row: int):
    return build_o1_scene(parse_kv(
        f"grid1.n_rows=2\ngrid1.users_per_row={users_per_row}\n"
        "grid2.n_rows=1\ngrid2.users_per_row=1\n"
        "grid3.n_rows=1\ngrid3.users_per_row=1\n"
    ))


@st.composite
def _wider_rays(draw, users_per_row, params):
    """The rows (first, last) of ray files that hold the active rows and
    maybe more, and (bs, user) pairs of their users outside the active
    rows to leave out of them."""
    rows = (draw(st.integers(1, params.active_user_first)),
            draw(st.integers(params.active_user_last, 4)))
    scene = _small_scene(users_per_row)
    outside = sorted(set(users_in_row_range(scene, *rows).tolist())
                     - set(active_user_indices(scene, params).tolist()))
    skip = draw(st.sets(st.tuples(st.sampled_from(params.active_bs), st.sampled_from(outside)),
                        max_size=4)) if outside else set()
    return rows, skip


@st.composite
def _stream_cases(draw):
    users_per_row = draw(st.integers(1, 5))
    first = draw(st.integers(1, 4))
    params = _params(
        active_bs=tuple(draw(st.lists(st.sampled_from([3, 4, 5, 6]), min_size=1,
                                      max_size=3, unique=True))),
        active_user_first=first, active_user_last=draw(st.integers(first, 4)),
        num_ant_x=draw(st.integers(1, 2)), num_ant_y=draw(st.integers(1, 3)),
        num_ant_z=1, num_ofdm=8, ofdm_limit=draw(st.integers(1, 4)),
        num_paths=draw(st.integers(1, 6)))
    rays = draw(_wider_rays(users_per_row, params))
    # Batch budget in bytes: from less than one record to a few records.
    budget = draw(st.integers(0, 4 * record_dtype(params).itemsize))
    return users_per_row, params, rays, budget, draw(st.integers(0, 2**32 - 1))


class TestStreamingWrite:
    @settings(deadline=None, max_examples=60)
    @given(_stream_cases())
    def test_streamed_files_equal_in_memory_export(self, case):
        users_per_row, p, (rows, skip), budget, seed = case
        scene = _small_scene(users_per_row)
        sources = _ray_sources(np.random.default_rng(seed), scene, p, skip, rows)
        with tempfile.TemporaryDirectory() as tmp:
            ref, out = Path(tmp) / "ref", Path(tmp) / "streamed"
            want = write_shards(ref, build_dataset(sources, p, scene))
            with mock.patch.object(dataset, "_BATCH_BYTES", budget):
                assert batch_users(p) == max(1, min(256, budget // record_dtype(p).itemsize))
                got = write_shards(out, shard_sources(sources, p, scene))
            assert got == want
            for name in [e.filename for e in want.entries] + ["manifest.txt"]:
                assert (out / name).read_bytes() == (ref / name).read_bytes()

    # n_users, and the plan of a ray dataset whose records exceed the budget
    # by one byte: the 2 slots per worker hold at most the whole budget.
    @pytest.mark.parametrize("n_users,pooled", [(1, (1, 1)), (7, (2, 1)), (1000, (2, 249))])
    def test_pool_only_for_ray_records_beyond_one_step(self, monkeypatch, n_users, pooled):
        p = _params(active_bs=(3, 4, 5))
        one = 3 * record_dtype(p).itemsize                 # one user of each shard
        rays = mock.Mock(spec=RayDataset, params=p, bs_ids=p.active_bs, n_users=n_users)
        ds = mock.Mock(spec=Dataset, params=p, bs_ids=p.active_bs, n_users=n_users)
        monkeypatch.setattr(parallel, "worker_count", lambda: 2)
        monkeypatch.setattr(dataset, "_BATCH_BYTES", n_users * one)
        assert (pool_plan(rays, scored=False) == pool_plan(ds, scored=False)
                == (0, min(n_users, 256)))
        monkeypatch.setattr(dataset, "_BATCH_BYTES", n_users * one - 1)
        assert pool_plan(rays, scored=False) == pooled
        assert pool_plan(ds, scored=False)[0] == 0

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bytes_do_not_depend_on_workers(self, rng, tmp_path, monkeypatch, workers):
        scene = _small_scene(30)
        p = _params(active_bs=(3, 4))
        source = shard_sources(_ray_sources(rng, scene, p), p, scene)
        # In this process, 5 users per step.
        with mock.patch.object(dataset, "_MAX_BATCH_USERS", 5):
            assert pool_plan(source, scored=False) == (0, 5)
            want = write_shards(tmp_path / "in_process", source)
        # A budget of 14 users of both shards: 7 // workers users per step.
        monkeypatch.setattr(parallel, "worker_count", lambda: workers)
        monkeypatch.setattr(dataset, "_BATCH_BYTES", 14 * 2 * record_dtype(p).itemsize)
        assert pool_plan(source, scored=False) == (workers, 7 // workers)
        assert write_shards(tmp_path / "pool", source) == want
        assert want.entries[0].last_user - want.entries[0].first_user + 1 == 60
        for name in [e.filename for e in want.entries] + ["manifest.txt"]:
            assert (tmp_path / "pool" / name).read_bytes() == \
                (tmp_path / "in_process" / name).read_bytes()

    def test_memory_bounded_by_batch(self, rng, tmp_path, monkeypatch):
        scene = _small_scene(160)
        p = _params(active_bs=(3,), active_user_last=2, num_ant_y=8, num_ant_z=2,
                    num_ofdm=64, ofdm_limit=64)
        batch = 16 * record_dtype(p).itemsize
        monkeypatch.setattr(dataset, "_BATCH_BYTES", batch)
        source = shard_sources(_ray_sources(rng, scene, p), p, scene)
        tracemalloc.start()
        try:
            manifest = write_shards(tmp_path, source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert manifest.entries[0].byte_size > 20 * batch     # 320 users, 20 batches
        # One batch of records, the channel array it is copied from, and the
        # channel kernel's temporaries; the whole shard would be 20 batches.
        assert peak < 4 * batch

    # With two base stations the failure comes in the second one's batch,
    # after the first one's batches of the same users have been written.
    @pytest.mark.parametrize("active_bs,calls_made", [
        ((3,), [(3, 1), (3, 1), (3, 1)]),
        ((3, 5), [(3, 1), (5, 1), (3, 1), (5, 1), (3, 1), (5, 1)]),
    ], ids=["one_bs", "two_bs"])
    def test_failure_mid_stream_leaves_no_shard(self, rng, tiny_scene, tmp_path,
                                                monkeypatch, active_bs, calls_made):
        p = _params(active_bs=active_bs)
        source = shard_sources(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        real = dataset.channel_matrices_batch
        log = tmp_path / "calls.txt"            # (pid, bs, users) of each kernel call

        def calls():
            return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]

        def fail_third_batch(path_lists, params):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {path_lists[0].bs_id} {len(path_lists)}\n")
            if [c[1:] for c in calls()].count((active_bs[-1], 1)) == 3:  # the last BS's third
                raise RuntimeError("disk on fire")
            return real(path_lists, params)

        monkeypatch.setattr(dataset, "channel_matrices_batch", fail_third_batch)
        out = tmp_path / "out"
        # In this process: every record fits in one step, of one user here.
        monkeypatch.setattr(dataset, "_MAX_BATCH_USERS", 1)
        assert pool_plan(source, scored=False) == (0, 1)
        with pytest.raises(RuntimeError, match="disk on fire"):
            write_shards(out, source)
        assert calls() == [(os.getpid(), *c) for c in calls_made]
        assert sorted(f.name for f in out.iterdir()) == []
        # In the one worker of a pool (a 1-byte budget: one user per step):
        # the failure is a WorkerError, and the worker may have computed the
        # step after the failed one before the pool was shut down.
        log.unlink()
        monkeypatch.setattr(dataset, "_BATCH_BYTES", 1)
        assert pool_plan(source, scored=False) == (1, 1)
        with pytest.raises(WorkerError,
                           match="^a build worker failed: RuntimeError: disk on fire$"):
            write_shards(out, source)
        pids, *made = zip(*calls())
        assert len(set(pids)) == 1 and os.getpid() not in pids
        made = list(zip(*made))
        assert made[:len(calls_made)] == calls_made
        assert len(made) <= len(calls_made) + len(active_bs)
        assert sorted(f.name for f in out.iterdir()) == []


class TestStreamingRead:
    def test_steps_hold_same_users_within_budget(self, rng, tiny_scene, tmp_path,
                                                 monkeypatch):
        p = _params(active_bs=(3, 4, 5))
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        write_shards(tmp_path, ds)
        # Two users per shard per step fit in the budget, three do not.
        monkeypatch.setattr(dataset, "_BATCH_BYTES", 8 * record_dtype(p).itemsize)
        with DatasetReader(tmp_path) as reader:
            assert (reader.params, reader.bs_ids, reader.n_users) == (p, (3, 4, 5), 6)
            steps = [tuple(b.copy() for b in step) for step in dataset.steps(reader)]
            assert reader.verified == 3
        assert [len(step[0]) for step in steps] == [2, 2, 2]
        for b, records in enumerate(ds.shards):
            got = np.concatenate([step[b] for step in steps])
            assert got.tobytes() == records.tobytes()

    def test_last_shard_hash_checked_at_its_end(self, rng, tiny_scene, tmp_path):
        p = _params()
        write_shards(tmp_path,
                     build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene))
        shard = tmp_path / "shard_bs005.dmds"
        data = bytearray(shard.read_bytes())
        data[-1] ^= 0x01                  # last byte of the last record
        shard.write_bytes(bytes(data))
        with DatasetReader(tmp_path) as reader:
            steps = dataset.steps(reader, 1)
            for _ in range(reader.n_users - 1):
                next(steps)                 # every record but the last reads without complaint...
            with pytest.raises(DatasetError, match="shard_bs005.dmds: content hash mismatch"):
                next(steps)                 # ...until the last one is read
            assert reader.verified == 0

    def test_fill_reads_into_the_callers_arrays_in_order(self, rng, tiny_scene, tmp_path):
        p = _params(active_bs=(3, 4, 5))
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        write_shards(tmp_path, ds)
        records = np.zeros((3, ds.n_users), record_dtype(p))
        with DatasetReader(tmp_path) as reader:
            reader.fill(tuple(records[:, 4:]), 4)      # fill reads in any order...
            reader.fill(tuple(records[:, :4]), 0)
            reader.check(tuple(records[:, :4]), 0)
            for lo in (0, 2, 5):            # ...check only from where the last check ended
                with pytest.raises(ValueError, match="the next check is from user 4, not"):
                    reader.check(tuple(records[:, 4:5]), lo)
            assert reader.verified == 0
            reader.check(tuple(records[:, 4:]), 4)
            assert reader.verified == 3
        for row, shard in zip(records, ds.shards):
            assert row.tobytes() == shard.tobytes()
        # dataset.steps fills one set of buffers, reused from step to step.
        with DatasetReader(tmp_path) as reader:
            steps = dataset.steps(reader, 2)
            first = next(steps)
            assert all(np.shares_memory(a, b) for a, b in zip(first, next(steps)))

    def test_fill_resumes_a_short_read(self, rng, tiny_scene, tmp_path, monkeypatch):
        # One read returns at most about 2 GiB, less than a large shard's
        # records: the reader reads on from where a read stopped.
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        write_shards(tmp_path, ds)
        preadv = os.preadv
        monkeypatch.setattr(os, "preadv", lambda fd, bufs, at: preadv(fd, [bufs[0][:100]], at))
        with load_dataset(tmp_path) as loaded:
            for b_ord in (1, 2):
                for u_ord in range(1, ds.n_users + 1):
                    assert np.array_equal(get_channel(loaded, b_ord, u_ord).entries,
                                          get_channel(ds, b_ord, u_ord).entries)

    def test_no_step_held_outside_the_ring(self, rng, tiny_scene, tmp_path, monkeypatch):
        p = _params(active_bs=(3, 4, 5), num_ant_x=2, num_ant_y=8, num_ant_z=4,
                    num_ofdm=64, ofdm_limit=64)
        write_shards(tmp_path / "ds",
                     build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene))
        step = 2 * 3 * record_dtype(p).itemsize        # 2 users of each of 3 shards
        monkeypatch.setattr(dataset, "_BATCH_BYTES", step)
        with DatasetReader(tmp_path / "ds") as reader:
            assert pool_plan(reader, scored=False) == (0, 2)
            tracemalloc.start()
            try:
                manifest = write_shards(tmp_path / "copy", reader)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert reader.verified == 3
        assert manifest.entries[0].last_user > manifest.entries[0].first_user
        # The reader fills the ring, an mmap that tracemalloc does not see;
        # a step read into a buffer of its own would be all of ``step``.
        assert peak < step

    def test_shard_without_users_checks_its_hash(self, tmp_path):
        p = _params()
        empty = tuple(np.empty(0, record_dtype(p)) for _ in p.active_bs)
        manifest = write_shards(tmp_path, Dataset(p, "s", empty))
        with load_dataset(tmp_path) as loaded:
            assert loaded.n_users == 0
        bad = replace(manifest.entries[1], content_hash="0" * 16)
        (tmp_path / "manifest.txt").write_text(Manifest((manifest.entries[0], bad)).to_text())
        # No step reads a record, so opening the shard checks it.
        with pytest.raises(DatasetError, match="shard_bs005.dmds: content hash mismatch"):
            with DatasetReader(tmp_path) as reader:
                write_shards(tmp_path / "copy", reader)
        assert sorted((tmp_path / "copy").glob("*")) == []

    def test_shard_file_alone(self, rng, tiny_scene, tmp_path):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        write_shards(tmp_path, ds)
        with (tmp_path / "shard_bs005.dmds").open("rb") as fh:
            reader = ShardReader(fh, "shard_bs005.dmds")
            assert (reader.params, reader.scenario, reader.bs_id, reader.user_count) == \
                (p, tiny_scene.name, 5, 6)
            batch = np.empty(4, reader.dtype)
            got = []
            for lo, count in ((0, 4), (4, 2)):
                reader.read_into(batch[:count], lo)
                got.append(batch[:count]["global_index"].tolist())
        assert got == [ds.shards[1]["global_index"][:4].tolist(),
                       ds.shards[1]["global_index"][4:].tolist()]

    @pytest.mark.parametrize("corrupt,message", [
        (lambda data: data[:11], "truncated shard: 11 bytes"),
        (lambda data: _echo_replaced(data, b"user_count=6", b"user_count=-1"),
         "negative user_count -1"),
    ], ids=["under 12 bytes", "negative user count"])
    def test_shard_refused_at_open(self, rng, tiny_scene, tmp_path, corrupt, message):
        p = _params()
        write_shards(tmp_path, build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene))
        data = corrupt((tmp_path / "shard_bs005.dmds").read_bytes())
        with pytest.raises(DatasetError) as exc:
            ShardReader(io.BytesIO(data), "shard_bs005.dmds")
        assert str(exc.value) == f"shard_bs005.dmds: {message}"

    def test_shard_that_shrinks_while_read(self, rng, tiny_scene, tmp_path, monkeypatch):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        write_shards(tmp_path, ds)
        shard = tmp_path / "shard_bs005.dmds"
        with shard.open("rb") as fh:
            reader = ShardReader(fh, shard.name)
            os.truncate(shard, shard.stat().st_size - 1)
            with pytest.raises(DatasetError, match="^shard_bs005.dmds: shard ended early$"):
                reader.read_into(np.empty(reader.user_count, reader.dtype), 0)
        # Read in the one worker of `write_ml_dataset`: a WorkerError that
        # names the shard, and no output file.
        write_shards(tmp_path / "ds", ds)
        shard, out = tmp_path / "ds" / "shard_bs005.dmds", tmp_path / "ml"
        monkeypatch.setattr(parallel, "worker_count", lambda: 1)
        with DatasetReader(tmp_path / "ds") as reader:
            assert pool_plan(reader, scored=True)[0] == 1
            os.truncate(shard, shard.stat().st_size - 1)
            with pytest.raises(WorkerError, match="^a beams worker failed: DatasetError: "
                                                  "shard_bs005.dmds: shard ended early$"):
                write_ml_dataset(reader, BeamEvalConfig(dft_codebook(p.dims)), out)
        assert sorted(out.glob("*")) == []


def _echo_replaced(data: bytes, old: bytes, new: bytes) -> bytes:
    """The shard ``data`` with ``old`` replaced by ``new`` in its echo block."""
    (echo_len,) = struct.unpack_from("<I", data, 8)
    echo = data[12: 12 + echo_len]
    assert old in echo
    echo = echo.replace(old, new)
    return data[:8] + struct.pack("<I", len(echo)) + echo + data[12 + echo_len:]


class TestLoadConsistency:
    def test_empty_manifest(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("# no shards\n")
        with pytest.raises(DatasetError, match="^empty manifest$"):
            DatasetReader(tmp_path)

    @pytest.mark.parametrize("change,message", [
        (lambda params, scenario, records: (params, "other", records),
         "inconsistent shard metadata"),
        (lambda params, scenario, records: (replace(params, num_paths=4), scenario, records),
         "inconsistent shard metadata"),
        (lambda params, scenario, records: (params, scenario, records[:-1]),
         "user list differs from shard_bs003.dmds"),
    ], ids=["scenario", "params", "user count"])
    def test_shards_must_agree(self, rng, tiny_scene, tmp_path, change, message):
        p = _params()
        manifest = write_shards(
            tmp_path, build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene))
        shard = tmp_path / "shard_bs005.dmds"
        params, scenario, bs_id, records = parse_shard(shard.read_bytes())
        params, scenario, records = change(params, scenario, records)
        data = shard_bytes(params, scenario, bs_id, records)
        shard.write_bytes(data)
        entry = replace(manifest.entries[1], byte_size=len(data), content_hash=content_hash(data))
        (tmp_path / "manifest.txt").write_text(Manifest((manifest.entries[0], entry)).to_text())
        with pytest.raises(DatasetError) as exc:
            DatasetReader(tmp_path)
        assert str(exc.value) == f"shard_bs005.dmds: {message}"

    def test_shards_with_different_user_lists(self, rng, tiny_scene, tmp_path):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        write_shards(tmp_path / "out", ds)

        def swap_user(records):
            records["global_index"][2] = 99   # first and last user unchanged

        rewrite_shard(tmp_path / "out", "shard_bs005.dmds", swap_user)
        with pytest.raises(DatasetError, match="shard_bs005.dmds: user list differs"):
            load_dataset(tmp_path / "out")

    @pytest.mark.parametrize("field", ["first_user", "last_user", "byte_size", "bs_id"])
    def test_manifest_line_must_match_shard(self, rng, tiny_scene, tmp_path, field):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        manifest = write_shards(tmp_path / "out", ds)
        bad = replace(manifest.entries[1], **{field: getattr(manifest.entries[1], field) + 1})
        (tmp_path / "out" / "manifest.txt").write_text(
            Manifest((manifest.entries[0], bad)).to_text())
        with pytest.raises(DatasetError, match="shard_bs005.dmds"):
            load_dataset(tmp_path / "out")


class TestExportImport:
    def test_binary_roundtrip(self, rng, tiny_scene, tmp_path):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        manifest = write_shards(tmp_path / "out", ds)
        assert len(manifest.entries) == 2
        with load_dataset(tmp_path / "out") as ds2:
            assert ds2.verified == 2
            assert ds2.params == ds.params
            assert ds2.bs_ids == ds.bs_ids
            assert ds2.scenario_name == ds.scenario_name
            for b_ord in (1, 2):
                for u_ord in range(1, ds.n_users + 1):
                    got, want = get_channel(ds2, b_ord, u_ord), get_channel(ds, b_ord, u_ord)
                    assert (got.bs_id, got.user_index) == (want.bs_id, want.user_index)
                    assert got.entries.tobytes() == want.entries.tobytes()
                    assert np.array_equal(get_location(ds2, b_ord, u_ord),
                                          get_location(ds, b_ord, u_ord))

    def test_channels_and_locations_are_copies(self, rng, tiny_scene, tmp_path):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        write_shards(tmp_path / "out", ds)
        H, x = get_channel(ds, 2, 3).entries, get_location(ds, 2, 3)
        assert not np.shares_memory(H, ds.shards[1]) and not np.shares_memory(x, ds.shards[1])
        H[:], x[:] = 0, 0       # writable, and the records keep their values
        assert ds.shards[1]["channel"][2].any() and ds.shards[1]["location"][2].any()
        with load_dataset(tmp_path / "out") as ds2:
            H2 = get_channel(ds2, 2, 3).entries
            assert H2.flags.writeable
            assert np.array_equal(H2, ds.shards[1]["channel"][2].T)
            # The pass is spent: another full pass needs a new reader.
            with pytest.raises(ValueError, match="records are checked in order"):
                write_ml_dataset(ds2, BeamEvalConfig(dft_codebook(p.dims)), tmp_path / "ml")

    def test_export_deterministic(self, rng, tiny_scene, tmp_path):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        m1 = write_shards(tmp_path / "a", ds)
        m2 = write_shards(tmp_path / "b", ds)
        assert [e.content_hash for e in m1.entries] == [e.content_hash for e in m2.entries]
        for e in m1.entries:
            assert (tmp_path / "a" / e.filename).read_bytes() == \
                (tmp_path / "b" / e.filename).read_bytes()

    def test_tamper_detected(self, rng, tiny_scene, tmp_path):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        write_shards(tmp_path / "out", ds)
        shard = tmp_path / "out" / "shard_bs003.dmds"
        data = bytearray(shard.read_bytes())
        data[-1] ^= 0x01
        shard.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match="hash mismatch"):
            load_dataset(tmp_path / "out")

    def test_manifest_text_roundtrip(self):
        m = Manifest((ManifestEntry("shard_bs003.dmds", 3, 1, 6, 1234, "ab" * 8),))
        assert Manifest.from_text(m.to_text()) == m

    @pytest.mark.parametrize("name", ["../shard.dmds", "sub/shard.dmds", "/tmp/shard.dmds",
                                      ".", ".."])
    def test_manifest_names_only_files_beside_it(self, name):
        text = f"# mimogen dataset manifest v1\n{name} 3 1 6 1234 {'ab' * 8}\n"
        with pytest.raises(DatasetError, match=rf"^manifest line 2: '{re.escape(name)}' is not"):
            Manifest.from_text(text)

    def test_csv_export(self, rng, tiny_scene, tmp_path):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        manifest = write_shards(tmp_path / "csv", ds, fmt="csv")
        f = tmp_path / "csv" / manifest.entries[0].filename
        lines = f.read_text().strip().splitlines()
        # header + one row per (user, k, antenna)
        assert len(lines) == 1 + ds.n_users * 8 * 8
        assert lines[0].startswith("user_index,")

    def test_csv_fields_rebuild_matrix_exactly(self, rng, tiny_scene, tmp_path):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        manifest = write_shards(tmp_path / "csv", ds, fmt="csv")
        for entry, records in zip(manifest.entries, ds.shards):
            text = (tmp_path / "csv" / entry.filename).read_text()
            rows = [line.split(",") for line in text.splitlines()[1:]]
            by_user: dict[int, list[list[str]]] = {}
            for row in rows:
                by_user.setdefault(int(row[0]), []).append(row)
            assert sorted(by_user) == [int(g) for g in records["global_index"]]
            ks = list(subcarrier_set(p))
            for u in records:
                want = u["channel"].T
                mat = np.zeros_like(want)
                for row in by_user[int(u["global_index"])]:
                    px, py, pz, re, im = (float(row[i]) for i in (1, 2, 3, 6, 7))
                    assert (px, py, pz) == tuple(u["location"])
                    mat[int(row[5]), ks.index(int(row[4]))] = complex(re, im)
                assert np.array_equal(mat, want)

    def test_csv_cap(self, tmp_path):
        p = ParamSet(active_bs=(1,), num_ant_x=1, num_ant_y=32, num_ant_z=8,
                     num_ofdm=1024, ofdm_limit=1024)
        records = np.zeros(6, dtype=record_dtype(p))
        records["global_index"] = range(1, 7)
        ds = Dataset(params=p, scenario_name="O1_60", shards=(records,))
        with pytest.raises(DatasetError, match="csv export refused"):
            write_shards(tmp_path / "big", ds, fmt="csv")

    def test_unknown_format(self, rng, tiny_scene, tmp_path):
        p = _params()
        ds = build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)
        with pytest.raises(ValueError, match="parquet"):
            write_shards(tmp_path / "x", ds, fmt="parquet")

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)


class TestHash:
    def test_hash_is_sha256_prefix(self):
        import hashlib
        assert content_hash(b"abc") == hashlib.sha256(b"abc").hexdigest()[:16]
        assert len(content_hash(b"")) == 16

    def test_hash_sensitivity(self):
        assert content_hash(b"a") != content_hash(b"b")


class TestParallel:
    def test_serial_vs_parallel_digest(self, rng):
        p = ParamSet(num_ant_x=1, num_ant_y=4, num_ant_z=1,
                     num_ofdm=16, ofdm_limit=8)
        pls = [random_path_list(rng, 3, i) for i in range(1, 41)]
        d1 = compute_channels_parallel(pls, p, workers=1, chunk_size=7)
        d2 = compute_channels_parallel(pls, p, workers=2, chunk_size=7)
        assert d1 == d2

    def test_digest_depends_on_input(self, rng):
        p = ParamSet(num_ant_x=1, num_ant_y=4, num_ant_z=1,
                     num_ofdm=16, ofdm_limit=8)
        a = [random_path_list(rng, 3, i) for i in range(1, 11)]
        b = [random_path_list(rng, 3, i) for i in range(1, 11)]
        assert compute_channels_parallel(a, p) != compute_channels_parallel(b, p)

    def test_progress(self, rng):
        p = ParamSet(num_ant_x=1, num_ant_y=2, num_ant_z=1,
                     num_ofdm=8, ofdm_limit=8)
        pls = [random_path_list(rng, 3, i) for i in range(1, 21)]
        calls = []
        compute_channels_parallel(pls, p, workers=1, chunk_size=6,
                                  progress=lambda d, t: calls.append((d, t)))
        assert calls == [(6, 20), (12, 20), (18, 20), (20, 20)]
