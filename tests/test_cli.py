import argparse
import contextlib
import gc
import io
import json
import math
import multiprocessing
import os
import re
import shutil
import signal
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mimogen import beams, cli, dataset, parallel, rayio, tracer
from mimogen.cli import ProgressReporter, build_parser, run
from mimogen.dataset import DatasetReader, content_hash, record_dtype
from mimogen.params import KEYS, ParamError, ParamSet, parse_params, serialize_params
from mimogen.rayio import HEADER_SIZE, MAX_PATHS, RayFile, read_rayfile
from mimogen.scene import SceneConfigError, scene_from_json, users_in_row_range

from conftest import rewrite_shard


TINY_SCENE_SETS = [
    "--set", "grid1.n_rows=2", "--set", "grid1.users_per_row=3",
    "--set", "grid2.n_rows=1", "--set", "grid2.users_per_row=1",
    "--set", "grid3.n_rows=1", "--set", "grid3.users_per_row=1",
]


@pytest.fixture()
def scene_file(tmp_path):
    out = tmp_path / "scene.json"
    rc = run(["scene", "--out", str(out), "--quiet"] + TINY_SCENE_SETS)
    assert rc == 0
    return out


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise ``TimeoutError`` in the block if it runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _trace(tmp_path, scene_file, bs="3,4"):
    rays = tmp_path / "rays"
    rc = run([
        "trace", "--scene", str(scene_file), "--bs", bs,
        "--active_user_first", "1", "--active_user_last", "2",
        "--out-dir", str(rays), "--quiet",
    ])
    assert rc == 0
    return rays


def _swapped_trace(tmp_path, scene_file):
    """A BS 3,4 trace directory whose two ray files have swapped names."""
    rays = _trace(tmp_path, scene_file)
    bs3, bs4 = rays / "rays_bs003.drf", rays / "rays_bs004.drf"
    traced3 = bs3.read_bytes()
    bs3.write_bytes(bs4.read_bytes())
    bs4.write_bytes(traced3)
    return rays


def _build(tmp_path, scene_file, rays, active_bs="3,4", quiet=True, fmt="binary"):
    out = tmp_path / "ds"
    rc = run([
        "build", "--scene", str(scene_file), "--rays-dir", str(rays),
        "--set", f"active_BS={active_bs}",
        "--set", "active_user_first=1", "--set", "active_user_last=2",
        "--set", "num_ant_y=4", "--set", "num_ant_z=2",
        "--set", "num_OFDM=16", "--set", "OFDM_limit=8", "--format", fmt,
        "--out-dir", str(out), *["--quiet"] * quiet,
    ])
    return rc, out


@pytest.fixture(scope="module")
def o1_rays(tmp_path_factory):
    """The o1 scene file and a trace directory of its BS 3 and 4, row 1000,
    one reflection."""
    tmp = tmp_path_factory.mktemp("o1")
    scene, rays = tmp / "scene.json", tmp / "rays"
    assert run(["scene", "--out", str(scene), "--quiet"]) == 0
    assert run(["trace", "--scene", str(scene), "--bs", "3,4", "--active_user_first", "1000",
                "--active_user_last", "1000", "--max-reflections", "1",
                "--out-dir", str(rays), "--quiet"]) == 0
    return scene, rays


# The bytes of one record of the datasets `_build` writes.
_BUILD_RECORD_BYTES = record_dtype(ParamSet(num_ant_y=4, num_ant_z=2, num_ofdm=16,
                                            ofdm_limit=8)).itemsize


class TestPipeline:
    def test_scene_writes_json_and_manifest(self, scene_file):
        doc = json.loads(scene_file.read_text())
        assert doc["format"] == "mimogen-scene"
        manifest = json.loads(
            scene_file.with_name("scene.json.manifest.json").read_text()
        )
        assert manifest["subcommand"] == "scene"
        assert str(scene_file) in manifest["outputs"]
        assert "counters" not in manifest

    def test_trace_manifest_counts_image_nodes(self, tmp_path, scene_file):
        rays = _trace(tmp_path, scene_file)
        counters = json.loads((rays / "trace.manifest.json").read_text())["counters"]
        fixed = {f"bs{b:03d}.{key}" for b in (3, 4) for key in (
            "image_nodes", "image_nodes_searched", "image_nodes_yielding",
            "paths", "users_without_paths")}
        run_keys = {"workers", "users_per_step", "workers_peak_rss_kib", "peak_rss_kib"}
        assert fixed | run_keys <= set(counters)
        assert all(re.fullmatch(r"bs00[34]\.users_with_\d+_paths", key)
                   for key in set(counters) - fixed - run_keys)
        # One step of 6 users: traced in this process.
        assert (counters["workers"], counters["users_per_step"],
                counters["workers_peak_rss_kib"]) == (0, 1024, 0)
        assert counters["peak_rss_kib"] > 0
        assert counters["bs003.image_nodes"] == 1802
        for b in (3, 4):
            assert (0 < counters[f"bs{b:03d}.image_nodes_yielding"]
                    <= counters[f"bs{b:03d}.image_nodes_searched"]
                    < counters[f"bs{b:03d}.image_nodes"])
            with (rays / f"rays_bs{b:03d}.drf").open("rb") as fh:
                records = read_rayfile(fh).rows
            assert counters[f"bs{b:03d}.paths"] == sum(len(r.paths) for r in records) > 0
            assert counters[f"bs{b:03d}.users_without_paths"] == sum(
                not r.paths for r in records)

    @pytest.mark.parametrize("chunk,workers", [(2, 0), (1, 2)])
    def test_trace_forks_from_five_steps(self, tmp_path, scene_file, monkeypatch,
                                         chunk, workers):
        # The 6 users in 3 steps stay in this process, in 6 steps go to 2
        # workers; either way the files and the per-user counters are those
        # of one step (the tree searches are counted per step).
        whole = _trace(tmp_path / "whole", scene_file)
        monkeypatch.setattr(cli, "_TRACE_CHUNK", chunk)
        monkeypatch.setattr(parallel, "worker_count", lambda: 2)
        rays = _trace(tmp_path, scene_file)
        counters, expected = (json.loads((d / "trace.manifest.json").read_text())["counters"]
                              for d in (rays, whole))
        assert (counters["workers"], counters["users_per_step"]) == (workers, chunk)
        per_user = {k for k in expected if k.startswith("bs") and "_nodes_" not in k}
        assert {k: counters[k] for k in per_user} == {k: expected[k] for k in per_user}
        for b in (3, 4):
            name = f"rays_bs{b:03d}.drf"
            assert (rays / name).read_bytes() == (whole / name).read_bytes()

    def test_trace_manifest_histogram_of_paths_per_user(self, tmp_path, scene_file):
        rays = _trace(tmp_path, scene_file)
        counters = json.loads((rays / "trace.manifest.json").read_text())["counters"]
        for b in (3, 4):
            with (rays / f"rays_bs{b:03d}.drf").open("rb") as fh:
                records = read_rayfile(fh).rows
            hist = {int(m[1]): n for key, n in counters.items()
                    if (m := re.fullmatch(rf"bs{b:03d}\.users_with_(\d+)_paths", key))}
            assert hist and all(k > 0 and n > 0 for k, n in hist.items())
            without = counters[f"bs{b:03d}.users_without_paths"]
            assert sum(hist.values()) + without == len(records)
            assert sum(k * n for k, n in hist.items()) == counters[f"bs{b:03d}.paths"]

    def test_trace_manifest_counts_users_without_paths(self, tmp_path):
        # The last row of the o1 scene's grid 2 at one reflection: some users
        # of the cross street see no path from BS 3.
        scene, rays = tmp_path / "scene.json", tmp_path / "rays"
        assert run(["scene", "--out", str(scene), "--quiet"]) == 0
        assert run(["trace", "--scene", str(scene), "--bs", "3", "--active_user_first", "3852",
                    "--active_user_last", "3852", "--max-reflections", "1",
                    "--out-dir", str(rays), "--quiet"]) == 0
        counters = json.loads((rays / "trace.manifest.json").read_text())["counters"]
        hist = {key: n for key, n in counters.items()
                if re.fullmatch(r"bs003\.users_with_\d+_paths", key)}
        assert hist == {"bs003.users_with_1_paths": 128}
        assert counters["bs003.users_without_paths"] == 53
        assert sum(hist.values()) + counters["bs003.users_without_paths"] == 181

    def test_validate_trace_output_dir(self, tmp_path, scene_file, capsys):
        rays = _trace(tmp_path, scene_file)
        assert run(["validate", str(rays)]) == 0
        assert capsys.readouterr().err == f"{rays}: valid\n"
        data = bytearray((rays / "rays_bs004.drf").read_bytes())
        data[HEADER_SIZE - 1] ^= 1                  # a byte of the header's padding
        (rays / "rays_bs004.drf").write_bytes(bytes(data))
        assert run(["validate", str(rays), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"violation: RayFileFormatError: {rays}/rays_bs004.drf: "
            f"non-zero header padding at byte {HEADER_SIZE - 1}\n")
        (rays / "rays_bs004.drf").unlink()
        assert run(["validate", str(rays), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("violation: FileNotFoundError: ") and "rays_bs004.drf" in err
        assert err.count("\n") == 1

    def test_validate_every_file_of_a_pipeline(self, tmp_path, scene_file, capsys):
        _, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file))
        ml = tmp_path / "ml"
        assert run(["beams", "--dataset-dir", str(ds_dir), "--out-dir", str(ml),
                    "--quiet"]) == 0
        files = sorted(f for f in tmp_path.rglob("*") if f.is_file())
        assert sorted(f.name for f in files) == sorted([
            "scene.json", "scene.json.manifest.json", "rays_bs003.drf", "rays_bs004.drf",
            "trace.manifest.json", "shard_bs003.dmds", "shard_bs004.dmds", "manifest.txt",
            "build.manifest.json", "features.csv", "labels.csv", "ml_manifest.txt",
            "beams.manifest.json"])
        for f in files:
            assert run(["validate", str(f)]) == 0, capsys.readouterr().err
            assert capsys.readouterr().err == f"{f}: valid\n"
        labels = ml / "labels.csv"
        size = labels.stat().st_size
        with labels.open("ab") as fh:
            fh.write(b"0")
        assert run(["validate", str(labels), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"violation: DatasetError: labels.csv: {size + 1} bytes, manifest says {size}\n")
        # A scene's run manifest checks the scene file it lists.
        scene_file.write_text(scene_file.read_text()[:-2])
        assert run(["validate", f"{scene_file}.manifest.json", "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("violation: SceneConfigError: ")

    def test_validate_every_stage_in_one_directory(self, tmp_path, capsys):
        # scene, trace, build and beams all write into one directory: each
        # stage whose manifest it holds is checked, whichever file is named.
        d = tmp_path / "d"
        assert run(["scene", "--out", str(d / "scene.json"), "--quiet", *TINY_SCENE_SETS]) == 0
        assert run(["trace", "--scene", str(d / "scene.json"), "--bs", "3,4",
                    "--active_user_first", "1", "--active_user_last", "2",
                    "--out-dir", str(d), "--quiet"]) == 0
        assert run(["build", "--scene", str(d / "scene.json"), "--rays-dir", str(d),
                    "--set", "active_BS=3,4", "--set", "active_user_first=1",
                    "--set", "active_user_last=2", "--set", "num_ant_y=4",
                    "--set", "num_ant_z=2", "--set", "num_OFDM=16", "--set", "OFDM_limit=8",
                    "--out-dir", str(d), "--quiet"]) == 0
        assert run(["beams", "--dataset-dir", str(d), "--out-dir", str(d), "--quiet"]) == 0
        files = sorted(d.iterdir())
        assert len(files) == 13
        for target in (d, *files):
            assert run(["validate", str(target)]) == 0, capsys.readouterr().err
            assert capsys.readouterr().err == f"{target}: valid\n"
        pristine = {f.name: f.read_bytes() for f in files}
        shard, rays, scene, labels = (pristine[n] for n in (
            "shard_bs003.dmds", "rays_bs004.drf", "scene.json", "labels.csv"))
        for name, corrupt, targets in [
            ("shard_bs003.dmds", shard[:-1] + bytes([shard[-1] ^ 1]),
             ["manifest.txt", "shard_bs003.dmds"]),
            ("rays_bs004.drf", rays[:HEADER_SIZE - 1] + b"\x01" + rays[HEADER_SIZE:], []),
            ("scene.json", scene[:-2], []),
            ("labels.csv", labels + b"0", []),
        ]:
            (d / name).write_bytes(corrupt)
            for target in (d, *(d / t for t in targets)):
                assert run(["validate", str(target), "--quiet"]) == 1, (name, target)
                err = capsys.readouterr().err
                assert err.startswith("violation: ") and err.count("\n") == 1, err
                assert name in err, err
            (d / name).write_bytes(pristine[name])

    def test_build_workers_inherit_no_ray_file(self, tmp_path, scene_file, monkeypatch):
        rays = _trace(tmp_path, scene_file)
        write_shards = dataset.write_shards

        def no_ray_file_alive(*args, **kwargs):
            gc.collect()
            assert not [o for o in gc.get_objects() if isinstance(o, RayFile)]
            return write_shards(*args, **kwargs)

        monkeypatch.setattr(dataset, "write_shards", no_ray_file_alive)
        assert _build(tmp_path, scene_file, rays)[0] == 0

    def test_trace_and_build_make_no_path_records(self, tmp_path, scene_file, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a PathRecord was built")

        monkeypatch.setattr(rayio, "PathRecord", refuse)
        rc, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file))
        assert rc == 0
        assert (ds_dir / "shard_bs004.dmds").exists()
        with (tmp_path / "rays" / "rays_bs003.drf").open("rb") as fh, \
                pytest.raises(AssertionError, match="PathRecord"):
            read_rayfile(fh).rows[0]

    def test_full_pipeline(self, tmp_path, scene_file):
        rays = _trace(tmp_path, scene_file)
        assert (rays / "rays_bs003.drf").exists()
        assert (rays / "rays_bs004.drf").exists()

        rc, ds_dir = _build(tmp_path, scene_file, rays)
        assert rc == 0
        assert (ds_dir / "manifest.txt").exists()
        assert (ds_dir / "shard_bs003.dmds").exists()

        ml = tmp_path / "ml"
        rc = run(["beams", "--dataset-dir", str(ds_dir), "--out-dir", str(ml),
                  "--quiet"])
        assert rc == 0
        assert (ml / "features.csv").exists()
        assert (ml / "labels.csv").exists()

        # every artifact validates clean
        assert run(["validate", str(scene_file), "--quiet"]) == 0
        assert run(["validate", str(rays / "rays_bs003.drf"), "--quiet"]) == 0
        assert run(["validate", str(ds_dir / "shard_bs003.dmds"), "--quiet"]) == 0
        assert run(["validate", str(ds_dir), "--quiet"]) == 0

    @pytest.mark.parametrize("workers", [0, 2])
    def test_trace_holds_a_few_steps(self, tmp_path, monkeypatch, workers):
        # 4,000 users of 2 base stations, 25 paths each (a synthetic tracer),
        # in 80 steps of 50 users traced by 2 workers or in this process:
        # it holds the window's chunks (4, or 1) and the step it writes,
        # about 0.4 MB, not the 12 MB of ray files.
        scene = tmp_path / "scene.json"
        sets = [s.replace("users_per_row=3", "users_per_row=2000") for s in TINY_SCENE_SETS]
        assert run(["scene", "--out", str(scene), "--quiet", *sets]) == 0

        def many_paths(scene, bs_id, positions, user_indices, max_reflections, max_paths):
            users = np.zeros(len(user_indices), rayio.USER_ROW)
            users["user_index"] = user_indices
            users["position"] = positions
            users["n_paths"] = MAX_PATHS
            paths = np.zeros(len(users) * MAX_PATHS, rayio.PATH_ROW)
            paths["power"] = np.tile(np.geomspace(1e-6, 1e-9, MAX_PATHS), len(users))
            paths["delay"] = 1e-7
            return tracer.PathBatch(bs_id, users, paths)

        monkeypatch.setattr(tracer, "trace_paths_batch", many_paths)
        monkeypatch.setattr(cli, "_TRACE_CHUNK", 50)
        monkeypatch.setattr(parallel, "worker_count", lambda: workers)
        rays = tmp_path / "rays"
        tracemalloc.start()
        try:
            assert run(["trace", "--scene", str(scene), "--bs", "3,4",
                        "--active_user_first", "1", "--active_user_last", "2",
                        "--out-dir", str(rays), "--quiet"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counters = json.loads((rays / "trace.manifest.json").read_text())["counters"]
        assert (counters["workers"], counters["users_per_step"]) == (workers, 50)
        assert counters["bs003.users_with_25_paths"] == 4000
        size = sum(path.stat().st_size for path in rays.glob("rays_bs*.drf"))
        assert size > 11_000_000
        assert peak < size / 4

    def test_no_leftover_temp_files(self, tmp_path, scene_file):
        rays = _trace(tmp_path, scene_file, bs="3")
        rc, ds_dir = _build(tmp_path, scene_file, rays, active_bs="3")
        assert rc == 0
        ml = tmp_path / "ml"
        assert run(["beams", "--dataset-dir", str(ds_dir), "--out-dir", str(ml),
                    "--quiet"]) == 0
        assert (ml / "ml_manifest.txt").exists()
        for d in (scene_file.parent, rays, ds_dir, ml):
            assert not list(d.glob("*.tmp~"))

    def test_beams_manifest_counts_pairs_steps_and_bytes(self, tmp_path, scene_file,
                                                         monkeypatch):
        _, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file))
        ml = tmp_path / "ml"
        monkeypatch.setattr(parallel, "worker_count", lambda: 2)
        assert run(["beams", "--dataset-dir", str(ds_dir), "--out-dir", str(ml),
                    "--quiet"]) == 0
        counters = json.loads((ml / "beams.manifest.json").read_text())["counters"]
        assert counters == {
            "pairs": 2 * 6, "users_per_step": 256, "workers": 1, "shards_hash_verified": 2,
            "features_bytes": (ml / "features.csv").stat().st_size,
            "labels_bytes": (ml / "labels.csv").stat().st_size,
            "peak_rss_kib": counters["peak_rss_kib"],
            "workers_peak_rss_kib": counters["workers_peak_rss_kib"],
        }
        assert counters["peak_rss_kib"] > 0 and counters["workers_peak_rss_kib"] > 0

    def test_validate_ml_dir(self, tmp_path, scene_file, capsys):
        _, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file))
        ml = tmp_path / "ml"
        assert run(["beams", "--dataset-dir", str(ds_dir), "--out-dir", str(ml),
                    "--quiet"]) == 0
        assert run(["validate", str(ml)]) == 0
        assert f"{ml}: valid" in capsys.readouterr().err
        labels = ml / "labels.csv"
        data = bytearray(labels.read_bytes())
        data[-2] ^= 0x01                  # a digit of the last rate
        labels.write_bytes(bytes(data))
        assert run(["validate", str(ml), "--quiet"]) == 1
        assert "violation: DatasetError: labels.csv: content hash mismatch" \
            in capsys.readouterr().err
        features = ml / "features.csv"
        features.write_bytes(features.read_bytes()[:-1])
        assert run(["validate", str(ml), "--quiet"]) == 1
        assert "violation: DatasetError: features.csv: " in capsys.readouterr().err
        manifest = ml / "ml_manifest.txt"
        manifest.write_text("".join(manifest.read_text().splitlines(True)[:2]))
        assert run(["validate", str(ml), "--quiet"]) == 1
        assert "violation: DatasetError: ml_manifest.txt lists ('features.csv',)" \
            in capsys.readouterr().err

    def test_validate_ml_dir_against_its_run_manifest(self, tmp_path, scene_file, capsys):
        _, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file))
        ml = tmp_path / "ml"
        assert run(["beams", "--dataset-dir", str(ds_dir), "--out-dir", str(ml),
                    "--quiet"]) == 0
        record = ml / "beams.manifest.json"
        record.write_text(json.dumps({**json.loads(record.read_text()),
                                      "outputs": ["elsewhere/other.csv"]}))
        for path in (ml, record):
            assert run(["validate", str(path), "--quiet"]) == 1
            assert capsys.readouterr().err == (
                "violation: DatasetError: other.csv: an output in beams.manifest.json that "
                "ml_manifest.txt does not list; features.csv: listed in ml_manifest.txt but "
                "not an output in beams.manifest.json; labels.csv: listed in ml_manifest.txt "
                "but not an output in beams.manifest.json\n")

    def test_build_manifest_records_inputs(self, tmp_path, scene_file):
        rays = _trace(tmp_path, scene_file, bs="3")
        rc, ds_dir = _build(tmp_path, scene_file, rays, active_bs="3")
        assert rc == 0
        doc = json.loads((ds_dir / "build.manifest.json").read_text())
        assert doc["subcommand"] == "build"
        assert any("rays_bs003.drf" in k for k in doc["input_hashes"])
        assert doc["input_hashes"][str(scene_file)] == content_hash(scene_file.read_bytes())
        assert doc["wall_seconds"] >= 0

    @pytest.mark.parametrize("stage", ["scene", "trace", "build", "beams"])
    def test_run_manifest_hashes_each_input(self, tmp_path, scene_file, stage):
        config = tmp_path / "scene.cfg"
        config.write_text("".join(f"{item}\n" for item in TINY_SCENE_SETS[1::2]))
        scene = tmp_path / "configured.json"
        assert run(["scene", "--config", str(config), "--out", str(scene), "--quiet"]) == 0
        rays = _trace(tmp_path, scene_file)
        _, ds_dir = _build(tmp_path, scene_file, rays)
        ml = tmp_path / "ml"
        assert run(["beams", "--dataset-dir", str(ds_dir), "--out-dir", str(ml),
                    "--quiet"]) == 0
        ray_files = [rays / f"rays_bs{b:03d}.drf" for b in (3, 4)]
        record, inputs = {
            "scene": (tmp_path / "configured.json.manifest.json", {str(config): config}),
            "trace": (rays / "trace.manifest.json", {str(scene_file): scene_file}),
            "build": (ds_dir / "build.manifest.json",
                      {str(f): f for f in [scene_file, *ray_files]}),
            "beams": (ml / "beams.manifest.json", {str(ds_dir): ds_dir / "manifest.txt"}),
        }[stage]
        doc = json.loads(record.read_text())
        assert set(doc) - {"counters"} == {"subcommand", "config_hash", "input_hashes",
                                           "outputs", "wall_seconds", "tool_version"}
        assert doc["subcommand"] == stage
        assert doc["input_hashes"] == {name: content_hash(file.read_bytes())
                                       for name, file in inputs.items()}
        if stage == "scene":
            assert "counters" not in doc
        else:
            assert doc["counters"]["peak_rss_kib"] > 0

    def test_one_parameter_file_drives_trace_and_build(self, tmp_path, scene_file):
        # The flag-driven pair of `_trace` and `_build`, then one file for both.
        want_rays = _trace(tmp_path / "flags", scene_file)
        _, want_ds = _build(tmp_path / "flags", scene_file, want_rays)
        config = tmp_path / "params.txt"
        config.write_text("active_BS = 3,4\nactive_user_first = 1\nactive_user_last = 2\n"
                          "num_ant_y = 4\nnum_ant_z = 2\nnum_OFDM = 16\nOFDM_limit = 8\n")
        rays, ds = tmp_path / "rays", tmp_path / "ds"
        assert run(["trace", "--scene", str(scene_file), "--config", str(config),
                    "--out-dir", str(rays), "--quiet"]) == 0
        assert run(["build", "--scene", str(scene_file), "--rays-dir", str(rays),
                    "--config", str(config), "--out-dir", str(ds), "--quiet"]) == 0
        for want, got in ((want_rays, rays), (want_ds, ds)):
            names = [f.name for f in want.iterdir() if not f.name.endswith(".manifest.json")]
            assert len(names) == {"rays": 2, "ds": 3}[got.name]
            for name in names:
                assert (got / name).read_bytes() == (want / name).read_bytes(), name
        # The trace records its definition: the parameter set and the depth.
        doc = json.loads((rays / "trace.manifest.json").read_text())
        assert doc["config_hash"] == content_hash(
            (serialize_params(parse_params(config.read_text()))
             + "max_reflections=4\nmax_paths=25\n").encode())

    def test_trace_and_build_share_the_parameter_flags(self):
        subcommands = next(a for a in build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction)).choices
        for name in ("trace", "build"):
            flags = {a.dest for a in subcommands[name]._actions
                     if any(o.startswith("--") and o[2:] in KEYS for o in a.option_strings)}
            assert flags == set(KEYS), name

    def test_build_manifest_counts_gaps_and_bytes(self, tmp_path, scene_file, monkeypatch):
        rays = _trace(tmp_path, scene_file)
        rc, ds_dir = _build(tmp_path, scene_file, rays)
        assert rc == 0
        counters = json.loads((ds_dir / "build.manifest.json").read_text())["counters"]
        # 12 records in one 16 MiB step: this process computes them itself.
        # No user lacks rays (that is refused), so there are no gaps to count.
        assert counters == {
            "users_per_step": 256, "workers": 0,
            "bs003.shard_bytes": (ds_dir / "shard_bs003.dmds").stat().st_size,
            "bs004.shard_bytes": (ds_dir / "shard_bs004.dmds").stat().st_size,
            "peak_rss_kib": counters["peak_rss_kib"],
            "workers_peak_rss_kib": 0,
        }
        assert counters["peak_rss_kib"] > 0
        # Records beyond one step: 2 workers and the 4 slots of a 4-step
        # budget, one user per step.
        monkeypatch.setattr(parallel, "worker_count", lambda: 2)
        monkeypatch.setattr(dataset, "_BATCH_BYTES", 4 * 2 * _BUILD_RECORD_BYTES)
        rc, pooled = _build(tmp_path / "pool", scene_file, rays)
        assert rc == 0
        pool_counters = json.loads((pooled / "build.manifest.json").read_text())["counters"]
        assert pool_counters == {**counters, "users_per_step": 1, "workers": 2,
                                 "peak_rss_kib": pool_counters["peak_rss_kib"],
                                 "workers_peak_rss_kib": pool_counters["workers_peak_rss_kib"]}
        assert pool_counters["workers_peak_rss_kib"] > 0
        for name in ("shard_bs003.dmds", "shard_bs004.dmds", "manifest.txt"):
            assert (pooled / name).read_bytes() == (ds_dir / name).read_bytes()


class TestErrors:
    def test_usage_error_exit_2(self):
        assert run([]) == 2
        assert run(["trace"]) == 2

    def test_unknown_preset_exit_2(self, tmp_path):
        assert run(["scene", "--preset", "mars",
                    "--out", str(tmp_path / "x.json")]) == 2

    def test_bad_scene_config_exit_2(self, tmp_path):
        assert run(["scene", "--set", "grid1.n_rows=zero",
                    "--out", str(tmp_path / "x.json")]) == 2

    def test_user_count_beyond_the_index_type(self, tmp_path, scene_file, capsys):
        # 1e30 rows of grid 3: refused when the scene is built, before any array.
        big = tmp_path / "big.json"
        assert run(["scene", "--set", "grid3.n_rows=1e30", "--out", str(big)]) == 2
        assert not big.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: grids: ") and err.count("\n") == 1
        doc = json.loads(scene_file.read_text())
        doc["grids"][2]["n_rows"] = 10**30
        big.write_text(json.dumps(doc))
        assert run(["validate", str(big)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("violation: SceneConfigError: grids: ") and err.count("\n") == 1
        assert run(["trace", "--scene", str(big), "--bs", "3", "--active_user_first", "4",
                    "--active_user_last", str(10**20), "--out-dir", str(tmp_path / "rays"),
                    "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: grids: {10**30 + 7} users in all, more than a user index " \
            f"holds ({2**63 - 1})\n"

    def test_missing_rayfile_names_bs(self, tmp_path, scene_file, capsys):
        rays = _trace(tmp_path, scene_file, bs="3")
        rc, _ = _build(tmp_path, scene_file, rays, active_bs="3,7")
        assert rc == 1
        err = capsys.readouterr().err
        assert "7" in err and "rays_bs007.drf" in err

    @pytest.mark.parametrize("mismatch", ["carrier", "scenario"])
    def test_rays_from_another_scene(self, tmp_path, scene_file, mismatch, capsys):
        rays = _trace(tmp_path, scene_file)
        other = tmp_path / "other.json"
        if mismatch == "carrier":
            assert run(["scene", "--out", str(other), "--quiet",
                        "--set", "carrier_freq_hz=28e9"] + TINY_SCENE_SETS) == 0
        else:
            doc = json.loads(scene_file.read_text())
            doc["name"] = "other"
            other.write_text(json.dumps(doc))
        rc, ds_dir = _build(tmp_path, other, rays)
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {rays / 'rays_bs003.drf'}: rays for base station 3" in err
        assert not ds_dir.exists()

    def test_rays_from_another_layout(self, tmp_path, scene_file, capsys):
        # Same user indices, but grid 1's users 0.05 m further apart: user 1
        # stays where it was, user 2 moves.
        rays = _trace(tmp_path, scene_file)
        other = tmp_path / "other.json"
        assert run(["scene", "--out", str(other), "--quiet", *TINY_SCENE_SETS,
                    "--set", "grid1.spacing_m=0.25"]) == 0
        rc, ds_dir = _build(tmp_path, other, rays)
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {rays / 'rays_bs003.drf'}: rays for base station 3 put user 2 " \
            "at (15, 2.2, 2) m, but the scene puts it at (15, 2.25, 2) m" in err
        assert not ds_dir.exists()

    def test_rays_of_another_base_station(self, tmp_path, scene_file, capsys):
        rays = _swapped_trace(tmp_path, scene_file)
        rc, ds_dir = _build(tmp_path, scene_file, rays)
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {rays / 'rays_bs003.drf'}: rays for base "
                                           f"station 3 were traced from base station 4\n")
        assert not ds_dir.exists()

    @pytest.mark.parametrize("target, named, traced", [
        (".", 3, 4),                    # the trace directory: its first file is named
        ("rays_bs004.drf", 4, 3),       # a lone file with a base station's name
    ], ids=["trace dir", "lone file"])
    def test_validate_refuses_rays_of_another_base_station(self, tmp_path, scene_file, capsys,
                                                           target, named, traced):
        rays = _swapped_trace(tmp_path, scene_file)
        assert run(["validate", str(rays / target), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"violation: RayFileError: {rays / f'rays_bs{named:03d}.drf'}: rays for base "
            f"station {named} were traced from base station {traced}\n")
        unnamed = (rays / "rays_bs004.drf").rename(rays / "rays.drf")   # no name check
        assert run(["validate", str(unnamed), "--quiet"]) == 0

    def test_truncated_ray_file_is_named(self, tmp_path, scene_file, capsys):
        rays = _trace(tmp_path, scene_file)
        bs4 = rays / "rays_bs004.drf"
        bs4.write_bytes(bs4.read_bytes()[:-7])
        rc, ds_dir = _build(tmp_path, scene_file, rays)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bs4}: truncated ") and err.count("\n") == 1
        assert not ds_dir.exists()

    def test_build_refused_when_the_disk_is_too_small(self, tmp_path, scene_file,
                                                      monkeypatch, capsys):
        rays = _trace(tmp_path, scene_file)
        rc, ds_dir = _build(tmp_path, scene_file, rays)
        assert rc == 0
        size = sum(f.stat().st_size for f in ds_dir.glob("shard_bs*.dmds"))
        free = size - 1
        monkeypatch.setattr(shutil, "disk_usage", lambda path: SimpleNamespace(free=free))
        rc, ds_dir = _build(tmp_path / "small", scene_file, rays)
        assert rc == 1
        assert (f"error: {ds_dir}: the dataset needs {size} bytes but only {free} bytes "
                "are free") in capsys.readouterr().err
        assert not (tmp_path / "small").exists()

    def test_tampered_last_shard(self, tmp_path, scene_file, capsys):
        _, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file))
        shard = ds_dir / "shard_bs004.dmds"      # the last shard in the manifest
        data = bytearray(shard.read_bytes())
        data[-1] ^= 0x01                         # in its last record
        shard.write_bytes(bytes(data))
        ml = tmp_path / "ml"
        assert run(["beams", "--dataset-dir", str(ds_dir), "--out-dir", str(ml),
                    "--quiet"]) == 1
        assert "error: shard_bs004.dmds: content hash mismatch" in capsys.readouterr().err
        assert sorted(ml.glob("*")) == []        # no ML file, manifest or *.tmp~
        assert run(["validate", str(ds_dir), "--quiet"]) == 1
        assert "violation: DatasetError: shard_bs004.dmds: content hash mismatch" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("failure,message", [
        ("worker raises", "a beams worker failed: RuntimeError: boom"),
        ("worker dies", "a beams worker process ended abruptly"),
        ("hash check", "shard_bs004.dmds: content hash mismatch"),
    ])
    def test_beams_failure_leaves_nothing(self, tmp_path, scene_file, capsys, monkeypatch,
                                          failure, message):
        _, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file))
        with DatasetReader(ds_dir) as ds:
            users = [int(step[0]["global_index"][0]) for step in dataset.steps(ds, 1)]
            step_bytes = len(ds.bs_ids) * record_dtype(ds.params).itemsize
        # 2 workers and one user per step: the 4 slots of the ring are all
        # in flight when the third user's step fails.
        monkeypatch.setattr(parallel, "worker_count", lambda: 2)
        monkeypatch.setattr(dataset, "_BATCH_BYTES", 5 * step_bytes)
        scored = beams.ml_arrays

        def arrays(batches, cfg):
            if int(batches[0]["global_index"][0]) == users[2]:
                if failure == "worker raises":
                    raise RuntimeError("boom")
                if failure == "worker dies":
                    os._exit(3)
            return scored(batches, cfg)

        monkeypatch.setattr(beams, "ml_arrays", arrays)
        if failure == "hash check":
            shard = ds_dir / "shard_bs004.dmds"
            data = bytearray(shard.read_bytes())
            data[-1] ^= 0x01                     # in its last record
            shard.write_bytes(bytes(data))
        ml = tmp_path / "ml"
        with _deadline(60):
            assert run(["beams", "--dataset-dir", str(ds_dir), "--out-dir", str(ml),
                        "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert sorted(ml.glob("*")) == []        # no ML file, manifest or *.tmp~
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failure,message", [
        ("worker raises", "a build worker failed: RuntimeError: boom"),
        ("worker dies", "a build worker process ended abruptly"),
        ("channel kernel", "a build worker failed: FloatingPointError: kernel failed"),
    ])
    def test_build_failure_leaves_nothing(self, tmp_path, scene_file, capsys, monkeypatch,
                                          failure, message):
        rays = _trace(tmp_path, scene_file)
        # 2 workers and one user per step: the 4 slots of the ring are all in
        # flight when the third user's step fails.
        monkeypatch.setattr(parallel, "worker_count", lambda: 2)
        monkeypatch.setattr(dataset, "_BATCH_BYTES", 4 * 2 * _BUILD_RECORD_BYTES)
        fill, kernel = dataset.RayDataset.fill, dataset.channel_matrices_batch

        def fail_fill(source, batches, lo):
            if lo == 2:
                if failure == "worker raises":
                    raise RuntimeError("boom")
                os._exit(3)
            return fill(source, batches, lo)

        def fail_kernel(rays, params):
            if rays.users["user_index"][0] == 3:
                raise FloatingPointError("kernel failed")
            return kernel(rays, params)

        if failure == "channel kernel":
            monkeypatch.setattr(dataset, "channel_matrices_batch", fail_kernel)
        else:
            monkeypatch.setattr(dataset.RayDataset, "fill", fail_fill)
        with _deadline(60):
            rc, ds_dir = _build(tmp_path, scene_file, rays)
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert sorted(ds_dir.glob("*")) == []    # no shard, manifest or *.tmp~
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failure,message", [
        ("tracer raises", "unknown base station id 4"),
        ("worker raises", "a trace worker failed: RuntimeError: boom"),
        ("worker dies", "a trace worker process ended abruptly"),
        ("users out of order", "refusing to write invalid ray data: "
                               "record 5: user_index: must be strictly ascending"),
    ])
    def test_trace_failure_leaves_nothing(self, tmp_path, scene_file, capsys, monkeypatch,
                                          failure, message):
        last = int(users_in_row_range(scene_from_json(scene_file.read_text()), 1, 2)[-1])
        # In this process, one step of the 6 users; in 2 workers, 6 steps of
        # 1 user. The failure comes in the last step, base station 4 (or 3
        # for the user order, checked here as the steps are taken), after
        # every other chunk has been traced.
        if failure != "tracer raises":
            monkeypatch.setattr(parallel, "worker_count", lambda: 2)
            monkeypatch.setattr(cli, "_TRACE_CHUNK", 1)
        traced = tracer.trace_paths_batch

        def fail_last(scene, bs_id, positions, user_indices, **kw):
            batch = traced(scene, bs_id, positions, user_indices=user_indices, **kw)
            if user_indices[-1] == last and failure == "users out of order":
                batch.users["user_index"] -= 1      # the first repeats the step before's last
            elif user_indices[-1] == last and bs_id == 4:
                if failure == "tracer raises":
                    raise KeyError("unknown base station id 4")
                if failure == "worker raises":
                    raise RuntimeError("boom")
                os._exit(3)
            return batch

        monkeypatch.setattr(tracer, "trace_paths_batch", fail_last)
        rays = tmp_path / "rays"
        with _deadline(60):
            assert run(["trace", "--scene", str(scene_file), "--bs", "3,4",
                        "--active_user_first", "1", "--active_user_last", "2",
                        "--out-dir", str(rays), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert sorted(rays.glob("*")) == []      # no ray file, manifest or *.tmp~
        assert multiprocessing.active_children() == []

    def test_unknown_bs_in_trace(self, tmp_path, scene_file, capsys):
        rc = run([
            "trace", "--scene", str(scene_file), "--bs", "99",
            "--active_user_first", "1", "--active_user_last", "1",
            "--out-dir", str(tmp_path / "r"), "--quiet",
        ])
        assert rc == 1
        # The message, not the repr that str() gives a KeyError.
        assert capsys.readouterr().err == "error: unknown base station id 99 (valid: 1..18)\n"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_not_numbered_from_1(self, tmp_path, capsys, monkeypatch, workers):
        # The o1 scene with every grid's rows raised by 99: each grid still
        # follows the one before, but no user sits in rows 1..99.
        monkeypatch.setattr(parallel, "worker_count", lambda: workers)
        scene = tmp_path / "scene.json"
        assert run(["scene", "--out", str(scene), "--quiet"]) == 0
        doc = json.loads(scene.read_text())
        for grid in doc["grids"]:
            grid["first_row_label"] += 99
        scene.write_text(json.dumps(doc))
        message = "grid 1: first_row_label 100 breaks contiguous row labelling (expected 1)"
        with pytest.raises(SceneConfigError) as exc:
            scene_from_json(scene.read_text())
        assert str(exc.value) == message
        assert run(["validate", str(scene), "--quiet"]) == 1
        assert capsys.readouterr().err == f"violation: SceneConfigError: {message}\n"
        rays = tmp_path / "rays"
        for first, last in [("1", "2"), ("5300", "5300")]:
            assert run(["trace", "--scene", str(scene), "--bs", "3,4",
                        "--active_user_first", first, "--active_user_last", last,
                        "--out-dir", str(rays), "--quiet"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not rays.exists()
        assert run(["build", "--scene", str(scene), "--rays-dir", str(rays),
                    "--out-dir", str(tmp_path / "ds"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_build_over_rows_the_rays_lack(self, tmp_path, o1_rays, capsys, monkeypatch,
                                           workers):
        # Rays of row 1000, a parameter set of rows 1000-1001: refused, not
        # built with zero channels for the 181 users of row 1001.
        monkeypatch.setattr(parallel, "worker_count", lambda: workers)
        scene, rays = o1_rays
        out = tmp_path / "ds"
        assert run(["build", "--scene", str(scene), "--rays-dir", str(rays),
                    "--set", "active_BS=3,4", "--set", "active_user_first=1000",
                    "--set", "active_user_last=1001", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {rays}/rays_bs003.drf: rays for base station 3 hold no record of 181 of "
            f"the 362 active users (user 181001, 181002, 181003, 181004, 181005, ...): they "
            f"were traced for another parameter set or scene\n")
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sets,message", [
        (["OFDM_limit=2000"], "subcarrier set exceeds num_OFDM: 1 + (OFDM_limit-1)"
         "*OFDM_sampling_factor = 2000 > num_OFDM = 1024 (OFDM_limit=2000, "
         "OFDM_sampling_factor=1, num_OFDM=1024)"),
        (["OFDM_limit=1025", "num_ant_y=1", "num_ant_z=1"], "subcarrier set exceeds "
         "num_OFDM: 1 + (OFDM_limit-1)*OFDM_sampling_factor = 1025 > num_OFDM = 1024 "
         "(OFDM_limit=1025, OFDM_sampling_factor=1, num_OFDM=1024)"),
        (["num_ant_y=1000000", "OFDM_limit=1000", "num_OFDM=100000"], "record size: 32 + "
         "16*num_ant_x*num_ant_y*num_ant_z*OFDM_limit = 128000000032 bytes, more than a "
         "record holds (2147483647)"),
    ], ids=["8-MB-records", "16-KB-records", "records-past-a-C-int"])
    def test_param_set_refused_before_anything_is_written(self, tmp_path, o1_rays, capsys,
                                                         monkeypatch, workers, sets, message):
        # Refused where the parameters are read, whether or not the records
        # of a step would fork workers.
        monkeypatch.setattr(parallel, "worker_count", lambda: workers)
        with pytest.raises(ParamError) as exc:
            parse_params("\n".join(sets))
        assert str(exc.value) == message
        scene, rays = o1_rays
        out = tmp_path / "ds"
        assert run(["build", "--scene", str(scene), "--rays-dir", str(rays),
                    "--set", "active_BS=3,4", "--set", "active_user_first=1000",
                    "--set", "active_user_last=1000", *(a for s in sets for a in ("--set", s)),
                    "--out-dir", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_validate_a_shard_alone(self, tmp_path, scene_file, capsys):
        _, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file))
        alone = tmp_path / "alone" / "shard_bs003.dmds"
        alone.parent.mkdir()
        shutil.copyfile(ds_dir / "shard_bs003.dmds", alone)
        assert run(["validate", str(alone), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        alone.write_bytes(alone.read_bytes()[:100])
        assert run(["validate", str(alone), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("violation: DatasetError: shard_bs003.dmds: echo block overruns "
                              "file: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ['{"outputs": 5}', "not json"])
    def test_malformed_run_manifest(self, tmp_path, scene_file, capsys, text):
        rays = _trace(tmp_path, scene_file)
        (rays / "trace.manifest.json").write_text(text)
        assert run(["validate", str(rays), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("violation: DatasetError: trace.manifest.json: malformed run "
                              "manifest: ") and err.count("\n") == 1

    def test_validate_a_directory_without_a_stage_manifest(self, tmp_path, scene_file, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["validate", str(empty)]) == 1
        assert capsys.readouterr().err == (
            f"violation: DatasetError: {empty}: holds no stage manifest (trace.manifest.json, "
            "manifest.txt, build.manifest.json, ml_manifest.txt, beams.manifest.json or a "
            "scene's <scene file>.manifest.json)\n")
        # A build run manifest without its manifest.txt fails on the missing file.
        _, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file))
        (ds_dir / "manifest.txt").unlink()
        assert run(["validate", str(ds_dir), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("violation: FileNotFoundError: ") and "manifest.txt" in err
        assert err.count("\n") == 1

    def test_manifest_lists_a_file_outside_its_directory(self, tmp_path, scene_file, capsys):
        _, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file), active_bs="3")
        (ds_dir / "build.manifest.json").unlink()     # as `write_shards` leaves it
        (ds_dir / "shard_bs003.dmds").rename(tmp_path / "outside.dmds")
        manifest = ds_dir / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("shard_bs003.dmds", "../outside.dmds"))
        message = "manifest line 2: '../outside.dmds' is not a file name in its directory"
        assert run(["validate", str(ds_dir), "--quiet"]) == 1
        assert capsys.readouterr().err == f"violation: DatasetError: {message}\n"
        assert run(["beams", "--dataset-dir", str(ds_dir), "--out-dir", str(tmp_path / "ml"),
                    "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_validate_garbage_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "junk.bin"
        bad.write_bytes(b"\x00\x01\x02\x03garbage")
        assert run(["validate", str(bad)]) == 1
        assert "violation" in capsys.readouterr().err

    def test_validate_corrupt_rayfile(self, tmp_path, scene_file, capsys):
        rays = _trace(tmp_path, scene_file, bs="3")
        f = rays / "rays_bs003.drf"
        f.write_bytes(f.read_bytes()[:-5])
        assert run(["validate", str(f), "--quiet"]) == 1
        err = capsys.readouterr().err       # one line, naming the file
        assert err.startswith(f"violation: RayFileCorruptionError: {f}: truncated ")
        assert err.count("\n") == 1

    def test_validate_semantic_rayfile_violation(self, tmp_path, scene_file, capsys):
        f = _trace(tmp_path, scene_file, bs="3") / "rays_bs003.drf"
        data = bytearray(f.read_bytes())
        with f.open("rb") as fh:
            records = read_rayfile(fh).rows
        # The power of the first path: 8 + 3 * 8 + 2 bytes of user head, then
        # four angles, before it in the first user's record that has paths.
        offset = HEADER_SIZE
        for pl in records:
            if pl.paths:
                break
            offset += 34
        struct.pack_into("<d", data, offset + 34 + 4 * 8, -pl.paths[0].power)
        f.write_bytes(bytes(data))
        assert run(["validate", str(f), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "violation: RayFileSemanticError: " in err and "power > 0" in err

    def test_validate_inconsistent_dataset(self, tmp_path, scene_file, capsys):
        _, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file))

        def swap_user(records):
            records["global_index"][2] = 99   # first and last user unchanged

        rewrite_shard(ds_dir, "shard_bs004.dmds", swap_user)
        assert run(["validate", str(ds_dir), "--quiet"]) == 1
        assert "violation: DatasetError: shard_bs004.dmds: user list differs" \
            in capsys.readouterr().err

    def test_validate_csv_export(self, tmp_path, scene_file, capsys):
        rc, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file), fmt="csv")
        assert rc == 0
        assert run(["validate", str(ds_dir)]) == 0
        assert capsys.readouterr().err == f"{ds_dir}: valid\n"
        csv = ds_dir / "bs004_channels.csv"
        data = bytearray(csv.read_bytes())
        data[-2] ^= 0x01                  # a digit of the last value
        csv.write_bytes(bytes(data))
        assert run(["validate", str(ds_dir), "--quiet"]) == 1
        assert capsys.readouterr().err == \
            "violation: DatasetError: bs004_channels.csv: content hash mismatch\n"

    def test_validate_csv_export_with_a_file_unlisted(self, tmp_path, scene_file, capsys):
        rc, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file), fmt="csv")
        assert rc == 0
        manifest = ds_dir / "manifest.txt"
        manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                    if not line.startswith("bs004_channels.csv ")))
        assert run(["validate", str(ds_dir), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "violation: DatasetError: bs004_channels.csv: an output in build.manifest.json "
            "that manifest.txt does not list\n")

    def test_malformed_manifest_line(self, tmp_path, scene_file, capsys):
        _, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file))
        manifest = ds_dir / "manifest.txt"
        manifest.write_text(manifest.read_text() + "garbage line\n")
        assert run(["validate", str(ds_dir), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "violation: DatasetError: manifest line 4:" in err
        assert "Traceback" not in err
        assert run(["beams", "--dataset-dir", str(ds_dir),
                    "--out-dir", str(tmp_path / "ml"), "--quiet"]) == 1
        assert "error: manifest line 4:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,listed", [
        ("append bs003", "3,4,3"), ("drop bs004", "3"), ("swap", "4,3"),
    ])
    def test_manifest_must_list_the_active_bs_in_order(self, tmp_path, scene_file, capsys,
                                                       edit, listed):
        _, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file))
        manifest = ds_dir / "manifest.txt"
        head, bs3, bs4 = manifest.read_text().splitlines(True)
        manifest.write_text(head + {"append bs003": bs3 + bs4 + bs3, "drop bs004": bs3,
                                    "swap": bs4 + bs3}[edit])
        message = f"manifest.txt lists base stations {listed}, but the shards' active_BS is 3,4"
        assert run(["validate", str(ds_dir), "--quiet"]) == 1
        assert capsys.readouterr().err == f"violation: DatasetError: {message}\n"
        ml = tmp_path / "ml"
        assert run(["beams", "--dataset-dir", str(ds_dir), "--out-dir", str(ml),
                    "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not ml.exists()

    def test_fractional_grid_count_in_scene_file(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        assert run(["scene", "--out", str(scene), "--quiet"]) == 0
        doc = json.loads(scene.read_text())
        doc["grids"][2]["n_rows"] = 7.9
        scene.write_text(json.dumps(doc))
        message = "grids[2].n_rows: expected an integer, got 7.9"
        assert run(["validate", str(scene), "--quiet"]) == 1
        assert capsys.readouterr().err == f"violation: SceneConfigError: {message}\n"
        assert run(["trace", "--scene", str(scene), "--bs", "3",
                    "--active_user_first", "3853", "--active_user_last", "3853",
                    "--out-dir", str(tmp_path / "rays"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "rays").exists()

    @pytest.mark.parametrize("path,value,message", [
        (("name",), 5, "name: expected a string, got 5"),
        (("material_losses",), [6.0, 6.0],
         "material_losses: expected an object of numbers, got [6.0, 6.0]"),
        (("grids", 0, "origin"), [15.0, 2.0],
         "grids[0].origin: expected 3 numbers, got [15.0, 2.0]"),
        (("base_stations", 2, "position"), [200.0, 0.5],
         "base_stations[2].position: expected 3 numbers, got [200.0, 0.5]"),
        (("buildings",), {}, "buildings: expected a list of objects, got {}"),
        (("name",), "a\nb",
         "name: must be one line of at most 32 bytes of UTF-8 without NUL, got 'a\\nb'"),
        (("name",), "x" * 40, "name: must be one line of at most 32 bytes of UTF-8 without "
                               f"NUL, got '{'x' * 40}'"),
        (("name",), "o1\0", "name: must be one line of at most 32 bytes of UTF-8 without "
                             "NUL, got 'o1\\x00'"),
    ], ids=["name-int", "losses-list", "origin-2", "position-2", "buildings-object",
            "name-2-lines", "name-40-bytes", "name-nul"])
    def test_malformed_scene_file(self, tmp_path, capsys, path, value, message):
        scene = tmp_path / "scene.json"
        assert run(["scene", "--out", str(scene), "--quiet"]) == 0
        doc = json.loads(scene.read_text())
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        scene.write_text(json.dumps(doc))
        assert run(["validate", str(scene), "--quiet"]) == 1
        assert capsys.readouterr().err == f"violation: SceneConfigError: {message}\n"
        assert run(["trace", "--scene", str(scene), "--bs", "3",
                    "--active_user_first", "1000", "--active_user_last", "1000",
                    "--out-dir", str(tmp_path / "rays"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "rays").exists()
        assert run(["build", "--scene", str(scene), "--rays-dir", str(tmp_path / "rays"),
                    "--set", "active_BS=3", "--out-dir", str(tmp_path / "ds"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--snr", "0", "--snr must be finite and > 0, got 0.0"),
        ("--snr", "nan", "--snr must be finite and > 0, got nan"),
        ("--snr", "inf", "--snr must be finite and > 0, got inf"),
        ("--oversampling", "0", "--oversampling must be > 0, got 0"),
    ], ids=["--snr-0", "--snr-nan", "--snr-inf", "--oversampling-0"])
    def test_beams_bad_value_exit_2(self, tmp_path, capsys, flag, value, message):
        # Refused before the dataset is opened: this one does not exist.
        assert run(["beams", "--dataset-dir", str(tmp_path / "nowhere"),
                    "--out-dir", str(tmp_path / "ml"), flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "ml").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--bs", "x", "flag --bs: key 'active_BS' expects integers, got 'x'"),
        ("--bs", "3,4.5", "flag --bs: key 'active_BS' expects integers, got '3,4.5'"),
        ("--bs", ",", "flag --bs: key 'active_BS' expects a comma-separated list"),
        ("--bs", "3,3", "active_BS: duplicate ids"),
        ("--active_BS", "x", "flag --active_BS: key 'active_BS' expects integers, got 'x'"),
        ("--max-reflections", "-1", "--max-reflections must be >= 0, got -1"),
        ("--max-paths", "0", "--max-paths must be in 1..25, got 0"),
        ("--max-paths", "26", "--max-paths must be in 1..25, got 26"),
    ])
    def test_trace_bad_value_exit_2(self, tmp_path, capsys, flag, value, message):
        # Refused before any tracing: the scene file does not exist.
        args = {"--bs": "3", "--max-reflections": "4", "--max-paths": "25", flag: value}
        assert run(["trace", "--scene", str(tmp_path / "nowhere.json"),
                    "--active_user_first", "1", "--active_user_last", "2",
                    "--out-dir", str(tmp_path / "rays"),
                    *(x for item in args.items() for x in item)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}\n" in err
        assert "Traceback" not in err
        assert not (tmp_path / "rays").exists()

    @pytest.mark.parametrize("item,message", [
        ("grid1.n_rows=inf", "grid1.n_rows: must be a whole number, got inf"),
        ("grid1.n_rows=nan", "grid1.n_rows: must be a whole number, got nan"),
        ("grid3.n_rows=7.9", "grid3.n_rows: must be a whole number, got 7.9"),
        ("grid2.users_per_row=1e400", "grid2.users_per_row: must be a whole number, got inf"),
        ("grid1.spacing_m=nan", "grid1.spacing_m: must be > 0, got nan"),
        ("building_height_m=nan", "building_height_m: must be > 0, got nan"),
        ("building_height_m=inf",
         "building corners: must be finite, got (0.0, -60.0, 0.0, 30.0, 0.0, inf)"),
        ("grid1.origin_x=nan", "grid origin: must be finite, got (nan, 2.0, 2.0)"),
        ("grid2.spacing_m=inf", "grid spacing_m: must be finite, got inf"),
        ("user_height_m=nan", "grid origin: must be finite, got (15.0, 2.0, nan)"),
        ("bs.3.z=nan", "bs.3 position: must be finite, got (200.0, 0.5, nan)"),
        ("bs_height_m=-inf", "bs.1 position: must be finite, got (100.0, 0.5, -inf)"),
        ("carrier_freq_hz=inf", "carrier_freq_hz: must be finite, got inf"),
        ("ground_z_m=nan", "ground_z_m: must be finite, got nan"),
        ("material.ground.loss_db=nan", "material 'ground' loss_db: must be finite, got nan"),
    ])
    def test_scene_bad_value_exit_2(self, tmp_path, capsys, item, message):
        out = tmp_path / "scene.json"
        assert run(["scene", "--out", str(out), "--quiet", "--set", item]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("first,last", [(5, 3), (1, 99999), (5, 5)])
    def test_row_range_outside_scene_exit_2(self, tmp_path, scene_file, capsys, first, last):
        # The tiny scene has rows R1..R4; first > last is a parameter error,
        # before the scene is consulted.
        message = (f"error: active_user_first ({first}) must be <= active_user_last ({last})\n"
                   if first > last else f"error: row range R{first}..R{last} invalid: rows "
                                        f"must satisfy R1 <= first <= last <= R4\n")
        out = tmp_path / "out"
        assert run(["trace", "--scene", str(scene_file), "--bs", "3",
                    "--active_user_first", str(first), "--active_user_last", str(last),
                    "--out-dir", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()
        if first > last:
            return
        rays = _trace(tmp_path, scene_file, bs="3")
        assert run(["build", "--scene", str(scene_file), "--rays-dir", str(rays),
                    "--set", "active_BS=3", "--set", f"active_user_first={first}",
                    "--set", f"active_user_last={last}", "--out-dir", str(out),
                    "--quiet"]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("path,value,message", [
        (("carrier_freq",), math.nan, "carrier_freq_hz: must be finite, got nan"),
        (("ground_z",), math.inf, "ground_z_m: must be finite, got inf"),
        (("material_losses", "ground"), math.nan,
         "material 'ground' loss_db: must be finite, got nan"),
        (("base_stations", 0, "position", 2), math.nan,
         "bs.1 position: must be finite, got (100.0, 0.5, nan)"),
        (("grids", 0, "row_axis", 0), -math.inf,
         "grid row_axis: must be finite, got (-inf, 0.0, 0.0)"),
    ])
    def test_non_finite_number_in_scene_file(self, tmp_path, capsys, path, value, message):
        scene = tmp_path / "scene.json"
        assert run(["scene", "--out", str(scene), "--quiet"]) == 0
        doc = json.loads(scene.read_text())
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        scene.write_text(json.dumps(doc))       # as the token NaN, Infinity or -Infinity
        assert run(["validate", str(scene), "--quiet"]) == 1
        assert capsys.readouterr().err == f"violation: SceneConfigError: {message}\n"
        assert run(["trace", "--scene", str(scene), "--bs", "3",
                    "--active_user_first", "1", "--active_user_last", "1",
                    "--out-dir", str(tmp_path / "rays"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "rays").exists()

    def test_bad_param_value_exit_2(self, tmp_path, scene_file):
        rays = _trace(tmp_path, scene_file, bs="3")
        rc = run([
            "build", "--scene", str(scene_file), "--rays-dir", str(rays),
            "--set", "active_BS=3", "--set", "num_paths=0",
            "--out-dir", str(tmp_path / "d"), "--quiet",
        ])
        assert rc == 2

    # Scene and config files are usage errors (exit 2); a manifest is a
    # dataset that fails its checks (exit 1).
    @pytest.mark.parametrize("case,code", [
        ("trace --scene", 2), ("build --scene", 2), ("scene --config", 2),
        ("build --config", 2), ("beams manifest.txt", 1),
    ])
    def test_input_that_is_not_utf8(self, tmp_path, scene_file, capsys, case, code):
        bad = tmp_path / "manifest.txt"
        bad.write_bytes(b"\xff\xfe\x00")
        out = tmp_path / "out"
        scene = str(bad if case.endswith("--scene") else scene_file)
        argv = {
            "trace --scene": ["trace", "--scene", scene, "--bs", "3", "--active_user_first",
                              "1", "--active_user_last", "2", "--out-dir", str(out)],
            "build --scene": ["build", "--scene", scene, "--rays-dir", str(tmp_path),
                              "--out-dir", str(out)],
            "scene --config": ["scene", "--config", str(bad), "--out", str(out / "s.json")],
            "build --config": ["build", "--scene", scene, "--rays-dir", str(tmp_path),
                               "--config", str(bad), "--out-dir", str(out)],
            "beams manifest.txt": ["beams", "--dataset-dir", str(tmp_path),
                                   "--out-dir", str(out)],
        }[case]
        capsys.readouterr()
        assert run(argv) == code
        assert capsys.readouterr() == ("", f"error: {bad}: not UTF-8 text: 'utf-8' codec "
                                           "can't decode byte 0xff in position 0: "
                                           "invalid start byte\n")
        assert not out.exists()


class TestProgress:
    def test_build_first_line_carries_total(self, tmp_path, scene_file, capsys):
        rays = _trace(tmp_path, scene_file)
        capsys.readouterr()
        rc = run([
            "build", "--scene", str(scene_file), "--rays-dir", str(rays),
            "--set", "active_BS=3,4", "--set", "active_user_first=1",
            "--set", "active_user_last=2", "--out-dir", str(tmp_path / "ds"),
        ])
        assert rc == 0
        lines = [ln for ln in capsys.readouterr().err.splitlines()
                 if ln.startswith("BUILD ")]
        # 2 base stations x 2 rows x 3 users per row
        assert lines[0].endswith("/12")
        assert lines[-1] == "BUILD 12/12"

    def test_build_lines_follow_the_steps_written(self, tmp_path, scene_file, capsys,
                                                  monkeypatch):
        rays = _trace(tmp_path, scene_file)
        # 2 workers computing one user per step, 2 pairs per step.
        monkeypatch.setattr(parallel, "worker_count", lambda: 2)
        monkeypatch.setattr(dataset, "_BATCH_BYTES", 4 * 2 * _BUILD_RECORD_BYTES)
        capsys.readouterr()
        assert _build(tmp_path, scene_file, rays, quiet=False)[0] == 0
        lines = [ln for ln in capsys.readouterr().err.splitlines()
                 if ln.startswith("BUILD ")]
        assert lines == [f"BUILD {2 * k}/12" for k in range(1, 7)]

    def test_beams_counts_pairs_written(self, tmp_path, scene_file, capsys):
        _, ds_dir = _build(tmp_path, scene_file, _trace(tmp_path, scene_file))
        capsys.readouterr()
        assert run(["beams", "--dataset-dir", str(ds_dir),
                    "--out-dir", str(tmp_path / "ml")]) == 0
        lines = [ln for ln in capsys.readouterr().err.splitlines()
                 if ln.startswith("BEAMS ")]
        assert lines[0].endswith("/12")
        assert lines[-1] == "BEAMS 12/12"


class TestParamMerge:
    def test_build_has_one_flag_per_parameter_key(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        other = {"-h", "--help", "--scene", "--rays-dir", "--config", "--set", "--format",
                 "--out-dir", "--quiet"}
        flags = [s for a in sub.choices["build"]._actions for s in a.option_strings]
        assert [s for s in flags if s not in other] == [f"--{key}" for key in KEYS]

    def test_flag_overrides_set(self, tmp_path, scene_file):
        # --num_ant_y flag should win over --set of the same key
        parser = build_parser()
        args = parser.parse_args([
            "build", "--scene", "s", "--rays-dir", "r",
            "--set", "num_ant_y=4", "--num_ant_y", "2",
        ])
        from mimogen.cli import _params_from_args
        assert _params_from_args(args).num_ant_y == 2

    def test_config_file_then_set(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("num_paths=3\nnum_ant_y=16\n")
        parser = build_parser()
        args = parser.parse_args([
            "build", "--scene", "s", "--rays-dir", "r",
            "--config", str(cfg), "--set", "num_paths=7",
        ])
        from mimogen.cli import _params_from_args
        p = _params_from_args(args)
        assert p.num_paths == 7
        assert p.num_ant_y == 16

    def _argv(self, cmd, tmp_path, scene_file):
        if cmd == "scene":
            return ["scene", "--out", str(tmp_path / "s.json"), "--quiet"]
        return ["build", "--scene", str(scene_file), "--rays-dir", str(tmp_path / "r"),
                "--out-dir", str(tmp_path / "d"), "--quiet"]

    @pytest.mark.parametrize("cmd", ["scene", "build"])
    @pytest.mark.parametrize("config,extra", [
        ("num_paths=3\ngarbage\n", []),
        ("num_paths=3\nnum_paths=4\n", []),
        (None, ["--set", "garbage"]),
    ], ids=["malformed_config_line", "duplicate_config_key", "set_without_equals"])
    def test_bad_input_exit_2(self, cmd, config, extra, tmp_path, scene_file):
        if config is not None:
            cfg = tmp_path / "c.cfg"
            cfg.write_text(config)
            extra = ["--config", str(cfg)]
        assert run(self._argv(cmd, tmp_path, scene_file) + extra) == 2

    @pytest.mark.parametrize("cmd,good,bad", [
        ("scene", "grid1.n_rows=2", "carrier_freq_hz=abc"),
        ("build", "active_BS=3", "num_ant_y=abc"),
    ])
    def test_config_error_cites_file_line(self, cmd, good, bad, tmp_path, scene_file,
                                          capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"# header comment\n\n{good}\n{bad}\n")
        argv = self._argv(cmd, tmp_path, scene_file) + ["--config", str(cfg)]
        assert run(argv) == 2
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,source", [
        (["--set", "num_paths=3", "--set", "num_ant_y=abc"], "--set item 2"),
        (["--num_ant_y", "abc"], "flag --num_ant_y"),
    ], ids=["set", "flag"])
    def test_override_error_names_its_source(self, extra, source, tmp_path, scene_file,
                                             capsys):
        assert run(self._argv("build", tmp_path, scene_file) + extra) == 2
        assert source in capsys.readouterr().err


class TestProgressReporter:
    def test_rate_limited_to_percent_steps(self):
        buf = io.StringIO()
        rep = ProgressReporter("TRACE", 10_000, stream=buf)
        for i in range(1, 10_001):
            rep.update(i)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) <= 102
        assert lines[-1] == "TRACE 10000/10000"
        assert all(l.startswith("TRACE ") for l in lines)

    def test_quiet_suppresses_output(self):
        buf = io.StringIO()
        rep = ProgressReporter("BUILD", 10, stream=buf, quiet=True)
        for i in range(1, 11):
            rep.update(i)
        assert buf.getvalue() == ""

    def test_final_line_once(self):
        buf = io.StringIO()
        rep = ProgressReporter("X", 5, stream=buf)
        rep.update(5)
        rep.update(5)
        assert buf.getvalue().count("X 5/5") == 1

    def test_zero_total(self):
        buf = io.StringIO()
        ProgressReporter("Y", 0, stream=buf).update(0)
        assert buf.getvalue() == "Y 0/0\n"


class TestEnv:
    def test_out_dir_env_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("MIMOGEN_OUT_DIR", str(tmp_path / "envout"))
        from mimogen.cli import _default_outdir
        assert _default_outdir() == str(tmp_path / "envout")
