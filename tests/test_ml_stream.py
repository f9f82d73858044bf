"""The ML export from a shard directory (``DatasetReader``) against the
one from a whole ``Dataset`` held in memory."""

import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimogen
from mimogen import dataset, parallel
from mimogen.beams import (
    BeamEvalConfig,
    dft_codebook,
    write_ml_dataset,
)
from mimogen.dataset import (
    DatasetError,
    DatasetReader,
    Manifest,
    batch_users,
    build_dataset,
    load_dataset,
    pool_plan,
    record_dtype,
    shard_sources,
    write_shards,
)
from mimogen.params import serialize_params
from mimogen.rayio import write_rayfile
from mimogen.scene import scene_to_json

from test_dataset import _params, _ray_sources, _small_scene

ML_OUTPUTS = ("features.csv", "labels.csv", "ml_manifest.txt")


def _stream(ds_dir: Path, cfg: BeamEvalConfig, outdir: Path):
    with DatasetReader(ds_dir) as reader:
        manifest = write_ml_dataset(reader, cfg, outdir)
        assert reader.verified == len(reader.bs_ids)
    return manifest


@st.composite
def _ml_cases(draw):
    users_per_row = draw(st.integers(1, 5))
    first = draw(st.integers(1, 4))
    params = _params(
        active_bs=tuple(draw(st.lists(st.sampled_from([3, 4, 5, 6]), min_size=1,
                                      max_size=4, unique=True))),
        active_user_first=first, active_user_last=draw(st.integers(first, 4)),
        num_ant_x=draw(st.integers(1, 2)), num_ant_y=draw(st.integers(1, 3)),
        num_ant_z=draw(st.integers(1, 2)), num_ofdm=8,
        ofdm_limit=draw(st.integers(1, 4)), num_paths=draw(st.integers(1, 4)))
    # Batch budget in bytes: from one record per step (0 still gives one
    # user) to a few users per shard, or the default 16 MiB.
    n_bs = len(params.active_bs)
    budget = draw(st.one_of(st.integers(0, 3 * n_bs * record_dtype(params).itemsize),
                            st.just(dataset._BATCH_BYTES)))
    cfg = BeamEvalConfig(dft_codebook(params.dims, draw(st.integers(1, 2))),
                         snr=draw(st.sampled_from([1.0, 1e12])),
                         conjugate=draw(st.booleans()))
    return users_per_row, params, budget, cfg, draw(st.integers(0, 2**32 - 1))


class TestStreamedExport:
    @settings(deadline=None, max_examples=60)
    @given(_ml_cases())
    def test_equals_list_based_export(self, case):
        users_per_row, p, budget, cfg, seed = case
        scene = _small_scene(users_per_row)
        ds = build_dataset(_ray_sources(np.random.default_rng(seed), scene, p), p, scene)
        with tempfile.TemporaryDirectory() as tmp:
            ds_dir, ref, out = Path(tmp) / "ds", Path(tmp) / "ref", Path(tmp) / "out"
            write_shards(ds_dir, ds)
            want = write_ml_dataset(ds, cfg, ref)
            with mock.patch.object(dataset, "_BATCH_BYTES", budget):
                step = batch_users(p, len(p.active_bs))
                assert step == max(1, min(256, budget // (len(p.active_bs)
                                                          * record_dtype(p).itemsize)))
                got = _stream(ds_dir, cfg, out)
            assert got == want
            for name in ML_OUTPUTS:
                assert (out / name).read_bytes() == (ref / name).read_bytes()

    def test_memory_bounded_by_step(self, rng, tmp_path, monkeypatch):
        scene = _small_scene(80)
        p = _params(active_bs=(3, 4), active_user_last=2, num_ant_y=8, num_ant_z=4,
                    num_ofdm=64, ofdm_limit=64)
        ds = build_dataset(_ray_sources(rng, scene, p), p, scene)
        write_shards(tmp_path / "ds", ds)
        del ds
        step = 8 * 2 * record_dtype(p).itemsize      # 8 users of each of 2 shards
        monkeypatch.setattr(dataset, "_BATCH_BYTES", step)
        cfg = BeamEvalConfig(dft_codebook(p.dims))
        tracemalloc.start()
        try:
            manifest = _stream(tmp_path / "ds", cfg, tmp_path / "ml")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert manifest.entries[0].last_user > manifest.entries[0].first_user
        n_steps = 160 // 8
        assert n_steps == 20
        # This process holds one step of records and the rows of the steps
        # in flight (the ring is an mmap, which tracemalloc does not see);
        # reading the whole dataset would take 20 steps of records alone.
        assert peak < 3 * step


class TestShardChecks:
    @pytest.mark.parametrize("check", ["hash", "first_user", "last_user"])
    def test_failed_check_leaves_no_output(self, rng, tmp_path, monkeypatch, check):
        scene = _small_scene(5)
        p = _params(active_user_last=3)
        ds_dir = tmp_path / "ds"
        manifest = write_shards(ds_dir, build_dataset(_ray_sources(rng, scene, p), p, scene))
        if check == "hash":
            shard = ds_dir / "shard_bs005.dmds"
            data = bytearray(shard.read_bytes())
            data[-1] ^= 0x01                  # in its last record
            shard.write_bytes(bytes(data))
            message = "shard_bs005.dmds: content hash mismatch"
        else:
            bad = replace(manifest.entries[1], **{check: getattr(manifest.entries[1], check) + 1})
            (ds_dir / "manifest.txt").write_text(Manifest((manifest.entries[0], bad)).to_text())
            message = r"shard_bs005.dmds: first/last user \(1, 11\), manifest says"
        # 2 users per step: the failure comes in the last of 6 steps.
        monkeypatch.setattr(dataset, "_BATCH_BYTES", 2 * 2 * record_dtype(p).itemsize)
        monkeypatch.setattr(parallel, "worker_count", lambda: 1)
        with pytest.raises(DatasetError, match=message):
            load_dataset(ds_dir)
        cfg = BeamEvalConfig(dft_codebook(p.dims))
        out = tmp_path / "out"
        for write in (lambda r: write_shards(out, r), lambda r: write_ml_dataset(r, cfg, out)):
            with DatasetReader(ds_dir) as reader, pytest.raises(DatasetError, match=message):
                write(reader)
            assert sorted(out.glob("*")) == []   # no file, manifest or *.tmp~


def _write_dataset(rng, directory: Path, users_per_row: int, **params):
    scene = _small_scene(users_per_row)
    p = _params(**params)
    write_shards(directory, build_dataset(_ray_sources(rng, scene, p), p, scene))
    return p


class TestWorkers:
    def test_plan_keeps_steps_and_ring_within_budget(self, monkeypatch):
        p = _params(active_bs=(3, 4, 5))
        one = 3 * record_dtype(p).itemsize            # one user of each shard
        source = mock.Mock(params=p, bs_ids=p.active_bs, n_users=10**6)
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(parallel, "worker_count", lambda: cpus)
            for budget in (0, one, 3 * one - 1, 3 * one, 5 * one, 7 * one, 40 * one,
                           dataset._BATCH_BYTES):
                with mock.patch.object(dataset, "_BATCH_BYTES", budget):
                    workers, users = pool_plan(source, scored=True)
                assert 1 <= workers <= cpus and 1 <= users <= 256
                if budget >= 2 * one:       # 2 slots of one user fit
                    assert 2 * workers * users * one <= budget
                    assert workers == cpus or (2 * workers + 2) * one > budget
        workers, users = pool_plan(mock.Mock(params=p, bs_ids=p.active_bs, n_users=6),
                                   scored=True)
        assert users >= 6 and workers == 1      # one step: no more workers than steps

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bytes_do_not_depend_on_workers(self, rng, tmp_path, monkeypatch, workers):
        scene = _small_scene(30)
        p = _params(active_bs=(3, 4), active_user_last=2)
        sources = _ray_sources(rng, scene, p)
        rays = shard_sources(sources, p, scene)
        write_shards(tmp_path / "ds", rays)
        cfg = BeamEvalConfig(dft_codebook(p.dims))
        want = write_ml_dataset(build_dataset(sources, p, scene), cfg, tmp_path / "memory")
        # A budget of 14 users of both shards: 7 // workers users per step,
        # which the workers read from the shards themselves.
        monkeypatch.setattr(dataset, "_BATCH_BYTES", 14 * 2 * record_dtype(p).itemsize)
        monkeypatch.setattr(parallel, "worker_count", lambda: workers)
        with DatasetReader(tmp_path / "ds") as reader:
            assert pool_plan(reader, scored=True) == (workers, 7 // workers)
            assert write_ml_dataset(reader, cfg, tmp_path / "shards") == want
            assert reader.verified == 2
        # From the ray files: the same ring.
        assert pool_plan(rays, scored=True) == (workers, 7 // workers)
        assert write_ml_dataset(rays, cfg, tmp_path / "rays") == want
        assert want.entries[0].last_user - want.entries[0].first_user + 1 == 60
        for name in ML_OUTPUTS:
            for got in ("shards", "rays"):
                assert (tmp_path / got / name).read_bytes() == \
                    (tmp_path / "memory" / name).read_bytes()

    def test_rays_to_ml_computes_in_the_workers(self, rng, tmp_path, monkeypatch):
        scene = _small_scene(30)
        p = _params(active_bs=(3, 4), active_user_last=2)
        rays = shard_sources(_ray_sources(rng, scene, p), p, scene)
        log = tmp_path / "calls.txt"            # (pid, bs, users) of each kernel call
        kernel = dataset.channel_matrices_batch

        def logged(batch, params):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {batch.bs_id} {len(batch)}\n")
            return kernel(batch, params)

        monkeypatch.setattr(dataset, "channel_matrices_batch", logged)
        monkeypatch.setattr(parallel, "worker_count", lambda: 2)
        monkeypatch.setattr(dataset, "_BATCH_BYTES", 14 * 2 * record_dtype(p).itemsize)
        assert pool_plan(rays, scored=True) == (2, 3)
        write_ml_dataset(rays, BeamEvalConfig(dft_codebook(p.dims)), tmp_path / "ml")
        calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        pids = {pid for pid, _, _ in calls}
        assert os.getpid() not in pids and 1 <= len(pids) <= 2
        # Every record is computed once: 20 steps of 3 users for each BS.
        assert sorted(bs for _, bs, _ in calls) == [3] * 20 + [4] * 20
        assert [users for _, _, users in calls] == [3] * 40

    def test_rss_flat_in_steps(self, rng, tmp_path):
        # `mimogen beams` as a child with a 12-user step (2 workers, a budget
        # of their 4 slots), on 24 and on 240 users of 2 shards: 2 and 20 steps.
        p = _params(active_bs=(3, 4), active_user_last=2, num_ant_y=8, num_ant_z=4,
                    num_ofdm=64, ofdm_limit=64)
        budget = 4 * 12 * 2 * record_dtype(p).itemsize
        peaks = []
        for users_per_row in (12, 120):
            ds, ml = tmp_path / f"ds{users_per_row}", tmp_path / f"ml{users_per_row}"
            _write_dataset(rng, ds, users_per_row, **{
                f: getattr(p, f) for f in ("active_bs", "active_user_last", "num_ant_y",
                                           "num_ant_z", "num_ofdm", "ofdm_limit")})
            maxrss = _spawn_cli(budget, ["beams", "--dataset-dir", str(ds),
                                         "--out-dir", str(ml), "--quiet"])
            counters = json.loads((ml / "beams.manifest.json").read_text())["counters"]
            assert (counters["workers"], counters["users_per_step"]) == (2, 12)
            assert counters["pairs"] == 2 * 2 * users_per_row
            # The child's wait4 peak is the larger of its own and its workers'.
            assert maxrss == max(counters["peak_rss_kib"], counters["workers_peak_rss_kib"])
            peaks.append((maxrss, counters["peak_rss_kib"], counters["workers_peak_rss_kib"]))
        # 18 more steps hold 15 MiB more of records: none of it may stay. What
        # differs is about 1.5 MiB of ring slots that 2 steps do not touch.
        for two, twenty in zip(*peaks):
            assert abs(twenty - two) < 4 * 1024, peaks

    def test_build_rss_flat_in_steps(self, rng, tmp_path):
        # `mimogen build` as a child with a 12-user step (2 workers, a budget
        # of their 4 slots), on 60 and on 240 users of 2 base stations: 5 and
        # 20 steps. (Records of 4 steps or fewer fit in one budget step, so
        # this process would compute them without a pool.)
        p = _params(active_bs=(3, 4), active_user_last=2, num_ant_y=8, num_ant_z=4,
                    num_ofdm=64, ofdm_limit=64)
        budget = 4 * 12 * 2 * record_dtype(p).itemsize
        config = tmp_path / "params.cfg"
        config.write_text(serialize_params(p))
        peaks = []
        for users_per_row in (30, 120):
            scene, work = _small_scene(users_per_row), tmp_path / f"users{users_per_row}"
            (work / "rays").mkdir(parents=True)
            (work / "scene.json").write_text(scene_to_json(scene))
            for bs_id, rays in _ray_sources(rng, scene, p).items():
                with (work / "rays" / f"rays_bs{bs_id:03d}.drf").open("wb") as fh:
                    write_rayfile(rays.rows, rays.header, fh)
            maxrss = _spawn_cli(budget, [
                "build", "--scene", str(work / "scene.json"), "--rays-dir", str(work / "rays"),
                "--config", str(config), "--out-dir", str(work / "ds"), "--quiet"])
            counters = json.loads((work / "ds" / "build.manifest.json").read_text())["counters"]
            assert (counters["workers"], counters["users_per_step"]) == (2, 12)
            assert counters["bs003.shard_bytes"] > users_per_row * 2 * record_dtype(p).itemsize
            assert maxrss == max(counters["peak_rss_kib"], counters["workers_peak_rss_kib"])
            peaks.append((maxrss, counters["peak_rss_kib"], counters["workers_peak_rss_kib"]))
        # 15 more steps hold 12 MiB more of records: none of it may stay. What
        # differs is at most the 3 MiB ring, whose slots a worker touches
        # only for the steps it computes.
        for five, twenty in zip(*peaks):
            assert abs(twenty - five) < 4 * 1024, peaks


    def test_main_process_holds_one_slot(self, rng, tmp_path):
        # `build` and then `beams` as children with 2 workers, so 4 ring slots,
        # on 240 users of 2 base stations, at a step of S bytes (12 users of
        # each) and at 4S: 20 and 5 steps, so every slot is used. Holding the
        # slot it writes, the main process's peak rises by about 3S; holding
        # every slot of the ring, by about 12S.
        p = _params(active_bs=(3, 4), active_user_last=2, num_ant_x=2, num_ant_y=8,
                    num_ant_z=4, num_ofdm=64, ofdm_limit=64)
        step = 12 * 2 * record_dtype(p).itemsize
        scene = _small_scene(120)
        (tmp_path / "rays").mkdir()
        (tmp_path / "scene.json").write_text(scene_to_json(scene))
        (tmp_path / "params.cfg").write_text(serialize_params(p))
        for bs_id, rays in _ray_sources(rng, scene, p).items():
            with (tmp_path / "rays" / f"rays_bs{bs_id:03d}.drf").open("wb") as fh:
                write_rayfile(rays.rows, rays.header, fh)
        peaks = []
        for scale in (1, 4):
            ds, ml = tmp_path / f"ds{scale}", tmp_path / f"ml{scale}"
            runs = [(["build", "--scene", str(tmp_path / "scene.json"),
                      "--rays-dir", str(tmp_path / "rays"), "--config",
                      str(tmp_path / "params.cfg"), "--out-dir", str(ds)], ds / "build"),
                    (["beams", "--dataset-dir", str(ds), "--out-dir", str(ml)], ml / "beams")]
            for argv, run in runs:
                _spawn_cli(4 * scale * step, [*argv, "--quiet"])
                counters = json.loads(run.with_suffix(".manifest.json").read_text())["counters"]
                assert (counters["workers"], counters["users_per_step"]) == (2, 12 * scale)
                peaks.append(counters["peak_rss_kib"])
        for at_s, at_4s in zip(peaks[:2], peaks[2:]):       # build, beams
            assert at_4s - at_s < 6 * step / 1024, (peaks, step // 1024)


class TestRandomAccess:
    def test_load_and_one_channel_rss_flat_in_users(self, rng, tmp_path):
        # `load_dataset` (its checked pass in 12-user steps) and one
        # `get_channel`, in a child, on 60 and on 240 users of 2 shards: 3.9
        # and 15.7 MB of records. A copy of the dataset would peak 11.8 MB
        # higher on the larger one.
        p = _params(active_bs=(3, 4), active_user_last=2, num_ant_y=8, num_ant_z=4,
                    num_ofdm=64, ofdm_limit=64)
        budget = 12 * 2 * record_dtype(p).itemsize
        code = "\n".join([
            "import sys", "import numpy as np", "from mimogen import dataset",
            f"dataset._BATCH_BYTES = {budget}",
            "with dataset.load_dataset(sys.argv[1]) as ds:",
            "    assert ds.verified == 2",
            "    H = dataset.get_channel(ds, 2, ds.n_users).entries",
            "    assert H.tobytes() == np.load(sys.argv[2]).tobytes()"])
        peaks = []
        for users_per_row in (30, 120):
            ds_dir = tmp_path / f"ds{users_per_row}"
            scene = _small_scene(users_per_row)
            ds = build_dataset(_ray_sources(rng, scene, p), p, scene)
            write_shards(ds_dir, ds)
            want = tmp_path / f"H{users_per_row}.npy"
            np.save(want, ds.shards[1]["channel"][-1].T)
            del ds
            peaks.append(_spawn(code, [str(ds_dir), str(want)]))
        assert abs(peaks[1] - peaks[0]) < 3 * 1024, peaks

# A process's peak RSS starts at the RSS of the process it was forked from
# and survives exec, so the child is started by a small launcher and not by
# this (large) process; the launcher reports its wait4.
_LAUNCHER = ("import os, sys; exe = sys.executable; "
             "pid = os.posix_spawn(exe, [exe, *sys.argv[1:]], os.environ); "
             "_, status, usage = os.wait4(pid, 0); "
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def _spawn(code: str, argv: list[str]) -> int:
    """Run ``python -c code argv`` in a child that the launcher starts;
    returns the child's wait4 peak RSS in KiB."""
    src = str(Path(mimogen.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", _LAUNCHER, "-c", code, *argv], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    rc, maxrss = map(int, out.split())
    assert rc == 0
    return maxrss


def _spawn_cli(budget: int, argv: list[str]) -> int:
    """Run ``mimogen argv`` with a ``budget``-byte step budget and 2
    workers, as ``_spawn`` does."""
    return _spawn("import sys; from mimogen import cli, dataset, parallel; "
                  f"dataset._BATCH_BYTES = {budget}; parallel.worker_count = lambda: 2; "
                  "sys.exit(cli.run(sys.argv[1:]))", argv)
