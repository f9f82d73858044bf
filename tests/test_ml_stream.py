"""The streamed ML export (``DatasetReader`` steps -> ``ml_records`` ->
``write_ml_dataset``) against the list-based one built from a whole
``Dataset``."""

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mimogen import dataset
from mimogen.beams import (
    BeamEvalConfig,
    build_ml_records,
    dft_codebook,
    export_ml_dataset,
    ml_records,
    write_ml_dataset,
)
from mimogen.dataset import (
    DatasetReader,
    batch_users,
    build_dataset,
    export_dataset,
    record_dtype,
)

from test_dataset import _params, _ray_sources, _small_scene

ML_OUTPUTS = ("features.csv", "labels.csv", "ml_manifest.txt")


def _stream(ds_dir: Path, cfg: BeamEvalConfig, outdir: Path):
    with DatasetReader(ds_dir) as reader:
        manifest = write_ml_dataset((ml_records(s, cfg) for s in reader.steps()), outdir)
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
            export_dataset(ds, ds_dir)
            want = export_ml_dataset(build_ml_records(ds, cfg), ref)
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
        export_dataset(ds, tmp_path / "ds")
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
        # One step of records, its MlRecords and CSV rows; reading the whole
        # dataset would take 20 steps of records alone.
        assert peak < 3 * step
