"""The one ``fill`` surface. The dataset that ray files give
(``shard_sources``), the one a shard directory holds (``DatasetReader``)
and the one held in memory (``Dataset``) give the same steps through
``dataset.steps`` and the same record of each (BS, user) through
``get_channel`` and ``get_location``, and each writer fed from any of them
writes the same bytes."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mimogen import dataset
from mimogen.beams import BeamEvalConfig, dft_codebook, write_ml_dataset
from mimogen.dataset import (
    DatasetReader,
    batch_users,
    build_dataset,
    get_channel,
    get_location,
    load_dataset,
    record_dtype,
    shard_sources,
    write_shards,
)

from test_dataset import _params, _ray_sources, _small_scene, _wider_rays

ML_OUTPUTS = ("features.csv", "labels.csv", "ml_manifest.txt")


@st.composite
def _cases(draw):
    users_per_row = draw(st.integers(1, 5))
    first = draw(st.integers(1, 4))
    params = _params(
        active_bs=tuple(draw(st.lists(st.sampled_from([3, 4, 5, 6]), min_size=1,
                                      max_size=4, unique=True))),
        active_user_first=first, active_user_last=draw(st.integers(first, 4)),
        num_ant_x=draw(st.integers(1, 2)), num_ant_y=draw(st.integers(1, 3)),
        num_ant_z=draw(st.integers(1, 2)), num_ofdm=8,
        ofdm_limit=draw(st.integers(1, 4)), num_paths=draw(st.integers(1, 4)))
    rays = draw(_wider_rays(users_per_row, params))
    # Step budget in bytes: from one record per step (0 still gives one
    # user) to a few users per base station, or the default 16 MiB.
    n_bs = len(params.active_bs)
    budget = draw(st.one_of(st.integers(0, 3 * n_bs * record_dtype(params).itemsize),
                            st.just(dataset._BATCH_BYTES)))
    cfg = BeamEvalConfig(dft_codebook(params.dims, draw(st.integers(1, 2))))
    return users_per_row, params, rays, budget, cfg, draw(st.integers(0, 2**32 - 1))


def _steps(source):
    return [tuple(batch.tobytes() for batch in step) for step in dataset.steps(source)]


def _same_files(a: Path, b: Path, names) -> None:
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestOneInterface:
    @settings(deadline=None, max_examples=40)
    @given(_cases())
    def test_producers_agree(self, case):
        users_per_row, p, (rows, skip), budget, cfg, seed = case
        scene = _small_scene(users_per_row)
        sources = _ray_sources(np.random.default_rng(seed), scene, p, skip, rows)
        n_bs, itemsize = len(p.active_bs), record_dtype(p).itemsize
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(dataset, "_BATCH_BYTES", budget):
            tmp = Path(tmp)
            rays = shard_sources(sources, p, scene)
            ds = build_dataset(sources, p, scene)
            want = write_shards(tmp / "rays", rays)
            assert write_shards(tmp / "memory", ds) == want
            with DatasetReader(tmp / "rays") as reader:
                assert write_shards(tmp / "files", reader) == want
            with DatasetReader(tmp / "rays") as reader:
                surface = (reader.params, reader.scenario_name, reader.bs_ids, reader.n_users)
                from_files = _steps(reader)
            for source in (rays, ds):
                assert (source.params, source.scenario_name, source.bs_ids,
                        source.n_users) == surface
            assert surface == (p, scene.name, p.active_bs, ds.n_users)

            from_rays = _steps(rays)
            assert _steps(ds) == from_rays
            assert from_files == from_rays
            users = batch_users(p, n_bs)
            assert sum(len(step[0]) for step in from_rays) == ds.n_users * itemsize
            for step in dataset.steps(rays):
                assert len(step) == n_bs
                assert len(step[0]) <= users
                assert sum(b.nbytes for b in step) <= max(budget, n_bs * itemsize)
                for batch in step[1:]:
                    assert np.array_equal(batch["global_index"], step[0]["global_index"])

            names = [e.filename for e in want.entries] + ["manifest.txt"]
            _same_files(tmp / "rays", tmp / "memory", names)
            _same_files(tmp / "rays", tmp / "files", names)

            # Rays -> ML without shards: the same files as from the shards.
            ml_rays = write_ml_dataset(rays, cfg, tmp / "ml_rays")
            with DatasetReader(tmp / "rays") as reader:
                ml_files = write_ml_dataset(reader, cfg, tmp / "ml_files")
            assert ml_rays == ml_files
            _same_files(tmp / "ml_rays", tmp / "ml_files", ML_OUTPUTS)

            # One (BS, user) read from any producer: the same values.
            with load_dataset(tmp / "rays") as loaded:
                assert loaded.verified == n_bs
                for b in range(1, n_bs + 1):
                    for u in range(1, ds.n_users + 1):
                        want = get_channel(ds, b, u)
                        for source in (rays, loaded):
                            got = get_channel(source, b, u)
                            assert (got.bs_id, got.user_index) == (want.bs_id, want.user_index)
                            assert got.entries.tobytes() == want.entries.tobytes()
                            assert get_location(source, b, u).tobytes() == \
                                get_location(ds, b, u).tobytes()
