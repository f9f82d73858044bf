"""Acceptance gate: ten end-to-end checks with pinned tolerances and
runtime budgets. Each test prints one ``ACCEPTANCE n ... PASS/FAIL`` line."""

import io
import time

import numpy as np
import pytest

from mimogen.beams import BeamEvalConfig, achievable_rate, best_beam, dft_codebook
from mimogen.channel import array_response, channel_matrix
from mimogen.dataset import (
    DatasetError,
    active_user_indices,
    build_dataset,
    get_channel,
    parse_shard,
    record_dtype,
    shard_bytes,
)
from mimogen.params import ParamSet, subcarrier_set
from mimogen.rayio import (
    RayFileError,
    RayFileHeader,
    read_rayfile,
    write_rayfile,
)
from mimogen.scene import SPEED_OF_LIGHT, build_o1_scene, users_in_row_range
from mimogen.tracer import PathList, trace_between, trace_paths_batch

from conftest import compute_channels_parallel, random_path_list, random_path_record, wall_scene
from test_channel import _single_antenna_params, _tap_record
from test_tracer import _oracle_lengths


def _report(n, label, outcome):
    print(f"ACCEPTANCE {n} ({label}): {'PASS' if outcome else 'FAIL'}")


class _gate:
    """Prints the pass/fail line even when the body raises."""

    def __init__(self, n, label):
        self.n, self.label = n, label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.t0

    def __exit__(self, exc_type, exc, tb):
        _report(self.n, self.label, exc_type is None)
        return False


def test_criterion_1_o1_census():
    with _gate(1, "O1 census") as g:
        scene = build_o1_scene()
        assert len(scene.base_stations) == 18
        assert scene.total_rows == 5203
        assert scene.total_users == 1_184_923
        assert g.elapsed < 1.0, f"census took {g.elapsed:.2f}s (budget 1s)"


def test_criterion_2_steering_oracle(rng):
    with _gate(2, "steering-vector oracle") as g:
        worst = 0.0
        for _ in range(1000):
            az = rng.uniform(-np.pi, np.pi)
            el = rng.uniform(0.0, np.pi)
            dims = tuple(int(d) for d in rng.integers(1, 5, 3))
            spacing = float(rng.uniform(0.1, 1.0))
            got = array_response(az, el, dims, spacing)
            mx, my, mz = dims
            kd = 2 * np.pi * spacing
            want = np.empty(mx * my * mz, dtype=complex)
            i = 0
            for nz in range(mz):
                for ny in range(my):
                    for nx in range(mx):
                        want[i] = np.exp(1j * kd * (
                            nx * np.sin(el) * np.cos(az)
                            + ny * np.sin(el) * np.sin(az)
                            + nz * np.cos(el)
                        ))
                        i += 1
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < 1e-12, f"worst steering deviation {worst:.2e}"
        assert g.elapsed < 5.0, f"oracle sweep took {g.elapsed:.2f}s (budget 5s)"


def test_criterion_3_dft_equivalence(rng):
    with _gate(3, "DFT equivalence") as g:
        trials = 0
        for big_k in (8, 64, 256):
            p = _single_antenna_params(num_ofdm=big_k, ofdm_limit=big_k,
                                       bandwidth=1.0)
            for _ in range(67):
                n_taps = int(rng.integers(1, min(big_k, 10)))
                taps = np.zeros(big_k, dtype=complex)
                recs = []
                for d in rng.choice(big_k, size=n_taps, replace=False):
                    power = float(rng.uniform(1e-12, 1e-6))
                    phase = float(rng.uniform(0, 2 * np.pi - 1e-12))
                    recs.append(_tap_record(power, phase, float(d) / p.bandwidth_hz))
                    taps[d] += np.sqrt(power / big_k) * np.exp(1j * phase)
                want = big_k * np.fft.ifft(taps)
                got = channel_matrix(recs, p).entries[0]
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) < 1e-10 * scale
                trials += 1
        assert trials >= 200
        assert g.elapsed < 10.0, f"DFT sweep took {g.elapsed:.2f}s (budget 10s)"


def test_criterion_4_image_geometry(rng):
    with _gate(4, "image-method geometry") as g:
        for trial in range(100):
            if trial % 2 == 0:
                y_wall = rng.uniform(5.0, 30.0)
                walls = [(y_wall, y_wall + 5.0)]
                planes = [(1, y_wall, -1.0)]
                ylo, yhi = -20.0, y_wall - 1.0
            else:
                y0 = rng.uniform(-30.0, -5.0)
                y1 = rng.uniform(5.0, 30.0)
                walls = [(y0 - 5.0, y0), (y1, y1 + 5.0)]
                planes = [(1, y0, 1.0), (1, y1, -1.0)]
                ylo, yhi = y0 + 1.0, y1 - 1.0
            tx = (rng.uniform(-20, 20), rng.uniform(ylo, yhi), rng.uniform(2, 50))
            rx = (rng.uniform(-20, 20), rng.uniform(ylo, yhi), rng.uniform(2, 50))
            sc = wall_scene(walls, bs_position=tx)
            fwd = trace_between(sc, tx, rx, 3, max_paths=1000)
            got = sorted(p.delay * SPEED_OF_LIGHT for p in fwd)
            want = _oracle_lengths(tx, rx, planes + [(2, sc.ground_z, 1.0)], 3)
            assert len(got) == len(want)
            assert np.allclose(got, want, rtol=1e-12, atol=0)
            # angle reciprocity under tx/rx swap
            bwd = trace_between(sc, rx, tx, 3, max_paths=1000)
            for a, b in zip(sorted(fwd, key=lambda p: p.delay),
                            sorted(bwd, key=lambda p: p.delay)):
                assert a.aod_az == pytest.approx(b.aoa_az, abs=1e-9)
                assert a.aod_el == pytest.approx(b.aoa_el, abs=1e-9)
                assert a.aoa_az == pytest.approx(b.aod_az, abs=1e-9)
                assert a.aoa_el == pytest.approx(b.aod_el, abs=1e-9)
        assert g.elapsed < 5.0, f"geometry sweep took {g.elapsed:.2f}s (budget 5s)"


def test_criterion_5_subcarrier_semantics():
    with _gate(5, "subcarrier semantics"):
        a = subcarrier_set(ParamSet(num_ofdm=1024, ofdm_sampling_factor=1,
                                    ofdm_limit=64))
        assert list(a) == list(range(1, 65))
        b = subcarrier_set(ParamSet(num_ofdm=1024, ofdm_sampling_factor=4,
                                    ofdm_limit=64))
        assert list(b) == [1 + 4 * i for i in range(64)]
        assert b[0] == 1 and b[1] == 5 and b[2] == 9 and b[-1] == 253


def test_criterion_6_desk_scale_build():
    with _gate(6, "desk-scale build") as g:
        scene = build_o1_scene()
        params = ParamSet(active_user_first=1000, active_user_last=1005)
        indices = active_user_indices(scene, params)
        assert indices.size == 6 * 181
        from mimogen.scene import user_positions
        positions = user_positions(scene, indices)
        sources = {}
        for bs_id in params.active_bs:
            pls = trace_paths_batch(scene, bs_id, positions,
                                    user_indices=indices.tolist())
            header = RayFileHeader(bs_id=bs_id, carrier_freq=scene.carrier_freq,
                                   user_count=len(pls), scenario=scene.name)
            buf = io.BytesIO()
            write_rayfile(pls, header, buf)
            buf.seek(0)
            sources[bs_id] = read_rayfile(buf)
        ds = build_dataset(sources, params, scene)
        assert ds.bs_ids == (3, 4, 5, 6)
        for b_ord in range(1, 5):
            for u_ord in (1, ds.n_users // 2, ds.n_users):
                assert get_channel(ds, b_ord, u_ord).entries.shape == (256, 64)
        assert all(
            get_channel(ds, b, u).entries.shape == (256, 64)
            for b in range(1, 5) for u in range(1, ds.n_users + 1)
        )
        # first active ordinal resolves to BS 3 and the first user of R1000
        assert ds.bs_for_ordinal(1) == 3
        assert ds.user_for_ordinal(1) == int(
            users_in_row_range(scene, 1000, 1000)[0]
        )
        assert g.elapsed < 30.0, f"build took {g.elapsed:.2f}s (budget 30s)"


def test_criterion_7_rate_oracle(rng):
    with _gate(7, "rate-formula oracle"):
        for _ in range(1000):
            m = int(rng.integers(1, 9))
            ksz = int(rng.integers(1, 17))
            mat = rng.normal(size=(m, ksz)) + 1j * rng.normal(size=(m, ksz))
            f = rng.normal(size=m) + 1j * rng.normal(size=m)
            snr = float(rng.uniform(0.01, 50.0))
            direct = sum(
                np.log2(1.0 + snr * abs(np.dot(f, mat[:, k])) ** 2)
                for k in range(ksz)
            ) / ksz
            got = achievable_rate(mat, f, snr)
            assert got == pytest.approx(direct, rel=1e-12, abs=1e-15)
            cb = dft_codebook((1, m, 1))
            cfg = BeamEvalConfig(cb, snr=snr)
            idx, rate = best_beam(mat, cfg)
            scan = [achievable_rate(mat, v, snr) for v in cb.vectors]
            assert idx == int(np.argmax(scan)) + 1
            assert rate == pytest.approx(max(scan), rel=1e-12)


def test_criterion_8_roundtrip_and_fuzz(rng):
    with _gate(8, "round-trip and fuzz"):
        # 1,000 randomized structures through the ray-file format...
        structures = 0
        shard_corpus = []
        ray_corpus = []
        while structures < 1000:
            n = int(rng.integers(0, 8))
            pls = [random_path_list(rng, 3, int(i) + 1)
                   for i in sorted(rng.choice(5000, size=n, replace=False))]
            header = RayFileHeader(bs_id=3, carrier_freq=60e9,
                                   user_count=n, scenario="O1_60")
            buf = io.BytesIO()
            write_rayfile(pls, header, buf)
            data = buf.getvalue()
            rf = read_rayfile(io.BytesIO(data))
            assert list(rf.rows) == pls
            buf2 = io.BytesIO()
            write_rayfile(list(rf.rows), rf.header, buf2)
            assert buf2.getvalue() == data
            if len(ray_corpus) < 4:
                ray_corpus.append(data)
            structures += max(n, 1)
        # ...and the dataset shard format.
        p = ParamSet(num_ant_x=1, num_ant_y=4, num_ant_z=2,
                     num_ofdm=16, ofdm_limit=8)
        for _ in range(20):
            records = np.zeros(int(rng.integers(1, 5)), dtype=record_dtype(p))
            for i, rec in enumerate(records, start=1):
                rec["global_index"] = i
                rec["location"] = rng.uniform(-10, 10, 3)
                rec["channel"] = (rng.normal(size=(8, 8))
                                  + 1j * rng.normal(size=(8, 8))).T
            data = shard_bytes(p, "O1_60", 3, records)
            p2, scen, bs_id, back = parse_shard(data)
            assert (p2, scen, bs_id) == (p, "O1_60", 3)
            for a, b in zip(records, back):
                assert np.array_equal(a["channel"], b["channel"])
            if len(shard_corpus) < 4:
                shard_corpus.append(data)

        # 10,000-case byte-mutation fuzz: only classified errors, never a crash
        for trial in range(10_000):
            corpus = ray_corpus if trial % 2 == 0 else shard_corpus
            base = corpus[trial % len(corpus)]
            data = bytearray(base)
            for _ in range(int(rng.integers(1, 5))):
                data[int(rng.integers(0, len(data)))] = int(rng.integers(0, 256))
            blob = bytes(data)
            if trial % 2 == 0:
                try:
                    read_rayfile(io.BytesIO(blob))
                except RayFileError:
                    pass
            else:
                try:
                    parse_shard(blob)
                except DatasetError:
                    pass


def test_criterion_9_throughput(rng):
    with _gate(9, "desk-scale throughput"):
        params = ParamSet(active_user_first=1, active_user_last=1,
                          num_ofdm=1024, ofdm_limit=64, num_paths=5)
        assert params.num_antennas == 256
        pls = []
        for i in range(1, 10_001):
            paths = tuple(sorted((random_path_record(rng) for _ in range(5)),
                                 key=lambda r: -r.power))
            pls.append(PathList(bs_id=3, user_index=i,
                                user_position=(float(i), 0.0, 2.0), paths=paths))
        t0 = time.perf_counter()
        digest = compute_channels_parallel(pls, params, workers=8)
        dt = time.perf_counter() - t0
        assert len(digest) == 16
        assert dt < 60.0, f"10k-user channel build took {dt:.1f}s (budget 60s)"


def test_criterion_10_ml_pipeline_declared():
    with _gate(10, "ML pipeline + count check"):
        # Deep-learning beam-prediction results are NOT reproduced here:
        # they depend on an external neural model outside this package.
        # The accepted surface is the feature/label pipeline (exercised by
        # criteria 6-7 and the beams test module) plus the record count for
        # the default row range.
        scene = build_o1_scene()
        idx = users_in_row_range(scene, 1000, 1300)
        assert len(idx) == 301 * 181 == 54_481
