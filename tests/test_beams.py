import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimogen import cli
from mimogen.beams import (
    BeamEvalConfig,
    Codebook,
    _ml_csv,
    _rate_tail,
    achievable_rate,
    beam_rates,
    best_beam,
    dft_codebook,
    ml_arrays,
    omni_feature,
    write_ml_dataset,
)
from mimogen.channel import ChannelMatrix
from mimogen.dataset import DatasetReader, build_dataset, record_dtype, steps
from mimogen.params import ParamSet

from conftest import ml_csv_oracle
from test_cli import _trace, scene_file  # noqa: F401
from test_dataset import _params, _ray_sources, tiny_scene  # noqa: F401

_ONE = np.ones((1, 1), complex)


class TestCodebook:
    def test_default_array_size(self):
        cb = dft_codebook((1, 32, 8))
        assert cb.vectors.shape == (256, 256)

    def test_orthonormal_without_oversampling(self):
        cb = dft_codebook((1, 4, 3))
        gram = cb.vectors @ cb.vectors.conj().T
        assert np.max(np.abs(gram - np.eye(12))) < 1e-12

    def test_unit_norm_rows(self):
        cb = dft_codebook((2, 3, 2), oversampling=2)
        norms = np.linalg.norm(cb.vectors, axis=1)
        assert np.allclose(norms, 1.0)

    def test_oversampling_count(self):
        cb = dft_codebook((1, 4, 2), oversampling=2)
        # singleton axes contribute one beam factor, others os * m
        assert cb.n_beams == 1 * 8 * 4

    def test_all_singletons(self):
        cb = dft_codebook((1, 1, 1))
        assert cb.n_beams == 1
        assert np.allclose(cb.vectors, [[1.0]])

    def test_bad_oversampling(self):
        # 1.5 used to build 18 beams that are not DFT beams, and True one of 1
        for oversampling in (0, -1, 1.5, 2.0, True, "2", None):
            with pytest.raises(ValueError, match="oversampling must be an int >= 1"):
                dft_codebook((1, 4, 2), oversampling=oversampling)

    def test_bad_dims(self):
        # (0, 4, 2) used to give an empty (0, 0) codebook
        for dims in ((0, 4, 2), (1, -4, 2), (1, 4), (1, 4, 2, 1), (1, 4.0, 2), (True, 4, 2)):
            with pytest.raises(ValueError, match="array axes must be 3 ints >= 1"):
                dft_codebook(dims)

    def test_vectors_are_the_factors_kronecker_product(self):
        cb = dft_codebook((3, 4, 2), oversampling=2)
        assert [a.shape for a in (cb.x, cb.y, cb.z)] == [(6, 3), (8, 4), (4, 2)]
        assert cb.dims == (3, 4, 2) and cb.n_antennas == 24 and cb.n_beams == 192
        assert np.array_equal(cb.vectors, np.kron(cb.z, np.kron(cb.y, cb.x)))

    def test_first_beam_is_uniform(self):
        cb = dft_codebook((1, 8, 4))
        assert np.allclose(cb.vectors[0], np.full(32, 1 / np.sqrt(32)))


def _rate_oracle(mat, f, snr):
    """Independent per-subcarrier loop."""
    total = 0.0
    for k in range(mat.shape[1]):
        g = abs(sum(f[m] * mat[m, k] for m in range(mat.shape[0]))) ** 2
        total += np.log2(1.0 + snr * g)
    return total / mat.shape[1]


class TestRate:
    def test_matches_oracle(self, rng):
        for _ in range(30):
            m, ksz = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            mat = rng.normal(size=(m, ksz)) + 1j * rng.normal(size=(m, ksz))
            f = rng.normal(size=m) + 1j * rng.normal(size=m)
            snr = float(rng.uniform(0.01, 100.0))
            got = achievable_rate(mat, f, snr)
            assert got == pytest.approx(_rate_oracle(mat, f, snr), rel=1e-12)

    def test_zero_channel_zero_rate(self):
        assert achievable_rate(np.zeros((4, 8), complex), np.ones(4), 10.0) == 0.0

    def test_transpose_vs_conjugate(self, rng):
        mat = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        plain = achievable_rate(mat, f, 1.0)
        conj = achievable_rate(mat, f, 1.0, conjugate=True)
        want = _rate_oracle(mat, np.conj(f), 1.0)
        assert conj == pytest.approx(want, rel=1e-12)
        assert plain != pytest.approx(conj)  # generically different

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="beam length"):
            achievable_rate(np.zeros((4, 8), complex), np.ones(3), 1.0)

    def test_accepts_channel_matrix(self, rng):
        mat = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        f = np.ones(4) / 2.0
        cm = ChannelMatrix(entries=mat, bs_id=1, user_index=1)
        assert achievable_rate(cm, f, 2.0) == achievable_rate(mat, f, 2.0)

    def test_monotone_in_snr(self, rng):
        mat = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert achievable_rate(mat, f, 10.0) > achievable_rate(mat, f, 1.0)


class TestBestBeam:
    def test_exhaustive_agreement(self, rng):
        cb = dft_codebook((1, 4, 2), oversampling=2)
        cfg = BeamEvalConfig(cb, snr=3.0)
        for _ in range(10):
            mat = rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16))
            idx, rate = best_beam(mat, cfg)
            rates = [achievable_rate(mat, v, 3.0) for v in cb.vectors]
            assert idx == int(np.argmax(rates)) + 1
            assert rate == pytest.approx(max(rates), rel=1e-12)

    def test_rates_vector_matches_scalar(self, rng):
        cb = dft_codebook((1, 4, 1))
        cfg = BeamEvalConfig(cb, snr=0.5)
        mat = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        rv = beam_rates(mat, cfg)
        for p, v in enumerate(cb.vectors):
            assert rv[p] == pytest.approx(achievable_rate(mat, v, 0.5), rel=1e-12)

    def test_tie_breaks_to_smallest(self):
        # a y factor of two equal rows: two equal beams
        cb = Codebook(x=_ONE, y=np.vstack([_ONE, _ONE]), z=_ONE, oversampling=1)
        idx, _ = best_beam(np.ones((1, 4), complex), BeamEvalConfig(cb))
        assert idx == 1

    def test_aligned_beam_wins(self):
        # channel equal to a codebook row (conjugated for the plain-transpose
        # convention) maximizes |f^T h| by Cauchy-Schwarz
        cb = dft_codebook((1, 8, 1))
        cfg = BeamEvalConfig(cb, snr=100.0)
        h = np.conj(cb.vectors[5])[:, None] * np.ones((1, 4))
        idx, _ = best_beam(h, cfg)
        assert idx == 6

    def test_empty_codebook(self):
        cb = Codebook(x=_ONE, y=np.zeros((0, 4), complex), z=_ONE, oversampling=1)
        assert cb.dims == (1, 4, 1) and cb.n_beams == 0
        with pytest.raises(ValueError, match="empty"):
            best_beam(np.zeros((4, 2), complex), BeamEvalConfig(cb))

    def test_one_matrix(self, rng):
        # a stack used to end in an IndexError from the flattened argmax
        stack = rng.normal(size=(3, 8, 5)) + 0j
        with pytest.raises(ValueError, match=r"one channel matrix expected, got shape \(3, 8, 5\)"):
            best_beam(stack, BeamEvalConfig(dft_codebook((1, 4, 2))))

    def test_channel_rows_must_be_the_codebook_antennas(self, rng):
        cfg = BeamEvalConfig(dft_codebook((1, 4, 2)))
        mat = rng.normal(size=(6, 3)) + 0j
        with pytest.raises(ValueError, match="channel rows 6 != codebook antennas 8"):
            beam_rates(mat, cfg)
        with pytest.raises(ValueError, match="channel rows 6 != codebook antennas 8"):
            best_beam(mat, cfg)
        records = np.zeros(2, record_dtype(ParamSet(num_ant_y=3, num_ant_z=2, ofdm_limit=3)))
        with pytest.raises(ValueError, match="channel rows 6 != codebook antennas 8"):
            ml_arrays([records], cfg)

    def test_bad_snr(self):
        for snr in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="snr must be finite and > 0"):
                BeamEvalConfig(dft_codebook((1, 2, 1)), snr=snr)


@st.composite
def _rate_cases(draw):
    """A config of any codebook (each axis 1-5 elements, oversampling 1-3,
    either product) and a stack of 0-3 random M x |K| channels."""
    dims = tuple(draw(st.integers(1, 5)) for _ in range(3))
    cfg = BeamEvalConfig(dft_codebook(dims, draw(st.integers(1, 3))),
                         snr=draw(st.floats(0.01, 50.0)), conjugate=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(0, 3)), cfg.codebook.n_antennas, draw(st.integers(1, 4)))
    return cfg, rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _dense_rates(stack, cfg):
    """The oracle: every beam of ``vectors`` at once, through the one rate tail."""
    vectors = cfg.codebook.vectors
    return _rate_tail((np.conj(vectors) if cfg.conjugate else vectors) @ stack, cfg.snr)


class TestAxisKernel:
    @settings(deadline=None, max_examples=60)
    @given(_rate_cases())
    def test_equals_dense_oracle(self, case):
        cfg, stack = case
        got = beam_rates(stack, cfg)
        np.testing.assert_allclose(got, _dense_rates(stack, cfg), rtol=1e-12, atol=1e-12)
        per_beam = [[achievable_rate(H, f, cfg.snr, cfg.conjugate) for f in cfg.codebook.vectors]
                    for H in stack]
        np.testing.assert_allclose(got, np.reshape(per_beam, got.shape), rtol=1e-12,
                                   atol=1e-12)
        # ml_arrays scores the record blocks in place, with beam_rates' bits
        x, y, z = cfg.codebook.dims
        records = np.zeros(len(stack), record_dtype(ParamSet(
            num_ant_x=x, num_ant_y=y, num_ant_z=z, ofdm_limit=stack.shape[2])))
        records["channel"] = stack.transpose(0, 2, 1)
        _, _, labels = ml_arrays([records, records[::-1]], cfg)
        assert np.array_equal(labels, np.stack([got, got[::-1]], axis=1))

    def test_single_matrix_gives_a_vector(self, rng):
        cfg = BeamEvalConfig(dft_codebook((2, 3, 1), oversampling=2))
        stack = rng.normal(size=(2, 6, 5)) + 1j * rng.normal(size=(2, 6, 5))
        rates = beam_rates(stack, cfg)
        assert rates.shape == (2, 24)
        assert np.array_equal(beam_rates(stack[1], cfg), rates[1])

    def test_threads_sharing_a_config(self, rng):
        # numpy releases the GIL in matmul, so threads that shared one set
        # of buffers would score each other's channels
        dims = (1, 8, 4)
        cfg = BeamEvalConfig(dft_codebook(dims))
        stacks = [rng.normal(size=(3, 32, 16)) + 1j * rng.normal(size=(3, 32, 16))
                  for _ in range(8)]
        want = [beam_rates(s, BeamEvalConfig(dft_codebook(dims))) for s in stacks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda s: [beam_rates(s, cfg) for _ in range(30)], stacks,
                                    timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for rates, one in zip(got, want):
            assert all(np.array_equal(r, one) for r in rates)

    def test_cli_dataset_labels_equal_the_dense_form(self, tmp_path, scene_file):
        # On a dataset `build` wrote, at the CLI's default array (1, 32, 8)
        # and snr 1, the gains |f^T h|^2 are so small that 1 + snr * gain
        # rounds away the bits in which the two products differ.
        ds_dir = tmp_path / "ds"
        assert cli.run(["build", "--scene", str(scene_file), "--rays-dir",
                        str(_trace(tmp_path, scene_file)), "--set", "active_BS=3,4",
                        "--set", "active_user_first=1", "--set", "active_user_last=2",
                        "--out-dir", str(ds_dir), "--quiet"]) == 0
        with DatasetReader(ds_dir) as ds:
            assert ds.params.dims == (1, 32, 8)
            cfgs = [BeamEvalConfig(dft_codebook(ds.params.dims, oversampling))
                    for oversampling in (1, 2)]
            for batches in steps(ds):
                for cfg in cfgs:
                    _, _, labels = ml_arrays(batches, cfg)
                    dense = [_dense_rates(b["channel"].transpose(0, 2, 1), cfg)
                             for b in batches]
                    assert np.array_equal(labels, np.stack(dense, axis=1))


class TestOmniFeature:
    def test_is_first_row(self, rng):
        mat = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        assert np.array_equal(omni_feature(mat), mat[0])

    def test_copy_not_view(self, rng):
        mat = (rng.normal(size=(2, 3)) + 0j)
        f = omni_feature(mat)
        f[0] = 99.0
        assert mat[0, 0] != 99.0

    def test_stack_is_first_row_of_each(self, rng):
        stack = rng.normal(size=(5, 4, 8)) + 1j * rng.normal(size=(5, 4, 8))
        assert np.array_equal(omni_feature(stack), [omni_feature(mat) for mat in stack])


class TestMlDataset:
    def _dataset(self, rng, tiny_scene):
        p = _params()
        return p, build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)

    def test_record_counts(self, rng, tiny_scene):
        p, ds = self._dataset(rng, tiny_scene)
        cb = dft_codebook(p.dims)
        users, features, labels = ml_arrays(ds.shards, BeamEvalConfig(cb))
        assert np.array_equal(users, ds.shards[0]["global_index"])
        assert len(ds.bs_ids) == 2
        assert features.shape == (ds.n_users, 2, p.ofdm_limit)
        assert labels.shape == (ds.n_users, 2, cb.n_beams)

    def test_labels_match_beam_rates(self, rng, tiny_scene):
        from mimogen.dataset import get_channel
        p, ds = self._dataset(rng, tiny_scene)
        cfg = BeamEvalConfig(dft_codebook(p.dims), snr=2.0)
        _, _, labels = ml_arrays(ds.shards, cfg)
        assert np.allclose(labels[0, 1], beam_rates(get_channel(ds, 2, 1), cfg))

    def test_arrays_equal_per_pair_kernel_calls(self, rng, tiny_scene):
        # The stacked kernel call gives each pair the bits its own call gives.
        from mimogen.dataset import get_channel
        p, ds = self._dataset(rng, tiny_scene)
        cfg = BeamEvalConfig(dft_codebook(p.dims, oversampling=2), snr=3.0, conjugate=True)
        _, features, labels = ml_arrays(ds.shards, cfg)
        for u in range(ds.n_users):
            for b in range(len(ds.bs_ids)):
                H = get_channel(ds, b + 1, u + 1)
                assert np.array_equal(labels[u, b], beam_rates(H, cfg))
                assert np.array_equal(features[u, b], omni_feature(H))

    def test_export_row_counts(self, rng, tiny_scene, tmp_path):
        p, ds = self._dataset(rng, tiny_scene)
        cfg = BeamEvalConfig(dft_codebook(p.dims))
        write_ml_dataset(ds, cfg, tmp_path)
        feats = (tmp_path / "features.csv").read_text().strip().splitlines()
        labels = (tmp_path / "labels.csv").read_text().strip().splitlines()
        n_bs = len(ds.bs_ids)
        assert len(feats) == 1 + ds.n_users * n_bs * p.ofdm_limit
        assert len(labels) == 1 + ds.n_users * n_bs * cfg.codebook.n_beams
        assert (tmp_path / "ml_manifest.txt").exists()

    def test_export_deterministic(self, rng, tiny_scene, tmp_path):
        p, ds = self._dataset(rng, tiny_scene)
        cfg = BeamEvalConfig(dft_codebook(p.dims))
        m1 = write_ml_dataset(ds, cfg, tmp_path / "a")
        m2 = write_ml_dataset(ds, cfg, tmp_path / "b")
        assert [e.content_hash for e in m1.entries] == \
            [e.content_hash for e in m2.entries]


def _bits_to_float(bits: int) -> float:
    return float(np.array(bits, np.uint64).view(np.float64))


# Signed zeros, infinities, NaN, the subnormal and normal extremes and both
# sides of the cut-offs where repr switches to exponent form (1e16, 1e-4).
_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
                1e16, math.nextafter(1e16, 0.0), -1e16, 1e-4, math.nextafter(1e-4, 0.0),
                -1e-4, 1e-5, 9999999999999998.0, 0.1, 1.0, 123456789.0]

_values = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits_to_float),                # any bit pattern
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=-5e-308, max_value=5e-308),              # subnormal range
    st.floats(min_value=1e15, max_value=1e17),
    st.floats(min_value=1e-5, max_value=1e-3),
    st.sampled_from(_EDGE_FLOATS),
)


@st.composite
def _ml_record_lists(draw):
    """``ml_arrays`` output: users (U,), features (U, S, K), labels (U, S, P)."""
    u, s = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    k, p = draw(st.integers(0, 4)), draw(st.integers(0, 4))

    def values(n: int) -> np.ndarray:
        return np.array(draw(st.lists(_values, min_size=n, max_size=n)), dtype=float)

    users = np.array(draw(st.lists(st.integers(0, 2**64 - 1), min_size=u, max_size=u)),
                     dtype=np.uint64)
    features = values(2 * u * s * k).view(complex).reshape(u, s, k)
    return users, features, values(u * s * p).reshape(u, s, p)


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="the oracle's text is numpy 2's float64 scalar repr")
class TestCsvFormatter:
    @settings(deadline=None, max_examples=100)
    @given(_ml_record_lists())
    def test_equals_oracle(self, arrays):
        assert _ml_csv(*arrays) == ml_csv_oracle(*arrays)

    def test_equals_oracle_on_random_bit_patterns(self, rng):
        bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64, endpoint=False)
        values = np.concatenate([bits.view(np.float64), np.array(_EDGE_FLOATS)])
        arrays = np.array([7], np.uint64), values.view(complex)[None, None], values[None, None]
        assert _ml_csv(*arrays) == ml_csv_oracle(*arrays)
