import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimogen.beams import (
    BeamEvalConfig,
    Codebook,
    MlRecord,
    _ml_csv,
    achievable_rate,
    beam_rates,
    best_beam,
    dft_codebook,
    ml_records,
    omni_feature,
    write_ml_dataset,
)
from mimogen.channel import ChannelMatrix
from mimogen.dataset import active_user_indices, build_dataset
from mimogen.params import ParamSet

from conftest import ml_csv_oracle
from test_dataset import _params, _ray_sources, tiny_scene  # noqa: F401


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
        with pytest.raises(ValueError, match="oversampling"):
            dft_codebook((1, 4, 2), oversampling=0)

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
        cb = dft_codebook((1, 1, 1))
        cb2 = Codebook(vectors=np.vstack([cb.vectors, cb.vectors]),
                       dims=(1, 1, 1), oversampling=1)
        cfg = BeamEvalConfig(cb2)
        idx, _ = best_beam(np.ones((1, 4), complex), cfg)
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
        cb = Codebook(vectors=np.zeros((0, 4), complex), dims=(1, 4, 1),
                      oversampling=1)
        with pytest.raises(ValueError, match="empty"):
            best_beam(np.zeros((4, 2), complex), BeamEvalConfig(cb))

    def test_bad_snr(self):
        with pytest.raises(ValueError, match="snr"):
            BeamEvalConfig(dft_codebook((1, 2, 1)), snr=0.0)


class TestOmniFeature:
    def test_is_first_row(self, rng):
        mat = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        assert np.array_equal(omni_feature(mat), mat[0])

    def test_copy_not_view(self, rng):
        mat = (rng.normal(size=(2, 3)) + 0j)
        f = omni_feature(mat)
        f[0] = 99.0
        assert mat[0, 0] != 99.0


class TestMlDataset:
    def _dataset(self, rng, tiny_scene):
        p = _params()
        return p, build_dataset(_ray_sources(rng, tiny_scene, p), p, tiny_scene)

    def test_record_counts(self, rng, tiny_scene):
        p, ds = self._dataset(rng, tiny_scene)
        cb = dft_codebook(p.dims)
        recs = ml_records(ds.shards, BeamEvalConfig(cb))
        assert len(recs) == ds.n_users
        for rec in recs:
            assert len(rec.features) == len(ds.bs_ids) == 2
            assert all(f.shape == (p.ofdm_limit,) for f in rec.features)
            assert all(l.shape == (cb.n_beams,) for l in rec.labels)

    def test_labels_match_beam_rates(self, rng, tiny_scene):
        from mimogen.dataset import get_channel
        p, ds = self._dataset(rng, tiny_scene)
        cfg = BeamEvalConfig(dft_codebook(p.dims), snr=2.0)
        recs = ml_records(ds.shards, cfg)
        assert np.allclose(recs[0].labels[1],
                           beam_rates(get_channel(ds, 2, 1), cfg))

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
    records = []
    for _ in range(draw(st.integers(0, 3))):
        n_bs = draw(st.integers(1, 3))
        k, p = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        features = tuple(
            np.array(draw(st.lists(_values, min_size=2 * k, max_size=2 * k))).view(complex)
            for _ in range(n_bs))
        labels = tuple(np.array(draw(st.lists(_values, min_size=p, max_size=p)), dtype=float)
                       for _ in range(n_bs))
        records.append(MlRecord(draw(st.integers(0, 2**64 - 1)), features, labels))
    return records


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="the oracle's text is numpy 2's float64 scalar repr")
class TestCsvFormatter:
    @settings(deadline=None, max_examples=100)
    @given(_ml_record_lists())
    def test_equals_oracle(self, records):
        assert _ml_csv(records) == ml_csv_oracle(records)

    def test_equals_oracle_on_random_bit_patterns(self, rng):
        bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64, endpoint=False)
        values = np.concatenate([bits.view(np.float64), np.array(_EDGE_FLOATS)])
        records = [MlRecord(7, (values.view(complex),), (values,))]
        assert _ml_csv(records) == ml_csv_oracle(records)
