import numpy as np
import pytest

from mimogen.channel import (
    array_response,
    channel_matrices_batch,
    channel_matrix,
)
from mimogen.params import ParamSet
from mimogen.rayio import PathList, PathRecord

from conftest import channel_matrix_oracle, channel_vector, random_path_list, random_path_record


def brute_force_response(az, el, dims, spacing):
    """Independent oracle: explicit triple loop over element indices."""
    mx, my, mz = dims
    kd = 2 * np.pi * spacing
    out = np.empty(mx * my * mz, dtype=complex)
    i = 0
    for nz in range(mz):
        for ny in range(my):
            for nx in range(mx):
                ph = kd * (
                    nx * np.sin(el) * np.cos(az)
                    + ny * np.sin(el) * np.sin(az)
                    + nz * np.cos(el)
                )
                out[i] = np.exp(1j * ph)
                i += 1
    return out


class TestArrayResponse:
    def test_boresight_is_ones(self):
        a = array_response(0.0, np.pi / 2, (4, 4, 4), 0.5)
        # el = pi/2, az = 0: only the x axis sees phase; cos(el)=0, sin(az)=0
        b = np.exp(1j * np.pi * np.arange(4) * 1.0)
        assert np.allclose(a, np.kron(np.ones(4), np.kron(np.ones(4), b)))

    def test_zenith(self):
        a = array_response(0.7, 0.0, (2, 2, 2), 0.5)
        # sin(el)=0 kills x and y; z alternates sign at half-wavelength spacing
        want = np.kron(np.exp(1j * np.pi * np.arange(2)), np.ones(4))
        assert np.allclose(a, want)

    def test_unit_modulus(self, rng):
        for _ in range(20):
            az = rng.uniform(-np.pi, np.pi)
            el = rng.uniform(0, np.pi)
            a = array_response(az, el, (3, 5, 2), 0.37)
            assert np.allclose(np.abs(a), 1.0)

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            az = rng.uniform(-np.pi, np.pi)
            el = rng.uniform(0, np.pi)
            dims = tuple(int(d) for d in rng.integers(1, 5, 3))
            spacing = rng.uniform(0.1, 1.0)
            a = array_response(az, el, dims, spacing)
            b = brute_force_response(az, el, dims, spacing)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_x_fastest_ordering(self):
        a = array_response(0.3, 1.1, (2, 3, 1), 0.5)
        kd = np.pi
        # element (nx=1, ny=0, nz=0) sits at flat index 1
        assert a[1] == pytest.approx(
            np.exp(1j * kd * np.sin(1.1) * np.cos(0.3)), rel=1e-12
        )


def _single_antenna_params(**kw):
    defaults = dict(num_ant_x=1, num_ant_y=1, num_ant_z=1,
                    num_ofdm=64, ofdm_limit=64, num_paths=25)
    defaults.update(kw)
    return ParamSet(**defaults)


def _tap_record(power, phase, delay, **kw):
    base = dict(aod_az=0.0, aod_el=90.0, aoa_az=0.0, aoa_el=90.0,
                n_reflections=0)
    base.update(kw)
    return PathRecord(power=power, phase=phase, delay=delay, **base)


class TestChannelVector:
    """The scalar oracle (``conftest.channel_vector``) against closed forms."""

    def test_no_paths_zero(self):
        p = ParamSet()
        assert np.all(channel_vector((), 1, p) == 0)

    def test_single_path_first_subcarrier(self):
        p = _single_antenna_params()
        rec = _tap_record(4e-8, 0.7, 1.3e-8)
        h = channel_vector((rec,), 1, p)
        want = np.sqrt(rec.power / p.num_ofdm) * np.exp(1j * rec.phase)
        assert h[0] == pytest.approx(want, rel=1e-14)

    def test_subcarrier_phase_progression(self):
        p = _single_antenna_params(num_ofdm=128, ofdm_limit=128)
        rec = _tap_record(1e-8, 0.0, 2.0e-9)
        h1 = channel_vector((rec,), 1, p)[0]
        h2 = channel_vector((rec,), 2, p)[0]
        step = 2 * np.pi / p.num_ofdm * rec.delay * p.bandwidth_hz
        assert np.angle(h2 / h1) == pytest.approx(step, rel=1e-10)

    def test_linearity_in_paths(self, rng):
        p = ParamSet(num_ofdm=32, ofdm_limit=32, num_paths=25)
        recs = [random_path_record(rng) for _ in range(6)]
        combined = channel_vector(recs, 5, p)
        parts = sum(channel_vector((r,), 5, p) for r in recs)
        assert np.allclose(combined, parts, rtol=1e-12)

    def test_truncates_to_num_paths(self, rng):
        p = ParamSet(num_ofdm=32, ofdm_limit=32, num_paths=3)
        recs = sorted((random_path_record(rng) for _ in range(8)),
                      key=lambda r: -r.power)
        full = channel_vector(recs, 1, p)
        kept = channel_vector(recs[:3], 1, p)
        assert np.allclose(full, kept, rtol=0, atol=0)

    def test_power_scaling(self):
        p = _single_antenna_params()
        a = channel_vector((_tap_record(1e-8, 0.3, 5e-9),), 7, p)
        b = channel_vector((_tap_record(4e-8, 0.3, 5e-9),), 7, p)
        assert np.allclose(b, 2.0 * a, rtol=1e-14)


class TestDftOracle:
    """With a single antenna, unit bandwidth-delay products that land on
    integer taps, and the full subcarrier set, the channel across k (the
    one row of ``channel_matrix``) is the (positive-exponent) inverse DFT
    of the tap sequence scaled by K."""

    @pytest.mark.parametrize("big_k", [8, 64, 256])
    def test_integer_tap_channels(self, rng, big_k):
        p = _single_antenna_params(num_ofdm=big_k, ofdm_limit=big_k,
                                   bandwidth=1.0)
        b_hz = p.bandwidth_hz
        for _ in range(10):
            n_taps = int(rng.integers(1, min(big_k, 12)))
            taps = np.zeros(big_k, dtype=complex)
            recs = []
            used = rng.choice(big_k, size=n_taps, replace=False)
            for d in used:
                power = float(rng.uniform(1e-12, 1e-6))
                phase = float(rng.uniform(0, 2 * np.pi - 1e-12))
                delay = float(d) / b_hz
                recs.append(_tap_record(power, phase, delay))
                taps[d] += np.sqrt(power / big_k) * np.exp(1j * phase)
            want = big_k * np.fft.ifft(taps)
            got = channel_matrix(recs, p).entries[0]
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) < 1e-10 * scale


class TestChannelMatrix:
    def test_shape(self):
        p = ParamSet(num_ant_x=1, num_ant_y=4, num_ant_z=2,
                     num_ofdm=64, ofdm_limit=16, ofdm_sampling_factor=2)
        cm = channel_matrix((), p)
        assert cm.entries.shape == (8, 16)

    def test_columns_match_vector(self, rng):
        p = ParamSet(num_ant_x=1, num_ant_y=4, num_ant_z=2,
                     num_ofdm=64, ofdm_limit=8, ofdm_sampling_factor=3)
        recs = [random_path_record(rng) for _ in range(4)]
        cm = channel_matrix(recs, p)
        for j, k in enumerate(range(1, 1 + 8 * 3, 3)):
            assert np.allclose(cm.entries[:, j], channel_vector(recs, k, p))

    def test_carries_identity(self, rng):
        pl = random_path_list(rng, bs_id=4, user_index=777)
        cm = channel_matrix(pl, ParamSet(num_ofdm=16, ofdm_limit=16))
        assert (cm.bs_id, cm.user_index) == (4, 777)

    def test_is_batch_of_one(self, rng):
        p = ParamSet(num_ant_x=2, num_ant_y=2, num_ant_z=1, num_ofdm=16, ofdm_limit=16)
        pl = random_path_list(rng, bs_id=4, user_index=777)
        want = channel_matrices_batch([pl], p)[0]
        assert np.array_equal(channel_matrix(pl, p).entries, want)
        assert np.array_equal(channel_matrix(pl.paths, p).entries, want)


class TestBatch:
    def test_matches_per_user(self, rng):
        p = ParamSet(num_ant_x=2, num_ant_y=4, num_ant_z=2,
                     num_ofdm=64, ofdm_limit=16, ofdm_sampling_factor=2,
                     num_paths=5)
        pls = [random_path_list(rng, bs_id=3, user_index=i) for i in range(1, 13)]
        batch = channel_matrices_batch(pls, p)
        assert batch.shape == (12, 16, 16)
        for u, pl in enumerate(pls):
            single = channel_matrix_oracle(pl.paths, p)
            assert np.max(np.abs(batch[u] - single)) < 1e-12 * (
                1.0 + np.max(np.abs(single))
            )

    def test_empty_batch(self):
        p = ParamSet(num_ofdm=16, ofdm_limit=16)
        assert channel_matrices_batch([], p).shape == (0, 256, 16)

    def test_user_with_no_paths(self, rng):
        p = ParamSet(num_ant_x=1, num_ant_y=2, num_ant_z=1,
                     num_ofdm=8, ofdm_limit=8)
        empty = PathList(bs_id=1, user_index=1, user_position=(0.0, 0.0, 0.0),
                         paths=())
        full = random_path_list(rng, bs_id=1, user_index=2)
        batch = channel_matrices_batch([empty, full], p)
        assert np.all(batch[0] == 0)
        assert np.allclose(batch[1], channel_matrix_oracle(full.paths, p))
