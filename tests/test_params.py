import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimogen.kvconfig import ConfigError
from mimogen.params import (
    KEYS,
    ParamError,
    ParamSet,
    parse_params,
    serialize_params,
    subcarrier_set,
)


class TestDefaults:
    def test_empty_document_gives_defaults(self):
        p = parse_params("")
        assert p.active_bs == (3, 4, 5, 6)
        assert (p.active_user_first, p.active_user_last) == (1000, 1300)
        assert p.dims == (1, 32, 8)
        assert p.ant_spacing == 0.5
        assert p.bandwidth == 0.5
        assert p.num_ofdm == 1024
        assert p.ofdm_sampling_factor == 1
        assert p.ofdm_limit == 64
        assert p.num_paths == 5

    def test_num_antennas(self):
        assert ParamSet().num_antennas == 256
        assert ParamSet(num_ant_x=2, num_ant_y=3, num_ant_z=4).num_antennas == 24

    def test_bandwidth_hz(self):
        assert ParamSet().bandwidth_hz == 0.5e9


class TestParsing:
    def test_explicit_values(self):
        p = parse_params(
            "active_BS=3,4,5,6\nactive_user_first=1000\nactive_user_last=1500\n"
        )
        assert p.active_bs == (3, 4, 5, 6)
        assert p.active_user_last == 1500

    def test_comments_ignored(self):
        p = parse_params("# a comment\nnum_paths=3\n")
        assert p.num_paths == 3

    def test_unknown_key(self):
        with pytest.raises(ParamError, match="nonsense"):
            parse_params("nonsense=1")

    def test_type_mismatch_cites_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_params("num_paths=3\nnum_ant_y=many\n")

    def test_num_paths_zero_rejected(self):
        with pytest.raises(ParamError, match="num_paths"):
            parse_params("num_paths=0")

    def test_num_paths_over_cap_rejected(self):
        with pytest.raises(ParamError, match="num_paths"):
            parse_params("num_paths=26")

    @pytest.mark.parametrize("key", ["ant_spacing", "bandwidth"])
    @pytest.mark.parametrize("value,message", [
        ("nan", "must be > 0, got nan"), ("-inf", "must be > 0, got -inf"),
        ("inf", "must be finite, got inf"), ("0", "must be > 0, got 0.0"),
    ])
    def test_spacing_and_bandwidth_positive_and_finite(self, key, value, message):
        with pytest.raises(ParamError) as exc:
            parse_params(f"{key}={value}")
        assert str(exc.value) == f"{key}: {message}"

    @pytest.mark.parametrize("text,message", [
        ("active_BS=3,4,3", "active_BS: duplicate ids"),
        ("num_ant_x=0", "num_ant_x: must be >= 1, got 0"),
        ("num_ant_y=-2", "num_ant_y: must be >= 1, got -2"),
        ("num_ant_z=0", "num_ant_z: must be >= 1, got 0"),
        ("num_OFDM=0", "num_OFDM: must be >= 1, got 0"),
        ("OFDM_sampling_factor=0", "OFDM_sampling_factor: must be >= 1, got 0"),
        ("OFDM_limit=-1", "OFDM_limit: must be >= 1, got -1"),
    ])
    def test_ids_and_counts_refused(self, text, message):
        with pytest.raises(ParamError) as exc:
            parse_params(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text,message", [
        ("num_paths=3\n=3", "line 2: empty key"),
        ("active_BS= , ", "line 1: key 'active_BS' expects a comma-separated list"),
    ])
    def test_malformed_line_refused(self, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_params(text)
        assert type(exc.value) is ConfigError
        assert str(exc.value) == message

    def test_row_order_rejected(self):
        with pytest.raises(ParamError, match="active_user_first"):
            parse_params("active_user_first=200\nactive_user_last=100")

    def test_serialize_roundtrip(self):
        p = ParamSet(active_bs=(1, 7), ant_spacing=0.37, bandwidth=1.25, num_paths=9)
        assert parse_params(serialize_params(p)) == p


_positive = st.floats(min_value=0, exclude_min=True, allow_nan=False, allow_infinity=False)
_count = st.integers(1, 2**40)


@st.composite
def _param_sets(draw):
    first = draw(st.integers(1, 10**7))
    return ParamSet(
        active_bs=tuple(draw(st.lists(st.integers(1, 10**4), min_size=1, max_size=8,
                                      unique=True))),
        active_user_first=first,
        active_user_last=draw(st.integers(first, 2 * 10**7)),
        num_ant_x=draw(_count),
        num_ant_y=draw(_count),
        num_ant_z=draw(_count),
        ant_spacing=draw(_positive),
        bandwidth=draw(_positive),
        num_ofdm=draw(_count),
        ofdm_sampling_factor=draw(_count),
        ofdm_limit=draw(_count),
        num_paths=draw(st.integers(1, 25)),
    )


class TestSerialization:
    def test_default_text(self):
        assert serialize_params(ParamSet()) == (
            "active_BS=3,4,5,6\n"
            "active_user_first=1000\n"
            "active_user_last=1300\n"
            "num_ant_x=1\n"
            "num_ant_y=32\n"
            "num_ant_z=8\n"
            "ant_spacing=0.5\n"
            "bandwidth=0.5\n"
            "num_OFDM=1024\n"
            "OFDM_sampling_factor=1\n"
            "OFDM_limit=64\n"
            "num_paths=5\n"
        )

    @settings(max_examples=200, deadline=None)
    @given(_param_sets())
    def test_roundtrip_every_key(self, p):
        text = serialize_params(p)
        assert [line.split("=", 1)[0] for line in text.splitlines()] == list(KEYS)
        assert parse_params(text) == p


class TestSubcarrierSet:
    def test_first_64(self):
        ks = subcarrier_set(ParamSet(num_ofdm=1024, ofdm_sampling_factor=1, ofdm_limit=64))
        assert list(ks) == list(range(1, 65))

    def test_sampled_by_4(self):
        ks = subcarrier_set(ParamSet(num_ofdm=1024, ofdm_sampling_factor=4, ofdm_limit=64))
        assert list(ks) == list(range(1, 257, 4))
        assert ks[-1] == 1 + 63 * 4

    def test_no_subsampling_small(self):
        ks = subcarrier_set(ParamSet(num_ofdm=8, ofdm_sampling_factor=1, ofdm_limit=8))
        assert list(ks) == list(range(1, 9))

    def test_overflow_names_fields(self):
        p = ParamSet(num_ofdm=64, ofdm_sampling_factor=4, ofdm_limit=64)
        with pytest.raises(ParamError) as exc:
            subcarrier_set(p)
        msg = str(exc.value)
        assert "OFDM_limit" in msg and "OFDM_sampling_factor" in msg and "num_OFDM" in msg

    def test_cardinality_and_max(self):
        for f, limit, k in [(1, 5, 16), (3, 4, 64), (7, 9, 128)]:
            ks = subcarrier_set(ParamSet(num_ofdm=k, ofdm_sampling_factor=f, ofdm_limit=limit))
            assert len(ks) == limit
            assert ks[-1] == 1 + (limit - 1) * f
