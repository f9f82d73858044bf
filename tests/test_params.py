import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimogen.dataset import record_dtype
from mimogen.kvconfig import ConfigError, parse_kv
from mimogen.params import (
    KEYS,
    MAX_RECORD_BYTES,
    ParamError,
    ParamSet,
    parse_params,
    serialize_params,
    subcarrier_set,
)
from mimogen.scene import build_o1_scene, users_in_row_range

from conftest import users_in_row_range_oracle


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

    @pytest.mark.parametrize("field,value,message", [
        ("num_ant_y", 4.0, "num_ant_y: must be an integer, got 4.0"),
        ("ofdm_limit", 8.0, "OFDM_limit: must be an integer, got 8.0"),
        ("num_ant_y", True, "num_ant_y: must be an integer, got True"),
        ("active_bs", [3, 4], "active_BS: must be a tuple of integers, got [3, 4]"),
        ("active_bs", (3, True), "active_BS: must be a tuple of integers, got (3, True)"),
        ("ant_spacing", 1, "ant_spacing: must be a float, got 1"),
    ])
    def test_value_of_another_kind_refused(self, field, value, message):
        # Each would construct a set that is written unlike the one read back.
        with pytest.raises(ParamError) as exc:
            ParamSet(**{field: value})
        assert str(exc.value) == message


_positive = st.floats(min_value=0, exclude_min=True, allow_nan=False, allow_infinity=False)
_RECORD_ENTRIES = (MAX_RECORD_BYTES - 32) // 16     # antennas x subcarriers a record holds


@st.composite
def _param_sets(draw):
    """Parameter sets that construct: the antenna counts and OFDM_limit
    within a record, and the subcarrier set within num_OFDM."""
    first = draw(st.integers(1, 10**7))
    counts: list[int] = []
    for _ in range(4):          # num_ant_x, num_ant_y, num_ant_z, OFDM_limit
        counts.append(draw(st.integers(1, _RECORD_ENTRIES // math.prod(counts))))
    factor = draw(st.integers(1, 2**62 // max(counts[3] - 1, 1)))
    return ParamSet(
        active_bs=tuple(draw(st.lists(st.integers(1, 10**4), min_size=1, max_size=8,
                                      unique=True))),
        active_user_first=first,
        active_user_last=draw(st.integers(first, 2 * 10**7)),
        num_ant_x=counts[0],
        num_ant_y=counts[1],
        num_ant_z=counts[2],
        ant_spacing=draw(_positive),
        bandwidth=draw(_positive),
        num_ofdm=draw(st.integers(1 + (counts[3] - 1) * factor, 2**63 - 1)),
        ofdm_sampling_factor=factor,
        ofdm_limit=counts[3],
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
        with pytest.raises(ParamError) as exc:
            ParamSet(num_ofdm=64, ofdm_sampling_factor=4, ofdm_limit=64)
        msg = str(exc.value)
        assert "OFDM_limit" in msg and "OFDM_sampling_factor" in msg and "num_OFDM" in msg

    def test_cardinality_and_max(self):
        for f, limit, k in [(1, 5, 16), (3, 4, 64), (7, 9, 128)]:
            ks = subcarrier_set(ParamSet(num_ofdm=k, ofdm_sampling_factor=f, ofdm_limit=limit))
            assert len(ks) == limit
            assert ks[-1] == 1 + (limit - 1) * f

    def test_last_index_of_an_int64(self):
        p = ParamSet(num_ofdm=2**63 - 1, ofdm_sampling_factor=2**63 - 2, ofdm_limit=2)
        assert subcarrier_set(p).tolist() == [1, 2**63 - 1]
        with pytest.raises(ParamError) as exc:
            ParamSet(num_ofdm=2**63, ofdm_limit=1)
        assert str(exc.value) == f"num_OFDM: must be <= {2**63 - 1}, got {2**63}"


class TestRecordSize:
    def test_largest_record(self):
        p = ParamSet(num_ant_x=_RECORD_ENTRIES, num_ant_y=1, num_ant_z=1, ofdm_limit=1)
        assert record_dtype(p).itemsize == 32 + 16 * _RECORD_ENTRIES == MAX_RECORD_BYTES - 15

    @pytest.mark.parametrize("text,size", [
        # One entry more: np.dtype gives the itemsize -2**31.
        (f"num_ant_x={_RECORD_ENTRIES + 1}\nnum_ant_y=1\nnum_ant_z=1\nOFDM_limit=1", 2**31),
        ("num_ant_y=1000000\nOFDM_limit=1000\nnum_OFDM=100000", 32 + 16 * 8 * 10**9),
    ])
    def test_record_beyond_a_c_int_refused(self, text, size):
        with pytest.raises(ParamError) as exc:
            parse_params(text)
        assert str(exc.value) == (
            f"record size: 32 + 16*num_ant_x*num_ant_y*num_ant_z*OFDM_limit = {size} bytes, "
            f"more than a record holds ({MAX_RECORD_BYTES})")


# A count below 1, a small one, or one past every cap.
_any_count = st.integers(-1, 2**10) | st.integers(1, 2**70)


@st.composite
def _counts(draw):
    """num_ant_x/y/z, OFDM_limit, OFDM_sampling_factor and num_OFDM: z and
    num_OFDM next to the bound that a rule puts on them given the others,
    which are any count."""
    x, y = draw(st.integers(-1, 2**10)), draw(_any_count)
    limit = draw(st.integers(-1, 2**12))      # a subcarrier_set of at most 32 KiB
    z = _RECORD_ENTRIES // max(x * y * limit, 1) + draw(st.integers(-2, 2))
    factor = draw(_any_count)
    num_ofdm = 1 + (limit - 1) * factor + draw(st.integers(-2, 2))
    return dict(num_ant_x=x, num_ant_y=y, num_ant_z=z, ofdm_limit=limit,
                ofdm_sampling_factor=factor, num_ofdm=num_ofdm)


@st.composite
def _kept_counts(draw):
    """The counts of ``_counts`` that keep every rule."""
    limit, factor = draw(st.integers(1, 2**12)), draw(st.integers(1, 2**50))
    return dict(num_ant_x=draw(st.integers(1, 4)), num_ant_y=draw(st.integers(1, 64)),
                num_ant_z=draw(st.integers(1, 16)), ofdm_limit=limit,
                ofdm_sampling_factor=factor,
                num_ofdm=draw(st.integers(1 + (limit - 1) * factor, 2**63 - 1)))


@st.composite
def _o1_rows(draw):
    """An o1 scene with random grid counts, and a row range of it: each end
    a grid's first or last row, or any row."""
    counts = [(draw(st.integers(1, 3000)), draw(st.integers(1, 50))) for _ in range(3)]
    scene = build_o1_scene(parse_kv("".join(
        f"grid{i}.n_rows={rows}\ngrid{i}.users_per_row={users}\n"
        for i, (rows, users) in enumerate(counts, start=1))))
    edges = [r for g in scene.grids for r in (g.first_row_label, g.last_row_label)]
    row = st.sampled_from(edges) | st.integers(1, scene.total_rows)
    return (scene, *sorted((draw(row), draw(row))))


def _of_another_kind(value):
    """Values of other kinds that may compare equal to ``value``: a bool, a
    whole float, an int, NaN, a list or a tuple."""
    items = list(value) if isinstance(value, tuple) else [value]
    head = items[0] if items else 1
    return st.sampled_from([
        bool(head), float(head), int(head) if math.isfinite(head) else 0, math.nan,
        items, tuple(items), tuple(map(float, items)), tuple(map(bool, items))])


class TestDefinition:
    """A dataset's definition is a scene and a parameter set: any that
    constructs works in every stage and reads back from its own file."""

    @settings(max_examples=300, deadline=None)
    @given(counts=_counts() | _kept_counts(), scene_rows=_o1_rows(), data=st.data())
    def test_every_definition_that_constructs_works(self, counts, scene_rows, data):
        scene, first, last = scene_rows
        values = dict(active_bs=tuple(data.draw(st.lists(st.integers(0, 40), min_size=1,
                                                         max_size=4, unique=True))),
                      active_user_first=first, active_user_last=last,
                      ant_spacing=data.draw(_positive), bandwidth=data.draw(_positive),
                      num_paths=data.draw(st.integers(1, 25)), **counts)
        for name in data.draw(st.sets(st.sampled_from(sorted(values)), max_size=3)):
            values[name] = data.draw(_of_another_kind(values[name]), label=name)
        try:
            p = ParamSet(**values)
        except ParamError:      # and no other error
            pass
        else:
            text = serialize_params(p)
            assert parse_params(text) == p
            assert serialize_params(parse_params(text)) == text
            assert record_dtype(p).itemsize == 32 + 16 * p.num_antennas * p.ofdm_limit
            ks = subcarrier_set(p)
            assert ks.size == p.ofdm_limit and ks[0] == 1 and ks[-1] <= p.num_ofdm
            assert (np.diff(ks) == p.ofdm_sampling_factor).all()
        got = users_in_row_range(scene, first, last)
        assert got.dtype == np.int64
        assert np.array_equal(got, users_in_row_range_oracle(scene, first, last))
