import dataclasses
import io
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimogen.rayio import (
    HEADER_SIZE,
    MAGIC,
    MAX_PATHS,
    RayFile,
    RayFileCorruptionError,
    RayFileError,
    RayFileFormatError,
    RayFileHeader,
    RayFileSemanticError,
    RayFileVersionError,
    check_follows,
    encode_head,
    encode_rows,
    read_rayfile,
    row_violations,
    validate_rayfile,
    write_rayfile,
)
from mimogen.tracer import PATH_ROW, USER_ROW, PathList, PathRecord, RayRows

from conftest import random_path_list, random_path_record, validate_rayfile_oracle


def _header(n, bs_id=3, scenario="O1_60"):
    return RayFileHeader(bs_id=bs_id, carrier_freq=60e9, user_count=n,
                         scenario=scenario)


def _write_bytes(path_lists, header=None):
    buf = io.BytesIO()
    write_rayfile(path_lists, header or _header(len(path_lists)), buf)
    return buf.getvalue()


def _rayfile(header, path_lists):
    return RayFile(header, RayRows.from_path_lists(path_lists))


def _random_lists(rng, n, bs_id=3):
    indices = sorted(rng.choice(10_000, size=n, replace=False) + 1)
    return [random_path_list(rng, bs_id, int(i)) for i in indices]


class TestLayout:
    def test_header_is_64_bytes(self):
        data = _write_bytes([])
        assert len(data) == HEADER_SIZE == 64
        assert data[:4] == MAGIC

    def test_record_sizes(self, rng):
        pl = random_path_list(rng, 3, 42, max_paths=25)
        data = _write_bytes([pl])
        assert len(data) == 64 + 34 + 58 * len(pl.paths)

    def test_write_returns_byte_count(self, rng):
        pls = _random_lists(rng, 5)
        buf = io.BytesIO()
        n = write_rayfile(pls, _header(5), buf)
        assert n == len(buf.getvalue())


class TestRoundTrip:
    def test_empty(self):
        rf = read_rayfile(io.BytesIO(_write_bytes([])))
        assert list(rf.rows) == []
        assert rf.records is rf.rows        # the older name, still read by bench/gate.py
        assert rf.header.scenario == "O1_60"
        assert rf.header.carrier_freq == 60e9

    def test_random_structures_bit_exact(self, rng):
        for trial in range(25):
            pls = _random_lists(rng, int(rng.integers(0, 12)))
            data = _write_bytes(pls)
            rf = read_rayfile(io.BytesIO(data))
            assert list(rf.rows) == pls
            # serialization is canonical: re-writing reproduces the bytes
            assert _write_bytes(list(rf.rows)) == data

    def test_float_fidelity(self):
        p = PathRecord(aod_az=-179.999999999, aod_el=1e-300, aoa_az=0.1 + 0.2,
                       aoa_el=180.0, power=5e-324, phase=2 * np.pi - 1e-12,
                       delay=1e-9, n_reflections=4)
        pl = PathList(bs_id=1, user_index=7, user_position=(0.1, -0.2, 1e300),
                      paths=(p,))
        rf = read_rayfile(io.BytesIO(_write_bytes([pl], _header(1, bs_id=1))))
        got = rf.rows[0].paths[0]
        assert got == p
        assert rf.rows[0].user_position == pl.user_position


class TestReadErrors:
    def test_bad_magic(self, rng):
        data = bytearray(_write_bytes(_random_lists(rng, 2)))
        data[0] ^= 0xFF
        with pytest.raises(RayFileFormatError, match="magic"):
            read_rayfile(io.BytesIO(bytes(data)))

    def test_unsupported_version(self, rng):
        data = bytearray(_write_bytes(_random_lists(rng, 2)))
        struct.pack_into("<I", data, 4, 99)
        with pytest.raises(RayFileVersionError, match="99"):
            read_rayfile(io.BytesIO(bytes(data)))

    def test_truncated_header(self):
        with pytest.raises(RayFileCorruptionError, match="truncated header"):
            read_rayfile(io.BytesIO(b"DMRF" + b"\0" * 10))

    def test_truncated_payload_cites_offset(self, rng):
        pls = _random_lists(rng, 3)
        data = _write_bytes(pls)
        cut = len(data) - 7
        with pytest.raises(RayFileCorruptionError, match=r"byte \d+"):
            read_rayfile(io.BytesIO(data[:cut]))

    def test_count_overflow(self):
        data = bytearray(_write_bytes([]))
        struct.pack_into("<Q", data, 20, 1_000_000)
        with pytest.raises(RayFileCorruptionError, match="1000000"):
            read_rayfile(io.BytesIO(bytes(data)))

    def test_trailing_bytes(self, rng):
        data = _write_bytes(_random_lists(rng, 2))
        with pytest.raises(RayFileCorruptionError, match="trailing"):
            read_rayfile(io.BytesIO(data + b"\x00\x01\x02"))

    def test_bad_scenario_utf8(self):
        data = bytearray(_write_bytes([]))
        data[28] = 0xFF  # scenario field starts at offset 28
        with pytest.raises(RayFileFormatError, match="UTF-8"):
            read_rayfile(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize("offset", [60, 61, 63])
    def test_nonzero_padding(self, rng, offset):
        data = bytearray(_write_bytes(_random_lists(rng, 2)))
        data[offset] = 7
        with pytest.raises(RayFileFormatError, match=f"byte {offset}"):
            read_rayfile(io.BytesIO(bytes(data)))


class TestWriteErrors:
    def test_long_scenario_name(self):
        with pytest.raises(RayFileFormatError, match="32"):
            write_rayfile([], _header(0, scenario="x" * 33), io.BytesIO())

    def test_refuses_descending_user_index(self, rng):
        a = random_path_list(rng, 3, 10)
        b = random_path_list(rng, 3, 5)
        with pytest.raises(RayFileSemanticError, match="ascending"):
            write_rayfile([a, b], _header(2), io.BytesIO())

    def test_record_violations_come_before_format_errors(self, rng):
        # Descending user indices with a 33-byte scenario name and a zero
        # carrier: the records' and the carrier's violations, in one message.
        pls = [random_path_list(rng, 3, 10), random_path_list(rng, 3, 5)]
        header = dataclasses.replace(_header(2, scenario="x" * 33), carrier_freq=0.0)
        with pytest.raises(RayFileSemanticError) as info:
            write_rayfile(pls, header, io.BytesIO())
        assert str(info.value) == ("refusing to write invalid ray data: file: carrier_freq: "
                                   "must be finite and > 0; record 1: user_index: "
                                   "must be strictly ascending")

    def test_refuses_mismatched_bs(self, rng):
        pl = random_path_list(rng, 4, 10)
        with pytest.raises(RayFileSemanticError, match="bs_id"):
            write_rayfile([pl], _header(1, bs_id=3), io.BytesIO())

    def test_refuses_mixed_bs(self, rng):
        pls = [random_path_list(rng, 3, 10), random_path_list(rng, 4, 11)]
        with pytest.raises(RayFileSemanticError, match=r"base stations \[3, 4\]"):
            write_rayfile(pls, _header(2, bs_id=3), io.BytesIO())


def _valid_record(rng, user_index=5):
    paths = sorted((random_path_record(rng) for _ in range(4)),
                   key=lambda p: -p.power)
    return PathList(bs_id=3, user_index=user_index, user_position=(1.0, 2.0, 3.0),
                    paths=tuple(paths))


def _with_path_field(pl, j, **changes):
    paths = list(pl.paths)
    paths[j] = dataclasses.replace(paths[j], **changes)
    return dataclasses.replace(pl, paths=tuple(paths))


class TestValidator:
    def test_valid_file_passes(self, rng):
        rf = _rayfile(_header(2), _random_lists(rng, 2))
        assert validate_rayfile(rf) == []

    @pytest.mark.parametrize("field,value,rule_bit", [
        ("power", -1.0, "power > 0"),
        ("power", float("nan"), "finite"),
        ("delay", 0.0, "delay > 0"),
        ("aod_az", 180.0, "[-180, 180)"),
        ("aoa_az", -180.5, "[-180, 180)"),
        ("aod_el", 181.0, "[0, 180]"),
        ("aoa_el", -0.1, "[0, 180]"),
        ("phase", -0.01, "phase"),
        ("phase", 7.0, "phase"),
    ])
    def test_seeded_defects_flagged(self, rng, field, value, rule_bit):
        pl = _with_path_field(_valid_record(rng), 1, **{field: value})
        rf = _rayfile(_header(1), [pl])
        vios = validate_rayfile(rf)
        assert any(field in v.field for v in vios)
        assert any(rule_bit in v.rule or rule_bit in v.field for v in vios)

    def test_26_paths_flagged(self, rng):
        paths = tuple(sorted((random_path_record(rng) for _ in range(26)),
                             key=lambda p: -p.power))
        pl = PathList(bs_id=3, user_index=1, user_position=(0.0, 0.0, 0.0),
                      paths=paths)
        vios = validate_rayfile(_rayfile(_header(1), [pl]))
        assert any(str(MAX_PATHS) in v.rule for v in vios)

    def test_unsorted_power_flagged(self, rng):
        pl = _valid_record(rng)
        pl = dataclasses.replace(pl, paths=tuple(reversed(pl.paths)))
        vios = validate_rayfile(_rayfile(_header(1), [pl]))
        assert any("descending" in v.rule for v in vios)

    def test_header_count_mismatch(self, rng):
        rf = _rayfile(_header(5), _random_lists(rng, 2))
        vios = validate_rayfile(rf)
        assert any(v.field == "user_count" and v.record_index == -1 for v in vios)

    def test_violation_str_names_record(self):
        from mimogen.rayio import Violation
        assert "record 3" in str(Violation(3, "paths[0].power", "power > 0"))
        assert str(Violation(-1, "user_count", "x")).startswith("file")


# Path fields: anything, with the rules' boundaries common.
_field = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-9, -1.0, 90.0, -180.0, 179.999, 180.0, 180.5,
                     2 * math.pi, 2 * math.pi + 1e-12, 7.0]),
)
_path = st.builds(PathRecord, _field, _field, _field, _field, _field, _field, _field,
                  st.integers(0, 4))
_record = st.builds(
    lambda index, paths: PathList(bs_id=3, user_index=index, user_position=(1.0, 2.0, 3.0),
                                  paths=tuple(paths)),
    st.one_of(st.integers(0, 5), st.integers(2**64 - 3, 2**64 - 1)),
    st.lists(_path, max_size=MAX_PATHS + 1),
)


class TestValidatorOracle:
    """The columnar validator against the scalar one in conftest: the same
    violations, in the same order, with the same strings."""

    @staticmethod
    def _check(header, path_lists):
        got = validate_rayfile(_rayfile(header, path_lists))
        assert got == validate_rayfile_oracle(header, path_lists)
        return got

    @settings(max_examples=150, deadline=None)
    @given(records=st.lists(_record, max_size=4), count=st.integers(0, 5),
           carrier=st.sampled_from([60e9, 0.0, -1.0, math.nan, math.inf]),
           bs_id=st.sampled_from([3, 4]))
    def test_any_records(self, records, count, carrier, bs_id):
        header = RayFileHeader(bs_id=bs_id, carrier_freq=carrier, user_count=count,
                               scenario="O1_60")
        self._check(header, records)

    @pytest.mark.parametrize("field,value", [
        ("power", -1.0), ("power", float("nan")), ("delay", 0.0), ("aod_az", 180.0),
        ("aoa_az", -180.5), ("aod_el", 181.0), ("aoa_el", -0.1), ("phase", -0.01),
        ("phase", 7.0), ("delay", float("inf")), ("aoa_el", float("nan")),
        ("aod_az", float("-inf")),
    ])
    def test_seeded_defects(self, rng, field, value):
        pl = _with_path_field(_valid_record(rng), 1, **{field: value})
        assert self._check(_header(2), [pl, _valid_record(rng, user_index=9)])

    def test_power_rising_across_users_is_not_flagged(self, rng):
        a, b = _valid_record(rng, user_index=1), _valid_record(rng, user_index=2)
        b = _with_path_field(b, 0, power=a.paths[-1].power * 1e3)
        b = dataclasses.replace(b, paths=tuple(sorted(b.paths, key=lambda p: -p.power)))
        empty = PathList(bs_id=3, user_index=3, user_position=(0.0, 0.0, 0.0), paths=())
        c = _with_path_field(_valid_record(rng, user_index=4), 0, power=1.0)
        assert self._check(_header(4), [a, b, empty, c]) == []

    def test_unsorted_power_within_a_user_is_flagged(self, rng):
        pl = _valid_record(rng)
        pl = dataclasses.replace(pl, paths=tuple(reversed(pl.paths)))
        assert [v.field for v in self._check(_header(1), [pl])] == [
            "paths[1].power", "paths[2].power", "paths[3].power"]

    def test_26_paths_and_top_user_indices(self, rng):
        paths = tuple(sorted((random_path_record(rng) for _ in range(26)),
                             key=lambda p: -p.power))
        pls = [PathList(bs_id=3, user_index=i, user_position=(0.0, 0.0, 0.0), paths=paths)
               for i in (2**64 - 2, 2**64 - 1, 2**64 - 1)]
        assert [(v.record_index, v.field) for v in self._check(_header(3), pls)] == [
            (0, "paths"), (1, "paths"), (2, "user_index"), (2, "paths")]


def _steps(n, cuts):
    """(first, end) of each step of ``n`` records cut before each of ``cuts``."""
    starts = sorted({0, *(c for c in cuts if 0 < c < n)}) if n else []
    return list(zip(starts, starts[1:] + [n]))


class TestStreamedWrite:
    """A file written as ``trace`` writes it: the head, then one chunk of
    records per step, each step's rows checked on their own and its first
    user index against the step before's last."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 12), cuts=st.lists(st.integers(0, 12), max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_write_rayfile(self, n, cuts, seed):
        rows = RayRows.from_path_lists(_random_lists(np.random.default_rng(seed), n))
        data = [encode_head(_header(n))]
        before = None
        for lo, hi in _steps(n, cuts):
            step = rows.rows(lo, hi)
            check_follows(before, step.users["user_index"], lo)
            data.append(encode_rows(step, 3, lo).tobytes())
            before = int(step.users["user_index"][-1])
        assert b"".join(data) == _write_bytes(rows, _header(n))

    @settings(max_examples=150, deadline=None)
    @given(records=st.lists(_record, max_size=6), cuts=st.lists(st.integers(0, 6), max_size=4),
           bs_id=st.sampled_from([3, 4]))
    def test_step_checks_equal_the_oracle(self, records, cuts, bs_id):
        # Each step's violations, numbered from its first record, are the
        # oracle's for those records, but for the user index of a step's
        # first record, which only the boundary check sees.
        rows = RayRows.from_path_lists(records)
        steps = _steps(len(records), cuts)
        want = [v for v in validate_rayfile_oracle(_header(len(records), bs_id), records)
                if v.record_index >= 0]
        boundary = [v for v in want if v.field == "user_index"
                    and v.record_index in {lo for lo, _ in steps}]
        got, refused, before = [], [], None
        for lo, hi in steps:
            step = rows.rows(lo, hi)
            got += row_violations(step, bs_id, lo)
            try:
                check_follows(before, step.users["user_index"], lo)
            except RayFileSemanticError as exc:
                refused.append(str(exc))
            before = int(step.users["user_index"][-1])
        assert got == [v for v in want if v not in boundary]
        assert refused == [f"refusing to write invalid ray data: {v}" for v in boundary]

    def test_boundary_break_is_refused(self, rng):
        rows = RayRows.from_path_lists(_random_lists(rng, 4))
        index = rows.users["user_index"]
        check_follows(None, index, 0)               # no record before the first
        check_follows(int(index[1]), index[2:], 2)
        with pytest.raises(RayFileSemanticError, match=r"^refusing to write invalid ray data: "
                           r"record 2: user_index: must be strictly ascending$"):
            check_follows(int(index[2]), index[2:], 2)
        pl = _valid_record(rng)
        unsorted = RayRows.from_path_lists([dataclasses.replace(pl, paths=pl.paths[::-1])])
        with pytest.raises(RayFileSemanticError, match=r"^refusing to write invalid ray data: "
                           r"record 4: paths\[1\]\.power: paths sorted by power descending;"):
            encode_rows(unsorted, 3, 4)


def _rows(n_users, paths_per_user, rng):
    """Valid rows: ``n_users`` users with ``paths_per_user`` paths each."""
    users = np.zeros(n_users, USER_ROW)
    users["user_index"] = np.arange(1, n_users + 1)
    users["position"] = rng.uniform(-100, 100, (n_users, 3))
    users["n_paths"] = paths_per_user
    paths = np.zeros(n_users * paths_per_user, PATH_ROW)
    for name, lo, hi in (("aod_az", -180, 180), ("aoa_az", -180, 180), ("aod_el", 0, 180),
                         ("aoa_el", 0, 180), ("phase", 0, 6.28), ("delay", 1e-9, 1e-5)):
        paths[name] = rng.uniform(lo, hi, paths.size)
    paths["power"] = -np.sort(-rng.uniform(1e-14, 1e-6, (n_users, paths_per_user))).ravel()
    paths["n_reflections"] = rng.integers(0, 5, paths.size)
    return RayRows(3, users, paths)


class TestColumnarMemory:
    def test_decode_holds_about_the_file_size(self, rng):
        # The size of one trace-heavy ray file: 1,083 users, 17,328 paths.
        buf = io.BytesIO()
        write_rayfile(_rows(1083, 16, rng), _header(1083), buf)
        data = buf.getvalue()
        assert 1_000_000 < len(data) < 1_100_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rf = read_rayfile(io.BytesIO(data))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rf.rows.paths) == 17_328
        assert held <= 1.5 * len(data), f"{held} bytes held for a {len(data)}-byte file"


class TestMutationFuzz:
    def test_byte_flips_never_crash(self, rng):
        pls = _random_lists(rng, 4)
        base = _write_bytes(pls)
        for _ in range(400):
            data = bytearray(base)
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(0, len(data)))
                data[pos] = int(rng.integers(0, 256))
            try:
                read_rayfile(io.BytesIO(bytes(data)))
            except RayFileError:
                pass  # classified failure is the contract

    def test_random_truncation_classified(self, rng):
        base = _write_bytes(_random_lists(rng, 4))
        for _ in range(100):
            cut = int(rng.integers(0, len(base)))
            if cut == len(base):
                continue
            with pytest.raises(RayFileError):
                read_rayfile(io.BytesIO(base[:cut]))

    def test_accepted_mutations_reencode_identically(self, rng):
        base = _write_bytes(_random_lists(rng, 4))
        accepted = 0
        for _ in range(2000):
            data = bytearray(base)
            for _ in range(int(rng.integers(1, 3))):
                data[int(rng.integers(0, len(data)))] = int(rng.integers(0, 256))
            try:
                rf = read_rayfile(io.BytesIO(bytes(data)))
            except RayFileError:
                continue
            accepted += 1
            buf = io.BytesIO()
            write_rayfile(rf.rows, rf.header, buf)
            assert buf.getvalue() == bytes(data)
        assert accepted > 100
