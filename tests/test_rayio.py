import dataclasses
import io
import math
import struct

import numpy as np
import pytest

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
    read_rayfile,
    validate_rayfile,
    write_rayfile,
)
from mimogen.tracer import PathList, PathRecord

from conftest import random_path_list, random_path_record


def _header(n, bs_id=3, scenario="O1_60"):
    return RayFileHeader(bs_id=bs_id, carrier_freq=60e9, user_count=n,
                         scenario=scenario)


def _write_bytes(path_lists, header=None):
    buf = io.BytesIO()
    write_rayfile(path_lists, header or _header(len(path_lists)), buf)
    return buf.getvalue()


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
        assert rf.records == ()
        assert rf.header.scenario == "O1_60"
        assert rf.header.carrier_freq == 60e9

    def test_random_structures_bit_exact(self, rng):
        for trial in range(25):
            pls = _random_lists(rng, int(rng.integers(0, 12)))
            data = _write_bytes(pls)
            rf = read_rayfile(io.BytesIO(data))
            assert list(rf.records) == pls
            # serialization is canonical: re-writing reproduces the bytes
            assert _write_bytes(list(rf.records)) == data

    def test_float_fidelity(self):
        p = PathRecord(aod_az=-179.999999999, aod_el=1e-300, aoa_az=0.1 + 0.2,
                       aoa_el=180.0, power=5e-324, phase=2 * np.pi - 1e-12,
                       delay=1e-9, n_reflections=4)
        pl = PathList(bs_id=1, user_index=7, user_position=(0.1, -0.2, 1e300),
                      paths=(p,))
        rf = read_rayfile(io.BytesIO(_write_bytes([pl], _header(1, bs_id=1))))
        got = rf.records[0].paths[0]
        assert got == p
        assert rf.records[0].user_position == pl.user_position


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


class TestWriteErrors:
    def test_long_scenario_name(self):
        with pytest.raises(RayFileFormatError, match="32"):
            write_rayfile([], _header(0, scenario="x" * 33), io.BytesIO())

    def test_refuses_descending_user_index(self, rng):
        a = random_path_list(rng, 3, 10)
        b = random_path_list(rng, 3, 5)
        with pytest.raises(RayFileSemanticError, match="ascending"):
            write_rayfile([a, b], _header(2), io.BytesIO())

    def test_refuses_mismatched_bs(self, rng):
        pl = random_path_list(rng, 4, 10)
        with pytest.raises(RayFileSemanticError, match="bs_id"):
            write_rayfile([pl], _header(1, bs_id=3), io.BytesIO())


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
        rf = RayFile(_header(2), tuple(_random_lists(rng, 2)))
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
        rf = RayFile(_header(1), (pl,))
        vios = validate_rayfile(rf)
        assert any(field in v.field for v in vios)
        assert any(rule_bit in v.rule or rule_bit in v.field for v in vios)

    def test_26_paths_flagged(self, rng):
        paths = tuple(sorted((random_path_record(rng) for _ in range(26)),
                             key=lambda p: -p.power))
        pl = PathList(bs_id=3, user_index=1, user_position=(0.0, 0.0, 0.0),
                      paths=paths)
        vios = validate_rayfile(RayFile(_header(1), (pl,)))
        assert any(str(MAX_PATHS) in v.rule for v in vios)

    def test_unsorted_power_flagged(self, rng):
        pl = _valid_record(rng)
        pl = dataclasses.replace(pl, paths=tuple(reversed(pl.paths)))
        vios = validate_rayfile(RayFile(_header(1), (pl,)))
        assert any("descending" in v.rule for v in vios)

    def test_header_count_mismatch(self, rng):
        rf = RayFile(_header(5), tuple(_random_lists(rng, 2)))
        vios = validate_rayfile(rf)
        assert any(v.field == "user_count" and v.record_index == -1 for v in vios)

    def test_violation_str_names_record(self):
        from mimogen.rayio import Violation
        assert "record 3" in str(Violation(3, "paths[0].power", "power > 0"))
        assert str(Violation(-1, "user_count", "x")).startswith("file")


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

