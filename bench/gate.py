"""Correctness gate: checks that one pipeline run wrote the right bytes.

Three kinds of check, each counted as one operation:

* ``gaps``: the build logged no "no ray record" gap.
* ``ref:<file>``: the SHA-256 of each output file equals the reference
  recorded for the same case. References are only comparable on the numeric
  platform they were recorded on (numpy version and its CPU dispatch
  targets, which pick the SIMD maths kernels); elsewhere these checks are
  not made and the run says so.
* ``pair b,u:<artifact>``: for a few sampled (base station, user) pairs the
  ray record, shard record, ``features.csv`` rows and ``labels.csv`` rows
  are recomputed through the library (``trace_paths``, ``channel_matrix``,
  ``beam_rates``) and compared with what the pipeline wrote.

The shard record is decoded here from the documented layout, not through
``parse_shard``, so a reader and writer that agree on a wrong layout still
fail.
"""

from __future__ import annotations

import hashlib
import platform
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mimogen.beams import BeamEvalConfig, beam_rates, dft_codebook
from mimogen.channel import channel_matrix
from mimogen.params import ParamSet, parse_params
from mimogen.rayio import read_rayfile
from mimogen.scene import scene_from_json, user_positions, users_in_row_range
from mimogen.tracer import trace_paths

GAP_MARKER = "no ray record"
PATH_ANGLE_ATOL = 1e-9      # degrees; also used for the phase in radians
PATH_REL_TOL = 1e-9         # power and delay
CHANNEL_REL_TOL = 1e-9      # of the matrix (or feature row) norm
RATE_REL_TOL = 1e-7         # of the row's largest rate


@dataclass(frozen=True)
class Case:
    """One concrete pipeline configuration: a workload at one first row."""

    workload: str
    bs: tuple[int, ...]
    first_row: int
    last_row: int
    max_reflections: int
    params: tuple[str, ...]          # extra key=value dataset parameters

    @property
    def key(self) -> str:
        return f"{self.workload}:{self.first_row}"

    def param_lines(self) -> list[str]:
        return [
            "active_BS=" + ",".join(map(str, self.bs)),
            f"active_user_first={self.first_row}",
            f"active_user_last={self.last_row}",
            *self.params,
        ]

    def param_set(self) -> ParamSet:
        return parse_params("\n".join(self.param_lines()))


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def platform_fingerprint() -> str:
    """What the output bytes depend on beyond the inputs."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    targets = "+".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    return f"{platform.machine()} numpy-{np.__version__} {targets}"


def output_files(case: Case) -> list[str]:
    """Output files covered by reference hashes, relative to the work dir."""
    return [
        "scene.json",
        *(f"rays/rays_bs{b:03d}.drf" for b in case.bs),
        *(f"dataset/shard_bs{b:03d}.dmds" for b in case.bs),
        "ml/features.csv",
        "ml/labels.csv",
    ]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def gap_check(build_log: str) -> Check:
    n = build_log.count(GAP_MARKER)
    return Check("gaps", n == 0, f"{n} '{GAP_MARKER}' warnings" if n else "")


def reference_checks(case: Case, work: Path, refs: dict[str, str]) -> list[Check]:
    checks = []
    for rel in output_files(case):
        try:
            got = sha256_file(work / rel)
        except OSError as exc:
            checks.append(Check(f"ref:{rel}", False, str(exc)))
            continue
        want = refs.get(rel)
        checks.append(Check(f"ref:{rel}", got == want,
                            "" if got == want else f"sha256 {got} != reference {want}"))
    return checks


def sample_pairs(case: Case, n_users: int, rng: random.Random, k: int) -> list[tuple[int, int]]:
    """k distinct 1-based (active-BS ordinal, active-user ordinal) pairs."""
    total = len(case.bs) * n_users
    flat = rng.sample(range(total), min(k, total))
    return [(i // n_users + 1, i % n_users + 1) for i in flat]


def pair_checks(case: Case, work: Path, rng: random.Random, k: int) -> list[Check]:
    scene = scene_from_json((work / "scene.json").read_text())
    params = case.param_set()
    indices = users_in_row_range(scene, case.first_row, case.last_row)
    cfg = BeamEvalConfig(codebook=dft_codebook(params.dims))  # CLI defaults
    checks = []
    for b_ord, u_ord in sample_pairs(case, indices.size, rng, k):
        bs_id = case.bs[b_ord - 1]
        gidx = int(indices[u_ord - 1])
        pos = user_positions(scene, np.array([gidx]))[0]
        pl = trace_paths(scene, bs_id, pos, max_reflections=case.max_reflections,
                         user_index=gidx)
        H = channel_matrix(pl, params).entries
        rates = beam_rates(H, cfg)
        tag = f"pair {b_ord},{u_ord}"
        for artifact, fn in (
            ("rays", lambda: _rays_ok(work, bs_id, u_ord, pl)),
            ("shard", lambda: _shard_ok(work, bs_id, u_ord, gidx, pos, H)),
            ("features", lambda: _features_ok(work, gidx, b_ord, H[0, :])),
            ("labels", lambda: _labels_ok(work, gidx, b_ord, rates)),
        ):
            checks.append(_run_check(f"{tag}:{artifact}", fn))
    return checks


def _run_check(name: str, fn: Callable[[], str]) -> Check:
    """fn returns "" when the check passes, else what differs."""
    try:
        detail = fn()
    except (OSError, ValueError, IndexError, struct.error) as exc:
        detail = f"{type(exc).__name__}: {exc}"
    return Check(name, not detail, detail)


def _path_array(paths) -> np.ndarray:
    return np.array([[p.aod_az, p.aod_el, p.aoa_az, p.aoa_el, p.power, p.phase, p.delay,
                      p.n_reflections] for p in paths], dtype=float).reshape(-1, 8)


def _rays_ok(work: Path, bs_id: int, u_ord: int, want) -> str:
    with (work / "rays" / f"rays_bs{bs_id:03d}.drf").open("rb") as fh:
        rec = read_rayfile(fh).records[u_ord - 1]
    if rec.user_index != want.user_index:
        return f"user index {rec.user_index} != {want.user_index}"
    got, ref = _path_array(rec.paths), _path_array(want.paths)
    if got.shape != ref.shape:
        return f"{got.shape[0]} paths written, {ref.shape[0]} recomputed"
    absolute = [0, 1, 2, 3, 5, 7]   # angles, phase, reflection count
    relative = [4, 6]               # power, delay
    if not (np.allclose(got[:, absolute], ref[:, absolute], rtol=0, atol=PATH_ANGLE_ATOL)
            and np.allclose(got[:, relative], ref[:, relative], rtol=PATH_REL_TOL, atol=0)):
        return "path parameters differ from recomputed trace"
    return ""


def _close(got: np.ndarray, want: np.ndarray, rel: float) -> bool:
    return bool(np.linalg.norm(got - want) <= rel * np.linalg.norm(want))


def _shard_ok(work: Path, bs_id: int, u_ord: int, gidx: int, pos, H: np.ndarray) -> str:
    m, k = H.shape
    record = 32 + m * k * 16
    with (work / "dataset" / f"shard_bs{bs_id:03d}.dmds").open("rb") as fh:
        head = fh.read(12)
        if head[:4] != b"DMDS":
            return f"bad magic {head[:4]!r}"
        (echo_len,) = struct.unpack_from("<I", head, 8)
        fh.seek(12 + echo_len + (u_ord - 1) * record)
        data = fh.read(record)
    if len(data) != record:
        return f"record truncated: {len(data)} of {record} bytes"
    g, *loc = struct.unpack_from("<Q3d", data)
    if g != gidx:
        return f"user index {g} != {gidx}"
    if not np.allclose(loc, pos, rtol=0, atol=1e-9):
        return f"location {loc} != {list(pos)}"
    mat = np.frombuffer(data, dtype="<c16", offset=32).reshape((m, k), order="F")
    if not _close(mat, H, CHANNEL_REL_TOL):
        return "channel matrix differs from recomputed channel_matrix"
    return ""


def _csv_float(text: str) -> float:
    # Under numpy 2 the ML export writes numpy scalars with repr(), giving
    # "np.float64(1.5e-07)" rather than "1.5e-07". The value is still exact;
    # the wrapper is a known export defect, accepted here so the gate
    # compares values (see README.md, "Known defects").
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _csv_rows(path: Path, prefix: str) -> list[list[float]]:
    rows = []
    with path.open() as fh:
        for line in fh:
            if line.startswith(prefix):
                rows.append([_csv_float(x) for x in line.rstrip("\n").split(",")[3:]])
            elif rows:
                break   # rows of one (user, BS) are contiguous
    return rows


def _features_ok(work: Path, gidx: int, b_ord: int, want: np.ndarray) -> str:
    rows = _csv_rows(work / "ml" / "features.csv", f"{gidx},{b_ord},")
    if len(rows) != want.size:
        return f"{len(rows)} feature rows, expected {want.size}"
    got = np.array([re + 1j * im for re, im in rows])
    return "" if _close(got, want, CHANNEL_REL_TOL) else "features differ from channel row 1"


def _labels_ok(work: Path, gidx: int, b_ord: int, want: np.ndarray) -> str:
    rows = _csv_rows(work / "ml" / "labels.csv", f"{gidx},{b_ord},")
    if len(rows) != want.size:
        return f"{len(rows)} label rows, expected {want.size}"
    got = np.array([r[0] for r in rows])
    if not np.all(np.abs(got - want) <= RATE_REL_TOL * np.max(np.abs(want))):
        return "labels differ from recomputed beam_rates"
    return ""
