import math
import multiprocessing
import os
from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import pytest

from mimogen.channel import array_response, channel_matrices_batch
from mimogen.dataset import Manifest, content_hash, parse_shard, shard_bytes
from mimogen.params import ParamSet, subcarrier_set
from mimogen.rayio import MAX_PATHS, PathList, PathRecord, RayFileHeader, Violation
from mimogen.scene import (
    GROUND_MATERIAL, BaseStation, Building, Scene, UserGrid, grid_start_indices,
)
from mimogen.tracer import _EPS_SIDE, _EPS_T, _OTHER_AXES, _RECT_TOL, mirror_point


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


def _child_pids() -> list[int]:
    """Live (or unreaped) children of this process, from the kernel's
    children list of each of its threads; a thread that ends while they are
    read, or a kernel without these lists, gives none."""
    pids = []
    for tid in os.listdir("/proc/self/task"):
        try:
            pids += map(int, Path(f"/proc/self/task/{tid}/children").read_text().split())
        except FileNotFoundError:
            pass
    return pids


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, such as a worker
    of a pool that was not shut down; the leftovers are terminated."""
    yield
    left = multiprocessing.active_children()      # reaps those that ended
    for proc in left:
        proc.terminate()
        proc.join(5)
    pids = _child_pids()
    if left or pids:
        pytest.fail(f"child processes left running: {[p.pid for p in left] + pids}")


def free_space_scene(bs_position=(0.0, 0.0, 10.0), ground_z=0.0, carrier=60e9):
    """A scene with no buildings: one BS, ground plane only."""
    return Scene(
        buildings=(),
        base_stations=(BaseStation(1, bs_position),),
        grids=(),
        carrier_freq=carrier,
        ground_z=ground_z,
    )


def wall_scene(walls, bs_position=(0.0, 0.0, 10.0), ground_z=-1000.0, carrier=60e9,
               losses=None):
    """Tall, long box 'walls' for image-method geometry checks.

    Each wall is (y_min, y_max): a box spanning x in [-500, 500],
    z in [ground, 200].
    """
    buildings = tuple(
        Building((-500.0, y0, ground_z), (500.0, y1, 200.0)) for y0, y1 in walls
    )
    return Scene(
        buildings=buildings,
        base_stations=(BaseStation(1, bs_position),),
        grids=(),
        carrier_freq=carrier,
        ground_z=ground_z,
        material_losses=losses or {},
    )


def random_path_record(rng, n_reflections=None):
    return PathRecord(
        aod_az=float(rng.uniform(-180.0, 179.99)),
        aod_el=float(rng.uniform(0.0, 180.0)),
        aoa_az=float(rng.uniform(-180.0, 179.99)),
        aoa_el=float(rng.uniform(0.0, 180.0)),
        power=float(rng.uniform(1e-14, 1e-6)),
        phase=float(rng.uniform(0.0, 2 * np.pi - 1e-9)),
        delay=float(rng.uniform(1e-9, 1e-5)),
        n_reflections=int(rng.integers(0, 5)) if n_reflections is None else n_reflections,
    )


def random_path_list(rng, bs_id, user_index, max_paths=25):
    n = int(rng.integers(0, max_paths + 1))
    paths = sorted((random_path_record(rng) for _ in range(n)), key=lambda p: -p.power)
    return PathList(
        bs_id=bs_id,
        user_index=user_index,
        user_position=tuple(rng.uniform(-100, 100, 3)),
        paths=tuple(paths),
    )


def validate_rayfile_oracle(header: RayFileHeader,
                            records: Sequence[PathList]) -> list[Violation]:
    """Ray-file validator oracle: every invariant checked one record and
    one path field at a time, in file order."""
    out: list[Violation] = []
    if header.user_count != len(records):
        out.append(Violation(-1, "user_count",
                             f"header says {header.user_count}, file has {len(records)}"))
    if header.carrier_freq <= 0 or not math.isfinite(header.carrier_freq):
        out.append(Violation(-1, "carrier_freq", "must be finite and > 0"))
    prev_index = None
    for i, pl in enumerate(records):
        if prev_index is not None and pl.user_index <= prev_index:
            out.append(Violation(i, "user_index", "must be strictly ascending"))
        prev_index = pl.user_index
        if pl.bs_id != header.bs_id:
            out.append(Violation(i, "bs_id", f"must match header bs_id {header.bs_id}"))
        if len(pl.paths) > MAX_PATHS:
            out.append(Violation(i, "paths", f"at most {MAX_PATHS} paths per record"))
        prev_power = None
        for j, p in enumerate(pl.paths):
            f = f"paths[{j}]"
            for name in ("aod_az", "aod_el", "aoa_az", "aoa_el", "power", "phase", "delay"):
                if not math.isfinite(getattr(p, name)):
                    out.append(Violation(i, f"{f}.{name}", "must be finite"))
            if not math.isfinite(p.power) or not math.isfinite(p.delay):
                prev_power = p.power
                continue
            if p.power <= 0:
                out.append(Violation(i, f"{f}.power", "power > 0"))
            if p.delay <= 0:
                out.append(Violation(i, f"{f}.delay", "delay > 0"))
            if not -180.0 <= p.aod_az < 180.0:
                out.append(Violation(i, f"{f}.aod_az", "azimuth in [-180, 180)"))
            if not -180.0 <= p.aoa_az < 180.0:
                out.append(Violation(i, f"{f}.aoa_az", "azimuth in [-180, 180)"))
            if not 0.0 <= p.aod_el <= 180.0:
                out.append(Violation(i, f"{f}.aod_el", "elevation in [0, 180]"))
            if not 0.0 <= p.aoa_el <= 180.0:
                out.append(Violation(i, f"{f}.aoa_el", "elevation in [0, 180]"))
            if not 0.0 <= p.phase < 2.0 * math.pi + 1e-12:
                out.append(Violation(i, f"{f}.phase", "phase in [0, 2*pi)"))
            if prev_power is not None and math.isfinite(prev_power) and p.power > prev_power:
                out.append(Violation(i, f"{f}.power", "paths sorted by power descending"))
            prev_power = p.power
    return out


def rewrite_shard(ds_dir: Path, filename: str, edit: Callable[[np.ndarray], None]) -> None:
    """Re-encode one shard of an exported dataset after ``edit(records)`` and
    give its manifest line the new size and hash; first/last user stay."""
    path = ds_dir / filename
    params, scenario, bs_id, records = parse_shard(path.read_bytes())
    records = records.copy()
    edit(records)
    data = shard_bytes(params, scenario, bs_id, records)
    path.write_bytes(data)
    manifest_path = ds_dir / "manifest.txt"
    manifest = Manifest.from_text(manifest_path.read_text())
    manifest_path.write_text(Manifest(tuple(
        replace(e, byte_size=len(data), content_hash=content_hash(data))
        if e.filename == filename else e
        for e in manifest.entries
    )).to_text())


def users_in_row_range_oracle(scene: Scene, first_row: int, last_row: int) -> np.ndarray:
    """The global indices of the users whose row label is in [first_row,
    last_row], grid by grid: each grid's run of users in the range, joined."""
    chunks = [np.empty(0, dtype=np.int64)]
    for g, start in zip(scene.grids, grid_start_indices(scene)):
        r0 = max(first_row, g.first_row_label)
        r1 = min(last_row, g.last_row_label)
        if r0 <= r1:
            chunks.append(np.arange(start + (r0 - g.first_row_label) * g.users_per_row,
                                    start + (r1 - g.first_row_label + 1) * g.users_per_row,
                                    dtype=np.int64))
    return np.concatenate(chunks)


def channel_vector(paths: Sequence[PathRecord], k: int, params: ParamSet) -> np.ndarray:
    """Channel oracle: the M-vector at 1-based subcarrier ``k``, summed one
    path at a time over the strongest ``num_paths`` paths (paths arrive
    sorted by power). No paths give the zero vector."""
    h = np.zeros(params.num_antennas, dtype=complex)
    big_k = params.num_ofdm
    for p in paths[:params.num_paths]:
        gain = np.sqrt(p.power / big_k) * np.exp(
            1j * (p.phase + (2.0 * np.pi * (k - 1) / big_k) * p.delay * params.bandwidth_hz)
        )
        h += gain * array_response(
            np.radians(p.aod_az), np.radians(p.aod_el), params.dims, params.ant_spacing
        )
    return h


def channel_matrix_oracle(paths: Sequence[PathRecord], params: ParamSet) -> np.ndarray:
    """The oracle's M x |K| matrix: ``channel_vector`` at each sampled subcarrier."""
    return np.stack([channel_vector(paths, int(k), params) for k in subcarrier_set(params)],
                    axis=1)


def _digest_chunk(chunk: Sequence[PathList], params: ParamSet) -> str:
    mats = channel_matrices_batch(chunk, params)
    return content_hash(np.ascontiguousarray(mats).tobytes())


def compute_channels_parallel(
    path_lists: Sequence[PathList],
    params: ParamSet,
    workers: int = 1,
    chunk_size: int = 256,
    progress: Callable[[int, int], None] | None = None,
) -> str:
    """Build every channel matrix in worker processes; returns a combined
    content hash over all chunks (used for determinism and throughput checks
    without holding the full dataset in memory)."""
    chunks = [
        list(path_lists[lo: lo + chunk_size])
        for lo in range(0, len(path_lists), chunk_size)
    ]
    digests: list[str] = []
    done = 0
    if workers <= 1:
        for chunk in chunks:
            digests.append(_digest_chunk(chunk, params))
            done += len(chunk)
            if progress is not None:
                progress(done, len(path_lists))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_digest_chunk, chunk, params) for chunk in chunks]
            for fut, chunk in zip(futures, chunks):
                digests.append(fut.result())
                done += len(chunk)
                if progress is not None:
                    progress(done, len(path_lists))
    return content_hash("".join(digests).encode())


def dense_segments_blocked(p0: np.ndarray, p1: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Occlusion oracle: the slab test of every segment (p0, p1 both (U, 3))
    against every box ((B, 2, 3) min/max corners), with no prefilter."""
    U = p0.shape[0]
    if boxes.shape[0] == 0 or U == 0:
        return np.zeros(U, dtype=bool)
    d = p1 - p0                                    # (U, 3)
    bmin = boxes[None, :, 0, :]                    # (1, B, 3)
    bmax = boxes[None, :, 1, :]
    a = p0[:, None, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t1 = (bmin - a) / d[:, None, :]
        t2 = (bmax - a) / d[:, None, :]
    tlo = np.fmin(t1, t2)
    thi = np.fmax(t1, t2)
    zero = np.abs(d)[:, None, :] == 0.0
    inside = (a >= bmin) & (a <= bmax)
    tlo = np.where(zero, np.where(inside, -np.inf, np.inf), tlo)
    thi = np.where(zero, np.where(inside, np.inf, -np.inf), thi)
    tmin = np.maximum(tlo.max(axis=2), 0.0)
    tmax = np.minimum(thi.min(axis=2), 1.0)
    return (tmin + _EPS_T < tmax).any(axis=1)


def image_tree_oracle(plane_axis, plane_offset, plane_sign, tx, max_reflections):
    """Image-tree oracle: the front-side expansion one node at a time. From
    each node of a depth, in order, it mirrors the last image across every
    plane (``plane_axis``, ``plane_offset``, ``plane_sign``), in index order,
    that is not the node's last plane and whose reflective side strictly
    holds that image. Returns the (seq, images (d+1, 3)) of every node,
    depth by depth."""
    planes = list(zip(plane_axis, plane_offset, plane_sign))
    nodes = [((), np.asarray(tx, dtype=float)[None, :])]
    frontier = nodes
    for _ in range(max_reflections):
        nxt = []
        for seq, images in frontier:
            img = images[-1]
            for pi, (axis, offset, sign) in enumerate(planes):
                if seq and pi == seq[-1]:
                    continue
                if sign * (img[axis] - offset) <= _EPS_SIDE:
                    continue
                nxt.append((seq + (pi,), np.vstack([images, mirror_point(img, axis, offset)])))
        nodes = nodes + nxt
        frontier = nxt
    return nodes


def _covered_by_neighbor(scene: Scene, bi: int, axis: int, offset: float, sign: float) -> bool:
    """True if the face is flush against another building that fully covers it."""
    b = scene.buildings[bi]
    u, v = _OTHER_AXES[axis]
    for j, other in enumerate(scene.buildings):
        if j == bi:
            continue
        near = other.min_corner[axis] if sign > 0 else other.max_corner[axis]
        if abs(near - offset) > _RECT_TOL:
            continue
        if (
            other.min_corner[u] <= b.min_corner[u] + _RECT_TOL
            and other.max_corner[u] >= b.max_corner[u] - _RECT_TOL
            and other.min_corner[v] <= b.min_corner[v] + _RECT_TOL
            and other.max_corner[v] >= b.max_corner[v] - _RECT_TOL
        ):
            return True
    return False


def geometry_oracle(scene: Scene) -> list[tuple[int, float, float, list, list]]:
    """Reflecting-plane oracle: the faces grouped one building at a time.
    Returns (axis, offset, sign, rects, losses) per plane, the ground first
    (no rects, its loss alone), then the building planes sorted by (axis,
    offset rounded to 1e-9, sign). Each rect is (u_min, u_max, v_min,
    v_max) on the plane's two other axes, in building order; a face flush
    against another building that fully covers it is left out, and so is
    every building's underside."""
    grouped: dict = {}
    for bi, b in enumerate(scene.buildings):
        loss = scene.reflection_loss_db(b.material_id)
        for axis in range(3):
            u, v = _OTHER_AXES[axis]
            rect = [b.min_corner[u], b.max_corner[u], b.min_corner[v], b.max_corner[v]]
            for sign, offset in ((-1.0, b.min_corner[axis]), (1.0, b.max_corner[axis])):
                if axis == 2 and sign < 0:
                    continue
                if _covered_by_neighbor(scene, bi, axis, offset, sign):
                    continue
                key = (axis, round(offset, 9), sign)
                grouped.setdefault(key, (offset, []))[1].append((rect, loss))
    planes = [(2, scene.ground_z, 1.0, [], [scene.reflection_loss_db(GROUND_MATERIAL)])]
    for (axis, _key_offset, sign), (offset, faces) in sorted(grouped.items()):
        planes.append((axis, float(offset), sign, [f[0] for f in faces], [f[1] for f in faces]))
    return planes


def ml_csv_oracle(users: np.ndarray, features: np.ndarray,
                  labels: np.ndarray) -> tuple[bytes, bytes]:
    """CSV formatter oracle: the features.csv and labels.csv rows of the
    ``ml_arrays`` arrays users (U,), features (U, S, K) and labels (U, S, P),
    from the ``repr`` of each numpy scalar."""
    feat_lines = []
    label_lines = []
    for g, feats, rates in zip(users, features, labels):
        for n, feat in enumerate(feats, start=1):
            for j, c in enumerate(feat, start=1):
                feat_lines.append(f"{int(g)},{n},{j},{c.real!r},{c.imag!r}\n")
        for n, rate in enumerate(rates, start=1):
            for p, r in enumerate(rate, start=1):
                label_lines.append(f"{int(g)},{n},{p},{r!r}\n")
    return "".join(feat_lines).encode(), "".join(label_lines).encode()
