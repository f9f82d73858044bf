"""Deterministic image-method ray tracer for axis-aligned box scenes.

Computes the line-of-sight path and all specular reflection paths (off
building faces and the ground plane) up to a configurable bounce order,
using source mirroring. For each path it emits departure/arrival angles,
receive power (Friis free-space loss times per-bounce material losses),
phase, and propagation delay, as rows of the ray file's two layouts
(``rayio.RayRows``: one user row per receiver, then its path rows). Only
``trace`` and the library's tracing calls import this module.

The scene's reflecting surfaces are one plane table, which each trace call
builds afresh (about 1 ms on O1): each oriented plane holds the building
faces on it as flat boxes with their losses, and the ground is plane 0
with one unbounded face. The tracer is exact: every
specular solution within the bounce budget is found (no ray-shooting
density artifacts). Diffraction, diffuse scattering, and penetration are
not modeled; antennas are isotropic with unit gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .files import MAX_PATHS
from .rayio import PATH_ROW, USER_ROW, PathList, PathRecord, RayRows, _path_records
from .scene import GROUND_MATERIAL, SPEED_OF_LIGHT, Scene

_EPS_SIDE = 1e-9      # front-side test tolerance of the image tree
_EPS_T = 1e-12        # segment-parameter tolerance for reflection points
_RECT_TOL = 1e-9      # face-rectangle containment tolerance
_SHRINK = 1e-6        # occlusion boxes are shrunk by this much per side
_PRUNE_TOL = 1e-6     # slack of the region test that prunes image nodes


def mirror_point(p: Sequence[float], axis: int, offset: float) -> np.ndarray:
    """Reflect a point across the axis-aligned plane ``coord[axis] == offset``."""
    q = np.array(p, dtype=float)
    q[axis] = 2.0 * offset - q[axis]
    return q


def path_power(length: float, carrier_freq: float,
               reflection_loss_db: Sequence[float] = ()) -> float:
    """Friis free-space receive power times the bounces' losses, whose dB
    sum to one linear factor. ``length`` may be an array of paths, with an
    array of losses per bounce.

    Unit transmit power and unit antenna gains assumed.
    """
    if np.any(np.asarray(length) <= 0):
        raise ValueError(f"path length must be > 0, got {length}")
    lam = SPEED_OF_LIGHT / carrier_freq
    return ((lam / (4.0 * math.pi * length)) ** 2
            * 10.0 ** (-np.sum(reflection_loss_db, axis=0) / 10.0))


def path_phase(delay: float, n_reflections: int, carrier_freq: float) -> float:
    """Carrier phase accumulated over the path, plus pi per specular bounce.
    ``delay`` may be an array of paths."""
    return (-2.0 * math.pi * carrier_freq * delay + math.pi * n_reflections) % (2.0 * math.pi)


# ---------------------------------------------------------------------------
# Scene geometry preprocessing
# ---------------------------------------------------------------------------

_OTHER_AXES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


@dataclass
class _Geometry:
    """The reflecting planes as one table. Plane 0 is the ground, with one
    unbounded face; every other plane holds the building faces on it, in
    building order."""

    plane_axis: np.ndarray     # (P,) axis, offset and outward normal sign
    plane_offset: np.ndarray   #   (along the axis) of each plane
    plane_sign: np.ndarray
    face_lo: np.ndarray        # (P, F', 3): each plane's faces as flat boxes,
    face_hi: np.ndarray        #   padded with empty boxes (lo = inf, hi = -inf)
    face_loss_db: np.ndarray   # (P, F') reflection loss of each face
    face_count: np.ndarray     # (P,) faces of each plane
    boxes_shrunk: np.ndarray   # (B, 2, 3): min/max corners for occlusion tests


def _geometry(scene: Scene) -> _Geometry:
    mins = np.array([b.min_corner for b in scene.buildings], dtype=float).reshape(-1, 3)
    maxs = np.array([b.max_corner for b in scene.buildings], dtype=float).reshape(-1, 3)
    n_b = mins.shape[0]
    # Every building face but the underside, which sits on the ground, in
    # building order.
    sides = [(axis, sign) for axis in range(3) for sign in (-1.0, 1.0) if axis < 2 or sign > 0]
    fb = np.repeat(np.arange(n_b), len(sides))
    fax = np.tile([axis for axis, _ in sides], n_b)
    fsign = np.tile([sign for _, sign in sides], n_b)
    lo, hi = mins[fb], maxs[fb]
    off = np.where(fsign[:, None] > 0, hi, lo)[np.arange(fb.size), fax]
    # A face flush against another building that fully covers it reflects
    # nothing: (faces, buildings) tests of the other building's near side
    # and of its extent on the face's two other axes.
    near = np.where(fsign[:, None] > 0, mins[:, fax].T, maxs[:, fax].T)
    spans = (((mins <= lo[:, None] + _RECT_TOL) & (maxs >= hi[:, None] - _RECT_TOL))
             | (np.arange(3) == fax[:, None, None])).all(axis=2)
    covered = ((np.abs(near - off[:, None]) <= _RECT_TOL) & spans
               & (fb[:, None] != np.arange(n_b))).any(axis=1)

    grouped: dict[tuple[int, float, float], list[int]] = {}
    for f in np.flatnonzero(~covered).tolist():
        key = (int(fax[f]), round(float(off[f]), 9), float(fsign[f]))
        grouped.setdefault(key, []).append(f)
    building_planes = [(axis, float(off[faces[0]]), sign, faces)
                       for (axis, _key_offset, sign), faces in sorted(grouped.items())]

    n_p = 1 + len(building_planes)
    width = max([1] + [len(faces) for *_, faces in building_planes])
    face_lo = np.full((n_p, width, 3), np.inf)
    face_hi = np.full((n_p, width, 3), -np.inf)
    face_loss_db = np.zeros((n_p, width))
    face_count = np.ones(n_p, dtype=int)
    face_lo[0, 0], face_hi[0, 0] = -np.inf, np.inf
    face_loss_db[0, 0] = scene.reflection_loss_db(GROUND_MATERIAL)
    loss_db = np.array([scene.reflection_loss_db(b.material_id) for b in scene.buildings])
    for pi, (axis, offset, _sign, faces) in enumerate(building_planes, 1):
        n = face_count[pi] = len(faces)
        face_lo[pi, :n] = lo[faces]
        face_hi[pi, :n] = hi[faces]
        face_lo[pi, :n, axis] = face_hi[pi, :n, axis] = offset
        face_loss_db[pi, :n] = loss_db[fb[faces]]
    return _Geometry(
        plane_axis=np.array([2] + [pl[0] for pl in building_planes]),
        plane_offset=np.array([scene.ground_z] + [pl[1] for pl in building_planes], dtype=float),
        plane_sign=np.array([1.0] + [pl[2] for pl in building_planes]),
        face_lo=face_lo, face_hi=face_hi, face_loss_db=face_loss_db, face_count=face_count,
        boxes_shrunk=np.stack([mins + _SHRINK, maxs - _SHRINK], axis=1),
    )


# ---------------------------------------------------------------------------
# Image tree
# ---------------------------------------------------------------------------

def _image_tree(geo: _Geometry, tx: np.ndarray,
                max_reflections: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every mirrored-source image of ``tx`` up to ``max_reflections``
    bounces, as one ``(seqs (N, d), images (N, d+1, 3))`` pair per depth
    d = 0..max_reflections: each node's plane indices in bounce order and
    the tx image after 0..d mirrors. A node's children are the planes, in
    index order, other than its last plane, whose reflective side strictly
    holds its last image; children follow their parents' order. Nothing
    here looks at a receiver."""
    axis, offset, sign = geo.plane_axis, geo.plane_offset, geo.plane_sign
    seqs = np.empty((1, 0), dtype=np.intp)
    images = tx[None, None, :].copy()
    tree = [(seqs, images)]
    for _ in range(max_reflections):
        last = images[:, -1, :]
        front = sign * (last[:, axis] - offset) > _EPS_SIDE           # (N, P)
        if seqs.shape[1]:
            front[np.arange(len(seqs)), seqs[:, -1]] = False
        parent, plane = np.nonzero(front)
        child = last[parent]
        rows = np.arange(plane.size)
        child[rows, axis[plane]] = 2.0 * offset[plane] - child[rows, axis[plane]]
        seqs = np.concatenate([seqs[parent], plane[:, None]], axis=1)
        images = np.concatenate([images[parent], child[:, None, :]], axis=1)
        tree.append((seqs, images))
    return tree


def image_node_counts(scene: Scene, bs_id: int, max_reflections: int) -> int:
    """Image nodes in base station ``bs_id``'s tree (the root, the
    transmitter itself, counts as one node)."""
    tx = np.asarray(scene.bs_by_id(bs_id).position, dtype=float)
    return sum(len(seqs) for seqs, _ in _image_tree(_geometry(scene), tx, max_reflections))


# Image nodes per vectorized step of the region test; bounds its
# (nodes, faces of a plane, 3) temporaries (about 270 KB on O1).
_REGION_NODES = 256
# The 8 corners of a box: per axis, its min (0) or its max (1).
_CORNERS = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1],
                     [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]], dtype=bool)


def _reachable(geo: _Geometry, seqs: np.ndarray, images: np.ndarray,
               rx: np.ndarray) -> np.ndarray:
    """(N,) mask of the image nodes of one depth of ``_image_tree``
    (``seqs`` (N, d), ``images`` (N, d+1, 3)) whose backward beam through the
    receivers ``rx`` (U, 3) can reach a face at every bounce.

    The beam starts as the bounding box of the finite receivers (one with a
    NaN or infinite coordinate has no path) and walks each node's bounces
    from the last to the first. At each bounce the box is clipped to the
    plane's reflective side, where the image is not (0 < t < 1 needs it),
    and its corners are projected from the image onto the plane. On the
    clipped box the projection's denominator keeps one sign, so the
    projected corners bound every bounce point. Their bounding box, grown
    by ``_PRUNE_TOL``, must overlap a face of the plane, grown by as much;
    the ground's one face is unbounded, so every box overlaps it. The beam
    then narrows to that box and the hull of the faces it overlaps. The test only drops nodes that give no
    path. It runs on ``_REGION_NODES`` nodes at a time.
    """
    n_nodes, d = seqs.shape
    keep = np.zeros(n_nodes, dtype=bool)
    rx = rx[np.isfinite(rx).all(axis=1)]
    if rx.shape[0] == 0:
        return keep
    for first in range(0, n_nodes, _REGION_NODES):
        idx = np.arange(first, min(first + _REGION_NODES, n_nodes))
        sq, imgs = seqs[idx], images[idx]
        lo = np.repeat(rx.min(axis=0)[None, :], idx.size, axis=0)        # (N, 3)
        hi = np.repeat(rx.max(axis=0)[None, :], idx.size, axis=0)
        for i in range(d, 0, -1):
            rows = np.arange(idx.size)
            pi = sq[:, i - 1]
            ax, off = geo.plane_axis[pi], geo.plane_offset[pi]
            front = geo.plane_sign[pi] > 0
            lo[rows, ax] = np.where(front, np.maximum(lo[rows, ax], off), lo[rows, ax])
            hi[rows, ax] = np.where(front, hi[rows, ax], np.minimum(hi[rows, ax], off))
            alive = lo[rows, ax] <= hi[rows, ax]
            idx, sq, imgs, lo, hi, pi, ax, off = (
                a[alive] for a in (idx, sq, imgs, lo, hi, pi, ax, off))
            rows = np.arange(idx.size)
            img = imgs[:, i, :]
            corners = np.where(_CORNERS, hi[:, None, :], lo[:, None, :])  # (N, 8, 3)
            c_ax = corners[rows, :, ax]                                   # (N, 8)
            t = (off[:, None] - c_ax) / (img[rows, ax][:, None] - c_ax)
            proj = corners + t[:, :, None] * (img[:, None, :] - corners)
            lo = proj.min(axis=1) - _PRUNE_TOL
            hi = proj.max(axis=1) + _PRUNE_TOL
            face_lo = geo.face_lo[pi] - _PRUNE_TOL                        # (N, F', 3)
            face_hi = geo.face_hi[pi] + _PRUNE_TOL
            hit = ((lo[:, None, :] <= face_hi) & (hi[:, None, :] >= face_lo)).all(axis=2)
            lo = np.maximum(lo, face_lo.min(axis=1, where=hit[:, :, None], initial=np.inf))
            hi = np.minimum(hi, face_hi.max(axis=1, where=hit[:, :, None], initial=-np.inf))
            alive = hit.any(axis=1)
            idx, sq, imgs, lo, hi = (a[alive] for a in (idx, sq, imgs, lo, hi))
        keep[idx] = True
    return keep


# ---------------------------------------------------------------------------
# Path search
# ---------------------------------------------------------------------------

def _segments_blocked(
    p0: np.ndarray, p1: np.ndarray, boxes: np.ndarray
) -> np.ndarray:
    """Slab test: does segment p0->p1 (both (U,3)) penetrate any shrunk box?

    Only (segment, box) pairs whose bounding boxes overlap run the slab
    formulas. For any other pair those formulas give tmin >= tmax, because
    float subtraction and division are monotone, so skipping them changes
    no result. Boxes that the bounding box of all segments misses are
    dropped first; a segment with a NaN coordinate overlaps no box, so
    that bounding box ignores NaNs.
    """
    U = p0.shape[0]
    blocked = np.zeros(U, dtype=bool)
    if boxes.shape[0] == 0 or U == 0:
        return blocked
    lo = np.minimum(p0, p1)
    hi = np.maximum(p0, p1)
    boxes = boxes[((np.fmin.reduce(lo, axis=0) <= boxes[:, 1, :])
                   & (np.fmax.reduce(hi, axis=0) >= boxes[:, 0, :])).all(axis=1)]
    lo, hi = lo[:, None, :], hi[:, None, :]
    near = ((lo <= boxes[None, :, 1, :]) & (hi >= boxes[None, :, 0, :])).all(axis=2)
    ui, bi = np.nonzero(near)
    if ui.size == 0:
        return blocked
    d = (p1 - p0)[ui]                              # (N, 3) for the N near pairs
    a = p0[ui]
    bmin = boxes[bi, 0, :]
    bmax = boxes[bi, 1, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t1 = (bmin - a) / d
        t2 = (bmax - a) / d
    tlo = np.fmin(t1, t2)
    thi = np.fmax(t1, t2)
    zero = np.abs(d) == 0.0
    inside = (a >= bmin) & (a <= bmax)
    tlo = np.where(zero, np.where(inside, -np.inf, np.inf), tlo)
    thi = np.where(zero, np.where(inside, np.inf, -np.inf), thi)
    tmin = np.maximum(tlo.max(axis=1), 0.0)
    tmax = np.minimum(thi.min(axis=1), 1.0)
    blocked[ui[tmin + _EPS_T < tmax]] = True
    return blocked


def _node_paths(
    seq: np.ndarray,
    images: np.ndarray,
    geo: _Geometry,
    tx: np.ndarray,
    rx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Valid specular paths of one image node (its plane indices ``seq``
    (n,) and tx images ``images`` (n+1, 3)) against all receivers.

    Returns (user_rows, lengths, loss_db_sums, chain) where chain is the
    (n+2, U', 3) polyline tx -> bounce points -> rx for the valid users.
    """
    U = rx.shape[0]
    n = len(seq)
    rows = np.arange(U)
    pts = rx
    loss_db = np.zeros(U)
    chain_rev = [rx]

    for i in range(n, 0, -1):
        pi = seq[i - 1]
        axis, offset = geo.plane_axis[pi], geo.plane_offset[pi]
        img = images[i]
        denom = img[axis] - pts[:, axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (offset - pts[:, axis]) / denom
            ok = np.isfinite(t) & (t > _EPS_T) & (t < 1.0 - _EPS_T)
            q = pts + np.where(ok, t, 0.0)[:, None] * (img[None, :] - pts)
        faces = slice(geo.face_count[pi])
        u_ax, v_ax = _OTHER_AXES[axis]
        f_lo, f_hi = geo.face_lo[pi, faces], geo.face_hi[pi, faces]
        qu = q[:, u_ax][:, None]
        qv = q[:, v_ax][:, None]
        hit = (
            (qu >= f_lo[:, u_ax] - _RECT_TOL) & (qu <= f_hi[:, u_ax] + _RECT_TOL)
            & (qv >= f_lo[:, v_ax] - _RECT_TOL) & (qv <= f_hi[:, v_ax] + _RECT_TOL)
        )
        ok &= hit.any(axis=1)
        face_loss = geo.face_loss_db[pi, faces][np.argmax(hit, axis=1)]
        if not ok.all():
            if not ok.any():
                return (np.empty(0, dtype=int), np.empty(0), np.empty(0),
                        np.empty((n + 2, 0, 3)))
            rows = rows[ok]
            q = q[ok]
            face_loss = face_loss[ok]
            loss_db = loss_db[ok]
            chain_rev = [c[ok] for c in chain_rev]
        loss_db = loss_db + face_loss
        pts = q
        chain_rev.append(q)

    chain = [np.broadcast_to(tx, (rows.size, 3))] + chain_rev[::-1]
    lengths = np.linalg.norm(images[-1][None, :] - chain[-1], axis=1)
    # A receiver on the source or with a non-finite coordinate has no path
    # (as in path_power); every leg of the others must clear every (shrunk)
    # building box.
    keep = (lengths > 0.0) & (lengths < np.inf)
    for s in range(len(chain) - 1):
        live = np.nonzero(keep)[0]
        if live.size == 0:
            break
        blocked = _segments_blocked(
            np.ascontiguousarray(chain[s][live]),
            np.ascontiguousarray(chain[s + 1][live]),
            geo.boxes_shrunk,
        )
        keep[live[blocked]] = False
    if not keep.all():
        rows = rows[keep]
        lengths = lengths[keep]
        loss_db = loss_db[keep]
        chain = [c[keep] for c in chain]
    return rows, lengths, loss_db, np.stack(chain, axis=0)


def _angles_deg(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth in [-180, 180) and polar elevation in [0, 180] for (U,3) vectors."""
    az = np.degrees(np.arctan2(direction[:, 1], direction[:, 0]))
    az = np.where(az >= 180.0, az - 360.0, az)
    norm = np.linalg.norm(direction, axis=1)
    el = np.degrees(np.arccos(np.clip(direction[:, 2] / norm, -1.0, 1.0)))
    return az, el


def _trace_rows(
    scene: Scene,
    tx: np.ndarray,
    rx: np.ndarray,
    max_reflections: int,
    max_paths: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Paths from transmitter ``tx`` to each receiver row of ``rx`` (U, 3):
    the (U,) path count of each receiver and the ``PATH_ROW`` rows of all
    paths, receiver after receiver, strongest first (ties by delay, then
    bounce sequence), at most ``max_paths`` per receiver; then the number of
    image nodes searched (those ``_reachable`` keeps) and of those that gave
    a path."""
    geo = _geometry(scene)

    searched = []
    for seqs, images in _image_tree(geo, tx, max_reflections):
        kept = _reachable(geo, seqs, images, rx)
        searched.extend(zip(seqs[kept], images[kept]))
    # Rank of each node's bounce sequence among the searched ones, the
    # last tie-break of the path order.
    rank = np.argsort(sorted(range(len(searched)), key=lambda k: searched[k][0].tolist()))
    columns = []
    for k, (seq, images) in enumerate(searched):
        rows, lengths, loss_db, chain = _node_paths(seq, images, geo, tx, rx)
        if rows.size == 0:
            continue
        n = len(seq)
        aod_az, aod_el = _angles_deg(chain[1] - chain[0])
        aoa_az, aoa_el = _angles_deg(chain[-2] - chain[-1])
        delays = lengths / SPEED_OF_LIGHT
        powers = path_power(lengths, scene.carrier_freq, [loss_db])
        phases = path_phase(delays, n, scene.carrier_freq)
        columns.append((rows, np.full(rows.size, rank[k]), aod_az, aod_el, aoa_az, aoa_el,
                        powers, phases, delays, np.full(rows.size, n)))

    n_paths = np.zeros(rx.shape[0], dtype=np.intp)
    paths = np.empty(0, PATH_ROW)
    if columns:
        user, node_rank, *fields = (np.concatenate(c) for c in zip(*columns))
        power, delay = fields[4], fields[6]
        by = np.lexsort((node_rank, delay, -power, user))
        first = np.searchsorted(user[by], user[by])   # each user's first path
        by = by[np.arange(by.size) - first < max_paths]
        paths = np.empty(by.size, PATH_ROW)
        for name, column in zip(PATH_ROW.names, fields):
            paths[name] = column[by]
        n_paths = np.bincount(user[by], minlength=rx.shape[0])
    return n_paths, paths, len(searched), len(columns)


@dataclass(frozen=True, eq=False)
class PathBatch(RayRows):
    """The rows of one ``trace_paths_batch`` call, plus the number of image
    nodes the call searched and of those that gave at least one path."""

    nodes_searched: int = 0
    nodes_yielding: int = 0


def trace_paths_batch(
    scene: Scene,
    bs_id: int,
    positions: np.ndarray,
    user_indices: Sequence[int] | None = None,
    max_reflections: int = 4,
    max_paths: int = MAX_PATHS,
) -> PathBatch:
    """Trace all paths between one base station and a batch of receivers;
    returns their rows, which index and iterate as ``PathList``s."""
    tx = np.asarray(scene.bs_by_id(bs_id).position, dtype=float)
    rx = np.asarray(positions, dtype=float).reshape(-1, 3)
    n_paths, paths, searched, yielding = _trace_rows(scene, tx, rx, max_reflections, max_paths)
    users = np.empty(rx.shape[0], USER_ROW)
    users["user_index"] = (np.arange(1, rx.shape[0] + 1) if user_indices is None
                           else user_indices)
    users["position"] = rx
    users["n_paths"] = n_paths
    return PathBatch(bs_id, users, paths, searched, yielding)


def trace_paths(
    scene: Scene,
    bs_id: int,
    user_position: Sequence[float],
    max_reflections: int = 4,
    max_paths: int = MAX_PATHS,
    user_index: int = 0,
) -> PathList:
    """Trace LOS and specular paths between one base station and one receiver."""
    result = trace_paths_batch(
        scene, bs_id, np.asarray(user_position, dtype=float)[None, :],
        user_indices=[user_index],
        max_reflections=max_reflections, max_paths=max_paths,
    )
    return result[0]


def trace_between(
    scene: Scene,
    tx: Sequence[float],
    rx: Sequence[float],
    max_reflections: int = 4,
    max_paths: int = MAX_PATHS,
) -> tuple[PathRecord, ...]:
    """Trace between two arbitrary points (used for reciprocity checks)."""
    _, paths, _, _ = _trace_rows(
        scene, np.asarray(tx, dtype=float), np.asarray(rx, dtype=float).reshape(1, 3),
        max_reflections, max_paths,
    )
    return tuple(_path_records(paths))
