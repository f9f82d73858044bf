"""Deterministic image-method ray tracer for axis-aligned box scenes.

Computes the line-of-sight path and all specular reflection paths (off
building faces and the ground plane) up to a configurable bounce order,
using source mirroring. For each path it emits departure/arrival angles,
receive power (Friis free-space loss times per-bounce material losses),
phase, and propagation delay.

The tracer is exact: every specular solution within the bounce budget is
found (no ray-shooting density artifacts). Diffraction, diffuse scattering,
and penetration are not modeled; antennas are isotropic with unit gain.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scene import GROUND_MATERIAL, SPEED_OF_LIGHT, Scene

_EPS_SIDE = 1e-9      # front-side test tolerance of the image tree
_EPS_T = 1e-12        # segment-parameter tolerance for reflection points
_RECT_TOL = 1e-9      # face-rectangle containment tolerance
_SHRINK = 1e-6        # occlusion boxes are shrunk by this much per side
_PRUNE_TOL = 1e-6     # slack of the region test that prunes image nodes


@dataclass(frozen=True)
class PathRecord:
    """One propagation path between a transmitter and a receiver.

    Angles are in degrees: azimuth in [-180, 180), elevation is the polar
    angle from +z in [0, 180]. Power is linear watts at unit transmit power,
    phase is radians in [0, 2*pi), delay is seconds.
    """

    aod_az: float
    aod_el: float
    aoa_az: float
    aoa_el: float
    power: float
    phase: float
    delay: float
    n_reflections: int


@dataclass(frozen=True)
class PathList:
    bs_id: int
    user_index: int
    user_position: tuple[float, float, float]
    paths: tuple[PathRecord, ...]


def mirror_point(p: Sequence[float], axis: int, offset: float) -> np.ndarray:
    """Reflect a point across the axis-aligned plane ``coord[axis] == offset``."""
    q = np.array(p, dtype=float)
    q[axis] = 2.0 * offset - q[axis]
    return q


def path_power(
    length: float,
    n_reflections: int,
    carrier_freq: float,
    reflection_loss_db: Sequence[float] = (),
) -> float:
    """Friis free-space receive power times per-bounce linear losses.

    Unit transmit power and unit antenna gains assumed.
    """
    if length <= 0:
        raise ValueError(f"path length must be > 0, got {length}")
    lam = SPEED_OF_LIGHT / carrier_freq
    p = (lam / (4.0 * math.pi * length)) ** 2
    for loss_db in reflection_loss_db:
        p *= 10.0 ** (-loss_db / 10.0)
    return p


def path_phase(delay: float, n_reflections: int, carrier_freq: float) -> float:
    """Carrier phase accumulated over the path, plus pi per specular bounce."""
    return (-2.0 * math.pi * carrier_freq * delay + math.pi * n_reflections) % (2.0 * math.pi)


# ---------------------------------------------------------------------------
# Scene geometry preprocessing
# ---------------------------------------------------------------------------

_OTHER_AXES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


@dataclass
class _Plane:
    """All coplanar faces sharing one oriented reflecting plane."""

    axis: int
    offset: float
    sign: float            # outward normal direction along `axis`
    is_ground: bool
    rects: np.ndarray      # (F, 4): u_min, u_max, v_min, v_max on the other axes
    loss_db: np.ndarray    # (F,) per-face reflection loss


@dataclass
class _Geometry:
    planes: list[_Plane]       # planes[0] is the ground
    plane_axis: np.ndarray     # (P,) axis, offset and sign of each plane,
    plane_offset: np.ndarray   #   as arrays for the vectorized tests
    plane_sign: np.ndarray
    boxes_shrunk: np.ndarray   # (B, 2, 3): min/max corners for occlusion tests
    plane_face_lo: np.ndarray  # (P, F', 3): each plane's faces as flat boxes grown
    plane_face_hi: np.ndarray  #   by _PRUNE_TOL, padded with empty boxes
                               #   (lo = inf, hi = -inf); the ground has none


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


def _build_geometry(scene: Scene) -> _Geometry:
    grouped: dict[tuple[int, float, float], tuple[float, list[tuple[list[float], float]]]] = {}
    for bi, b in enumerate(scene.buildings):
        loss = scene.reflection_loss_db(b.material_id)
        for axis in range(3):
            u, v = _OTHER_AXES[axis]
            rect = [b.min_corner[u], b.max_corner[u], b.min_corner[v], b.max_corner[v]]
            for sign, offset in ((-1.0, b.min_corner[axis]), (1.0, b.max_corner[axis])):
                if axis == 2 and sign < 0:
                    continue  # building undersides sit on the ground
                if _covered_by_neighbor(scene, bi, axis, offset, sign):
                    continue
                key = (axis, round(offset, 9), sign)
                grouped.setdefault(key, (offset, []))[1].append((rect, loss))

    planes = [
        _Plane(
            axis=2, offset=scene.ground_z, sign=1.0, is_ground=True,
            rects=np.empty((0, 4)),
            loss_db=np.array([scene.reflection_loss_db(GROUND_MATERIAL)]),
        )
    ]
    for (axis, _key_offset, sign), (offset, faces) in sorted(grouped.items()):
        planes.append(
            _Plane(
                axis=axis, offset=float(offset), sign=sign, is_ground=False,
                rects=np.array([f[0] for f in faces], dtype=float),
                loss_db=np.array([f[1] for f in faces], dtype=float),
            )
        )

    if scene.buildings:
        mins = np.array([b.min_corner for b in scene.buildings], dtype=float)
        maxs = np.array([b.max_corner for b in scene.buildings], dtype=float)
        boxes = np.stack([mins + _SHRINK, maxs - _SHRINK], axis=1)
    else:
        boxes = np.empty((0, 2, 3))

    width = max((len(pl.rects) for pl in planes), default=0)
    plane_face_lo = np.full((len(planes), width, 3), np.inf)
    plane_face_hi = np.full((len(planes), width, 3), -np.inf)
    for pi, pl in enumerate(planes[1:], 1):
        faces = slice(len(pl.rects))
        plane_face_lo[pi, faces, pl.axis] = pl.offset - _PRUNE_TOL
        plane_face_hi[pi, faces, pl.axis] = pl.offset + _PRUNE_TOL
        for k, ax in enumerate(_OTHER_AXES[pl.axis]):
            plane_face_lo[pi, faces, ax] = pl.rects[:, 2 * k] - _PRUNE_TOL
            plane_face_hi[pi, faces, ax] = pl.rects[:, 2 * k + 1] + _PRUNE_TOL
    return _Geometry(
        planes=planes,
        plane_axis=np.array([pl.axis for pl in planes]),
        plane_offset=np.array([pl.offset for pl in planes]),
        plane_sign=np.array([pl.sign for pl in planes]),
        boxes_shrunk=boxes,
        plane_face_lo=plane_face_lo, plane_face_hi=plane_face_hi,
    )


_geometry_cache: "weakref.WeakKeyDictionary[Scene, _Geometry]" = weakref.WeakKeyDictionary()


def _geometry(scene: Scene) -> _Geometry:
    geo = _geometry_cache.get(scene)
    if geo is None:
        geo = _build_geometry(scene)
        _geometry_cache[scene] = geo
    return geo


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
# (nodes, faces of a plane, 3) temporaries.
_REGION_NODES = 64
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
    by ``_PRUNE_TOL``, must overlap a (grown) face of the plane; the ground
    is unbounded and always does. The beam then narrows to that box and the
    hull of the faces it overlaps. The test only drops nodes that give no
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
            face_lo, face_hi = geo.plane_face_lo[pi], geo.plane_face_hi[pi]  # (N, F', 3)
            hit = ((lo[:, None, :] <= face_hi) & (hi[:, None, :] >= face_lo)).all(axis=2)
            walls = pi != 0
            hull_lo = face_lo.min(axis=1, where=hit[:, :, None], initial=np.inf)
            hull_hi = face_hi.max(axis=1, where=hit[:, :, None], initial=-np.inf)
            lo[walls] = np.maximum(lo[walls], hull_lo[walls])
            hi[walls] = np.minimum(hi[walls], hull_hi[walls])
            alive = ~walls | hit.any(axis=1)
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
    with np.errstate(divide="ignore", invalid="ignore"):
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
        pl = geo.planes[seq[i - 1]]
        img = images[i]
        denom = img[pl.axis] - pts[:, pl.axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (pl.offset - pts[:, pl.axis]) / denom
            ok = np.isfinite(t) & (t > _EPS_T) & (t < 1.0 - _EPS_T)
            q = pts + np.where(ok, t, 0.0)[:, None] * (img[None, :] - pts)
        if pl.is_ground:
            face_loss = np.full(pts.shape[0], pl.loss_db[0])
        else:
            u_ax, v_ax = _OTHER_AXES[pl.axis]
            qu = q[:, u_ax][:, None]
            qv = q[:, v_ax][:, None]
            r = pl.rects[None, :, :]
            hit = (
                (qu >= r[:, :, 0] - _RECT_TOL) & (qu <= r[:, :, 1] + _RECT_TOL)
                & (qv >= r[:, :, 2] - _RECT_TOL) & (qv <= r[:, :, 3] + _RECT_TOL)
            )
            any_hit = hit.any(axis=1)
            ok &= any_hit
            first = np.argmax(hit, axis=1)
            face_loss = pl.loss_db[first]
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


def _trace_records(
    scene: Scene,
    tx: np.ndarray,
    rx: np.ndarray,
    max_reflections: int,
    max_paths: int,
) -> tuple[list[tuple[PathRecord, ...]], int, int]:
    """Paths from transmitter ``tx`` to each receiver row of ``rx`` (U, 3):
    strongest first (ties by delay, then bounce sequence), at most
    ``max_paths`` per receiver; then the number of image nodes searched
    (those ``_reachable`` keeps) and of those that gave a path."""
    geo = _geometry(scene)

    # Per-user accumulation: (sort_key_fields..., record)
    per_user: list[list[tuple]] = [[] for _ in range(rx.shape[0])]
    freq = scene.carrier_freq
    lam = scene.wavelength

    searched = []
    for seqs, images in _image_tree(geo, tx, max_reflections):
        kept = _reachable(geo, seqs, images, rx)
        searched.extend(zip(seqs[kept], images[kept]))
    yielding = 0
    for seq, images in searched:
        rows, lengths, loss_db, chain = _node_paths(seq, images, geo, tx, rx)
        if rows.size == 0:
            continue
        yielding += 1
        n = len(seq)
        aod_az, aod_el = _angles_deg(chain[1] - chain[0])
        aoa_az, aoa_el = _angles_deg(chain[-2] - chain[-1])
        delays = lengths / SPEED_OF_LIGHT
        powers = (lam / (4.0 * math.pi * lengths)) ** 2 * 10.0 ** (-loss_db / 10.0)
        phases = (-2.0 * math.pi * freq * delays + math.pi * n) % (2.0 * math.pi)
        key = tuple(seq.tolist())
        for j, u in enumerate(rows):
            rec = PathRecord(
                aod_az=float(aod_az[j]), aod_el=float(aod_el[j]),
                aoa_az=float(aoa_az[j]), aoa_el=float(aoa_el[j]),
                power=float(powers[j]), phase=float(phases[j]),
                delay=float(delays[j]), n_reflections=n,
            )
            per_user[u].append((-rec.power, rec.delay, key, rec))

    records = [
        tuple(e[3] for e in sorted(entries, key=lambda e: (e[0], e[1], e[2]))[:max_paths])
        for entries in per_user
    ]
    return records, len(searched), yielding


class PathBatch(list):
    """The ``PathList`` of each receiver of one ``trace_paths_batch`` call,
    plus the number of image nodes the call searched and of those that gave
    at least one path."""

    def __init__(self, path_lists: Sequence[PathList], nodes_searched: int,
                 nodes_yielding: int):
        super().__init__(path_lists)
        self.nodes_searched = nodes_searched
        self.nodes_yielding = nodes_yielding


def trace_paths_batch(
    scene: Scene,
    bs_id: int,
    positions: np.ndarray,
    user_indices: Sequence[int] | None = None,
    max_reflections: int = 4,
    max_paths: int = 25,
) -> PathBatch:
    """Trace all paths between one base station and a batch of receivers."""
    tx = np.asarray(scene.bs_by_id(bs_id).position, dtype=float)
    rx = np.asarray(positions, dtype=float).reshape(-1, 3)
    if user_indices is None:
        user_indices = list(range(1, rx.shape[0] + 1))
    records, searched, yielding = _trace_records(scene, tx, rx, max_reflections, max_paths)
    return PathBatch([
        PathList(
            bs_id=bs_id,
            user_index=int(user_indices[u]),
            user_position=tuple(float(x) for x in rx[u]),
            paths=paths,
        )
        for u, paths in enumerate(records)
    ], searched, yielding)


def trace_paths(
    scene: Scene,
    bs_id: int,
    user_position: Sequence[float],
    max_reflections: int = 4,
    max_paths: int = 25,
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
    max_paths: int = 25,
) -> tuple[PathRecord, ...]:
    """Trace between two arbitrary points (used for reciprocity checks)."""
    return _trace_records(
        scene, np.asarray(tx, dtype=float), np.asarray(rx, dtype=float).reshape(1, 3),
        max_reflections, max_paths,
    )[0][0]
