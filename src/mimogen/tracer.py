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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .scene import GROUND_MATERIAL, SPEED_OF_LIGHT, Scene

_EPS_SIDE = 1e-9      # front-side test tolerance for image pruning
_EPS_T = 1e-12        # segment-parameter tolerance for reflection points
_RECT_TOL = 1e-9      # face-rectangle containment tolerance
_SHRINK = 1e-6        # occlusion boxes are shrunk by this much per side
_PRUNE_TOL = 1e-6     # slack of the aperture and region tests that prune nodes


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
    face_lo: np.ndarray        # (F, 3): building faces as flat boxes, grown by
    face_hi: np.ndarray        #   _PRUNE_TOL on every side (ground excluded)
    face_plane: np.ndarray     # (F,): index into `planes` of each face
    plane_face_lo: np.ndarray  # (P, F', 3): face_lo/face_hi by plane, padded
    plane_face_hi: np.ndarray  #   with empty boxes (lo = inf, hi = -inf)
    tree_capacity: int         # cached image trees: one per base station
    trees: dict[tuple, list["_Node"]] = field(default_factory=dict)


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

    face_lo, face_hi, face_plane = [], [], []
    for pi, pl in enumerate(planes[1:], 1):
        u, v = _OTHER_AXES[pl.axis]
        for u0, u1, v0, v1 in pl.rects:
            lo, hi = np.full(3, pl.offset), np.full(3, pl.offset)
            lo[u], hi[u], lo[v], hi[v] = u0, u1, v0, v1
            face_lo.append(lo - _PRUNE_TOL)
            face_hi.append(hi + _PRUNE_TOL)
            face_plane.append(pi)
    face_lo, face_hi = np.array(face_lo).reshape(-1, 3), np.array(face_hi).reshape(-1, 3)
    face_plane = np.array(face_plane, dtype=int)
    width = max((len(pl.rects) for pl in planes), default=0)
    plane_face_lo = np.full((len(planes), width, 3), np.inf)
    plane_face_hi = np.full((len(planes), width, 3), -np.inf)
    for pi, pl in enumerate(planes):
        plane_face_lo[pi, :len(pl.rects)] = face_lo[face_plane == pi]
        plane_face_hi[pi, :len(pl.rects)] = face_hi[face_plane == pi]
    return _Geometry(
        planes=planes,
        plane_axis=np.array([pl.axis for pl in planes]),
        plane_offset=np.array([pl.offset for pl in planes]),
        plane_sign=np.array([pl.sign for pl in planes]),
        boxes_shrunk=boxes,
        face_lo=face_lo, face_hi=face_hi, face_plane=face_plane,
        plane_face_lo=plane_face_lo, plane_face_hi=plane_face_hi,
        tree_capacity=max(1, len(scene.base_stations)),
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

@dataclass
class _Node:
    seq: tuple[int, ...]       # plane indices, in bounce order
    images: np.ndarray         # (n+1, 3): tx image after 0..n mirrors


def _aperture_visible(geo: _Geometry, a: int, img: np.ndarray) -> np.ndarray:
    """(P,) mask of the planes that a bounce off plane ``a`` can reach when the
    ray comes from image ``img``, which lies strictly behind ``a``.

    A next bounce point must lie on a face of the next plane, on the far side
    of ``a``, and seen from ``img`` through a face of ``a``. Each face is
    clipped to that half-space and projected from ``img`` onto ``a``; the
    plane is kept when the bounding box of a projection overlaps a face of
    ``a``. Faces are grown by ``_PRUNE_TOL``, so the test only keeps more.
    The ground is unbounded: it is always reachable and never prunes.
    """
    pa = geo.planes[a]
    if pa.is_ground:
        return np.ones(len(geo.planes), dtype=bool)
    A = pa.axis
    lo, hi = geo.face_lo, geo.face_hi
    if pa.sign > 0:
        meets = hi[:, A] >= pa.offset
        depth = np.maximum(np.stack([lo[:, A], hi[:, A]], axis=1), pa.offset)  # (F, 2)
    else:
        meets = lo[:, A] <= pa.offset
        depth = np.minimum(np.stack([lo[:, A], hi[:, A]], axis=1), pa.offset)
    # Central projection from img onto a: a point at depth x_A lands at
    # img + scale * (x - img); scale is in (0, 1] because img is behind a.
    scale = (pa.offset - img[A]) / (depth - img[A])
    overlap = meets[:, None]                                   # (F, faces of a)
    for k, ax in enumerate(_OTHER_AXES[A]):
        ends = np.stack([lo[:, ax], hi[:, ax]], axis=1) - img[ax]           # (F, 2)
        proj = img[ax] + scale[:, :, None] * ends[:, None, :]               # (F, 2, 2)
        r_lo = pa.rects[None, :, 2 * k] - _PRUNE_TOL
        r_hi = pa.rects[None, :, 2 * k + 1] + _PRUNE_TOL
        overlap = (overlap & (proj.min(axis=(1, 2))[:, None] <= r_hi)
                   & (proj.max(axis=(1, 2))[:, None] >= r_lo))
    visible = np.zeros(len(geo.planes), dtype=bool)
    visible[0] = True
    visible[geo.face_plane[overlap.any(axis=1)]] = True
    return visible


def _image_tree(geo: _Geometry, tx: np.ndarray, max_reflections: int) -> list[_Node]:
    """Enumerate mirrored-source images, pruned by the front-side condition
    (the previous image must lie strictly on the reflective side of the next
    plane; consecutive bounces off the same oriented plane are impossible)
    and by the aperture test of ``_aperture_visible``. Neither looks at a
    receiver, and no node that can yield a path is dropped."""
    root = _Node(seq=(), images=tx[None, :].copy())
    nodes = [root]
    frontier = [root]
    for _ in range(max_reflections):
        nxt: list[_Node] = []
        for node in frontier:
            img = node.images[-1]
            last = node.seq[-1] if node.seq else -1
            visible = (_aperture_visible(geo, last, img) if node.seq
                       else np.ones(len(geo.planes), dtype=bool))
            for pi, pl in enumerate(geo.planes):
                if pi == last or not visible[pi]:
                    continue
                if pl.sign * (img[pl.axis] - pl.offset) <= _EPS_SIDE:
                    continue
                child = _Node(
                    seq=node.seq + (pi,),
                    images=np.vstack([node.images, mirror_point(img, pl.axis, pl.offset)]),
                )
                nxt.append(child)
        nodes.extend(nxt)
        frontier = nxt
    for node in nodes:
        node.images.setflags(write=False)
    return nodes


def _cached_tree(geo: _Geometry, tx: np.ndarray, max_reflections: int) -> list[_Node]:
    """The image tree of ``tx``, built once per (tx, max_reflections). The
    cache keeps at most one tree per base station of the scene, dropping the
    oldest, so tracing from arbitrary points cannot grow it."""
    key = (tuple(tx.tolist()), max_reflections)
    nodes = geo.trees.get(key)
    if nodes is None:
        if len(geo.trees) >= geo.tree_capacity:
            del geo.trees[next(iter(geo.trees))]
        nodes = geo.trees[key] = _image_tree(geo, tx, max_reflections)
    return nodes


def _front_side_tree_size(geo: _Geometry, tx: np.ndarray, max_reflections: int) -> int:
    """Number of image nodes the front-side condition alone admits: the size
    of the tree before aperture pruning."""
    axis, offset, sign = geo.plane_axis, geo.plane_offset, geo.plane_sign
    imgs, last, total = tx[None, :], np.array([-1]), 1
    for _ in range(max_reflections):
        front = sign * (imgs[:, axis] - offset) > _EPS_SIDE
        bounced = np.nonzero(last >= 0)[0]
        front[bounced, last[bounced]] = False
        parent, last = np.nonzero(front)
        imgs = imgs[parent]
        rows = np.arange(last.size)
        imgs[rows, axis[last]] = 2.0 * offset[last] - imgs[rows, axis[last]]
        total += last.size
    return total


def image_node_counts(scene: Scene, bs_id: int, max_reflections: int) -> tuple[int, int]:
    """Image nodes of base station ``bs_id``'s tree before and after aperture
    pruning (the root, the transmitter itself, counts as one node)."""
    geo = _geometry(scene)
    tx = np.asarray(scene.bs_by_id(bs_id).position, dtype=float)
    return (_front_side_tree_size(geo, tx, max_reflections),
            len(_cached_tree(geo, tx, max_reflections)))


# Image nodes per vectorized step of the region test; bounds its
# (nodes, faces of a plane, 3) temporaries.
_REGION_NODES = 64
# The 8 corners of a box: per axis, its min (0) or its max (1).
_CORNERS = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1],
                     [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]], dtype=bool)


def _reachable(geo: _Geometry, nodes: list[_Node], rx: np.ndarray) -> np.ndarray:
    """(len(nodes),) mask of the image nodes whose backward beam through the
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
    hull of the faces it overlaps. Like ``_aperture_visible``, the test only
    drops nodes that give no path. It runs on the nodes of a depth
    ``_REGION_NODES`` at a time.
    """
    keep = np.zeros(len(nodes), dtype=bool)
    rx = rx[np.isfinite(rx).all(axis=1)]
    if rx.shape[0] == 0:
        return keep
    depth = np.array([len(node.seq) for node in nodes])
    keep[depth == 0] = True
    for d in range(1, int(depth.max()) + 1):
        at_depth = np.nonzero(depth == d)[0]
        for first in range(0, at_depth.size, _REGION_NODES):
            idx = at_depth[first:first + _REGION_NODES]
            seqs = np.array([nodes[k].seq for k in idx])                 # (N, d)
            imgs = np.stack([nodes[k].images for k in idx])              # (N, d+1, 3)
            lo = np.repeat(rx.min(axis=0)[None, :], idx.size, axis=0)    # (N, 3)
            hi = np.repeat(rx.max(axis=0)[None, :], idx.size, axis=0)
            for i in range(d, 0, -1):
                rows = np.arange(idx.size)
                pi = seqs[:, i - 1]
                ax, off = geo.plane_axis[pi], geo.plane_offset[pi]
                front = geo.plane_sign[pi] > 0
                lo[rows, ax] = np.where(front, np.maximum(lo[rows, ax], off), lo[rows, ax])
                hi[rows, ax] = np.where(front, hi[rows, ax], np.minimum(hi[rows, ax], off))
                alive = lo[rows, ax] <= hi[rows, ax]
                idx, seqs, imgs, lo, hi, pi, ax, off = (
                    a[alive] for a in (idx, seqs, imgs, lo, hi, pi, ax, off))
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
                idx, seqs, imgs, lo, hi = (a[alive] for a in (idx, seqs, imgs, lo, hi))
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
    node: _Node,
    geo: _Geometry,
    tx: np.ndarray,
    rx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Valid specular paths of one image node against all receivers.

    Returns (user_rows, lengths, loss_db_sums, chain) where chain is the
    (n+2, U', 3) polyline tx -> bounce points -> rx for the valid users.
    """
    U = rx.shape[0]
    n = len(node.seq)
    rows = np.arange(U)
    pts = rx
    loss_db = np.zeros(U)
    chain_rev = [rx]

    for i in range(n, 0, -1):
        pl = geo.planes[node.seq[i - 1]]
        img = node.images[i]
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
    lengths = np.linalg.norm(node.images[-1][None, :] - chain[-1], axis=1)
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
    nodes = _cached_tree(geo, tx, max_reflections)

    # Per-user accumulation: (sort_key_fields..., record)
    per_user: list[list[tuple]] = [[] for _ in range(rx.shape[0])]
    freq = scene.carrier_freq
    lam = scene.wavelength

    searched = [node for node, kept in zip(nodes, _reachable(geo, nodes, rx)) if kept]
    yielding = 0
    for node in searched:
        rows, lengths, loss_db, chain = _node_paths(node, geo, tx, rx)
        if rows.size == 0:
            continue
        yielding += 1
        n = len(node.seq)
        aod_az, aod_el = _angles_deg(chain[1] - chain[0])
        aoa_az, aoa_el = _angles_deg(chain[-2] - chain[-1])
        delays = lengths / SPEED_OF_LIGHT
        powers = (lam / (4.0 * math.pi * lengths)) ** 2 * 10.0 ** (-loss_db / 10.0)
        phases = (-2.0 * math.pi * freq * delays + math.pi * n) % (2.0 * math.pi)
        for j, u in enumerate(rows):
            rec = PathRecord(
                aod_az=float(aod_az[j]), aod_el=float(aod_el[j]),
                aoa_az=float(aoa_az[j]), aoa_el=float(aoa_el[j]),
                power=float(powers[j]), phase=float(phases[j]),
                delay=float(delays[j]), n_reflections=n,
            )
            per_user[u].append((-rec.power, rec.delay, node.seq, rec))

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
