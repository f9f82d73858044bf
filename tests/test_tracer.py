import dataclasses
import io
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from mimogen import tracer
from mimogen.rayio import RayFileHeader, read_rayfile, validate_rayfile, write_rayfile

from mimogen.scene import (
    SPEED_OF_LIGHT,
    BaseStation,
    Building,
    Scene,
    build_o1_scene,
    user_positions,
    users_in_row_range,
)
from mimogen.tracer import (
    _geometry,
    _segments_blocked,
    image_node_counts,
    mirror_point,
    path_phase,
    path_power,
    trace_between,
    trace_paths,
    trace_paths_batch,
)

from conftest import (dense_segments_blocked, free_space_scene, geometry_oracle,
                      image_tree_oracle, wall_scene)


class TestMirrorPoint:
    def test_sign_flip(self):
        assert np.allclose(mirror_point((3, 5, 2), 1, 0.0), (3, -5, 2))

    def test_involution(self):
        p = np.array([3.0, 5.0, 2.0])
        assert np.allclose(mirror_point(mirror_point(p, 1, 0.0), 1, 0.0), p)

    def test_offset_plane(self):
        assert np.allclose(mirror_point((1, 2, 3), 0, 10.0), (19, 2, 3))


class TestPathPower:
    def test_friis_at_1m_60ghz(self):
        lam = SPEED_OF_LIGHT / 60e9
        expected = (lam / (4 * math.pi)) ** 2
        assert path_power(1.0, 0, 60e9) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(1.58e-7, rel=5e-3)
        assert 10 * math.log10(expected) == pytest.approx(-68.0, abs=0.05)

    def test_lossless_bounces_change_nothing(self):
        assert path_power(7.0, 3, 60e9, [0.0, 0.0, 0.0]) == path_power(7.0, 0, 60e9)

    def test_inverse_square(self):
        assert path_power(2.0, 0, 60e9) / path_power(1.0, 0, 60e9) == pytest.approx(0.25)

    def test_bounce_losses_multiply(self):
        p0 = path_power(5.0, 0, 60e9)
        p2 = path_power(5.0, 2, 60e9, [3.0, 7.0])
        assert p2 / p0 == pytest.approx(10 ** (-1.0))

    def test_nonpositive_length(self):
        with pytest.raises(ValueError):
            path_power(0.0, 0, 60e9)


class TestPathPhase:
    def test_full_cycle(self):
        f = 60e9
        assert path_phase(1.0 / f, 0, f) == pytest.approx(0.0, abs=1e-9)

    def test_half_cycle(self):
        f = 60e9
        assert path_phase(1.0 / (2 * f), 0, f) == pytest.approx(math.pi)

    def test_reflection_adds_pi(self):
        f, tau = 28e9, 3.7e-9
        d = (path_phase(tau, 1, f) - path_phase(tau, 0, f)) % (2 * math.pi)
        assert d == pytest.approx(math.pi)

    def test_range(self):
        for tau in (1e-9, 5.5e-8, 1e-6):
            ph = path_phase(tau, 2, 73e9)
            assert 0.0 <= ph < 2 * math.pi


class TestFreeSpace:
    def test_los_plus_ground(self):
        sc = free_space_scene()
        pl = trace_paths(sc, 1, (10.0, 0.0, 10.0))
        assert len(pl.paths) == 2
        los, ground = pl.paths
        assert los.n_reflections == 0
        assert ground.n_reflections == 1
        assert los.delay == pytest.approx(10.0 / SPEED_OF_LIGHT, rel=1e-12)
        assert los.delay * 1e9 == pytest.approx(33.356, abs=1e-3)
        assert los.aod_az == pytest.approx(0.0)
        assert los.aod_el == pytest.approx(90.0)
        # arrival from behind: 180 deg azimuth, stored as -180 in [-180, 180)
        assert abs(los.aoa_az) == pytest.approx(180.0)
        assert los.aoa_el == pytest.approx(90.0)
        # ground bounce length from the mirrored source
        d = math.dist((0, 0, -10), (10, 0, 10))
        assert ground.delay == pytest.approx(d / SPEED_OF_LIGHT, rel=1e-12)

    def test_occluded_when_blocked(self):
        sc = free_space_scene()
        block = Building((4.0, -5.0, 0.0), (6.0, 5.0, 50.0))
        sc = type(sc)(
            buildings=(block,), base_stations=sc.base_stations, grids=(),
            carrier_freq=sc.carrier_freq, ground_z=sc.ground_z,
        )
        pl = trace_paths(sc, 1, (10.0, 0.0, 10.0), max_reflections=0)
        assert pl.paths == ()

    def test_receiver_on_transmitter_has_no_los(self):
        # A zero-length line of sight has no power (path_power rejects it);
        # the receiver keeps its reflected paths, and its ray file round-trips.
        sc = build_o1_scene()
        bs = sc.bs_by_id(3)
        pl = trace_paths_batch(sc, 3, [bs.position], user_indices=[7])[0]
        assert pl.paths and all(p.n_reflections > 0 for p in pl.paths)
        for p in pl.paths:
            assert all(math.isfinite(x) for x in dataclasses.astuple(p))
            assert p.delay > 0
        header = RayFileHeader(bs_id=3, carrier_freq=sc.carrier_freq, user_count=1,
                               scenario=sc.name)
        buf = io.BytesIO()
        write_rayfile([pl], header, buf)
        rf = read_rayfile(io.BytesIO(buf.getvalue()))
        assert list(rf.rows) == [pl]
        assert validate_rayfile(rf) == []

    def test_unknown_bs(self):
        sc = free_space_scene()
        with pytest.raises(KeyError, match="unknown base station"):
            trace_paths(sc, 9, (1.0, 1.0, 1.0))


def _mirror(p, axis, offset):
    """Oracle primitive: reflect a point across coord[axis] == offset."""
    q = np.array(p, dtype=float)
    q[axis] = 2 * offset - q[axis]
    return q


def _oracle_lengths(tx, rx, planes, max_order):
    """Expected unfolded path lengths for infinite parallel/perpendicular
    planes with no occluders: every no-immediate-repeat plane sequence whose
    backtracked bounce points are geometrically realizable."""
    lengths = [math.dist(tx, rx)]
    for order in range(1, max_order + 1):
        for seq in itertools.product(range(len(planes)), repeat=order):
            if any(seq[i] == seq[i + 1] for i in range(order - 1)):
                continue
            images = [np.asarray(tx, dtype=float)]
            ok = True
            for pi in seq:
                axis, offset, sign = planes[pi]
                if sign * (images[-1][axis] - offset) <= 1e-9:
                    ok = False
                    break
                images.append(_mirror(images[-1], axis, offset))
            if not ok:
                continue
            pt = np.asarray(rx, dtype=float)
            for i in range(order, 0, -1):
                axis, offset, sign = planes[seq[i - 1]]
                img = images[i]
                denom = img[axis] - pt[axis]
                if denom == 0:
                    ok = False
                    break
                t = (offset - pt[axis]) / denom
                if not (1e-12 < t < 1 - 1e-12):
                    ok = False
                    break
                pt = pt + t * (img - pt)
            if ok:
                lengths.append(float(np.linalg.norm(images[-1] - rx)))
    return sorted(lengths)


class TestImageGeometry:
    def test_single_wall_lengths(self, rng):
        for _ in range(20):
            y_wall = rng.uniform(5.0, 30.0)
            tx = (rng.uniform(-20, 20), rng.uniform(-20.0, y_wall - 1.0), rng.uniform(2, 50))
            rx = (rng.uniform(-20, 20), rng.uniform(-20.0, y_wall - 1.0), rng.uniform(2, 50))
            sc = wall_scene([(y_wall, y_wall + 5.0)], bs_position=tx)
            got = sorted(
                p.delay * SPEED_OF_LIGHT
                for p in trace_between(sc, tx, rx, 3, max_paths=1000)
            )
            planes = [(1, y_wall, -1.0), (2, sc.ground_z, 1.0)]
            want = _oracle_lengths(tx, rx, planes, 3)
            assert len(got) == len(want)
            assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_two_wall_canyon_lengths(self, rng):
        for _ in range(20):
            y0 = rng.uniform(-30.0, -5.0)
            y1 = rng.uniform(5.0, 30.0)
            tx = (rng.uniform(-20, 20), rng.uniform(y0 + 1, y1 - 1), rng.uniform(2, 50))
            rx = (rng.uniform(-20, 20), rng.uniform(y0 + 1, y1 - 1), rng.uniform(2, 50))
            sc = wall_scene([(y0 - 5.0, y0), (y1, y1 + 5.0)], bs_position=tx)
            got = sorted(
                p.delay * SPEED_OF_LIGHT
                for p in trace_between(sc, tx, rx, 4, max_paths=1000)
            )
            planes = [(1, y0, 1.0), (1, y1, -1.0), (2, sc.ground_z, 1.0)]
            want = _oracle_lengths(tx, rx, planes, 4)
            assert len(got) == len(want)
            assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_single_wall_image_distance(self):
        tx, rx = (0.0, 0.0, 10.0), (20.0, 2.0, 12.0)
        y_wall = 8.0
        sc = wall_scene([(y_wall, y_wall + 5.0)], bs_position=tx, ground_z=-1000.0)
        recs = [p for p in trace_between(sc, tx, rx, 1) if p.n_reflections == 1]
        wall_paths = [p for p in recs if p.delay * SPEED_OF_LIGHT < 100]
        assert len(wall_paths) == 1
        want = math.dist((0.0, 16.0, 10.0), rx)  # image of tx across y=8
        assert wall_paths[0].delay * SPEED_OF_LIGHT == pytest.approx(want, rel=1e-12)


class TestInvariants:
    def test_reciprocity(self, rng):
        sc = wall_scene([(-20.0, -12.0), (12.0, 20.0)], ground_z=0.0)
        for _ in range(10):
            tx = tuple(rng.uniform([-30, -10, 2], [30, 10, 40]))
            rx = tuple(rng.uniform([-30, -10, 2], [30, 10, 40]))
            fwd = trace_between(sc, tx, rx, 3)
            bwd = trace_between(sc, rx, tx, 3)
            assert len(fwd) == len(bwd)
            fwd_s = sorted(fwd, key=lambda p: p.delay)
            bwd_s = sorted(bwd, key=lambda p: p.delay)
            for a, b in zip(fwd_s, bwd_s):
                assert a.delay == pytest.approx(b.delay, rel=1e-9)
                assert a.power == pytest.approx(b.power, rel=1e-9)
                assert a.aod_az == pytest.approx(b.aoa_az, abs=1e-6)
                assert a.aod_el == pytest.approx(b.aoa_el, abs=1e-6)
                assert a.aoa_az == pytest.approx(b.aod_az, abs=1e-6)
                assert a.aoa_el == pytest.approx(b.aod_el, abs=1e-6)

    def test_delay_bounded_below_by_los(self):
        tx, rx = (0.0, 0.0, 10.0), (30.0, 3.0, 8.0)
        sc = wall_scene([(10.0, 15.0)], bs_position=tx, ground_z=0.0)
        recs = trace_between(sc, tx, rx, 2)
        assert recs
        for p in recs:
            assert p.delay * SPEED_OF_LIGHT >= math.dist(tx, rx) - 1e-9

    def test_building_permutation_invariance(self):
        walls = [(-20.0, -12.0), (12.0, 20.0)]
        tx, rx = (0.0, 0.0, 10.0), (25.0, 4.0, 6.0)
        a = trace_between(wall_scene(walls, bs_position=tx), tx, rx, 3)
        b = trace_between(wall_scene(walls[::-1], bs_position=tx), tx, rx, 3)
        assert a == b

    def test_monotone_in_max_reflections(self):
        sc = wall_scene([(-20.0, -12.0), (12.0, 20.0)], ground_z=0.0)
        tx, rx = (0.0, 0.0, 10.0), (25.0, 4.0, 6.0)
        seen = set()
        for order in range(5):
            recs = trace_between(sc, tx, rx, order, max_paths=1000)
            delays = {round(p.delay * 1e12, 3) for p in recs}
            assert seen <= delays
            seen = delays

    def test_sorted_by_power_and_capped(self):
        sc = wall_scene([(-20.0, -12.0), (12.0, 20.0)], ground_z=0.0)
        pl = trace_paths(sc, 1, (25.0, 4.0, 6.0), max_reflections=4, max_paths=5)
        assert len(pl.paths) <= 5
        powers = [p.power for p in pl.paths]
        assert powers == sorted(powers, reverse=True)

    def test_material_loss_applied(self):
        walls = [(10.0, 15.0)]
        tx, rx = (0.0, 0.0, 10.0), (20.0, 2.0, 10.0)
        lossless = wall_scene(walls, bs_position=tx, losses={"building_wall": 0.0,
                                                             "ground": 0.0})
        lossy = wall_scene(walls, bs_position=tx, losses={"building_wall": 6.0,
                                                          "ground": 6.0})
        p0 = [p for p in trace_between(lossless, tx, rx, 1) if p.n_reflections == 1]
        p1 = [p for p in trace_between(lossy, tx, rx, 1) if p.n_reflections == 1]
        for a, b in zip(p0, p1):
            assert b.power / a.power == pytest.approx(10 ** (-0.6), rel=1e-12)


class TestTraceBetween:
    @pytest.mark.parametrize("bs_id", [3, 17])
    def test_equals_batch_of_one_on_o1(self, bs_id):
        sc = build_o1_scene()
        tx = sc.bs_by_id(bs_id).position
        positions = user_positions(sc, users_in_row_range(sc, 1000, 1000))
        for rx in positions[::18]:
            assert trace_between(sc, tx, rx) == trace_paths_batch(sc, bs_id, [rx])[0].paths


# Grid coordinates make coplanar, touching and axis-parallel cases common;
# free floats cover the generic ones.
_grid = st.integers(-4, 4).map(float)
_coord = st.one_of(_grid, st.floats(-5.0, 5.0))
_point = st.tuples(_coord, _coord, st.one_of(st.integers(0, 5).map(float),
                                             st.floats(0.0, 6.0)))
_tx = st.tuples(_coord, _coord, st.one_of(st.integers(1, 5).map(float),
                                         st.floats(0.1, 6.0)))
_box = st.tuples(
    st.tuples(_grid, _grid, st.integers(0, 2).map(float)),
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)),
).map(lambda b: Building(b[0], tuple(lo + size for lo, size in zip(*b))))


class TestImageTree:
    @staticmethod
    def assert_equals_oracle(scene, tx, max_reflections):
        geo = _geometry(scene)
        tree = tracer._image_tree(geo, np.asarray(tx, dtype=float), max_reflections)
        oracle = image_tree_oracle(geo.plane_axis, geo.plane_offset, geo.plane_sign, tx,
                                   max_reflections)
        assert [tuple(seq) for seqs, _ in tree for seq in seqs.tolist()] == [
            seq for seq, _ in oracle]
        got = b"".join(images.tobytes() for _, images in tree)
        assert got == b"".join(images.tobytes() for _, images in oracle)
        return len(oracle)

    @settings(max_examples=100, deadline=None)
    @given(boxes=st.lists(_box, min_size=1, max_size=6), tx=_tx,
           max_reflections=st.integers(0, 4))
    def test_equals_oracle(self, boxes, tx, max_reflections):
        assume(not any(b.contains(tx) for b in boxes))
        scene = Scene(buildings=tuple(boxes), base_stations=(BaseStation(1, tx),),
                      grids=(), carrier_freq=28e9)
        size = self.assert_equals_oracle(scene, tx, max_reflections)
        assert image_node_counts(scene, 1, max_reflections) == size

    def test_equals_oracle_o1(self):
        sc = build_o1_scene()
        assert self.assert_equals_oracle(sc, sc.bs_by_id(17).position, 4) == 1140
        assert image_node_counts(sc, 17, 4) == 1140


# Boxes on a unit grid, some jittered by less or more than the tracer's 1e-9
# tolerance and some 1e-10 thin on one axis, in two materials: flush
# neighbours, coplanar faces and faces covered by a neighbour are common.
_jitter = st.sampled_from((0.0, 0.0, 5e-10, -5e-10, 3e-9))
_flush_box = st.builds(
    lambda lo, size, jitter, thin, material: Building(
        tuple(float(a) + j for a, j in zip(lo, jitter)),
        tuple(float(a) + j + (1e-10 if ax == thin else s)
              for ax, (a, j, s) in enumerate(zip(lo, jitter, size))),
        material),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 1)),
    st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
    st.tuples(_jitter, _jitter, _jitter),
    st.sampled_from((None, None, None, 0, 1, 2)),
    st.sampled_from(("building_wall", "glass")),
)


class TestPlaneTable:
    # A box thinner than the tolerance: its own opposite face is within it.
    @example(boxes=[Building((0.0, 0.0, 0.0), (1e-10, 1.0, 1.0))], ground_z=0.0)
    @settings(max_examples=300, deadline=None)
    @given(boxes=st.lists(_flush_box, min_size=1, max_size=10),
           ground_z=st.sampled_from((0.0, -1.0)))
    def test_equals_oracle(self, boxes, ground_z):
        scene = Scene(buildings=tuple(boxes), base_stations=(), grids=(), carrier_freq=28e9,
                      ground_z=ground_z, material_losses={"glass": 3.5, "ground": 2.0})
        geo = tracer._build_geometry(scene)
        oracle = geometry_oracle(scene)
        assert geo.plane_axis.tolist() == [pl[0] for pl in oracle]
        assert geo.plane_offset.tolist() == [pl[1] for pl in oracle]
        assert geo.plane_sign.tolist() == [pl[2] for pl in oracle]
        assert geo.face_count.tolist() == [max(1, len(pl[3])) for pl in oracle]
        inf = math.inf
        assert geo.face_lo[0, 0].tolist() == [-inf] * 3
        assert geo.face_hi[0, 0].tolist() == [inf] * 3
        assert geo.face_loss_db[0, 0] == oracle[0][4][0] == 2.0
        for pi, (axis, offset, _sign, rects, losses) in enumerate(oracle[1:], 1):
            u, v = tracer._OTHER_AXES[axis]
            lo, hi = geo.face_lo[pi, :len(rects)], geo.face_hi[pi, :len(rects)]
            assert np.stack([lo[:, u], hi[:, u], lo[:, v], hi[:, v]], axis=1).tolist() == rects
            assert lo[:, axis].tolist() == hi[:, axis].tolist() == [offset] * len(rects)
            assert geo.face_loss_db[pi, :len(rects)].tolist() == losses
        empty = np.arange(geo.face_lo.shape[1]) >= geo.face_count[:, None]
        assert (geo.face_lo[empty] == inf).all() and (geo.face_hi[empty] == -inf).all()

    def test_flush_neighbours_hide_faces(self):
        # Two unit cubes side by side along x: their touching faces reflect
        # nothing, and the y and top planes hold one face of each cube.
        sc = Scene(buildings=(Building((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
                              Building((1.0, 0.0, 0.0), (2.0, 1.0, 1.0))),
                   base_stations=(), grids=(), carrier_freq=28e9)
        geo = _geometry(sc)
        planes = list(zip(geo.plane_axis.tolist(), geo.plane_offset.tolist(),
                          geo.plane_sign.tolist(), geo.face_count.tolist()))
        assert planes == [(2, 0.0, 1.0, 1), (0, 0.0, -1.0, 1), (0, 2.0, 1.0, 1),
                          (1, 0.0, -1.0, 2), (1, 1.0, 1.0, 2), (2, 1.0, 1.0, 2)]


@st.composite
def _region_cases(draw):
    """A random box scene, transmitter, receiver batch and bounce budget. The
    batch mixes free receivers with ones on face edges, ones whose single
    bounce point lies just off a face edge (within the tracer's tolerance),
    duplicates, one at the transmitter and ones with a NaN or infinite
    coordinate."""
    boxes = draw(st.lists(_box, min_size=1, max_size=6))
    tx = draw(_tx)
    assume(not any(b.contains(tx) for b in boxes))
    rx = draw(st.lists(_point, min_size=1, max_size=6))
    kinds = ("edge", "graze", "duplicate", "tx", "non-finite")
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=4)):
        b = draw(st.sampled_from(boxes))
        lo, hi = np.array(b.min_corner), np.array(b.max_corner)
        ax = draw(st.integers(0, 2))
        u, v = [a for a in range(3) if a != ax]
        p = lo + (hi - lo) * draw(st.floats(0.0, 1.0))
        p[ax] = draw(st.sampled_from((lo[ax], hi[ax])))
        p[u] = draw(st.sampled_from((lo[u], hi[u])))
        if kind == "graze":
            # Face p[ax] of b, seen from tx; the bounce point p sits 5e-10 m
            # outside the face's u edge, and the receiver on the ray from
            # tx's image through p.
            side = 1.0 if p[ax] == hi[ax] else -1.0
            if side * (tx[ax] - p[ax]) <= 0:
                continue
            p[u] += 5e-10 if p[u] == hi[u] else -5e-10
            img = np.array(tx)
            img[ax] = 2 * p[ax] - img[ax]
            p = p + draw(st.floats(0.25, 2.0)) * (p - img)
        elif kind == "duplicate":
            p = draw(st.sampled_from(rx))
        elif kind == "tx":
            p = tx
        elif kind == "non-finite":
            p = np.array(draw(_point))
            p[ax] = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
        rx.insert(draw(st.integers(0, len(rx))), tuple(float(x) for x in p))
    return boxes, tx, rx, draw(st.integers(0, 3))


class TestRegionPruning:
    # A bounce point 5e-10 m off a face edge, found only within the tolerance;
    # a NaN receiver beside one with paths.
    @example(case=([Building((0.0, 2.0, 0.0), (3.0, 4.0, 3.0))], (1.0, 0.0, 1.5),
                   [(5.0 + 1e-9, 0.0, 1.5)], 1))
    @example(case=([Building((0.0, 2.0, 0.0), (3.0, 4.0, 3.0))], (1.0, 0.0, 1.5),
                   [(math.nan, 0.0, 1.0), (2.0, 1.0, 1.0)], 2))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(case=_region_cases())
    def test_equals_searching_every_node(self, case):
        boxes, tx, rx, max_reflections = case
        scene = Scene(buildings=tuple(boxes), base_stations=(BaseStation(1, tx),),
                      grids=(), carrier_freq=28e9)
        kw = dict(max_reflections=max_reflections, max_paths=10_000)
        with np.errstate(all="ignore"):
            pruned = trace_paths_batch(scene, 1, rx, **kw)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tracer, "_reachable",
                           lambda geo, seqs, images, rx: np.ones(len(seqs), dtype=bool))
                every = trace_paths_batch(scene, 1, rx, **kw)
        assert repr(list(pruned)) == repr(list(every))
        assert pruned.nodes_yielding == every.nodes_yielding
        assert pruned.nodes_yielding <= pruned.nodes_searched <= every.nodes_searched
        assert every.nodes_searched == image_node_counts(scene, 1, max_reflections)

    @settings(max_examples=100, deadline=None)
    @given(
        segs=st.lists(st.tuples(_point, _point), min_size=2, max_size=8),
        boxes=st.lists(_box, min_size=1, max_size=4),
        nan_at=st.tuples(st.integers(0, 7), st.integers(0, 1), st.integers(0, 2)),
    )
    def test_nan_segment_keeps_the_batch_boxes(self, segs, boxes, nan_at):
        p = np.array(segs)                                       # (U, 2, 3)
        u, end, ax = nan_at
        p[u % len(segs), end, ax] = math.nan
        b = np.array([[bx.min_corner, bx.max_corner] for bx in boxes], dtype=float)
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(_segments_blocked(p[:, 0], p[:, 1], b),
                                          dense_segments_blocked(p[:, 0], p[:, 1], b))

    def test_non_finite_receivers_get_no_path(self):
        sc = wall_scene([(12.0, 20.0)], ground_z=0.0)
        rx = [(25.0, 4.0, 6.0), (math.inf, 4.0, 6.0), (25.0, math.nan, 6.0)]
        with np.errstate(all="ignore"):
            got = trace_paths_batch(sc, 1, rx, max_reflections=2)
        assert got[0].paths == trace_paths(sc, 1, rx[0], max_reflections=2).paths
        assert got[1].paths == got[2].paths == ()

    def test_prunes_o1(self):
        sc = build_o1_scene()
        rx = user_positions(sc, users_in_row_range(sc, 4500, 4500))
        batch = trace_paths_batch(sc, 17, rx)
        nodes = image_node_counts(sc, 17, 4)
        assert 0 < batch.nodes_yielding <= batch.nodes_searched < 0.1 * nodes


class TestOcclusionPrefilter:
    @settings(max_examples=200, deadline=None)
    @given(
        segs=st.lists(st.tuples(_point, _point), min_size=1, max_size=12),
        boxes=st.lists(_box, min_size=1, max_size=6),
    )
    def test_equals_dense_slab_test(self, segs, boxes):
        p0 = np.array([s[0] for s in segs])
        p1 = np.array([s[1] for s in segs])
        b = np.array([[bx.min_corner, bx.max_corner] for bx in boxes], dtype=float)
        np.testing.assert_array_equal(_segments_blocked(p0, p1, b),
                                      dense_segments_blocked(p0, p1, b))

    def test_axis_parallel_and_touching(self):
        boxes = np.array([[[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]])
        p0 = np.array([
            [1.0, 1.0, -1.0],   # axis-parallel, through the box
            [2.0, 1.0, -1.0],   # axis-parallel, sliding along a face
            [3.0, 1.0, -1.0],   # axis-parallel, beside the box
            [-1.0, 1.0, 1.0],   # ends on a face
            [-1.0, 1.0, 1.0],   # touches an edge
            [1.0, 1.0, 1.0],    # zero length, inside
        ])
        p1 = np.array([
            [1.0, 1.0, 3.0], [2.0, 1.0, 3.0], [3.0, 1.0, 3.0],
            [0.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 1.0],
        ])
        got = _segments_blocked(p0, p1, boxes)
        np.testing.assert_array_equal(got, dense_segments_blocked(p0, p1, boxes))
        assert got.tolist() == [True, True, False, False, False, True]

    def test_subnormal_direction_does_not_warn(self):
        # 1e-310 is subnormal: the slab divide overflows to -inf/inf, which
        # the test reads as it reads an axis-parallel segment's.
        boxes = np.array([[[-1.0, -1.0, -1.0], [2.0, 2.0, 2.0]]])
        p0, p1 = np.array([[0.0, 0.0, 0.0]]), np.array([[1e-310, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _segments_blocked(p0, p1, boxes)
            want = dense_segments_blocked(p0, p1, boxes)
        np.testing.assert_array_equal(got, want)
        assert got.tolist() == [True]
