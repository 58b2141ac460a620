"""Tests for virtual-PTZ plan execution: footprints, casting, reports."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptzscan.geometry import CameraPose, CylinderModel, Ray, quat_from_yaw_pitch, wrap_degrees
from ptzscan.pantilt import (
    PanTilt,
    PanTiltGrid,
    QuadrantSetup,
    YawToleranceWarning,
    direction_from_pantilt,
    grid_to_pantilt,
    point_to_pantilt,
)
from ptzscan.planner import ScanConfig, ScanPlan, SectionPlan, plan_full
from ptzscan.simulator import (
    SimulationReport,
    _grid_offset,
    _grid_value,
    cast_to_surface,
    error_propagation,
    execute_plan,
    footprint,
)
from ptzscan.surface import (
    GRID_RESOLUTION,
    KIND_FUSELAGE,
    KIND_TAIL,
    PointCloud,
    SectionSpec,
    SurfaceGrid,
    interpolate_section,
    section_points,
)

R0 = 2.0
H0 = 2.0
CAMERA = np.array([-7.0, 1.5, 6.75])
YAW = 20.0  # quadrant-3 nominal direction, so alpha = 0
QUADRANT = 3


def cylinder_surface_grid(x_lo, x_hi, y_lo, y_hi, step=0.01, name="fuselage"):
    """Upper-cylinder section grid built through the real pipeline.

    The cloud is an exact lattice whose pitch divides the 5 cm grid pitch,
    so grid cells coincide with cloud vertices and carry exact surface
    points — any labelling error the simulator reports is its own.
    """
    xs = np.arange(x_lo, x_hi + step / 2, step)
    ys = np.arange(y_lo, y_hi + step / 2, step)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    zz = H0 + np.sqrt(np.maximum(R0**2 - xx**2, 0.0))
    cloud = PointCloud(points=np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()]))
    spec = SectionSpec(
        name=name,
        kind=KIND_FUSELAGE,
        box_min=(x_lo - 0.1, y_lo - 0.1, 0.0),
        box_max=(x_hi + 0.1, y_hi + 0.1, H0 + R0 + 0.5),
    )
    return interpolate_section(section_points(cloud, spec), spec)


@pytest.fixture(scope="module")
def cyl_grid():
    return cylinder_surface_grid(-1.8, 0.0, 0.0, 3.0)


@pytest.fixture(scope="module")
def true_pose():
    return CameraPose(CAMERA, quat_from_yaw_pitch(YAW))


@pytest.fixture(scope="module")
def true_setup():
    return QuadrantSetup(QUADRANT, YAW, CAMERA)


@pytest.fixture(scope="module")
def cfg():
    return ScanConfig(hfov_deg=6.15, vfov_deg=3.46, mu=0.15)


@pytest.fixture(scope="module")
def cyl_plan(cyl_grid, true_setup, cfg):
    u = grid_to_pantilt(cyl_grid, true_setup)
    return plan_full([(u, cyl_grid, KIND_FUSELAGE)], cfg, QUADRANT)


@pytest.fixture(scope="module")
def plane_grid():
    # z = 3 + 0.2 x - 0.1 y: bilinear patches reproduce a plane exactly,
    # so grid casts can be checked against the analytic intersection.
    xs, ys = np.meshgrid(np.arange(0.0, 1.0001, 0.05), np.arange(0.0, 1.0001, 0.05), indexing="ij")
    zz = 3.0 + 0.2 * xs - 0.1 * ys
    cloud = PointCloud(points=np.column_stack([xs.ravel(), ys.ravel(), zz.ravel()]))
    spec = SectionSpec(
        name="panel",
        kind=KIND_FUSELAGE,
        box_min=(-0.1, -0.1, 0.0),
        box_max=(1.1, 1.1, 4.0),
    )
    return interpolate_section(section_points(cloud, spec), spec)


def tiny_u(pans, tilts, valid=None):
    pans = np.asarray(pans, dtype=float)
    tilts = np.asarray(tilts, dtype=float)
    if valid is None:
        valid = np.isfinite(pans)
    return PanTiltGrid(pans=pans, tilts=tilts, valid=np.asarray(valid))


def _plane(grid):
    """The value plane ``_cast_to_grid`` builds: the value axis, NaN where absent."""
    return np.where(grid.valid, grid.points[..., grid.section.value_axis], np.nan)


def _reference_cast(ray, grid):
    """Scalar march-and-bisect of one ray: the reference for the batched
    grid cast. Returns the hit, or None on a miss (no bracketed crossing,
    or a bisection midpoint over a hole)."""
    finite = grid.points[grid.valid]
    if finite.size == 0:
        return None
    t_max = float(np.max(np.linalg.norm(finite - ray.origin, axis=1))) + 1.0
    step = GRID_RESOLUTION / 2.0
    ts = np.arange(0.0, t_max + step, step)
    pts = ray.origin[None, :] + ts[:, None] * ray.direction[None, :]
    f = _reference_offset(grid, pts)
    both = np.isfinite(f[:-1]) & np.isfinite(f[1:])
    crossing = both & (f[:-1] * f[1:] <= 0.0) & (ts[1:] > 0.0)
    idx = np.nonzero(crossing)[0]
    if idx.size == 0:
        return None
    k = int(idx[0])
    lo, hi = ts[k], ts[k + 1]
    f_lo = f[k]
    if f_lo == 0.0:
        return ray.at(float(lo))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = _reference_offset(grid, ray.at(mid)[None, :])[0]
        if not math.isfinite(f_mid):
            return None
        if f_lo * f_mid > 0.0:
            lo = mid
            f_lo = f_mid
        else:
            hi = mid
    return ray.at(0.5 * (lo + hi))


def lattice_grid(kind, row_values, col_values, surface, valid=None):
    """SurfaceGrid holding ``surface(row, col)`` at every lattice node,
    with absent cells NaN. Rows are x for a fuselage grid, z for a tail."""
    rr, cc = np.meshgrid(row_values, col_values, indexing="ij")
    if valid is None:
        valid = np.ones(rr.shape, dtype=bool)
    points = np.empty(rr.shape + (3,))
    dep = surface(rr, cc)
    if kind == KIND_TAIL:
        points[..., 0], points[..., 1], points[..., 2] = dep, cc, rr
    else:
        points[..., 0], points[..., 1], points[..., 2] = rr, cc, dep
    points[~valid] = np.nan
    spec = SectionSpec(name="s", kind=kind, box_min=(-9.0, -9.0, -9.0), box_max=(9.0, 9.0, 9.0))
    return SurfaceGrid(
        section=spec, row_values=row_values, col_values=col_values, points=points, valid=valid
    )


def cylinder_lattice(kind, i0, nr, j0, nc, valid=None):
    """Nodes of the R0/H0 cylinder: the upper half z(x) for a fuselage
    grid, the camera-side half x(z) for a tail grid."""
    rows = -1.95 + GRID_RESOLUTION * np.arange(i0, i0 + nr)
    cols = GRID_RESOLUTION * np.arange(j0, j0 + nc)
    if kind == KIND_TAIL:
        return lattice_grid(kind, rows + H0, cols, lambda z, y: -np.sqrt(R0**2 - (z - H0) ** 2), valid)
    return lattice_grid(kind, rows, cols, lambda x, y: H0 + np.sqrt(R0**2 - x**2), valid)


def flat_grid(valid=None):
    """21 x 21 lattice of the plane z = 3 over [0, 1]^2."""
    axis = GRID_RESOLUTION * np.arange(21)
    return lattice_grid(KIND_FUSELAGE, axis, axis, lambda x, y: np.full_like(x, 3.0), valid)


def one_shot(u, shot, cfg):
    """The footprint of one shot: its one-shot stack's only mask."""
    stack = footprint(u, np.array([shot.pan_deg]), np.array([shot.tilt_deg]), cfg)
    assert stack.shape == (1, *u.valid.shape)
    return stack[0]


class TestFootprint:
    def test_shot_on_cell_includes_it(self, cyl_grid, true_setup, cfg):
        u = grid_to_pantilt(cyl_grid, true_setup)
        shot = PanTilt(float(u.pans[5, 7]), float(u.tilts[5, 7]))
        fp = one_shot(u, shot, cfg)
        assert fp.shape == u.valid.shape
        assert fp[5, 7]

    def test_fov_wider_than_grid_covers_everything(self, cyl_grid, true_setup):
        u = grid_to_pantilt(cyl_grid, true_setup)
        wide = ScanConfig(hfov_deg=179.0, vfov_deg=179.0, mu=0.15)
        fp = one_shot(u, PanTilt(0.0, -30.0), wide)
        np.testing.assert_array_equal(fp, u.valid)

    def test_boundary_is_closed(self):
        u = tiny_u([[0.0, 3.0, 3.0000001]], [[0.0, 0.0, 0.0]])
        cfg = ScanConfig(hfov_deg=6.0, vfov_deg=4.0, mu=0.0)
        fp = one_shot(u, PanTilt(0.0, 0.0), cfg)
        assert fp[0, 1]
        assert not fp[0, 2]

    def test_boundary_is_closed_where_the_modulo_would_round(self):
        # 180 - ((180 - 1/3) % 360) is 1/3 plus 9.5e-15, so a pan distance
        # taken through the modulo puts these cells outside the half FOV.
        third = 1.0 / 3.0
        u = tiny_u([[third, -third, 2.0 * third]], [[0.0, 0.0, 0.0]])
        cfg = ScanConfig(hfov_deg=2.0 / 3.0, vfov_deg=1.0, mu=0.0)
        assert one_shot(u, PanTilt(0.0, 0.0), cfg).tolist() == [[True, True, False]]

    def test_pan_wraps_across_seam(self):
        u = tiny_u([[179.9, -179.9]], [[0.0, 0.0]])
        cfg = ScanConfig(hfov_deg=1.0, vfov_deg=1.0, mu=0.0)
        fp = one_shot(u, PanTilt(179.9, 0.0), cfg)
        assert fp.tolist() == [[True, True]]

    def test_absent_cells_never_included(self):
        u = tiny_u([[0.0, 0.1]], [[0.0, 0.0]], valid=[[True, False]])
        cfg = ScanConfig(hfov_deg=6.0, vfov_deg=4.0, mu=0.0)
        assert np.argwhere(one_shot(u, PanTilt(0.0, 0.0), cfg)).tolist() == [[0, 0]]

    def test_stack_is_its_one_shot_masks(self, cyl_grid, true_setup, cfg, cyl_plan, report):
        u = grid_to_pantilt(cyl_grid, true_setup)
        plan = cyl_plan.sections[0]
        stack = footprint(u, plan.pans, plan.tilts, cfg)
        masks = [one_shot(u, plan[k], cfg) for k in range(len(plan))]
        np.testing.assert_array_equal(stack, np.array(masks).reshape(stack.shape))
        # The report's coverage and overlaps are the per-mask arithmetic:
        # covered cells over present ones, and each consecutive pair's
        # shared cells over the smaller mask, 0 when either is empty.
        covered = np.any(masks, axis=0)
        assert report.sections[0].coverage == int(np.count_nonzero(covered)) / int(cyl_grid.valid.sum())
        overlaps = []
        for a, b in zip(masks, masks[1:]):
            na, nb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
            overlaps.append(int(np.count_nonzero(a & b)) / min(na, nb) if na and nb else 0.0)
        assert report.sections[0].overlaps == tuple(overlaps)

    def test_each_shot_has_its_own_mask_empty_ones_included(self):
        u = tiny_u([[0.0, 10.0]], [[0.0, 0.0]])
        cfg = ScanConfig(hfov_deg=2.0, vfov_deg=2.0, mu=0.0)
        stack = footprint(u, np.array([0.0, 50.0, 10.0]), np.array([0.0, 0.0, 0.0]), cfg)
        assert stack.tolist() == [[[True, False]], [[False, False]], [[False, True]]]


def _reference_footprint(u, shot, cfg):
    """Whole-grid form of the footprint test: the reference for the
    tilt-banded one. The pan distance is ``|wrap_degrees(d)|``, which
    leaves an in-range difference unchanged; ``|180 - ((180 - d) % 360)|``
    would round some in-range differences up past a closed boundary."""
    dpan = np.abs(wrap_degrees(u.pans - shot.pan_deg))
    dtilt = np.abs(u.tilts - shot.tilt_deg)
    with np.errstate(invalid="ignore"):
        return u.valid & (dpan <= cfg.hfov_deg / 2.0) & (dtilt <= cfg.vfov_deg / 2.0)


class TestFootprintMatchesReference:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(-179.99, 180.0),
        st.floats(-90.0, 90.0),
        st.floats(0.5, 120.0),
        st.floats(0.5, 120.0),
    )
    def test_same_mask(self, seed, pan, tilt, hfov, vfov):
        # Pans span the whole circle so the +/-180 seam is crossed; a
        # tenth of the cells are absent (NaN), and some sit exactly half
        # an FOV from the shot, on the closed boundary.
        rng = np.random.default_rng(seed)
        pans = rng.uniform(-180.0, 180.0, (12, 15))
        tilts = rng.uniform(-90.0, 90.0, (12, 15))
        pans[0, :5] = [pan + hfov / 2.0, pan - hfov / 2.0, pan, -pan, 180.0]
        tilts[0, :5] = [tilt, tilt, tilt + vfov / 2.0, tilt - vfov / 2.0, tilt]
        pans = np.where(pans > 180.0, pans - 360.0, np.where(pans <= -180.0, pans + 360.0, pans))
        valid = rng.random(pans.shape) >= 0.1
        u = tiny_u(np.where(valid, pans, np.nan), np.where(valid, tilts, np.nan), valid)
        shot, cfg = PanTilt(pan, tilt), ScanConfig(hfov_deg=hfov, vfov_deg=vfov, mu=0.0)
        np.testing.assert_array_equal(one_shot(u, shot, cfg), _reference_footprint(u, shot, cfg))


def cast_one(pose, pan, tilt, target):
    """Cast a single shot; returns (hit row, missed flag)."""
    hits, missed = cast_to_surface(pose, [pan], [tilt], 0.0, target)
    assert hits.shape == (1, 3) and missed.shape == (1,)
    return hits[0], bool(missed[0])


class TestCastToSurface:
    def test_cylinder_hit_is_exact(self, true_pose):
        target = np.array([-1.2, 1.0, H0 + np.sqrt(R0**2 - 1.2**2)])
        pt = point_to_pantilt(target, CAMERA, alpha_deg=0.0)
        cyl = CylinderModel(axis_height=H0, radius=R0)
        hit, missed = cast_one(true_pose, pt.pan_deg, pt.tilt_deg, cyl)
        assert not missed
        np.testing.assert_allclose(hit, target, atol=1e-9)

    def test_upward_ray_misses(self, true_pose):
        cyl = CylinderModel(axis_height=H0, radius=R0)
        hit, missed = cast_one(true_pose, 0.0, 45.0, cyl)
        assert missed
        assert np.isnan(hit).all()

    def test_plane_grid_matches_analytic_intersection(self, plane_grid):
        pose = CameraPose(np.array([0.5, 0.5, 6.0]), quat_from_yaw_pitch(0.0))
        target = np.array([0.32, 0.71, 3.0 + 0.2 * 0.32 - 0.1 * 0.71])
        pt = point_to_pantilt(target, pose.position, alpha_deg=0.0)
        hit, missed = cast_one(pose, pt.pan_deg, pt.tilt_deg, plane_grid)
        assert not missed
        np.testing.assert_allclose(hit, target, atol=1e-9)

    def test_grid_cast_tracks_cylinder_cast(self, cyl_grid, true_pose):
        # Generic aim point (not a lattice vertex): the marched grid cast
        # may differ from the analytic hit by the 5 cm patch sag, no more.
        target = np.array([-0.63, 1.37, H0 + np.sqrt(R0**2 - 0.63**2)])
        pt = point_to_pantilt(target, CAMERA, alpha_deg=0.0)
        cyl = CylinderModel(axis_height=H0, radius=R0)
        exact, _ = cast_one(true_pose, pt.pan_deg, pt.tilt_deg, cyl)
        marched, missed = cast_one(true_pose, pt.pan_deg, pt.tilt_deg, cyl_grid)
        assert not missed
        assert np.linalg.norm(marched - exact) < 3e-3

    def test_ray_away_from_grid_misses(self, plane_grid):
        pose = CameraPose(np.array([0.5, 0.5, 6.0]), quat_from_yaw_pitch(0.0))
        hit, missed = cast_one(pose, 0.0, 10.0, plane_grid)
        assert missed
        assert np.isnan(hit).all()

    def test_hole_under_the_crossing_is_a_miss(self):
        # Flat grid z = 3 with cell (11, 9) absent. The ray runs at 45 deg
        # in plan and drops 4 mm per 2.5 cm march step. Its samples just
        # above and below the plane lie in patches (9, 9) and (10, 10),
        # whose corners are all present, so the march brackets a crossing;
        # the first bisection midpoint lies in patch (10, 9), which has
        # the absent corner, so the surface there is unknown.
        valid = np.ones((21, 21), dtype=bool)
        valid[11, 9] = False
        grid = flat_grid(valid)
        pan, tilt = 45.0, math.degrees(math.asin(-0.16))
        direction = direction_from_pantilt(pan, tilt)
        above = np.array([0.5 - 0.004, 0.5 - 0.013, 3.002])
        pose = CameraPose(above - 4 * 0.025 * direction, quat_from_yaw_pitch(0.0))
        hit, missed = cast_one(pose, pan, tilt, grid)
        assert missed
        assert np.isnan(hit).all()
        assert _reference_cast(Ray(pose.position, direction), grid) is None
        # With the cell present the same ray hits the plane.
        hit, missed = cast_one(pose, pan, tilt, flat_grid())
        assert not missed
        assert abs(hit[2] - 3.0) < 1e-9

    def test_crossing_on_a_march_sample_is_returned_exactly(self):
        # The camera sits on a lattice node of the flat grid z = 3, so the
        # first march sample has offset exactly 0 and brackets the crossing.
        grid = flat_grid()
        camera = np.array([grid.row_values[10], grid.col_values[10], 3.0])
        assert _grid_offset(grid, _plane(grid), camera[None, :])[0] == 0.0
        pose = CameraPose(camera, quat_from_yaw_pitch(0.0))
        hits, missed = cast_to_surface(pose, [30.0, -120.0], [-60.0, -5.0], 0.0, grid)
        assert not missed.any()
        np.testing.assert_array_equal(hits, [camera, camera])

    def test_grid_without_present_cells_misses_every_shot(self, true_pose):
        empty = flat_grid(np.zeros((21, 21), dtype=bool))
        hits, missed = cast_to_surface(true_pose, [0.0, 5.0], [-30.0, -40.0], 0.0, empty)
        assert missed.tolist() == [True, True]
        assert np.isnan(hits).all()

    def test_no_shots_give_empty_arrays(self, cyl_grid, true_pose):
        for target in (cyl_grid, CylinderModel(axis_height=H0, radius=R0)):
            hits, missed = cast_to_surface(true_pose, [], [], 0.0, target)
            assert hits.shape == (0, 3) and missed.shape == (0,)

    def test_directions_are_validated(self, cyl_grid, true_pose):
        with pytest.raises(ValueError, match="unit length"):
            cast_to_surface(true_pose, [0.0], [math.nan], 0.0, cyl_grid)


@st.composite
def cast_cases(draw):
    """A grid-sampled cylinder (some cells possibly absent), a camera, and
    shots aimed at lattice nodes, the lattice rim and its half-cell margin,
    one node along the surface's tangent plane, and away from the surface.

    The camera is the scan pose jittered, or a point in the tangent plane
    at one node, so that shots at that node graze the surface.
    """
    kind = draw(st.sampled_from([KIND_FUSELAGE, KIND_TAIL]))
    nr = draw(st.integers(2, 30))
    nc = draw(st.integers(2, 30))
    i0 = draw(st.integers(0, 79 - nr))
    j0 = draw(st.integers(0, 40))
    holes = draw(st.sampled_from([0.0, 0.05, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    valid = rng.random((nr, nc)) >= holes
    grid = cylinder_lattice(kind, i0, nr, j0, nc, valid)
    surface = cylinder_lattice(kind, i0, nr, j0, nc).points
    if draw(st.booleans()):  # absent cells that keep finite points
        grid = dataclasses.replace(grid, points=surface)
    tangent_node = surface[draw(st.integers(0, nr - 1)), draw(st.integers(0, nc - 1))]
    if draw(st.booleans()):
        theta = math.atan2(tangent_node[2] - H0, tangent_node[0])
        along = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(3.0, 10.0))
        camera = tangent_node + np.array(
            [-along * math.sin(theta), draw(st.floats(-2.0, 2.0)), along * math.cos(theta)]
        )
    else:
        camera = CAMERA + np.array(
            [draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 3.0)), draw(st.floats(-1.0, 1.0))]
        )
    shots = []
    for aim in draw(
        st.lists(st.sampled_from(["node", "rim", "margin", "graze", "away", "free"]), min_size=1, max_size=8)
    ):
        i = draw(st.integers(0, nr - 1))
        j = draw(st.integers(0, nc - 1))
        if aim == "rim":
            i = draw(st.sampled_from([0, nr - 1]))
        target = tangent_node if aim == "graze" else surface[i, j]
        if aim == "margin":
            # Half a cell beyond the rim, where edge patches extrapolate.
            shift = np.zeros(3)
            row_axis = 2 if kind == KIND_TAIL else 0
            shift[row_axis] = GRID_RESOLUTION / 2.0 * (-1.0 if i == 0 else 1.0)
            shift[1] = GRID_RESOLUTION / 2.0 * draw(st.sampled_from([-1.0, 0.0, 1.0]))
            target = target + shift
        pt = point_to_pantilt(target, camera, alpha_deg=0.0)
        pan, tilt = pt.pan_deg, pt.tilt_deg
        if aim == "graze":
            tilt += draw(st.floats(-0.2, 0.2))
        elif aim == "away":
            tilt = draw(st.floats(10.0, 80.0))
        elif aim == "free":
            pan += draw(st.floats(-5.0, 5.0))
            tilt += draw(st.floats(-5.0, 5.0))
        shots.append((pan, tilt))
    return grid, camera, shots


class TestBatchedCastMatchesReference:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(cast_cases())
    def test_bit_for_bit(self, case):
        grid, camera, shots = case
        pose = CameraPose(camera, quat_from_yaw_pitch(YAW))
        hits, missed = cast_to_surface(
            pose, [p for p, _ in shots], [t for _, t in shots], 0.0, grid
        )
        expected = [
            _reference_cast(Ray(camera, direction_from_pantilt(p, t)), grid) for p, t in shots
        ]
        assert missed.tolist() == [hit is None for hit in expected]
        for row, hit in zip(hits, expected):
            if hit is None:
                assert np.isnan(row).all()
            else:
                assert row.tobytes() == hit.tobytes()

    def test_bisection_stops_once_brackets_close(self, cyl_grid, cyl_plan, true_pose, monkeypatch):
        # One march call plus one call per bisection step: brackets reach
        # adjacent floats well before the 60-step cap on a 5 cm grid.
        import ptzscan.simulator as simulator

        calls = []

        def counting(grid, plane, pts):
            calls.append(len(pts))
            return _grid_offset(grid, plane, pts)

        monkeypatch.setattr(simulator, "_grid_offset", counting)
        [section] = cyl_plan.sections
        pans, tilts = section.pans.tolist(), section.tilts.tolist()
        hits, missed = cast_to_surface(true_pose, pans, tilts, 0.0, cyl_grid)
        assert 1 < len(calls) < 61
        assert not missed.any()
        for row, pan, tilt in zip(hits, pans, tilts):
            expected = _reference_cast(Ray(CAMERA, direction_from_pantilt(pan, tilt)), cyl_grid)
            assert row.tobytes() == expected.tobytes()


def _reference_grid_value(grid, a, b):
    """The lookup before the value plane: the four corners' ``valid`` flags
    gathered apart, and only on-lattice queries interpolated."""
    fr = (a - grid.row_values[0]) / GRID_RESOLUTION
    fc = (b - grid.col_values[0]) / GRID_RESOLUTION
    nr, nc = grid.shape
    out = np.full(fr.shape, np.nan)
    i0 = np.clip(np.floor(fr).astype(int), 0, max(nr - 2, 0))
    j0 = np.clip(np.floor(fc).astype(int), 0, max(nc - 2, 0))
    ok = (fr >= -0.5) & (fr <= nr - 0.5) & (fc >= -0.5) & (fc <= nc - 0.5)
    if nr < 2 or nc < 2 or not ok.any():
        return out
    i0k, j0k = i0[ok], j0[ok]
    corners_ok = (
        grid.valid[i0k, j0k]
        & grid.valid[i0k + 1, j0k]
        & grid.valid[i0k, j0k + 1]
        & grid.valid[i0k + 1, j0k + 1]
    )
    vi = grid.section.value_axis
    wa = fr[ok] - i0k
    wb = fc[ok] - j0k
    vals = (
        grid.points[i0k, j0k, vi] * (1 - wa) * (1 - wb)
        + grid.points[i0k + 1, j0k, vi] * wa * (1 - wb)
        + grid.points[i0k, j0k + 1, vi] * (1 - wa) * wb
        + grid.points[i0k + 1, j0k + 1, vi] * wa * wb
    )
    out[ok] = np.where(corners_ok, vals, np.nan)
    return out


def _reference_offset(grid, pts):
    spec = grid.section
    return pts[:, spec.value_axis] - _reference_grid_value(grid, pts[:, spec.row_axis], pts[:, 1])


def _lookup_coords(rng, values, n):
    """Coordinates along one grid axis: on lattice nodes, on and just past the
    half-cell rim, anywhere within a cell of the lattice, and far off it."""
    rim = np.array([-0.5, len(values) - 0.5, -0.5 - 1e-9, len(values) - 0.5 + 1e-9])
    choices = [
        rng.choice(values, n),
        values[0] + GRID_RESOLUTION * rng.choice(rim, n),
        values[0] + GRID_RESOLUTION * rng.uniform(-1.0, len(values), n),
        rng.choice([-1e300, -1e6, 1e6, 1e300], n),
    ]
    return np.choose(rng.integers(0, len(choices), n), choices)


class TestGridValueMatchesReference:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        kind=st.sampled_from([KIND_FUSELAGE, KIND_TAIL]),
        origin=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        present=st.sampled_from([1.0, 0.8, 0.5, 0.0]),
        stale=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_for_bit(self, shape, kind, origin, present, stale, seed):
        # Holes, one-row and one-column grids, rim and far-off queries; a
        # stale grid keeps finite points in its absent cells.
        rng = np.random.default_rng(seed)
        rows, cols = (o + GRID_RESOLUTION * np.arange(n) for o, n in zip(origin, shape))
        values = rng.normal(0.0, 2.0, shape)
        grid = lattice_grid(kind, rows, cols, lambda rr, cc: values, rng.random(shape) < present)
        if stale:
            grid = dataclasses.replace(grid, points=lattice_grid(kind, rows, cols, lambda rr, cc: values).points)
        a, b = _lookup_coords(rng, rows, 64), _lookup_coords(rng, cols, 64)
        with np.errstate(all="ignore"):  # the reference casts far-off floats to int
            expected = _reference_grid_value(grid, a, b)
        assert _grid_value(grid, _plane(grid), a, b).tobytes() == expected.tobytes()


def _with_first(array, row):
    """A copy of ``array`` whose first row is ``row``."""
    out = array.copy()
    out[0] = row
    return out


@pytest.fixture(scope="module")
def report(cyl_plan, true_pose, cyl_grid, cfg):
    cyl = CylinderModel(axis_height=H0, radius=R0)
    return execute_plan(
        cyl_plan, true_pose, true_pose, [cyl_grid], cfg, QUADRANT, cylinder=cyl
    )


@pytest.fixture(scope="module")
def small_grid():
    return cylinder_surface_grid(-1.5, 0.0, 0.5, 2.5, step=0.05, name="fuselage")


class TestExecutePlan:
    def test_counts_equal_plan_lengths(self, report, cyl_plan):
        assert report.image_count == len(cyl_plan)
        assert report.sections[0].image_count == len(cyl_plan.sections[0])
        assert report.image_count > 0

    def test_zero_pose_error_labels_are_exact(self, report):
        errs = report.errors()
        assert errs.size == report.image_count
        assert report.missed_count == 0
        assert errs.max() < 1e-9

    def test_grid_target_casts_hit_lattice_vertices(
        self, cyl_plan, true_pose, cyl_grid, cfg
    ):
        rep = execute_plan(cyl_plan, true_pose, true_pose, [cyl_grid], cfg, QUADRANT)
        assert rep.missed_count == 0
        assert rep.errors().max() < 1e-9

    def test_coverage_high_at_default_overlap(self, report):
        assert report.sections[0].coverage >= 0.99

    def test_overlap_stats_shape_and_range(self, report):
        ovl = report.sections[0].overlaps
        assert len(ovl) == report.sections[0].image_count - 1
        assert all(0.0 <= v <= 1.0 for v in ovl)
        assert np.median(ovl) > 0.0

    def test_empty_plan_yields_empty_report(self, true_pose, cyl_grid, cfg):
        empty = ScanPlan(sections=())
        rep = execute_plan(empty, true_pose, true_pose, [cyl_grid], cfg, QUADRANT)
        assert rep.image_count == 0 and rep.sections == ()
        zero_shots = ScanPlan(
            sections=(
                SectionPlan(
                    "fuselage", KIND_FUSELAGE, np.empty((0, 2), dtype=int), np.empty(0),
                    np.empty(0), np.empty((0, 3)),
                ),
            )
        )
        rep2 = execute_plan(zero_shots, true_pose, true_pose, [cyl_grid], cfg, QUADRANT)
        assert rep2.sections[0].coverage == 0.0
        assert rep2.errors().size == 0

    def test_hits_and_missed_follow_the_plan(self, report, cyl_plan):
        assert report.plan is cyl_plan
        assert report.hits.shape == (len(cyl_plan), 3) and report.missed.dtype == bool
        assert report.shot_errors.tobytes() == report.errors().tobytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda hits, missed: (hits[:-1], missed),
            lambda hits, missed: (np.vstack([hits, hits[:1]]), missed),
            lambda hits, missed: (hits[:, :2], missed),
            lambda hits, missed: (hits.ravel(), missed),
            lambda hits, missed: (hits, missed[:-1]),
            lambda hits, missed: (hits, missed[:, None]),
        ],
        ids=["hit-short", "hit-extra", "two-columns", "flat-hits", "flag-short", "flag-column"],
    )
    def test_arrays_that_do_not_fit_the_plan_raise(self, report, edit):
        hits, missed = edit(report.hits, report.missed)
        with pytest.raises(ValueError, match=f"for {len(report.plan)} shots"):
            SimulationReport(report.plan, report.sections, hits, missed)

    def test_unknown_section_rejected(self, cyl_plan, true_pose, cfg):
        other = cylinder_surface_grid(-1.0, 0.0, 0.0, 1.0, step=0.05, name="other")
        with pytest.raises(ValueError, match="unknown section"):
            execute_plan(cyl_plan, true_pose, true_pose, [other], cfg, QUADRANT)

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda cells, labels: (_with_first(cells, cells[0] + [0, 1]), labels),
             r"point 0: cell \(\d+, \d+\) holds another point than the label"),
            (lambda cells, labels: (cells, _with_first(labels, np.nextafter(labels[0], np.inf))),
             "point 0: .* holds another point than the label"),
            # Equal in value, but not bit for bit: the first column's y is 0.0.
            (lambda cells, labels: (cells, np.where(labels == 0.0, -0.0, labels)),
             "point 0: .* holds another point than the label"),
        ],
        ids=["neighbouring-cell", "label-one-ulp-off", "label-negative-zero"],
    )
    def test_plan_that_does_not_fit_its_grid_raises(
        self, cyl_plan, true_pose, cyl_grid, cfg, edit, where
    ):
        [section] = cyl_plan.sections
        cells, labels = edit(section.cells, section.labels)
        edited = dataclasses.replace(section, cells=cells, labels=labels)
        with pytest.raises(ValueError, match=where):
            execute_plan(ScanPlan((edited,)), true_pose, true_pose, [cyl_grid], cfg, QUADRANT)

    def test_deterministic_given_same_inputs(self, cyl_plan, true_pose, cyl_grid, cfg):
        cyl = CylinderModel(axis_height=H0, radius=R0)
        a = execute_plan(cyl_plan, true_pose, true_pose, [cyl_grid], cfg, QUADRANT, cylinder=cyl)
        b = execute_plan(cyl_plan, true_pose, true_pose, [cyl_grid], cfg, QUADRANT, cylinder=cyl)
        np.testing.assert_array_equal(a.errors(), b.errors())
        assert a.sections[0].coverage == b.sections[0].coverage

    def test_pose_offset_inflates_labels(self, cyl_grid, true_pose, cfg):
        est_pos = CAMERA + np.array([0.15, -0.1, 0.05])
        est_pose = CameraPose(est_pos, quat_from_yaw_pitch(YAW + 1.0))
        est_setup = QuadrantSetup(QUADRANT, YAW + 1.0, est_pos)
        u_est = grid_to_pantilt(cyl_grid, est_setup)
        plan = plan_full([(u_est, cyl_grid, KIND_FUSELAGE)], cfg, QUADRANT)
        cyl = CylinderModel(axis_height=H0, radius=R0)
        rep = execute_plan(plan, true_pose, est_pose, [cyl_grid], cfg, QUADRANT, cylinder=cyl)
        errs = rep.errors()
        assert errs.size > 0
        assert 1e-4 < np.median(errs) < 2.0

    def test_coverage_grows_with_overlap(self, cyl_grid, true_pose, true_setup):
        # Coarse mu ladder: nearby mu values can trade fractions of a
        # percent as row phases shift, but more overlap never loses
        # coverage at this granularity.
        u = grid_to_pantilt(cyl_grid, true_setup)
        cyl = CylinderModel(axis_height=H0, radius=R0)
        coverages = []
        for mu in (0.0, 0.15, 0.45):
            c = ScanConfig(hfov_deg=6.15, vfov_deg=3.46, mu=mu)
            plan = plan_full([(u, cyl_grid, KIND_FUSELAGE)], c, QUADRANT)
            rep = execute_plan(plan, true_pose, true_pose, [cyl_grid], c, QUADRANT, cylinder=cyl)
            coverages.append(rep.sections[0].coverage)
        assert coverages == sorted(coverages)
        assert coverages[-1] == 1.0


class TestErrorPropagation:
    def test_deterministic_per_seed(self, small_grid, true_pose, cfg):
        cyl = CylinderModel(axis_height=H0, radius=R0)
        kw = dict(cylinder=cyl)
        a = error_propagation(true_pose, [small_grid], cfg, QUADRANT, 0.1, 1.0, 5, seed=7, **kw)
        b = error_propagation(true_pose, [small_grid], cfg, QUADRANT, 0.1, 1.0, 5, seed=7, **kw)
        np.testing.assert_array_equal(a.all_errors_m, b.all_errors_m)
        c = error_propagation(true_pose, [small_grid], cfg, QUADRANT, 0.1, 1.0, 5, seed=8, **kw)
        assert not np.array_equal(a.all_errors_m, c.all_errors_m)

    def test_draw_records(self, small_grid, true_pose, cfg):
        study = error_propagation(
            true_pose, [small_grid], cfg, QUADRANT, 0.24, 2.0, 10, seed=3,
            cylinder=CylinderModel(axis_height=H0, radius=R0),
        )
        assert [d.draw for d in study.draws] == list(range(10))
        assert all(d.position_error_m > 0.0 for d in study.draws)
        assert all(d.image_count > 0 for d in study.draws)
        assert 0.001 < study.error_median_m < 5.0
        assert study.error_rmse_m >= study.error_median_m * 0.1

    def test_zero_noise_matches_direct_run(self, small_grid, true_pose, cfg):
        cyl = CylinderModel(axis_height=H0, radius=R0)
        setup = QuadrantSetup(QUADRANT, YAW, CAMERA)
        u = grid_to_pantilt(small_grid, setup)
        plan = plan_full([(u, small_grid, KIND_FUSELAGE)], cfg, QUADRANT)
        direct = execute_plan(plan, true_pose, true_pose, [small_grid], cfg, QUADRANT, cylinder=cyl)
        study = error_propagation(
            true_pose, [small_grid], cfg, QUADRANT, 0.0, 0.0, 3, seed=11, cylinder=cyl
        )
        for d in study.draws:
            assert d.image_count == direct.image_count
            assert d.missed_count == direct.missed_count
            assert abs(d.label_error_median_m - direct.label_error_median_m) < 1e-9
            assert d.coverage_min == direct.sections[0].coverage

    def test_yaw_error_wraps_across_the_seam(self, small_grid, cfg):
        # Draws around a true yaw of 179.5 deg land on both sides of +/-180;
        # unwrapped, those just across the seam read about 359 deg.
        pose = CameraPose(CAMERA, quat_from_yaw_pitch(179.5))
        with pytest.warns(YawToleranceWarning):
            study = error_propagation(
                pose, [small_grid], cfg, QUADRANT, 0.0, 2.0, 8, seed=1,
                cylinder=CylinderModel(axis_height=H0, radius=R0),
            )
        assert all(d.yaw_error_deg < 20.0 for d in study.draws)

    def test_requires_at_least_one_draw(self, small_grid, true_pose, cfg):
        with pytest.raises(ValueError, match="at least one draw"):
            error_propagation(true_pose, [small_grid], cfg, QUADRANT, 0.1, 1.0, 0, seed=1)
