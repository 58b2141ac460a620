"""Tests for Cartesian-to-pan/tilt conversion and quadrant setup."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptzscan.geometry import vec3, wrap_degrees
from ptzscan.pantilt import (
    QUADRANT_PAN_OFFSETS,
    PanTilt,
    PanTiltGrid,
    QuadrantSetup,
    YawToleranceWarning,
    compute_alpha,
    direction_from_pantilt,
    grid_to_pantilt,
    point_to_pantilt,
)
from ptzscan.surface import PointCloud, SectionSpec, SurfaceGrid, interpolate_section

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)


def _reference_pantilt(d, alpha_deg):
    """Pan and tilt of one displacement, the scalar way: numpy atan2, hypot
    and degrees on scalars, then ``wrap_degrees``."""
    horizontal = float(np.hypot(d[0], d[1]))
    pan = wrap_degrees(float(np.degrees(np.arctan2(d[1], d[0]))) - alpha_deg)
    tilt = float(np.degrees(np.arctan2(d[2], horizontal)))
    return pan, tilt


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


# Axis-aligned components put pans exactly on 0, +/-90 and +/-180 degrees.
COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-50.0, 50.0))
DISPLACEMENT = st.tuples(COORD, COORD, COORD).map(np.array).filter(lambda d: d.any())
CAMERA = st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(*[st.floats(-20.0, 20.0)] * 3))
# Yaws giving each quadrant alpha = 0 or alpha = 180 (the wrapped -180).
YAWS_AT_SEAM = {y for b in QUADRANT_PAN_OFFSETS.values() for y in (b, b - 180.0, b + 180.0)}


def _alphas(azimuth):
    """Alpha anywhere, or putting pan = azimuth - alpha on or beside the seam."""
    seam = st.sampled_from([-180.0, 180.0, 540.0])
    offset = st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9])
    at_seam = st.tuples(seam, offset).map(lambda so: azimuth - so[0] + so[1])
    return st.one_of(st.floats(-720.0, 720.0), at_seam)


class TestComputeAlpha:
    def test_nominal_quadrant_three(self):
        setup = QuadrantSetup(3, 20.0, vec3(-7, 2, 7))
        assert compute_alpha(setup) == 0.0

    def test_five_degree_offset(self):
        setup = QuadrantSetup(3, 25.0, vec3(-7, 2, 7))
        assert compute_alpha(setup) == pytest.approx(5.0, abs=1e-12)

    def test_quadrant_four_nominal(self):
        setup = QuadrantSetup(4, -10.0, vec3(-7, -2, 7))
        assert compute_alpha(setup) == 0.0

    def test_all_nominal_offsets(self):
        for q, beta in QUADRANT_PAN_OFFSETS.items():
            assert compute_alpha(QuadrantSetup(q, beta, vec3(0, 0, 0))) == 0.0

    def test_out_of_tolerance_warns(self):
        setup = QuadrantSetup(1, 25.0, vec3(0, 0, 0))
        with pytest.warns(YawToleranceWarning):
            assert compute_alpha(setup) == pytest.approx(15.0)

    def test_within_tolerance_silent(self, recwarn):
        compute_alpha(QuadrantSetup(2, -12.0, vec3(0, 0, 0)))
        assert not [w for w in recwarn if issubclass(w.category, YawToleranceWarning)]

    def test_invalid_quadrant(self):
        with pytest.raises(ValueError):
            QuadrantSetup(5, 0.0, vec3(0, 0, 0))


class TestPointToPanTilt:
    def test_straight_ahead(self):
        pt = point_to_pantilt(vec3(10, 0, 0), vec3(0, 0, 0), 0.0)
        assert pt.pan_deg == 0.0
        assert pt.tilt_deg == 0.0

    def test_diagonal_with_alpha(self):
        pt = point_to_pantilt(vec3(10, 10, 0), vec3(0, 0, 0), 5.0)
        assert pt.pan_deg == pytest.approx(40.0, abs=1e-12)
        assert pt.tilt_deg == 0.0

    def test_downward_tilt(self):
        pt = point_to_pantilt(vec3(10, 0, -10), vec3(0, 0, 0), 0.0)
        assert pt.tilt_deg == pytest.approx(-45.0, abs=1e-12)

    def test_zero_displacement_rejected(self):
        with pytest.raises(ValueError):
            point_to_pantilt(vec3(1, 2, 3), vec3(1, 2, 3), 0.0)

    def test_straight_down_is_negative_ninety(self):
        pt = point_to_pantilt(vec3(0, 0, -5), vec3(0, 0, 0), 0.0)
        assert pt.tilt_deg == -90.0

    def test_round_trip_ray_passes_through_point(self):
        rng = np.random.default_rng(47)
        for _ in range(2000):
            cam = vec3(*rng.uniform(-10, 10, 3))
            target = vec3(*rng.uniform(-10, 10, 3))
            if np.allclose(cam, target):
                continue
            alpha = rng.uniform(-15, 15)
            pt = point_to_pantilt(target, cam, alpha)
            d = direction_from_pantilt(pt.pan_deg, pt.tilt_deg, alpha)
            r = target - cam
            miss = np.linalg.norm(r - np.dot(r, d) * d)
            assert miss < 1e-9

    @SETTINGS
    @given(DISPLACEMENT, CAMERA, st.data())
    def test_matches_reference_bit_for_bit(self, d, camera, data):
        camera = np.array(camera)
        point = camera + d
        d = point - camera
        assume(d.any())
        alpha = data.draw(_alphas(float(np.degrees(np.arctan2(d[1], d[0])))))
        pt = point_to_pantilt(point, camera, alpha)
        assert _bits(pt.pan_deg, pt.tilt_deg) == _bits(*_reference_pantilt(d, alpha))

    def test_alpha_equivariance_is_exact(self):
        # Pan depends on alpha only through one wrapped subtraction, so
        # shifting by alpha reproduces the alpha = 0 pan bit-for-bit.
        rng = np.random.default_rng(53)
        for _ in range(2000):
            cam = vec3(*rng.uniform(-10, 10, 3))
            target = vec3(*rng.uniform(-10, 10, 3))
            if np.allclose(cam[:2], target[:2]):
                continue
            alpha = rng.uniform(-180, 180)
            shifted = point_to_pantilt(target, cam, alpha)
            base = point_to_pantilt(target, cam, 0.0)
            assert shifted.pan_deg == wrap_degrees(base.pan_deg - alpha)
            assert shifted.tilt_deg == base.tilt_deg


class TestPanTiltType:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            PanTilt(200.0, 0.0)
        with pytest.raises(ValueError):
            PanTilt(0.0, 95.0)
        with pytest.raises(ValueError):
            PanTilt(-180.0, 0.0)

    def test_boundary_pan(self):
        assert PanTilt(180.0, 0.0).pan_deg == 180.0


class TestGridToPanTilt:
    def make_grid(self, pts: np.ndarray):
        spec = SectionSpec("s", "fuselage", (-100, -100, -100), (100, 100, 100))
        return interpolate_section(PointCloud(pts), spec)

    def test_matches_scalar_conversion(self):
        rng = np.random.default_rng(59)
        xy = rng.uniform([0.0, 0.0], [2.0, 4.0], size=(200, 2))
        z = 6.0 + 0.2 * xy[:, 0] - 0.1 * xy[:, 1]
        grid = self.make_grid(np.column_stack([xy, z]))
        setup = QuadrantSetup(3, 24.0, vec3(-6.0, 1.0, 7.0))
        u = grid_to_pantilt(grid, setup)
        assert u.shape == grid.shape
        np.testing.assert_array_equal(u.valid, grid.valid)
        alpha = compute_alpha(setup)
        for i in range(grid.shape[0]):
            for j in range(grid.shape[1]):
                cell = u.cell(i, j)
                if cell is None:
                    assert not grid.valid[i, j]
                    continue
                expected = _reference_pantilt(grid.points[i, j] - setup.camera_position, alpha)
                assert _bits(cell.pan_deg, cell.tilt_deg) == _bits(*expected)

    @SETTINGS
    @given(
        st.lists(DISPLACEMENT, min_size=1, max_size=12),
        st.lists(st.booleans(), min_size=12, max_size=12),
        st.sampled_from(sorted(QUADRANT_PAN_OFFSETS)),
        st.one_of(st.sampled_from(sorted(YAWS_AT_SEAM)), st.floats(-180.0, 180.0)),
        CAMERA,
    )
    def test_matches_reference_bit_for_bit(self, ds, valid, quadrant, yaw, camera):
        n = len(ds)
        valid = np.array(valid[:n]).reshape(n, 1)
        points = (np.array(camera) + np.array(ds)).reshape(n, 1, 3)
        points[~valid] = np.nan
        spec = SectionSpec("s", "fuselage", (-100, -100, -100), (100, 100, 100))
        grid = SurfaceGrid(spec, np.arange(n) * 0.05, np.zeros(1), points, valid)
        setup = QuadrantSetup(quadrant, yaw, np.array(camera))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", YawToleranceWarning)
            u = grid_to_pantilt(grid, setup)
            alpha = compute_alpha(setup)
        np.testing.assert_array_equal(u.valid, valid)
        assert np.isnan(u.pans[~valid]).all() and np.isnan(u.tilts[~valid]).all()
        for i in np.flatnonzero(valid):
            expected = _reference_pantilt(points[i, 0] - setup.camera_position, alpha)
            assert _bits(u.pans[i, 0], u.tilts[i, 0]) == _bits(*expected)

    def test_elevated_camera_sees_negative_tilts(self):
        # Camera mounted well above a low horizontal patch: every present
        # cell should need a downward tilt.
        rng = np.random.default_rng(61)
        xy = rng.uniform([-2.0, 0.0], [0.0, 10.0], size=(400, 2))
        z = 2.0 + np.sqrt(np.clip(4.0 - xy[:, 0] ** 2, 0.0, None))
        grid = self.make_grid(np.column_stack([xy, z]))
        setup = QuadrantSetup(3, 20.0, vec3(-7.0, 2.0, 7.0))
        u = grid_to_pantilt(grid, setup)
        assert np.all(u.tilts[u.valid] < 0.0)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            PanTiltGrid(np.zeros((2, 2)), np.zeros((2, 3)), np.ones((2, 2), dtype=bool))

    def test_out_of_range_cell_raises(self):
        u = PanTiltGrid(np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2), dtype=bool))
        with pytest.raises(IndexError):
            u.cell(2, 0)
