"""Tests for scene geometry: quaternions, view rays, cylinder intersection."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptzscan.geometry as geometry
from ptzscan.geometry import (
    FORWARD,
    T_MIN,
    AxisParallelRayError,
    BehindCameraError,
    CameraPose,
    CylinderModel,
    GimbalLockWarning,
    NoIntersectionError,
    Ray,
    angular_distance,
    intersect_cylinder,
    quat_from_axis_angle,
    quat_from_yaw_pitch,
    quat_multiply,
    quat_to_matrix,
    rotate_vector,
    vec3,
    view_ray,
    wrap_degrees,
    yaw_from_quaternion,
)


def random_unit_quaternion(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def normalized(*q):
    q = np.array(q, dtype=np.float64)
    return q / np.linalg.norm(q)


def surface_residual(cyl, point):
    """Signed residual of the cylinder's surface equation at ``point`` (m^2)."""
    return point[0] ** 2 + (point[2] - cyl.axis_height) ** 2 - cyl.radius**2


def random_unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestQuaternionToolkit:
    def test_rotate_matches_matrix(self):
        # Oracle: quaternion rotation must agree with the equivalent
        # rotation matrix applied to the same vector.
        rng = np.random.default_rng(7)
        for _ in range(1000):
            q = random_unit_quaternion(rng)
            v = rng.normal(size=3) * 10.0
            np.testing.assert_allclose(
                rotate_vector(q, v), quat_to_matrix(q) @ v, atol=1e-12
            )

    def test_rotate_preserves_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            q = random_unit_quaternion(rng)
            v = rng.normal(size=3)
            assert np.linalg.norm(rotate_vector(q, v)) == pytest.approx(
                np.linalg.norm(v), abs=1e-12
            )

    def test_multiply_composes_rotations(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = random_unit_quaternion(rng)
            b = random_unit_quaternion(rng)
            v = rng.normal(size=3)
            np.testing.assert_allclose(
                rotate_vector(quat_multiply(a, b), v),
                rotate_vector(a, rotate_vector(b, v)),
                atol=1e-12,
            )

    def test_axis_angle_quarter_turn(self):
        q = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 90.0)
        np.testing.assert_allclose(
            rotate_vector(q, np.array([1.0, 0.0, 0.0])), [0.0, 1.0, 0.0], atol=1e-15
        )


class TestCheckedWhereBuilt:
    """Each rule lives in the constructor of the value it guards; the
    kernels that take a built value check nothing again."""

    @pytest.mark.parametrize(
        "position, orientation, message",
        [
            ([0.0, 0.0], [1.0, 0.0, 0.0, 0.0], r"^position must have shape \(3,\), got \(2,\)$"),
            ([math.inf, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], r"^vector must have a finite norm"),
            ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], r"^quaternion must have shape \(4,\), got \(3,\)$"),
            ([0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], r"^quaternion is not normalized \(norm 1\.41"),
            ([0.0, 0.0, 0.0], [math.nan, 0.0, 0.0, 0.0], r"^quaternion is not normalized \(norm nan\)$"),
        ],
        ids=["position-shape", "position-norm", "quaternion-shape", "not-unit", "nan"],
    )
    def test_camera_pose_refuses(self, position, orientation, message):
        with pytest.raises(ValueError, match=message):
            CameraPose(position, orientation)

    @pytest.mark.parametrize(
        "origin, direction, message",
        [
            ([0.0, 0.0], [1.0, 0.0, 0.0], r"^origin must have shape \(3,\), got \(2,\)$"),
            ([0.0, math.nan, 0.0], [1.0, 0.0, 0.0], r"^vector must have a finite norm"),
            ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], r"^ray direction must have shape \(3,\)"),
            ([0.0, 0.0, 0.0], [1.0, 1.0, 0.0], r"^ray direction must be unit length \(norm 1\.41"),
        ],
        ids=["origin-shape", "origin-norm", "direction-shape", "not-unit"],
    )
    def test_ray_refuses(self, origin, direction, message):
        with pytest.raises(ValueError, match=message):
            Ray(origin, direction)

    def test_kernels_take_the_pose_values_unchecked(self, monkeypatch):
        """rotate_vector and yaw_from_quaternion never take a norm: a pose's
        orientation was checked when the pose was built."""
        pose = CameraPose(vec3(-7.0, 1.0, 6.0), quat_from_yaw_pitch(20.0, 15.0))

        def refuse(v):
            raise AssertionError("a kernel took a norm")

        monkeypatch.setattr(geometry, "vector_norm", refuse)
        assert yaw_from_quaternion(pose.orientation) == pytest.approx(20.0, abs=1e-9)
        assert rotate_vector(pose.orientation, FORWARD)[2] == pytest.approx(
            -math.sin(math.radians(15.0)), abs=1e-12
        )


class TestYawExtraction:
    def test_pure_yaw_round_trip(self):
        for yaw in [-179.0, -90.0, -30.5, 0.0, 12.25, 90.0, 180.0]:
            q = quat_from_yaw_pitch(yaw)
            assert yaw_from_quaternion(q) == pytest.approx(yaw, abs=1e-9)

    def test_yaw_with_pitch_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            yaw = rng.uniform(-179.9, 179.9)
            pitch = rng.uniform(-80.0, 80.0)
            q = quat_from_yaw_pitch(yaw, pitch)
            assert yaw_from_quaternion(q) == pytest.approx(yaw, abs=1e-9)

    def test_gimbal_lock_warns(self):
        q = quat_from_yaw_pitch(40.0, 90.0)
        with pytest.warns(GimbalLockWarning):
            yaw = yaw_from_quaternion(q)
        assert yaw == pytest.approx(40.0, abs=1e-6)

    def test_sign_flip_same_rotation(self):
        q = quat_from_yaw_pitch(73.0, 10.0)
        assert yaw_from_quaternion(-q) == pytest.approx(73.0, abs=1e-9)


class TestAngularDistance:
    def test_identical_is_zero(self):
        q = normalized(0.3, 0.1, -0.4, 0.8)
        assert angular_distance(q, q) == 0.0

    def test_sign_flip_is_zero(self):
        q = normalized(0.3, 0.1, -0.4, 0.8)
        assert angular_distance(q, -q) == 0.0

    def test_known_rotation_angle(self):
        q1 = quat_from_yaw_pitch(0.0)
        for angle in [1.0, 10.0, 45.0, 90.0, 179.0]:
            q2 = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), angle)
            assert angular_distance(q1, q2) == pytest.approx(angle, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = random_unit_quaternion(rng)
            b = random_unit_quaternion(rng)
            assert angular_distance(a, b) == pytest.approx(
                angular_distance(b, a), abs=1e-12
            )


class TestWrapDegrees:
    @pytest.mark.parametrize(
        "raw, wrapped",
        [
            (0.0, 0.0),
            (180.0, 180.0),
            (-180.0, 180.0),
            (181.0, -179.0),
            (-181.0, 179.0),
            (540.0, 180.0),
            (360.0, 0.0),
            (-359.0, 1.0),
        ],
    )
    def test_values(self, raw, wrapped):
        assert wrap_degrees(raw) == pytest.approx(wrapped, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(41)
        for a in rng.uniform(-1000.0, 1000.0, size=500):
            w = wrap_degrees(a)
            assert -180.0 < w <= 180.0
            # Same angle modulo 360.
            assert math.isclose((w - a) % 360.0, 0.0, abs_tol=1e-9) or math.isclose(
                (w - a) % 360.0, 360.0, abs_tol=1e-9
            )


class TestViewRay:
    def test_identity_orientation_points_forward(self):
        pose = CameraPose(vec3(-10.0, 0.0, 2.0), normalized(1, 0, 0, 0))
        ray = view_ray(pose)
        np.testing.assert_allclose(ray.origin, [-10.0, 0.0, 2.0])
        np.testing.assert_allclose(ray.direction, FORWARD)

    def test_yawed_pose(self):
        pose = CameraPose(vec3(0.0, 0.0, 0.0), quat_from_yaw_pitch(90.0))
        np.testing.assert_allclose(view_ray(pose).direction, [0.0, 1.0, 0.0], atol=1e-15)

    def test_pitched_pose_looks_down(self):
        pose = CameraPose(vec3(0.0, 0.0, 5.0), quat_from_yaw_pitch(0.0, 30.0))
        d = view_ray(pose).direction
        assert d[2] == pytest.approx(-0.5, abs=1e-12)
        assert d[0] == pytest.approx(math.cos(math.radians(30.0)), abs=1e-12)


class TestCylinderIntersection:
    def test_head_on_hit(self):
        cyl = CylinderModel(axis_height=2.0, radius=2.0)
        ray = Ray(vec3(-10.0, 0.0, 2.0), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(intersect_cylinder(ray, cyl), [-2.0, 0.0, 2.0], atol=1e-12)

    def test_miss_raises(self):
        cyl = CylinderModel(axis_height=2.0, radius=2.0)
        ray = Ray(vec3(-10.0, 0.0, 10.0), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(NoIntersectionError):
            intersect_cylinder(ray, cyl)

    def test_behind_camera_raises(self):
        cyl = CylinderModel(axis_height=2.0, radius=2.0)
        ray = Ray(vec3(-10.0, 0.0, 2.0), np.array([-1.0, 0.0, 0.0]))
        with pytest.raises(BehindCameraError):
            intersect_cylinder(ray, cyl)

    def test_behind_camera_message_names_plain_roots(self):
        cyl = CylinderModel(axis_height=2.0, radius=2.0)
        ray = Ray(vec3(-10.0, 0.0, 2.0), np.array([-1.0, 0.0, 0.0]))
        with pytest.raises(BehindCameraError) as info:
            intersect_cylinder(ray, cyl)
        assert str(info.value) == "both intersections behind the camera (t = [-12.0, -8.0])"

    def test_axis_parallel_raises(self):
        cyl = CylinderModel(axis_height=2.0, radius=2.0)
        ray = Ray(vec3(0.0, -10.0, 2.0), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(AxisParallelRayError):
            intersect_cylinder(ray, cyl)

    def test_origin_inside_exits_surface(self):
        cyl = CylinderModel(axis_height=2.0, radius=2.0)
        ray = Ray(vec3(0.0, 0.0, 2.0), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(intersect_cylinder(ray, cyl), [2.0, 0.0, 2.0], atol=1e-12)

    def test_result_on_surface(self):
        cyl = CylinderModel(axis_height=6.0, radius=2.0)
        rng = np.random.default_rng(55)
        hits = 0
        while hits < 300:
            origin = vec3(rng.uniform(-12, -5), rng.uniform(-10, 10), rng.uniform(1, 10))
            target = vec3(
                rng.uniform(-1.5, 1.5), rng.uniform(-10, 10), 6.0 + rng.uniform(-1.5, 1.5)
            )
            d = target - origin
            ray = Ray(origin, d / np.linalg.norm(d))
            try:
                p = intersect_cylinder(ray, cyl)
            except NoIntersectionError:
                continue
            assert abs(surface_residual(cyl, p)) < 1e-9
            # Nearest hit: the point faces the camera side of the axis.
            assert np.dot(p - origin, ray.direction) > T_MIN
            hits += 1

    def test_tangent_ray(self):
        # Grazing ray along the top of the cylinder: single contact point.
        cyl = CylinderModel(axis_height=2.0, radius=2.0)
        ray = Ray(vec3(-10.0, 0.0, 4.0), np.array([1.0, 0.0, 0.0]))
        p = intersect_cylinder(ray, cyl)
        np.testing.assert_allclose(p, [0.0, 0.0, 4.0], atol=1e-6)

    def test_invalid_cylinder_rejected(self):
        with pytest.raises(ValueError):
            CylinderModel(axis_height=2.0, radius=0.0)
        with pytest.raises(ValueError):
            CylinderModel(axis_height=math.nan, radius=1.0)

    @pytest.mark.parametrize("radius", [1e200, np.float64(1e200), 1.4e154])
    def test_radius_whose_square_overflows_rejected(self, radius):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite square"):
                CylinderModel(axis_height=2.0, radius=radius)

    def test_overflowing_quadratic_is_a_miss_without_warnings(self):
        # b * b overflows for a position norm above about 1.3e154.
        cyl = CylinderModel(axis_height=2.0, radius=2.0)
        ray = Ray(vec3(1.3e154, 1.0, 2.0), np.array([-1.0, 0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoIntersectionError, match="overflows"):
                intersect_cylinder(ray, cyl)


def _numpy_scalar_intersection(ray, cylinder):
    """``intersect_cylinder``'s formula on numpy scalars, as it stood before it
    moved to Python floats: the hit point, or the error class it raised."""
    ox, oz = ray.origin[0], ray.origin[2] - cylinder.axis_height
    vx, vz = ray.direction[0], ray.direction[2]
    a = vx * vx + vz * vz
    b = 2.0 * (ox * vx + oz * vz)
    c = ox * ox + oz * oz - cylinder.radius**2
    if a == 0.0:
        return AxisParallelRayError
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return NoIntersectionError
    sq = math.sqrt(disc)
    qv = -0.5 * (b + sq) if b >= 0.0 else -0.5 * (b - sq)
    roots = sorted((qv / a, c / qv)) if qv != 0.0 else sorted((0.0, -b / a))
    for t in roots:
        if t > T_MIN:
            return ray.at(t)
    return BehindCameraError


coordinate = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 2.0, -2.0]), st.floats(-1e6, 1e6))
component = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-9]), st.floats(-1.0, 1.0))


@st.composite
def free_rays(draw):
    d = np.array([draw(component) for _ in range(3)])
    n = np.linalg.norm(d)
    d = d / n if n > 1e-150 else np.array([0.0, 1.0, 0.0])
    return Ray(vec3(*(draw(coordinate) for _ in range(3))), d)


@st.composite
def grazing_rays(draw, cylinder):
    """Rays through a point of the surface along its tangent, so the
    discriminant sits at zero up to rounding."""
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    r, h = cylinder.radius, cylinder.axis_height
    point = np.array([r * math.cos(phi), draw(coordinate), h + r * math.sin(phi)])
    d = np.array([-math.sin(phi), draw(st.floats(-1.0, 1.0)), math.cos(phi)])
    d /= np.linalg.norm(d)
    return Ray(point - draw(st.floats(-50.0, 50.0)) * d, d)


@st.composite
def cylinders_and_rays(draw):
    cylinder = CylinderModel(
        axis_height=draw(st.floats(-1e3, 1e3)), radius=draw(st.floats(1e-3, 1e3))
    )
    return cylinder, draw(st.one_of(free_rays(), grazing_rays(cylinder)))


class TestIntersectionMatchesNumpyScalars:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(cylinders_and_rays())
    def test_bit_for_bit(self, case):
        cylinder, ray = case
        expected = _numpy_scalar_intersection(ray, cylinder)
        if isinstance(expected, type):
            with pytest.raises(expected):
                intersect_cylinder(ray, cylinder)
        else:
            got = intersect_cylinder(ray, cylinder)
            assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()


class TestRayMarchOracle:
    """Cross-check the closed-form intersection against brute-force marching."""

    def march(self, ray, cyl, t_max=60.0, step=1e-3):
        # Find the first sign change of the surface residual, then bisect.
        ts = np.arange(0.0, t_max, step)
        pts = ray.origin[None, :] + ts[:, None] * ray.direction[None, :]
        res = pts[:, 0] ** 2 + (pts[:, 2] - cyl.axis_height) ** 2 - cyl.radius**2
        sign_change = np.nonzero((res[:-1] > 0.0) & (res[1:] <= 0.0))[0]
        if sign_change.size == 0:
            return None
        lo, hi = ts[sign_change[0]], ts[sign_change[0] + 1]
        f = lambda t: surface_residual(cyl, ray.at(t))
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_against_march(self):
        cyl = CylinderModel(axis_height=6.25, radius=2.0)
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 60:
            origin = vec3(rng.uniform(-9, -6), rng.uniform(-3, 3), rng.uniform(5, 8))
            yaw = rng.uniform(-25.0, 25.0)
            pitch = rng.uniform(-25.0, 25.0)
            ray = view_ray(CameraPose(origin, quat_from_yaw_pitch(yaw, pitch)))
            t_march = self.march(ray, cyl)
            try:
                p = intersect_cylinder(ray, cyl)
            except NoIntersectionError:
                assert t_march is None
                continue
            assert t_march is not None
            np.testing.assert_allclose(p, ray.at(t_march), atol=1e-6)
            checked += 1
