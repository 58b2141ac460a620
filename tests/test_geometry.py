"""Tests for scene geometry: quaternions, view rays, cylinder intersection."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ptzscan.geometry as geometry
from ptzscan.geometry import (
    FORWARD,
    T_MIN,
    AxisParallelRayError,
    BehindCameraError,
    CameraPose,
    CylinderIntersectionError,
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
    vector_norm,
    view_ray,
    wrap_degrees,
    yaw_from_quaternion,
)
from ptzscan.losses import PoseSample


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


# The checks the one stacked home replaced, copied verbatim from the scalar
# code (``_finite_vec3``, ``_unit`` and ``PoseSample.__post_init__``): the
# reference that ``geometry._check_rows`` is held to, row by row.
_UNIT_TOL = 1e-9


def _finite_vec3(v, name: str = "vector") -> np.ndarray:
    """``v`` as a new float64 3-vector, refused unless its norm is finite."""
    v = np.array(v, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {v.shape}")
    x, y, z = v.tolist()
    if not math.isfinite(x * x + y * y + z * z):  # overflows to inf without numpy's warning
        raise ValueError(f"vector must have a finite norm, got {v}")
    return v


def _unit(v, name: str, size: int, failure: str) -> np.ndarray:
    """``v`` as a float64 ``size``-vector, refused unless its norm is 1 to within ``_UNIT_TOL``."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {v.shape}")
    n = vector_norm(v)
    if not math.isfinite(n) or abs(n - 1.0) > _UNIT_TOL:
        raise ValueError(f"{name} {failure} (norm {n})")
    return v


def _sample_checks(true_position, predicted_position, predicted_orientation_raw):
    """``PoseSample.__post_init__``'s checks, its predicted ``CameraPose``'s
    included, given the true pose's position: the normalised quaternion."""
    raw = np.asarray(predicted_orientation_raw, dtype=np.float64)
    if raw.shape != (4,):
        raise ValueError(f"raw orientation must have shape (4,), got {raw.shape}")
    if not 0.0 < (norm := vector_norm(raw)) < math.inf:  # a NaN or infinite component fails too
        raise ValueError("raw orientation must be finite with a finite, nonzero norm")
    position = _finite_vec3(predicted_position, "position")
    unit = _unit(raw / norm, "quaternion", 4, "is not normalized")
    if not math.isfinite(vector_norm(true_position - position)):
        raise ValueError("position error must have a finite norm")
    return unit


def _pose_checks(position, orientation):
    _finite_vec3(position, "position")
    return _unit(orientation, "quaternion", 4, "is not normalized")


def _ray_checks(origin, direction):
    _finite_vec3(origin, "origin")
    return _unit(direction, "ray direction", 3, "must be unit length")


def _outcome(build):
    """The message of the ValueError ``build()`` raises, or None."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


def _reference(checks, *stacks):
    """Each row's result under the scalar ``checks`` (its unit vector, or the
    message refusing it), and the first refused row's (index, message) or None."""
    results = []
    with np.errstate(all="ignore"):  # the scalar checks warned as they refused
        for row in zip(*stacks):
            try:
                results.append(checks(*row))
            except ValueError as exc:
                results.append(str(exc))
    refused = [(i, r) for i, r in enumerate(results) if isinstance(r, str)]
    return results, refused[0] if refused else None


def _edge(size: int):
    """Components of a ``size``-vector whose squared norm is within a few ulps of
    overflowing (about 7.7e153 for three)."""
    edge = math.sqrt(sys.float_info.max / size)
    return st.builds(lambda k, sign: sign * edge * (1.0 + k * 2.0**-52),
                     st.integers(-8, 8), st.sampled_from([1.0, -1.0]))


def _vectors(size: int):
    """Ordinary, overflowing, underflowing and non-finite ``size``-vectors."""
    special = st.sampled_from([0.0, -0.0, 5e-324, 3e-162, 1e-160, 1e154, -1e200, 1.7e308,
                               math.inf, -math.inf, math.nan])
    return st.one_of(
        st.lists(st.one_of(st.floats(-50.0, 50.0), special), min_size=size, max_size=size),
        st.lists(_edge(size), min_size=size, max_size=size),
    )


@st.composite
def _unitish(draw, size: int):
    """A ``size``-vector whose norm is 1, or within a few ulps of the 1e-9
    tolerance either side; or, now and then, any of ``_vectors``."""
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)))
    if draw(st.integers(0, 4)) == 0 or not np.linalg.norm(v) > 1e-3:
        return draw(_vectors(size))
    edge = draw(st.sampled_from([0.0, 1e-9, -1e-9]))
    scale = 1.0 + edge + draw(st.integers(-8, 8)) * 2.0**-52
    return (scale * v / np.linalg.norm(v)).tolist()


def _stacks(*columns):
    """Rows drawn from ``columns``, one to 12 of them, as one float64 stack a column."""
    rows = st.integers(1, 12).flatmap(
        lambda n: st.lists(st.tuples(*columns), min_size=n, max_size=n))
    return rows.map(lambda rows: [np.array(c, dtype=np.float64) for c in zip(*rows)])


class TestOneHomeOfThePoseChecks:
    """``_check_rows`` makes every decision the scalar checks made, on every
    row of a stack: it refuses the first row they refuse, with their message,
    and normalises each raw quaternion to their bits."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_stacks(_vectors(3), _unitish(4)))
    def test_poses(self, stacks):
        positions, orientations = stacks
        assert geometry._check_rows(positions, orientations)[1] == _reference(_pose_checks, *stacks)[1]

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_stacks(_vectors(3), _unitish(3)))
    def test_rays(self, stacks):
        checked = geometry._check_rows(*stacks, failure="ray direction must be unit length")
        assert checked[1] == _reference(_ray_checks, *stacks)[1]

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_stacks(_vectors(3), _vectors(3), _unitish(4)))
    def test_samples(self, stacks):
        true, predicted, raw = stacks
        results, refused = _reference(_sample_checks, *stacks)
        unit, checked = geometry._check_rows(predicted, raw=raw, true_position=true)
        assert checked == refused
        for k, result in enumerate(results):
            if not isinstance(result, str):
                assert unit[k].tobytes() == result.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_stacks(st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3), _unitish(4)))
    def test_view_rays(self, stacks):
        """``view_rays`` gives each pose that ``CameraPose`` accepts ``view_ray``'s
        direction bits, and refuses the first row that ``Ray`` refuses, alike."""
        with np.errstate(all="ignore"):
            accepted = [_outcome(lambda: _pose_checks(p, q)) is None for p, q in zip(*stacks)]
        positions, orientations = (s[accepted] for s in stacks)
        assume(len(positions))
        directions, refused = geometry.view_rays(positions, orientations)
        expected = np.array([rotate_vector(q, FORWARD) for q in orientations])
        assert directions.tobytes() == expected.tobytes()
        assert refused == _reference(_ray_checks, positions, expected)[1]

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_vectors(3), _unitish(4), _unitish(3), _vectors(3))
    def test_each_constructor_decides_its_one_row_alike(self, position, quaternion, direction,
                                                        predicted):
        """Run with no ``errstate``: a constructor refuses an overflowing value
        without numpy's warning, which pytest's filter would make an error."""
        true_pose = CameraPose([0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        with np.errstate(all="ignore"):
            accepted = _outcome(lambda: _pose_checks(position, quaternion)) is None
        if accepted:
            true_pose = CameraPose(position, quaternion)
        cases = [
            (lambda: vec3(*position), lambda: _finite_vec3(position)),
            (lambda: CameraPose(position, quaternion), lambda: _pose_checks(position, quaternion)),
            (lambda: Ray(position, direction), lambda: _ray_checks(position, direction)),
            (lambda: PoseSample(true_pose, predicted, quaternion),
             lambda: _sample_checks(true_pose.position, predicted, quaternion)),
        ]
        for build, checks in cases:
            with np.errstate(all="ignore"):
                expected = _outcome(checks)
            assert _outcome(build) == expected

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: CameraPose([0, 0, 0], [1e300, 0, 0, 0]), "quaternion is not normalized (norm inf)"),
            (lambda: Ray([0, 0, 0], [0, 0, 1e300]), "ray direction must be unit length (norm inf)"),
            (lambda: vec3(1e300, 0, 0), "vector must have a finite norm, got [1.e+300 0.e+000 0.e+000]"),
            (lambda: PoseSample(CameraPose([1e154, 0, 0], [1, 0, 0, 0]), [-1e154, 0, 0], [1e300, 0, 0, 0]),
             "raw orientation must be finite with a finite, nonzero norm"),
            (lambda: PoseSample(CameraPose([1e154, 0, 0], [1, 0, 0, 0]), [-1e154, 0, 0], [0, 0, 0, 0]),
             "raw orientation must be finite with a finite, nonzero norm"),
            (lambda: PoseSample(CameraPose([1e154, 0, 0], [1, 0, 0, 0]), [-1e154, 0, 0], [1, 0, 0, 0]),
             "position error must have a finite norm"),
        ],
        ids=["pose", "ray", "vec3", "raw-overflow", "raw-zero", "error-overflow"],
    )
    def test_an_overflow_is_refused_without_a_warning(self, build, message):
        """No ``errstate`` here: under pytest's ``error::RuntimeWarning`` filter
        numpy's overflow warning would be raised in place of the refusal."""
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message


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

    EDGES = [180.0, -180.0, 0.0, -0.0, 540.0, -540.0, 1e300, -1e300, math.inf, -math.inf, math.nan]

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(st.floats() | st.sampled_from(EDGES), max_size=30))
    def test_array_is_the_scalar_call_per_element(self, angles):
        # Bit for bit, NaN and the sign of zero included. The scalar call is
        # also held to the scalar formula in Python floats, so the array
        # path is not only compared with itself.
        angles = np.array(angles + self.EDGES)
        wrapped = wrap_degrees(angles)
        assert isinstance(wrapped, np.ndarray) and wrapped.shape == angles.shape
        scalars = [wrap_degrees(a) for a in angles.tolist()]
        assert all(type(w) is float for w in scalars)
        python = [a if -180.0 < a <= 180.0 else 180.0 - ((180.0 - a) % 360.0) for a in angles.tolist()]
        assert wrapped.tobytes() == np.array(scalars).tobytes() == np.array(python).tobytes()
        assert wrap_degrees(angles.reshape(-1, 1)).tobytes() == wrapped.tobytes()


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


def _scalar_intersection(ray, cylinder):
    """``intersect_cylinder`` as it stood on Python floats, one ray at a time:
    the hit point, or the ``(error class, message)`` it raised."""
    ox, oz = float(ray.origin[0]), float(ray.origin[2]) - float(cylinder.axis_height)
    vx, vz = float(ray.direction[0]), float(ray.direction[2])
    a = vx * vx + vz * vz
    b = 2.0 * (ox * vx + oz * vz)
    c = ox * ox + oz * oz - float(cylinder.radius**2)
    if a == 0.0:
        return AxisParallelRayError, (
            "ray is parallel to the cylinder axis; intersection is empty or degenerate")
    disc = b * b - 4.0 * a * c
    if not math.isfinite(disc):
        return NoIntersectionError, f"intersection quadratic overflows (discriminant {disc})"
    if disc < 0.0:
        return NoIntersectionError, f"ray misses the cylinder (discriminant {disc:.3e})"
    sq = math.sqrt(disc)
    qv = -0.5 * (b + sq) if b >= 0.0 else -0.5 * (b - sq)
    roots = sorted((qv / a, c / qv)) if qv != 0.0 else sorted((0.0, -b / a))
    for t in roots:
        if t > T_MIN:
            return ray.at(t)
    return BehindCameraError, f"both intersections behind the camera (t = {roots})"


def _hit_or_error(call):
    """The hit's bits, or the ``(error class, message)`` that ``call`` raised."""
    try:
        return call().view(np.int64).tolist()
    except CylinderIntersectionError as exc:
        return type(exc), str(exc)


_CYLINDER = CylinderModel(axis_height=2.0, radius=2.0)


class TestIntersectionMessagesAndRootOrder:
    """Each of ``intersect_cylinder``'s three errors keeps its message, and its
    roots keep ``sorted``'s order, ``-0.0`` against ``0.0`` included."""

    @pytest.mark.parametrize("origin, direction, error, message", [
        ([0.0, -10.0, 2.0], [0.0, 1.0, 0.0], AxisParallelRayError,
         "ray is parallel to the cylinder axis; intersection is empty or degenerate"),
        ([1.3e154, 1.0, 2.0], [-1.0, 0.0, 0.0], NoIntersectionError,
         "intersection quadratic overflows (discriminant nan)"),
        ([-10.0, 0.0, 10.0], [1.0, 0.0, 0.0], NoIntersectionError,
         "ray misses the cylinder (discriminant -2.400e+02)"),
        ([-10.0, 0.0, 2.0], [-1.0, 0.0, 0.0], BehindCameraError,
         "both intersections behind the camera (t = [-12.0, -8.0])"),
        # b == +0.0 and a zero discriminant: qv == 0, and sorted((0.0, -0.0)) keeps 0.0 first.
        ([2.0, 0.0, 2.0], [0.0, 0.6, 0.8], BehindCameraError,
         "both intersections behind the camera (t = [0.0, -0.0])"),
        # b == -0.0: the second root is -(-0.0) / a == 0.0.
        ([0.0, 0.0, 4.0], [-0.6, 0.8, -0.0], BehindCameraError,
         "both intersections behind the camera (t = [0.0, 0.0])"),
    ])
    def test_message(self, origin, direction, error, message):
        ray = Ray(np.array(origin), np.array(direction))
        assert _scalar_intersection(ray, _CYLINDER) == (error, message)
        with pytest.raises(error) as info:
            intersect_cylinder(ray, _CYLINDER)
        assert str(info.value) == message

    @pytest.mark.parametrize("origin, direction, expected", [
        ([-10.0, 0.0, 2.0], [1.0, 0.0, 0.0], [-2.0, 0.0, 2.0]),  # both roots ahead: the nearer
        ([0.0, 0.0, 2.0], [1.0, 0.0, 0.0], [2.0, 0.0, 2.0]),  # inside: the root ahead
        ([-2.0, 0.0, 2.0], [1.0, 0.0, 0.0], [2.0, 0.0, 2.0]),  # on the surface: t = 0 is behind
    ])
    def test_root_order(self, origin, direction, expected):
        ray = Ray(np.array(origin), np.array(direction))
        assert intersect_cylinder(ray, _CYLINDER).tolist() == expected

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(cylinders_and_rays())
    def test_matches_the_scalar_formula(self, case):
        cylinder, ray = case
        expected = _scalar_intersection(ray, cylinder)
        if isinstance(expected, tuple):
            assert _hit_or_error(lambda: intersect_cylinder(ray, cylinder)) == expected
        else:
            assert _hit_or_error(lambda: intersect_cylinder(ray, cylinder)) == expected.view(np.int64).tolist()


# Rays that reach each of the three errors and both branches of the roots.
_EDGE_RAYS = [
    Ray(np.array(origin), np.array(direction)) for origin, direction in [
        ([0.0, -10.0, 2.0], [0.0, 1.0, 0.0]), ([1.3e154, 1.0, 2.0], [-1.0, 0.0, 0.0]),
        ([-10.0, 0.0, 10.0], [1.0, 0.0, 0.0]), ([-10.0, 0.0, 2.0], [-1.0, 0.0, 0.0]),
        ([2.0, 0.0, 2.0], [0.0, 0.6, 0.8]), ([0.0, 0.0, 4.0], [-0.6, 0.8, -0.0]),
        ([-2.0, 0.0, 2.0], [1.0, 0.0, 0.0]),
    ]
]


class TestStackedIntersection:
    """``intersect_cylinders`` gives each row of a stack its one-row call's hit,
    bit for bit, and NaN where the one-row call refuses the ray."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.floats(1e-3, 1e3), st.floats(-1e3, 1e3),
           st.lists(st.one_of(free_rays(), st.sampled_from(_EDGE_RAYS)), min_size=1, max_size=12))
    def test_each_row_is_its_one_row_call(self, radius, axis_height, rays):
        cylinder = CylinderModel(axis_height=axis_height, radius=radius)
        origins = np.array([ray.origin for ray in rays])
        directions = np.array([ray.direction for ray in rays])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = geometry.intersect_cylinders(origins, directions, cylinder)
        for hit, ray in zip(hits, rays):
            expected = _hit_or_error(lambda: intersect_cylinder(ray, cylinder))
            if isinstance(expected, tuple):
                assert np.isnan(hit).all()
            else:
                assert hit.view(np.int64).tolist() == expected


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
