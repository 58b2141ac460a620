"""Scene-frame geometry: quaternions, camera poses, and the fuselage cylinder.

Conventions (normative, see docs/conventions.md): right-handed scene frame
with z up and the fuselage axis along y at height ``axis_height``;
quaternions scalar-first (w, x, y, z); angles in degrees at every public
interface; ``FORWARD = (1, 0, 0)`` is the optical axis of a camera with
identity orientation.

A value is checked once, where it is built (``vec3``, ``CameraPose``,
``Ray``); the kernels take checked values and check nothing again. All
operations are pure functions on immutable values and are safe to call
concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FORWARD",
    "T_MIN",
    "CameraPose",
    "CylinderModel",
    "Ray",
    "CylinderIntersectionError",
    "NoIntersectionError",
    "BehindCameraError",
    "AxisParallelRayError",
    "GimbalLockWarning",
    "vec3",
    "vector_norm",
    "quat_multiply",
    "quat_conjugate",
    "quat_from_axis_angle",
    "quat_from_yaw_pitch",
    "quat_to_matrix",
    "rotate_vector",
    "view_ray",
    "intersect_cylinder",
    "yaw_from_quaternion",
    "angular_distance",
    "wrap_degrees",
]

# Optical axis of a camera with identity orientation: horizontal,
# perpendicular to the fuselage, pointing from the near-side camera
# region toward the vehicle.
FORWARD = np.array([1.0, 0.0, 0.0])

# Intersections with ray parameter below this are treated as behind the
# camera (numerical guard against self-intersection at the origin).
T_MIN = 1e-6

_UNIT_TOL = 1e-9


class CylinderIntersectionError(Exception):
    """A view ray has no usable intersection with the cylinder."""


class NoIntersectionError(CylinderIntersectionError):
    """The ray misses the cylinder entirely (negative discriminant)."""


class BehindCameraError(CylinderIntersectionError):
    """Both intersections lie behind the ray origin."""


class AxisParallelRayError(CylinderIntersectionError):
    """The ray is parallel to the cylinder axis; no unique nearest point."""


class GimbalLockWarning(UserWarning):
    """Yaw extraction hit the pitch = +/-90 degree degeneracy."""


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


def vec3(x: float, y: float, z: float) -> np.ndarray:
    """Build a 3-vector (metres, scene frame) with a finite norm."""
    return _finite_vec3((x, y, z))


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float64 vector, bit for bit ``np.linalg.norm(v)``.

    For 1-D input ``np.linalg.norm`` computes ``sqrt(v.dot(v))``; this is
    that expression without numpy's per-call dispatch.
    """
    return math.sqrt(v.dot(v))


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of two scalar-first quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_from_axis_angle(axis: np.ndarray, angle_deg: float) -> np.ndarray:
    """Unit quaternion rotating by ``angle_deg`` about ``axis``."""
    axis = np.asarray(axis, dtype=np.float64)
    n = vector_norm(axis)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    half = math.radians(angle_deg) / 2.0
    s = math.sin(half) / n
    return np.array([math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


def quat_from_yaw_pitch(yaw_deg: float, pitch_deg: float = 0.0) -> np.ndarray:
    """Orientation from intrinsic z-y' angles (roll zero).

    Yaw rotates about scene z; pitch about the rotated y axis. A camera
    tilted down by ``t`` degrees has pitch ``+t`` (tilt = -pitch).
    """
    qz = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), yaw_deg)
    qy = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), pitch_deg)
    return quat_multiply(qz, qy)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix of a unit scalar-first quaternion."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


@dataclass(frozen=True, eq=False, slots=True)
class CameraPose:
    """Position (m) plus unit-quaternion orientation in the scene frame."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _finite_vec3(self.position, "position"))
        q = _unit(self.orientation, "quaternion", 4, "is not normalized")
        object.__setattr__(self, "orientation", q)


@dataclass(frozen=True)
class CylinderModel:
    """Fuselage surrogate: axis along y at height ``axis_height``, radius ``radius``.

    Surface points c satisfy ``c_x**2 + (c_z - axis_height)**2 == radius**2``.
    """

    axis_height: float
    radius: float

    def __post_init__(self):
        r = float(self.radius)
        if not (r > 0.0 and math.isfinite(r * r)):  # radius**2 enters the intersection
            raise ValueError(f"radius must be positive with a finite square, got {self.radius}")
        if not math.isfinite(self.axis_height):
            raise ValueError(f"axis_height must be finite, got {self.axis_height}")


@dataclass(frozen=True, eq=False)
class Ray:
    """Half-line ``origin + t * direction`` with unit direction."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", _finite_vec3(self.origin, "origin"))
        d = _unit(self.direction, "ray direction", 3, "must be unit length")
        object.__setattr__(self, "direction", d)

    def at(self, t: float) -> np.ndarray:
        return self.origin + t * self.direction


def rotate_vector(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate float 3-vector ``v`` by checked unit quaternion ``q``; preserves the norm.

    Computes ``q v q*`` as ``v + 2 (w c + u x c)``, ``c = u x v``, on Python
    floats with ``np.cross``'s multiply-then-subtract steps: bit for bit the
    ``np.cross`` formula, without numpy's per-call dispatch.
    """
    w, ux, uy, uz = q.tolist()
    vx, vy, vz = v.tolist()
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    dx, dy, dz = uy * cz - uz * cy, uz * cx - ux * cz, ux * cy - uy * cx
    return np.array(
        [vx + 2.0 * (w * cx + dx), vy + 2.0 * (w * cy + dy), vz + 2.0 * (w * cz + dz)]
    )


def view_ray(pose: CameraPose) -> Ray:
    """Optical-axis ray of a camera pose: origin at the position, direction
    FORWARD rotated by the orientation."""
    return Ray(pose.position, rotate_vector(pose.orientation, FORWARD))


def intersect_cylinder(ray: Ray, cylinder: CylinderModel) -> np.ndarray:
    """Nearest forward intersection of ``ray`` with the cylinder surface.

    Solves the quadratic obtained by substituting the ray into the surface
    equation and returns the point at the smallest root ``t > T_MIN``.

    Raises:
        AxisParallelRayError: direction has no x or z component.
        NoIntersectionError: the ray misses the surface.
        BehindCameraError: both roots are at or behind the origin.
    """
    # Python floats: numpy's IEEE operations, but overflow is silent (disc goes non-finite).
    ox, oz = float(ray.origin[0]), float(ray.origin[2]) - float(cylinder.axis_height)
    vx, vz = float(ray.direction[0]), float(ray.direction[2])
    a = vx * vx + vz * vz
    b = 2.0 * (ox * vx + oz * vz)
    c = ox * ox + oz * oz - float(cylinder.radius**2)

    if a == 0.0:
        raise AxisParallelRayError(
            "ray is parallel to the cylinder axis; intersection is empty or degenerate"
        )
    disc = b * b - 4.0 * a * c
    if not math.isfinite(disc):
        raise NoIntersectionError(f"intersection quadratic overflows (discriminant {disc})")
    if disc < 0.0:
        raise NoIntersectionError(f"ray misses the cylinder (discriminant {disc:.3e})")

    # Numerically stable pair of roots.
    sq = math.sqrt(disc)
    qv = -0.5 * (b + sq) if b >= 0.0 else -0.5 * (b - sq)
    roots = sorted((qv / a, c / qv)) if qv != 0.0 else sorted((0.0, -b / a))

    for t in roots:
        if t > T_MIN:
            return ray.at(t)
    raise BehindCameraError(f"both intersections behind the camera (t = {roots})")


def yaw_from_quaternion(q: np.ndarray) -> float:
    """Rotation about scene z of checked unit quaternion ``q`` (intrinsic z-y'-x''), degrees.

    Range (-180, 180]. At pitch +/-90 degrees the yaw/roll split is
    degenerate; yaw is then reported with roll fixed to zero and a
    GimbalLockWarning is issued.
    """
    r = quat_to_matrix(q)
    sin_pitch = -r[2, 0]
    if abs(sin_pitch) >= 1.0 - 1e-12:
        warnings.warn(
            "pitch at +/-90 degrees; yaw reported with roll fixed to zero",
            GimbalLockWarning,
            stacklevel=2,
        )
        return math.degrees(math.atan2(-r[0, 1], r[1, 1]))
    return math.degrees(math.atan2(r[1, 0], r[0, 0]))


def angular_distance(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Rotation angle between checked unit quaternions (``CameraPose`` checks
    them), degrees in [0, 180]: of two, or of each column of two (4, n) stacks.

    Symmetric and invariant under a sign flip of either argument. Computed
    from the relative rotation with atan2, which stays accurate for tiny
    angles where an arccos-of-dot formulation loses precision.
    """
    r = quat_multiply(quat_conjugate(q1), q2)
    v = np.ascontiguousarray(r[1:].T).reshape(-1, 3)
    norms = np.sqrt((v[:, None, :] @ v[:, :, None]).ravel())  # vector_norm's bits, stacked
    # math.atan2 per element: np.arctan2's bits differ from it on some inputs.
    angles = (math.degrees(2.0 * math.atan2(n, abs(w))) for n, w in zip(norms, np.ravel(r[0])))
    return np.fromiter(angles, np.float64, len(norms)).reshape(r.shape[1:])


def wrap_degrees(angle: float) -> float:
    """Wrap an angle into (-180, 180] degrees.

    In-range inputs are returned unchanged (no round-trip through the
    modulo, which would otherwise perturb small angles by an ulp or two).
    """
    if -180.0 < angle <= 180.0:
        return float(angle)
    return 180.0 - ((180.0 - angle) % 360.0)
