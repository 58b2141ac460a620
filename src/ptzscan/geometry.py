"""Scene-frame geometry: quaternions, camera poses, and the fuselage cylinder.

Conventions (normative, see docs/conventions.md): right-handed scene frame
with z up and the fuselage axis along y at height ``axis_height``;
quaternions scalar-first (w, x, y, z); angles in degrees at every public
interface; ``FORWARD = (1, 0, 0)`` is the optical axis of a camera with
identity orientation.

A value is checked once, where it is built (``vec3``, ``CameraPose``,
``Ray``), by ``_check_rows`` on one row, the batch reader's rows and
``view_rays``' directions by it on a block; the kernels take checked values
and check nothing again. ``_cylinder_roots`` is the one home of the
ray-cylinder quadratic, for one ray and for a stack of rays alike. All
operations are pure functions on immutable values, safe to call concurrently.
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
    "vector_norms",
    "quat_multiply",
    "quat_conjugate",
    "quat_from_axis_angle",
    "quat_from_yaw_pitch",
    "quat_to_matrix",
    "rotate_vector",
    "view_ray",
    "view_rays",
    "intersect_cylinder",
    "intersect_cylinders",
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
_UNIT_RAY = "ray direction must be unit length"


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


def _row(v, name: str, size: int) -> np.ndarray:
    """``v`` as a new float64 (1, ``size``) stack, refused unless it is a ``size``-vector."""
    v = np.array(v, dtype=np.float64)
    if v.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {v.shape}")
    return v[None]


@np.errstate(all="ignore")  # an overflowing or zero norm is refused, not warned about
def _check_rows(position, unit=None, raw=None, true_position=None,
                failure="quaternion is not normalized"):
    """Every pose decision, over (n, k) stacks: the unit rows (``raw``'s, normalised,
    when given) and the first refused row's ``(index, message)``, or None.

    A row is refused where, in this order, ``raw`` has a norm that is zero or not
    finite; ``position`` has a squared norm ``x * x + y * y + z * z`` that is not
    finite; the unit row's norm is not 1 to within ``_UNIT_TOL``; or
    ``true_position - position`` has a norm that is not finite. Each norm is
    ``vector_norms``', so ``vector_norm``'s bits; the squared norm is summed in
    that order, since a dot's rounding differs from it near overflow.
    """
    ones = [1.0] * len(position)
    raw_norms = errors = ones
    if raw is not None:
        raw_norms = vector_norms(raw)
        unit, raw_norms = raw / raw_norms[:, None], raw_norms.tolist()
    norms = ones if unit is None else vector_norms(unit).tolist()
    if true_position is not None:
        errors = np.isfinite(vector_norms(true_position - position)).tolist()
    rows = zip(position.tolist(), raw_norms, norms, errors)
    for i, ((x, y, z), raw_norm, norm, finite_error) in enumerate(rows):
        if not 0.0 < raw_norm < math.inf:  # a NaN component fails too
            return unit, (i, "raw orientation must be finite with a finite, nonzero norm")
        if not math.isfinite(x * x + y * y + z * z):
            return unit, (i, f"vector must have a finite norm, got {position[i]}")
        if not abs(norm - 1.0) <= _UNIT_TOL:
            return unit, (i, f"{failure} (norm {norm})")
        if not finite_error:
            return unit, (i, "position error must have a finite norm")
    return unit, None


def _accept(checked) -> np.ndarray:
    """The unit rows of ``_check_rows``' result, or its refusal as a ValueError."""
    unit, refused = checked
    if refused:
        raise ValueError(refused[1])
    return unit


def _built(cls, **fields):
    """A ``cls`` of ``fields`` that have passed its checks: it decides nothing."""
    value = object.__new__(cls)
    for name, v in fields.items():
        object.__setattr__(value, name, v)
    return value


def vec3(x: float, y: float, z: float) -> np.ndarray:
    """Build a 3-vector (metres, scene frame) with a finite norm."""
    v = _row((x, y, z), "vector", 3)
    _accept(_check_rows(v))
    return v[0]


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float64 vector, bit for bit ``np.linalg.norm(v)``.

    For 1-D input ``np.linalg.norm`` computes ``sqrt(v.dot(v))``; this is
    that expression without numpy's per-call dispatch.
    """
    return math.sqrt(v.dot(v))


def vector_norms(v: np.ndarray) -> np.ndarray:
    """``vector_norm`` of each row of an (n, k) stack, bit for bit: ``@`` takes the same dot,
    and one row, where numpy's per-call cost would outweigh it, takes ``vector_norm``."""
    v = np.ascontiguousarray(v)
    if len(v) == 1:
        return np.array([vector_norm(v[0])])
    return np.sqrt((v[:, None, :] @ v[:, :, None]).ravel())


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
        position = _row(self.position, "position", 3)
        orientation = _row(self.orientation, "quaternion", 4)
        _accept(_check_rows(position, orientation))
        object.__setattr__(self, "position", position[0])
        object.__setattr__(self, "orientation", orientation[0])


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
        origin, direction = _row(self.origin, "origin", 3), _row(self.direction, "ray direction", 3)
        _accept(_check_rows(origin, direction, failure=_UNIT_RAY))
        object.__setattr__(self, "origin", origin[0])
        object.__setattr__(self, "direction", direction[0])

    def at(self, t: float) -> np.ndarray:
        return self.origin + t * self.direction


def _rotated(w, ux, uy, uz, vx, vy, vz):
    """``v + 2 (w c + u x c)``, ``c = u x v``, with ``np.cross``'s multiply-then-subtract
    steps, on floats or on the columns of stacks alike."""
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    dx, dy, dz = uy * cz - uz * cy, uz * cx - ux * cz, ux * cy - uy * cx
    return vx + 2.0 * (w * cx + dx), vy + 2.0 * (w * cy + dy), vz + 2.0 * (w * cz + dz)


def rotate_vector(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate float 3-vector ``v`` by checked unit quaternion ``q``; preserves the norm.

    Computes ``q v q*`` with ``_rotated`` on Python floats: bit for bit the
    ``np.cross`` formula, without numpy's per-call dispatch.
    """
    return np.array(_rotated(*q.tolist(), *v.tolist()))


def view_ray(pose: CameraPose) -> Ray:
    """Optical-axis ray of a camera pose: origin at the position, direction
    FORWARD rotated by the orientation."""
    return Ray(pose.position, rotate_vector(pose.orientation, FORWARD))


def view_rays(positions: np.ndarray, orientations: np.ndarray):
    """``view_ray``'s direction for each pose of (n, 3) and (n, 4) stacks, bit for bit,
    each checked as ``Ray`` checks it: the directions and the first refused row's
    ``(index, message)``, or None."""
    directions = np.stack(_rotated(*orientations.T, *FORWARD.tolist()), axis=1)
    return _check_rows(positions, directions, failure=_UNIT_RAY)


def _pick(condition, x, y):
    return x if condition else y  # ``np.where`` on one ray's scalars


@np.errstate(all="ignore")  # a refused ray's overflow, zero division or negative root is not warned about
def _cylinder_roots(origin_xz, direction_xz, cylinder: CylinderModel, where=np.where):
    """The quadratic of the ray ``o + t v`` meeting the cylinder, on one ray's scalars
    or on stack rows alike: its ``a`` and discriminant, and its numerically stable
    roots, ordered as ``sorted`` orders them (a tie, 0.0 and -0.0, keeps its order)."""
    (ox, oz), (vx, vz) = origin_xz, direction_xz
    oz = oz - float(cylinder.axis_height)
    a = vx * vx + vz * vz
    b = 2.0 * (ox * vx + oz * vz)
    c = ox * ox + oz * oz - float(cylinder.radius**2)
    disc = b * b - 4.0 * a * c
    sq = np.sqrt(disc)
    qv = where(b >= 0.0, -0.5 * (b + sq), -0.5 * (b - sq))
    first, second = where(qv != 0.0, qv / a, 0.0), where(qv != 0.0, c / qv, -b / a)
    swap = second < first
    return a, disc, where(swap, second, first), where(swap, first, second)


def intersect_cylinder(ray: Ray, cylinder: CylinderModel) -> np.ndarray:
    """Nearest forward intersection of ``ray`` with the cylinder surface.

    Solves the quadratic obtained by substituting the ray into the surface
    equation and returns the point at the smallest root ``t > T_MIN``.

    Raises:
        AxisParallelRayError: direction has no x or z component.
        NoIntersectionError: the ray misses the surface.
        BehindCameraError: both roots are at or behind the origin.
    """
    # The direction's numpy scalars make each division numpy's: inf or NaN, as on a stack.
    a, disc, lo, hi = _cylinder_roots(ray.origin[::2].tolist(), ray.direction[::2], cylinder, _pick)
    if a == 0.0:
        raise AxisParallelRayError("ray is parallel to the cylinder axis; intersection is empty or degenerate")
    if not math.isfinite(disc):
        raise NoIntersectionError(f"intersection quadratic overflows (discriminant {disc})")
    if disc < 0.0:
        raise NoIntersectionError(f"ray misses the cylinder (discriminant {disc:.3e})")
    for t in (lo, hi):
        if t > T_MIN:
            return ray.at(t)
    raise BehindCameraError(f"both intersections behind the camera (t = {[float(lo), float(hi)]})")


@np.errstate(all="ignore")  # a refused ray's hit is NaN, not warned about
def intersect_cylinders(origins: np.ndarray, directions: np.ndarray, cylinder: CylinderModel):
    """``intersect_cylinder`` of each ray ``origins + t * directions`` of (n, 3) stacks,
    bit for bit: the (n, 3) hits, NaN where it refuses the ray."""
    a, disc, lo, hi = _cylinder_roots(origins[:, ::2].T, directions[:, ::2].T, cylinder)
    t = np.where(lo > T_MIN, lo, hi)
    hits = origins + t[:, None] * directions
    hits[(a == 0.0) | ~np.isfinite(disc) | ~(t > T_MIN)] = np.nan
    return hits


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
    norms = vector_norms(r[1:].T.reshape(-1, 3))
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
