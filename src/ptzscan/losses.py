"""Pose-regression loss components and homoscedastic multi-task weighting.

Three per-sample components: position residual norm, raw-quaternion residual
norm, and the image-centre scene-coordinate (ICSC) distance — the gap between
where the true and predicted optical axes pierce the fuselage cylinder.
Components are combined with per-task log-variance weights ``s`` as
``l * exp(-s) + s``; the equivalent variance form ``l / sigma2 + log(sigma2)``
is provided for cross-checking.

The quaternion residual is deliberately the plain Euclidean norm against the
normalized prediction, with no hemisphere alignment: antipodal quaternions
encode the same rotation but still score a nonzero loss here. Use
``geometry.angular_distance`` when a rotation metric is wanted instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ptzscan.geometry import (
    CameraPose,
    CylinderIntersectionError,
    CylinderModel,
    intersect_cylinder,
    vec3,
    vector_norm,
    view_ray,
)

__all__ = [
    "ICSC_HIT",
    "ICSC_SKIPPED",
    "InvalidSetupError",
    "PoseSample",
    "LossWeights",
    "LossBreakdown",
    "position_loss",
    "orientation_loss",
    "icsc_loss",
    "combined_loss",
    "sigma_weighted_total",
    "optimal_log_variance",
    "finite_difference_grad",
]

ICSC_HIT = "hit"
ICSC_SKIPPED = "fallback-skipped"


class InvalidSetupError(Exception):
    """The true-pose view ray does not hit the cylinder; the sample is
    outside the geometry this loss is defined for."""


@dataclass(frozen=True, eq=False)
class PoseSample:
    """One evaluation sample: ground-truth pose plus raw network outputs.

    ``predicted_orientation_raw`` is a 4-vector of any finite, nonzero
    norm; it is normalized on use, mirroring how an unconstrained
    regression head is consumed.
    """

    true_pose: CameraPose
    predicted_position: np.ndarray
    predicted_orientation_raw: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self,
            "predicted_position",
            vec3(*np.asarray(self.predicted_position, dtype=np.float64)),
        )
        raw = np.asarray(self.predicted_orientation_raw, dtype=np.float64)
        if raw.shape != (4,):
            raise ValueError(f"raw orientation must have shape (4,), got {raw.shape}")
        if not np.isfinite(raw).all() or not 0.0 < vector_norm(raw) < math.inf:
            raise ValueError("raw orientation must be finite with a finite, nonzero norm")
        object.__setattr__(self, "predicted_orientation_raw", raw)

    @property
    def predicted_orientation(self) -> np.ndarray:
        """Normalized predicted quaternion."""
        raw = self.predicted_orientation_raw
        return raw / vector_norm(raw)

    @property
    def predicted_pose(self) -> CameraPose:
        return CameraPose(self.predicted_position, self.predicted_orientation)


@dataclass(frozen=True)
class LossWeights:
    """Per-task log-variances: ``s = log(sigma^2)`` for position (s_x),
    orientation (s_q), and ICSC centre distance (s_c)."""

    s_x: float = 0.0
    s_q: float = 0.0
    s_c: float = 0.0

    def __post_init__(self):
        for name in ("s_x", "s_q", "s_c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class LossBreakdown:
    """Raw per-component losses and the weighted total.

    ``l_c`` is None when the ICSC component was excluded or skipped because
    the predicted ray missed; ``icsc_status`` records which.
    """

    l_x: float
    l_q: float
    l_c: Optional[float]
    total: float
    icsc_status: str


def position_loss(sample: PoseSample) -> float:
    """Euclidean distance between true and predicted position, metres."""
    return vector_norm(sample.true_pose.position - sample.predicted_position)


def orientation_loss(sample: PoseSample) -> float:
    """Euclidean norm of (true quaternion - normalized prediction).

    Literal quaternion-difference norm: no hemisphere correction, so a
    sign-flipped prediction of the true rotation scores up to 2.
    """
    return vector_norm(sample.true_pose.orientation - sample.predicted_orientation)


def icsc_loss(sample: PoseSample, cylinder: CylinderModel) -> tuple[Optional[float], str]:
    """Distance between true and predicted optical-axis hits on the cylinder.

    Returns ``(distance_m, "hit")`` normally, and ``(None,
    "fallback-skipped")`` when the predicted ray misses the surface: a bad
    prediction drops the component rather than failing the sample.

    Raises InvalidSetupError if the *true* ray misses — that indicates a
    sample outside the intended deployment geometry, not a bad prediction.
    """
    try:
        true_hit = intersect_cylinder(view_ray(sample.true_pose), cylinder)
    except CylinderIntersectionError as exc:
        raise InvalidSetupError(f"true-pose view ray misses the cylinder: {exc}") from exc
    try:
        pred_hit = intersect_cylinder(view_ray(sample.predicted_pose), cylinder)
    except CylinderIntersectionError:
        return None, ICSC_SKIPPED
    return vector_norm(true_hit - pred_hit), ICSC_HIT


def combined_loss(
    sample: PoseSample,
    weights: LossWeights,
    cylinder: Optional[CylinderModel] = None,
    include_icsc: bool = True,
) -> LossBreakdown:
    """Log-variance-weighted multi-task total for one sample.

    total = l_x*exp(-s_x) + s_x + l_q*exp(-s_q) + s_q [+ l_c*exp(-s_c) + s_c]

    With all weights zero the total reduces exactly to the plain sum of the
    raw components. The ICSC term requires ``cylinder``; it is dropped when
    ``include_icsc`` is false or the predicted ray misses the cylinder
    (``icsc_loss`` then reports it skipped).
    """
    l_x = position_loss(sample)
    l_q = orientation_loss(sample)
    l_c: Optional[float] = None
    status = ICSC_SKIPPED
    if include_icsc:
        if cylinder is None:
            raise ValueError("cylinder is required when include_icsc is true")
        l_c, status = icsc_loss(sample, cylinder)
    total = l_x * math.exp(-weights.s_x) + weights.s_x + l_q * math.exp(-weights.s_q) + weights.s_q
    if l_c is not None:
        total = total + l_c * math.exp(-weights.s_c) + weights.s_c
    return LossBreakdown(l_x=l_x, l_q=l_q, l_c=l_c, total=total, icsc_status=status)


def sigma_weighted_total(
    l_x: float,
    l_q: float,
    sigma2_x: float,
    sigma2_q: float,
    l_c: Optional[float] = None,
    sigma2_c: Optional[float] = None,
) -> float:
    """Variance form of the weighted total: ``l/sigma2 + log(sigma2)`` per task.

    Algebraically identical to the log-variance form under
    ``sigma2 = exp(s)``; kept for cross-checking that equivalence.
    """
    for name, value in (("sigma2_x", sigma2_x), ("sigma2_q", sigma2_q)):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    total = l_x / sigma2_x + math.log(sigma2_x) + l_q / sigma2_q + math.log(sigma2_q)
    if l_c is not None:
        if sigma2_c is None or not sigma2_c > 0.0:
            raise ValueError("sigma2_c must be positive when l_c is given")
        total = total + l_c / sigma2_c + math.log(sigma2_c)
    return total


def optimal_log_variance(mean_component_loss: float) -> float:
    """Argmin over s of ``mean_loss * exp(-s) + s``: simply ln(mean_loss).

    The map is strictly convex in s, so this stationary point is the unique
    minimizer; the minimized value is ``1 + ln(mean_loss)``.
    """
    if not mean_component_loss > 0.0:
        raise ValueError(
            f"mean component loss must be positive, got {mean_component_loss}"
        )
    return math.log(mean_component_loss)


def finite_difference_grad(
    loss_fn: Callable[[np.ndarray], float], at: np.ndarray
) -> np.ndarray:
    """Central-difference gradient, step 1e-5, of a scalar function at a point.

    ``loss_fn`` maps a parameter vector (e.g. the three log-variances, or a
    predicted position) to a scalar.
    """
    h = 1e-5
    at = np.asarray(at, dtype=np.float64)
    grad = np.empty_like(at)
    for i in range(at.size):
        hi = at.copy()
        lo = at.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (loss_fn(hi) - loss_fn(lo)) / (2.0 * h)
    return grad
