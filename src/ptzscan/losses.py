"""Pose-regression loss components and homoscedastic multi-task weighting.

Three per-sample components: position residual norm, raw-quaternion residual
norm, and the image-centre scene-coordinate (ICSC) distance — the gap between
where the true and predicted optical axes pierce the fuselage cylinder.
Components are combined with per-task log-variance weights ``s`` as
``l * exp(-s) + s``; the equivalent variance form ``l / sigma2 + log(sigma2)``
is provided for cross-checking.

A ``PoseSample`` normalizes its raw predicted quaternion once, into the
checked ``predicted`` pose that every loss reads; a ``SampleBatch`` holds
a read batch as arrays, the reader's checked rows, and builds each row's
sample unchecked; ``batch_losses`` scores it on those arrays with
``combined_loss``'s bits. The quaternion residual is deliberately the plain
Euclidean norm against that normalized prediction, with no hemisphere
alignment: antipodal quaternions encode the same rotation but still score
a nonzero loss here; ``geometry.angular_distance`` is a rotation metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from ptzscan.geometry import (
    CameraPose,
    _built,
    _accept,
    _check_rows,
    _row,
    CylinderIntersectionError,
    CylinderModel,
    intersect_cylinder,
    intersect_cylinders,
    vector_norm,
    vector_norms,
    view_ray,
    view_rays,
)

__all__ = [
    "ICSC_HIT",
    "ICSC_SKIPPED",
    "InvalidSetupError",
    "PoseSample",
    "SampleBatch",
    "LossWeights",
    "LossBreakdown",
    "position_loss",
    "orientation_loss",
    "icsc_loss",
    "combined_loss",
    "batch_losses",
    "sigma_weighted_total",
    "optimal_log_variance",
    "finite_difference_grad",
]

ICSC_HIT = "hit"
ICSC_SKIPPED = "fallback-skipped"
# The smallest log-variance s whose loss weight exp(-s) is a finite float.
_MIN_LOG_VARIANCE = -math.log(np.finfo(np.float64).max)
# Rows a batch is checked and scored in at a time: the temporaries stay small.
_BLOCK_ROWS = 1024


class InvalidSetupError(Exception):
    """The true-pose view ray does not hit the cylinder; the sample is
    outside the geometry this loss is defined for."""


@dataclass(frozen=True, eq=False, slots=True)
class PoseSample:
    """One evaluation sample: ground-truth pose plus raw network outputs.

    ``predicted_orientation_raw`` is a 4-vector of any finite, nonzero
    norm. It is normalized once, mirroring how an unconstrained regression
    head is consumed, into the checked ``predicted`` pose: a raw quaternion
    whose normalized form is not a unit quaternion (its squared norm
    underflows) is rejected here.
    """

    true_pose: CameraPose
    predicted_position: np.ndarray
    predicted_orientation_raw: np.ndarray
    predicted: CameraPose = field(init=False)

    def __post_init__(self):
        raw = _row(self.predicted_orientation_raw, "raw orientation", 4)
        position = _row(self.predicted_position, "position", 3)
        [unit] = _accept(_check_rows(position, raw=raw, true_position=self.true_pose.position[None]))
        predicted = _built(CameraPose, position=position[0], orientation=unit)
        object.__setattr__(self, "predicted", predicted)
        object.__setattr__(self, "predicted_position", predicted.position)
        object.__setattr__(self, "predicted_orientation_raw", raw[0])


@dataclass(frozen=True, slots=True)
class LossWeights:
    """Per-task log-variances: ``s = log(sigma^2)`` for position (s_x),
    orientation (s_q), and ICSC centre distance (s_c)."""

    s_x: float = 0.0
    s_q: float = 0.0
    s_c: float = 0.0

    def __post_init__(self):
        for name in ("s_x", "s_q", "s_c"):
            if not (math.isfinite(s := getattr(self, name)) and s >= _MIN_LOG_VARIANCE):
                raise ValueError(f"{name} must be finite and at least {_MIN_LOG_VARIANCE}, got {s}")


@dataclass(frozen=True, eq=False, slots=True)
class SampleBatch:
    """A batch as stacks, a row per sample checked where ``formats.read_sample_batch``
    read it; iterating builds each row's ``(PoseSample, weights or None)``, unchecked."""

    true_position: np.ndarray  # (n, 3)
    true_orientation: np.ndarray  # (n, 4)
    predicted_position: np.ndarray  # (n, 3)
    predicted_orientation_raw: np.ndarray  # (n, 4)
    predicted_orientation: np.ndarray  # (n, 4), the raw rows normalised
    weights: tuple[Optional[LossWeights], ...]
    lines: np.ndarray  # (n,) the physical line of each row

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self) -> Iterator[tuple[PoseSample, Optional[LossWeights]]]:
        rows = zip(self.true_position, self.true_orientation, self.predicted_position,
                   self.predicted_orientation_raw, self.predicted_orientation, self.weights)
        for true_position, true_orientation, position, raw, unit, weights in rows:
            true_pose = _built(CameraPose, position=true_position, orientation=true_orientation)
            predicted = _built(CameraPose, position=position, orientation=unit)
            yield _built(PoseSample, true_pose=true_pose, predicted_position=position,
                         predicted_orientation_raw=raw, predicted=predicted), weights


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
    return vector_norm(sample.true_pose.orientation - sample.predicted.orientation)


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
        pred_hit = intersect_cylinder(view_ray(sample.predicted), cylinder)
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


def batch_losses(batch: SampleBatch, weights: LossWeights, cylinder: Optional[CylinderModel] = None):
    """``combined_loss`` of every row of ``batch``, bit for bit, a block at a time, with
    ``weights`` for a row that has none and the ICSC term when ``cylinder`` is given:
    the ``l_x``, ``l_q``, ``l_c`` (NaN where skipped) and total stacks, and the first
    row that ``combined_loss`` refuses (a view ray refused, a true ray missing) or whose
    total overflows in a weighted term, or None; rows past it are not scored. Weights
    go through ``math.exp``, since ``np.exp`` rounds differently on some inputs."""
    n = len(batch)
    l_x, l_q, l_c, total = np.empty(n), np.empty(n), np.full(n, np.nan), np.empty(n)
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        tp, tq, pp, pq = (s[rows] for s in (batch.true_position, batch.true_orientation,
                                           batch.predicted_position, batch.predicted_orientation))
        row_weights = [w or weights for w in batch.weights[rows]]
        e_x, s_x, e_q, s_q, e_c, s_c = np.array([(math.exp(-w.s_x), w.s_x, math.exp(-w.s_q), w.s_q,
                                                  math.exp(-w.s_c), w.s_c) for w in row_weights]).T
        l_x[rows], l_q[rows] = x, q = vector_norms(tp - pp), vector_norms(tq - pq)
        refused = []
        with np.errstate(all="ignore"):  # an overflowing term is refused below, not warned about
            t = x * e_x + s_x + q * e_q + s_q
            overflows = np.isinf(x * e_x) | np.isinf(q * e_q)
            if cylinder is not None:
                (true_directions, true_ray), (directions, ray) = view_rays(tp, tq), view_rays(pp, pq)
                true_hits = intersect_cylinders(tp, true_directions, cylinder)
                refused += [r[0] for r in (true_ray, ray) if r]
                refused += np.flatnonzero(np.isnan(true_hits[:, 0]))[:1].tolist()
                l_c[rows] = c = vector_norms(true_hits - intersect_cylinders(pp, directions, cylinder))
                t = np.where(np.isnan(c), t, t + c * e_c + s_c)
                overflows |= np.isinf(c * e_c)
        total[rows] = t
        refused += np.flatnonzero(np.isinf(t) & overflows)[:1].tolist()
        if refused:
            return l_x, l_q, l_c, total, start + min(refused)
    return l_x, l_q, l_c, total, None


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
