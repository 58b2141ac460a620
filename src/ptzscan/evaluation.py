"""Pose-estimate abstraction and error statistics.

A PoseEstimate is a camera-pose guess tagged with its source,
``noisy_oracle`` or a predictions file. ``median_rmse`` is the one
median / RMSE formula: ``evaluate`` applies it to position error (metres)
and orientation error (degrees, quaternion angular distance), and the
simulator to labelling errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ptzscan.geometry import (
    CameraPose,
    angular_distance,
    quat_from_axis_angle,
    quat_multiply,
    vec3,
    vector_norm,
)

__all__ = [
    "SOURCE_NOISY_ORACLE",
    "SOURCE_EXTERNAL",
    "PoseEstimate",
    "ErrorStats",
    "evaluate",
    "median_rmse",
    "noisy_oracle",
]

SOURCE_NOISY_ORACLE = "noisy-oracle"
SOURCE_EXTERNAL = "external-file"

_Z_AXIS = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True, eq=False)
class PoseEstimate:
    """A pose guess: position, unit quaternion and a ``SOURCE_*`` tag."""

    position: np.ndarray
    orientation: np.ndarray
    source: str

    def __post_init__(self):
        pose = CameraPose(self.position, self.orientation)  # validates both
        object.__setattr__(self, "position", pose.position)
        object.__setattr__(self, "orientation", pose.orientation)
        if self.source not in (SOURCE_NOISY_ORACLE, SOURCE_EXTERNAL):
            raise ValueError(f"unknown source tag {self.source!r}")

    @property
    def pose(self) -> CameraPose:
        return CameraPose(self.position, self.orientation)


@dataclass(frozen=True)
class ErrorStats:
    """Median and RMSE of position (m) and orientation (deg) errors."""

    median_position: float
    rmse_position: float
    median_orientation: float
    rmse_orientation: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        for name in (
            "median_position",
            "rmse_position",
            "median_orientation",
            "rmse_orientation",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


def median_rmse(errors: np.ndarray) -> tuple[float, float]:
    """Median and RMSE of an error array; NaN for an empty array."""
    if not errors.size:
        return math.nan, math.nan
    return float(np.median(errors)), float(np.sqrt(np.mean(errors**2)))


def evaluate(
    predictions: list[PoseEstimate], ground_truths: list[CameraPose]
) -> ErrorStats:
    """Paired error statistics between estimates and ground-truth poses.

    Position error is the Euclidean distance; orientation error is the
    quaternion angular distance in degrees. Pairing is positional, so the
    result is invariant under any simultaneous permutation of both lists.
    """
    if len(predictions) != len(ground_truths):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs "
            f"{len(ground_truths)} ground truths"
        )
    if not predictions:
        raise ValueError("cannot evaluate an empty batch")
    pos_err = np.array(
        [vector_norm(p.position - g.position) for p, g in zip(predictions, ground_truths)]
    )
    ori_err = np.array(
        [
            angular_distance(p.orientation, g.orientation)
            for p, g in zip(predictions, ground_truths)
        ]
    )
    return ErrorStats(*median_rmse(pos_err), *median_rmse(ori_err), n=len(predictions))


def noisy_oracle(
    ground_truth: CameraPose,
    sigma_pos: float,
    sigma_yaw_deg: float,
    seed: int,
) -> PoseEstimate:
    """Ground truth corrupted by Gaussian position and z-yaw noise.

    ``sigma_pos`` is the target RMSE of the *total* position error, so each
    axis receives sigma_pos/sqrt(3). Yaw noise composes a small rotation
    about scene z onto the true orientation. Deterministic for a fixed seed.
    """
    if sigma_pos < 0.0 or sigma_yaw_deg < 0.0:
        raise ValueError("noise sigmas must be non-negative")
    rng = np.random.default_rng(seed)
    offset = rng.normal(0.0, sigma_pos / math.sqrt(3.0), size=3)
    yaw_delta = rng.normal(0.0, sigma_yaw_deg)
    position = vec3(*(ground_truth.position + offset))
    orientation = quat_multiply(
        quat_from_axis_angle(_Z_AXIS, yaw_delta), ground_truth.orientation
    )
    orientation = orientation / vector_norm(orientation)
    return PoseEstimate(position, orientation, SOURCE_NOISY_ORACLE)
