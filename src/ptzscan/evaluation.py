"""Pose-estimate abstraction and error statistics.

A PoseEstimate is a ``CameraPose`` tagged with its source: ``noisy_oracle``
or an external estimator. ``evaluate`` scores camera poses, or a read
batch's stacks, as stacked arrays, each error with the bits of its pair
scored alone. ``median_rmse`` is the one median / RMSE formula: ``evaluate``
applies it to position error (metres) and orientation error (degrees,
quaternion angular distance), and the simulator to labelling errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ptzscan.geometry import (
    CameraPose,
    angular_distance,
    quat_from_axis_angle,
    quat_multiply,
    vector_norm,
    vector_norms,
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


@dataclass(frozen=True, eq=False, slots=True)
class PoseEstimate(CameraPose):
    """A camera pose guess tagged with the ``SOURCE_*`` that made it."""

    source: str

    def __post_init__(self):
        CameraPose.__post_init__(self)  # slots=True rebuilds the class, so no bare super()
        if self.source not in (SOURCE_NOISY_ORACLE, SOURCE_EXTERNAL):
            raise ValueError(f"unknown source tag {self.source!r}")


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
        for name in ("median_position", "rmse_position", "median_orientation", "rmse_orientation"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


def median_rmse(errors: np.ndarray) -> tuple[float, float]:
    """Median and RMSE of an error array; NaN for an empty array."""
    if not errors.size:
        return math.nan, math.nan
    return float(np.median(errors)), float(np.sqrt(np.mean(errors**2)))


_Poses = Union[Sequence[CameraPose], tuple[np.ndarray, np.ndarray]]


def _stacks(poses: _Poses) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(poses, tuple) and len(poses) == 2 and all(isinstance(s, np.ndarray) for s in poses):
        return poses
    return (np.array([x.position for x in poses]).reshape(-1, 3),
            np.array([x.orientation for x in poses]).reshape(-1, 4))


def evaluate(predictions: _Poses, ground_truths: _Poses) -> ErrorStats:
    """Paired error statistics between estimates and ground-truth poses, each a
    sequence of camera poses or a read batch's (n, 3) and (n, 4) stacks of them.

    Position error is the Euclidean distance; orientation error is the
    quaternion angular distance in degrees. Pairing is positional, so the
    result is invariant under any simultaneous permutation of both lists.
    """
    (p, p_quat), (g, g_quat) = map(_stacks, (predictions, ground_truths))
    if (n := len(p)) != (m := len(g)):
        raise ValueError(f"length mismatch: {n} predictions vs {m} ground truths")
    if not n:
        raise ValueError("cannot evaluate an empty batch")
    pos_err, ori_err = vector_norms(p - g), angular_distance(p_quat.T, g_quat.T)
    return ErrorStats(*median_rmse(pos_err), *median_rmse(ori_err), n=n)


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
    for name, sigma in (("sigma_pos", sigma_pos), ("sigma_yaw_deg", sigma_yaw_deg)):
        if not 0.0 <= sigma < math.inf:
            raise ValueError(f"{name} must be finite and non-negative, got {sigma}")
    rng = np.random.default_rng(seed)  # abs: numpy refuses a sigma of -0.0 by its sign
    offset = rng.normal(0.0, abs(sigma_pos) / math.sqrt(3.0), size=3)
    yaw_delta = rng.normal(0.0, abs(sigma_yaw_deg))
    orientation = quat_multiply(
        quat_from_axis_angle(_Z_AXIS, yaw_delta), ground_truth.orientation
    )
    orientation = orientation / vector_norm(orientation)
    try:  # the orientation is a unit product: only the position can be refused
        return PoseEstimate(ground_truth.position + offset, orientation, SOURCE_NOISY_ORACLE)
    except ValueError as exc:
        raise ValueError(f"sigma_pos draws a position with no finite norm, got {sigma_pos}") from exc
