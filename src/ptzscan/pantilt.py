"""Cartesian-to-pan/tilt conversion relative to an estimated camera pose.

A PTZ command is a pan (azimuth, degrees, positive counter-clockwise about
scene z) and a tilt (signed elevation, degrees, positive above the
horizontal). Pan is measured in the camera's own yaw frame: the scene-frame
azimuth of the target displacement minus the mount offset alpha, where
alpha is how far the camera's estimated yaw deviates from the nominal
heading of its deployment quadrant.

Tilt is implemented as the signed elevation ``atan2(z, hypot(x, y))``
rather than a raw arctan quotient, which would be ambiguous for downward
displacements — the operating regime here, with cameras mounted above most
of the surface they scan.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ptzscan.geometry import _accept, _check_rows, _row, wrap_degrees

__all__ = [
    "QUADRANT_PAN_OFFSETS",
    "YAW_TOLERANCE_DEG",
    "YawToleranceWarning",
    "PanTilt",
    "PanTiltGrid",
    "QuadrantSetup",
    "compute_alpha",
    "point_to_pantilt",
    "grid_to_pantilt",
    "direction_from_pantilt",
]

# Nominal heading offset (degrees) of a camera deployed in each quadrant.
QUADRANT_PAN_OFFSETS = {1: 10.0, 2: -20.0, 3: 20.0, 4: -10.0}

# Deployment guidance keeps the camera yaw within this band of the nominal
# quadrant heading; a larger alpha still computes but is worth flagging.
YAW_TOLERANCE_DEG = 10.0


class YawToleranceWarning(UserWarning):
    """|alpha| exceeds the deployment yaw tolerance for the quadrant."""


@dataclass(frozen=True)
class PanTilt:
    """A pan/tilt command: pan in (-180, 180], tilt in [-90, 90], degrees."""

    pan_deg: float
    tilt_deg: float

    def __post_init__(self):
        if not (-180.0 < self.pan_deg <= 180.0):
            raise ValueError(f"pan {self.pan_deg} outside (-180, 180]")
        if not (-90.0 <= self.tilt_deg <= 90.0):
            raise ValueError(f"tilt {self.tilt_deg} outside [-90, 90]")


@dataclass(frozen=True)
class QuadrantSetup:
    """Camera deployment context: quadrant, estimated yaw, camera position.

    Quadrants count 1..4 around the vehicle; each carries a fixed nominal
    pan offset (see QUADRANT_PAN_OFFSETS). ``estimated_yaw_deg`` is the
    camera's yaw recovered by pose estimation.
    """

    quadrant: int
    estimated_yaw_deg: float
    camera_position: np.ndarray

    def __post_init__(self):
        if self.quadrant not in QUADRANT_PAN_OFFSETS:
            raise ValueError(f"quadrant must be 1..4, got {self.quadrant}")
        if not math.isfinite(self.estimated_yaw_deg):
            raise ValueError("estimated yaw must be finite")
        position = _row(self.camera_position, "camera_position", 3)
        _accept(_check_rows(position))
        object.__setattr__(self, "camera_position", position[0])

    @property
    def pan_offset_deg(self) -> float:
        return QUADRANT_PAN_OFFSETS[self.quadrant]


@dataclass(frozen=True, eq=False)
class PanTiltGrid:
    """Pan/tilt commands index-aligned with a surface grid.

    ``pans``/``tilts`` are degree arrays of the grid's shape, NaN where the
    source cell is absent; ``valid`` mirrors the source grid's mask.
    """

    pans: np.ndarray
    tilts: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        if not (self.pans.shape == self.tilts.shape == self.valid.shape):
            raise ValueError("pan, tilt, and valid arrays must share a shape")

    @property
    def shape(self) -> tuple[int, int]:
        return self.valid.shape


def compute_alpha(setup: QuadrantSetup) -> float:
    """Mount offset alpha = estimated yaw minus the quadrant's nominal pan.

    Warns (YawToleranceWarning) when |alpha| exceeds the deployment band;
    the value is still returned.
    """
    alpha = wrap_degrees(setup.estimated_yaw_deg - setup.pan_offset_deg)
    if abs(alpha) > YAW_TOLERANCE_DEG:
        warnings.warn(
            f"camera yaw is {alpha:.2f} deg off the quadrant-{setup.quadrant} "
            f"nominal heading (tolerance {YAW_TOLERANCE_DEG} deg)",
            YawToleranceWarning,
            stacklevel=2,
        )
    return alpha


def _pantilt(d: np.ndarray, alpha_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """Pan and tilt (degrees) of displacements ``d`` (..., 3) under mount
    offset alpha; pan is wrapped by ``wrap_degrees``."""
    with np.errstate(invalid="ignore"):
        horizontal = np.hypot(d[..., 0], d[..., 1])
        pans = wrap_degrees(np.degrees(np.arctan2(d[..., 1], d[..., 0])) - alpha_deg)
        return pans, np.degrees(np.arctan2(d[..., 2], horizontal))


def point_to_pantilt(
    point: np.ndarray, camera_position: np.ndarray, alpha_deg: float
) -> PanTilt:
    """Pan/tilt that aims the camera at ``point`` from ``camera_position``.

    Pan is the scene azimuth of the displacement minus alpha, wrapped to
    (-180, 180]; tilt is the signed elevation of the displacement.
    """
    d = np.asarray(point, dtype=np.float64) - np.asarray(camera_position, dtype=np.float64)
    if not d.any():
        raise ValueError("point coincides with the camera position")
    pan, tilt = _pantilt(d, alpha_deg)
    return PanTilt(float(pan), float(tilt))


def grid_to_pantilt(grid, setup: QuadrantSetup) -> PanTiltGrid:
    """Element-wise pan/tilt of every present surface-grid cell.

    Alpha comes from the setup (with its out-of-tolerance warning); absent
    cells stay absent. Index alignment with the source grid is preserved.
    """
    pans, tilts = _pantilt(grid.points - setup.camera_position, compute_alpha(setup))
    pans = np.where(grid.valid, pans, np.nan)
    tilts = np.where(grid.valid, tilts, np.nan)
    return PanTiltGrid(pans=pans, tilts=tilts, valid=grid.valid.copy())


def direction_from_pantilt(pan_deg: float, tilt_deg: float, alpha_deg: float = 0.0) -> np.ndarray:
    """Unit scene-frame direction for a pan/tilt command under mount offset
    alpha; exact inverse of ``point_to_pantilt`` up to ray length."""
    azimuth = math.radians(pan_deg + alpha_deg)
    elevation = math.radians(tilt_deg)
    ce = math.cos(elevation)
    return np.array([ce * math.cos(azimuth), ce * math.sin(azimuth), math.sin(elevation)])
