"""Deployment boundaries and domain-randomised dataset manifests.

A synthetic training image is described by a draw of camera placement
(position inside the quadrant's 3 m x 3 m x 1 m box, yaw and pan inside the
quadrant window, tilt near -18 degrees) plus appearance parameters: ambient
and specular RGB per scene object and a texture placement (offset,
rotation, scale) per surface. Rendering is out of scope — a manifest is the
exact, reproducible list of parameter draws.

Reproducibility contract: the draws are one ``rng.random((n, 39))`` block
from a named generator (numpy's PCG64 via ``np.random.default_rng(seed)``),
a row per sample and a column per field, mapped as ``lo + (hi - lo) * u``, so
a manifest is a pure function of (boundary, sizes, seed). Column (consumption)
order: x, y, height, yaw, pan, tilt; per object in SCENE_OBJECTS order ambient
then specular RGB; per object the texture placement fields of TEXTURE_RANGES.
``sample_fields`` is the one home of that layout, and ``column_ranges`` of
each column's range. A manifest keeps the block itself, checked once against
those ranges; a sample is its manifest record, ``sample_fields`` of its row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ptzscan.geometry import CameraPose, quat_from_yaw_pitch, wrap_degrees, yaw_from_quaternion
from ptzscan.pantilt import QUADRANT_PAN_OFFSETS, YAW_TOLERANCE_DEG

__all__ = [
    "GENERATOR_NAME",
    "SCENE_OBJECTS",
    "TEXTURE_RANGES",
    "DeploymentBoundary",
    "SplitSizes",
    "DatasetManifest",
    "ConstraintViolation",
    "DeploymentReport",
    "column_ranges",
    "generate_manifest",
    "sample_fields",
    "validate_deployment",
    "sample_pose",
]

# The portable RNG this module commits to; recorded in manifest headers.
GENERATOR_NAME = "numpy-pcg64"

# Textured objects in the synthetic scene, in draw order.
SCENE_OBJECTS = ("ground", "aircraft", "background")

# Texture-placement fields in draw order with their draw ranges (renderer
# input; the bounds are part of the manifest contract).
TEXTURE_RANGES = {
    "offset_u": (0.0, 1.0),
    "offset_v": (0.0, 1.0),
    "rotation_deg": (0.0, 360.0),
    "scale_u": (0.5, 2.0),
    "scale_v": (0.5, 2.0),
}


def _check_range(name: str, rng: tuple[float, float]) -> tuple[float, float]:
    lo, hi = float(rng[0]), float(rng[1])
    if not (lo <= hi and math.isfinite(hi - lo)):  # so every lo + (hi - lo) * u is finite
        raise ValueError(f"{name} range must satisfy lo <= hi, finite width, got ({lo}, {hi})")
    return lo, hi


@dataclass(frozen=True)
class DeploymentBoundary:
    """Admissible camera placements for one quadrant.

    The x/y ranges describe the quadrant's deployment box (nominally
    3 m x 3 m); height covers the mast extension; yaw and pan must fall
    within ``yaw_window_deg`` of the quadrant's nominal pan offset; tilt
    within ``tilt_tolerance_deg`` of ``tilt_center_deg``.
    """

    quadrant: int
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    height_range: tuple[float, float] = (6.25, 7.25)
    yaw_window_deg: float = YAW_TOLERANCE_DEG
    tilt_center_deg: float = -18.0
    tilt_tolerance_deg: float = 0.5

    def __post_init__(self):
        if self.quadrant not in QUADRANT_PAN_OFFSETS:
            raise ValueError(f"quadrant must be 1..4, got {self.quadrant}")
        object.__setattr__(self, "x_range", _check_range("x", self.x_range))
        object.__setattr__(self, "y_range", _check_range("y", self.y_range))
        object.__setattr__(self, "height_range", _check_range("height", self.height_range))
        if not (self.yaw_window_deg >= 0.0 and self.tilt_tolerance_deg >= 0.0):
            raise ValueError("yaw window and tilt tolerance must be non-negative")
        _check_range("yaw", self.yaw_range_deg)
        _check_range("tilt", self.tilt_range_deg)

    @property
    def nominal_pan_deg(self) -> float:
        return QUADRANT_PAN_OFFSETS[self.quadrant]

    @property
    def yaw_range_deg(self) -> tuple[float, float]:
        pan, window = self.nominal_pan_deg, self.yaw_window_deg
        return (pan - window, pan + window)

    @property
    def tilt_range_deg(self) -> tuple[float, float]:
        tilt, tolerance = self.tilt_center_deg, self.tilt_tolerance_deg
        return (tilt - tolerance, tilt + tolerance)


@dataclass(frozen=True)
class SplitSizes:
    """Dataset split cardinalities."""

    train: int = 4000
    val: int = 700
    test: int = 300

    def __post_init__(self):
        for name in ("train", "val", "test"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} size must be >= 0")

    @property
    def total(self) -> int:
        return self.train + self.val + self.test


@dataclass(frozen=True, eq=False)
class DatasetManifest:
    """A reproducible dataset description: header plus the read-only
    ``(n, 39)`` draw block, a row per sample in ``sample_fields`` order and in
    the train, val, test order of ``splits``. Each draw must lie in its
    column's range, where ``lo + (hi - lo) * u`` puts it for u in [0, 1];
    ``samples`` holds each row's manifest record, built when first read."""

    seed: int
    sizes: SplitSizes
    boundary: DeploymentBoundary
    draws: np.ndarray
    splits: tuple[str, ...]
    hfov_deg: float = 72.5

    def __post_init__(self):
        draws = np.array(self.draws, dtype=np.float64)
        if draws.shape != (self.sizes.total, 39) or len(self.splits) != self.sizes.total:
            raise ValueError("draw rows and split counts must match the declared sizes")
        if not 0.0 < self.hfov_deg < 180.0:  # NaN and infinities fail too
            raise ValueError(f"hfov_deg must be finite and in (0, 180), got {self.hfov_deg}")
        names, lo, hi = column_ranges(self.boundary)
        top = lo + (hi - lo)
        outside = ~((lo <= draws) & (draws <= top))  # NaN is outside too
        if outside.any():
            row, col = np.argwhere(outside)[0]
            raise ValueError(
                f"draws must be finite and in their column's range: sample {row} {names[col]}"
                f" = {draws[row, col]} outside [{lo[col]}, {top[col]}]"
            )
        draws.flags.writeable = False
        object.__setattr__(self, "draws", draws)

    @cached_property
    def samples(self) -> tuple[dict, ...]:
        return tuple(map(sample_fields, self.draws.tolist()))


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated deployment constraint and how far outside it lies."""

    constraint: str
    margin: float
    detail: str


@dataclass(frozen=True)
class DeploymentReport:
    """validate_deployment outcome: pass/fail plus individual violations."""

    passed: bool
    violations: tuple[ConstraintViolation, ...]


def sample_fields(v) -> dict:
    """The sample holding ``v[k]`` in column k (k < 39), nested as its
    manifest record: the one statement of the column layout."""
    return {
        "position_m": v[:3], "yaw_deg": v[3], "pan_deg": v[4], "tilt_deg": v[5],
        "colors": {
            obj: {"ambient_rgb": v[i : i + 3], "specular_rgb": v[i + 3 : i + 6]}
            for obj, i in zip(SCENE_OBJECTS, range(6, 24, 6))
        },
        "textures": {
            obj: dict(zip(TEXTURE_RANGES, v[i : i + 5]))
            for obj, i in zip(SCENE_OBJECTS, range(24, 39, 5))
        },
    }


def column_ranges(boundary: DeploymentBoundary) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Names, lows and highs of the 39 draw columns, in ``sample_fields``
    order; a name is its field's path in the manifest record."""
    ranges = [(f"position_m[{k}]", *r) for k, r in enumerate(
        (boundary.x_range, boundary.y_range, boundary.height_range))]
    ranges += [(name, *boundary.yaw_range_deg) for name in ("yaw_deg", "pan_deg")]
    ranges.append(("tilt_deg", *boundary.tilt_range_deg))
    ranges += [(f"colors.{obj}.{rgb}[{k}]", 0.0, 1.0) for obj in SCENE_OBJECTS
               for rgb in ("ambient_rgb", "specular_rgb") for k in range(3)]
    ranges += [(f"textures.{obj}.{name}", *r) for obj in SCENE_OBJECTS
               for name, r in TEXTURE_RANGES.items()]
    names, lo, hi = zip(*ranges)
    return names, np.array(lo), np.array(hi)


def generate_manifest(
    boundary: DeploymentBoundary,
    sizes: SplitSizes = SplitSizes(),
    seed: int = 0,
    hfov_deg: float = DatasetManifest.hfov_deg,
) -> DatasetManifest:
    """Deterministic manifest: sample k is row k of one block of draws in the
    module's column order, and samples fill the train, val, and test blocks
    in that order. A row equals scalar ``uniform`` draws of its fields."""
    _, lo, hi = column_ranges(boundary)
    draws = lo + (hi - lo) * np.random.default_rng(seed).random((sizes.total, len(lo)))
    splits = ("train",) * sizes.train + ("val",) * sizes.val + ("test",) * sizes.test
    return DatasetManifest(
        seed=seed, sizes=sizes, boundary=boundary, draws=draws, splits=splits, hfov_deg=hfov_deg
    )


def sample_pose(sample: dict) -> CameraPose:
    """Camera pose implied by a sample record: its position with a pure-yaw
    orientation (the camera base is levelled)."""
    return CameraPose(sample["position_m"], quat_from_yaw_pitch(sample["yaw_deg"]))


def validate_deployment(pose: CameraPose, boundary: DeploymentBoundary) -> DeploymentReport:
    """Check a camera pose against the quadrant's deployment constraints.

    Verifies the x-y box, height range, and yaw window; each violated
    constraint is reported with its margin (how far outside the limit).
    """
    violations = []

    def check_interval(name: str, value: float, rng: tuple[float, float], unit: str):
        below, above = rng[0] - value, value - rng[1]
        for side, limit, margin in (("below", rng[0], below), ("above", rng[1], above)):
            if margin > 0.0:
                text = f"{name}={value:.4g}{unit} is {margin:.4g}{unit} {side} {limit:.4g}{unit}"
                violations.append(ConstraintViolation(name, margin, text))

    check_interval("x", float(pose.position[0]), boundary.x_range, " m")
    check_interval("y", float(pose.position[1]), boundary.y_range, " m")
    check_interval("height", float(pose.position[2]), boundary.height_range, " m")

    yaw = yaw_from_quaternion(pose.orientation)
    offset = wrap_degrees(yaw - boundary.nominal_pan_deg)
    if abs(offset) > boundary.yaw_window_deg:
        margin = abs(offset) - boundary.yaw_window_deg
        violations.append(
            ConstraintViolation(
                "yaw",
                margin,
                f"yaw={yaw:.4g} deg is {margin:.4g} deg outside the "
                f"quadrant-{boundary.quadrant} window of "
                f"{boundary.nominal_pan_deg:+.4g} deg +/- {boundary.yaw_window_deg:.4g} deg",
            )
        )
    return DeploymentReport(passed=not violations, violations=tuple(violations))
