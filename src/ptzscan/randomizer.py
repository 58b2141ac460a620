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
``sample_fields`` is the one home of that layout. A manifest keeps the block
itself; its ``RandomizationSample`` objects are built when first read.
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
    "MaterialColor",
    "TexturePlacement",
    "RandomizationSample",
    "SplitSizes",
    "DatasetManifest",
    "ConstraintViolation",
    "DeploymentReport",
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
class MaterialColor:
    """Ambient and specular RGB of one object's texture, components in [0, 1]."""

    ambient_rgb: tuple[float, float, float]
    specular_rgb: tuple[float, float, float]

    def __post_init__(self):
        for name in ("ambient_rgb", "specular_rgb"):
            rgb = tuple(float(v) for v in getattr(self, name))
            if len(rgb) != 3 or not all(0.0 <= v <= 1.0 for v in rgb):
                raise ValueError(f"{name} must be three values in [0, 1], got {rgb}")
            object.__setattr__(self, name, rgb)


@dataclass(frozen=True)
class TexturePlacement:
    """Where and how a texture sits on a surface: UV offset, rotation, scale."""

    offset_u: float
    offset_v: float
    rotation_deg: float
    scale_u: float
    scale_v: float

    def __post_init__(self):
        for name, rng in TEXTURE_RANGES.items():
            v = float(getattr(self, name))
            if not rng[0] <= v <= rng[1]:
                raise ValueError(f"{name}={v} outside {rng}")


@dataclass(frozen=True, eq=False)
class RandomizationSample:
    """One fully-specified synthetic capture."""

    position: np.ndarray
    yaw_deg: float
    pan_deg: float
    tilt_deg: float
    colors: dict[str, MaterialColor]
    textures: dict[str, TexturePlacement]

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64)
        if pos.shape != (3,) or not np.isfinite(pos).all():
            raise ValueError("position must be a finite 3-vector")
        object.__setattr__(self, "position", pos)
        if not np.isfinite([self.yaw_deg, self.pan_deg, self.tilt_deg]).all():
            raise ValueError("yaw, pan and tilt must be finite")
        if set(self.colors) != set(SCENE_OBJECTS) or set(self.textures) != set(SCENE_OBJECTS):
            raise ValueError(f"colors and textures must cover exactly {SCENE_OBJECTS}")


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
    the train, val, test order of ``splits``. ``samples`` builds each row's
    validated objects once, when first read."""

    seed: int
    sizes: SplitSizes
    boundary: DeploymentBoundary
    draws: np.ndarray
    splits: tuple[str, ...]
    hfov_deg: float = 72.5
    generator: str = GENERATOR_NAME

    def __post_init__(self):
        draws = np.array(self.draws, dtype=np.float64)
        if draws.shape != (self.sizes.total, 39) or len(self.splits) != self.sizes.total:
            raise ValueError("draw rows and split counts must match the declared sizes")
        if not np.isfinite(draws).all():
            raise ValueError("draws must be finite")
        draws.flags.writeable = False
        object.__setattr__(self, "draws", draws)

    @cached_property
    def samples(self) -> tuple[RandomizationSample, ...]:
        return tuple(map(_sample_from_row, self.draws.tolist()))


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


def _sample_from_row(v: list[float]) -> RandomizationSample:
    """The sample whose fields are one row of drawn values, in column order."""
    f = sample_fields(v)
    return RandomizationSample(
        np.array(f["position_m"]), f["yaw_deg"], f["pan_deg"], f["tilt_deg"],
        colors={obj: MaterialColor(**c) for obj, c in f["colors"].items()},
        textures={obj: TexturePlacement(**t) for obj, t in f["textures"].items()},
    )


def generate_manifest(
    boundary: DeploymentBoundary,
    sizes: SplitSizes = SplitSizes(),
    seed: int = 0,
    hfov_deg: float = DatasetManifest.hfov_deg,
) -> DatasetManifest:
    """Deterministic manifest: sample k is row k of one block of draws in the
    module's column order, and samples fill the train, val, and test blocks
    in that order. A row equals scalar ``uniform`` draws of its fields."""
    ranges = [boundary.x_range, boundary.y_range, boundary.height_range]
    ranges += [boundary.yaw_range_deg] * 2 + [boundary.tilt_range_deg]
    ranges += [(0.0, 1.0)] * (6 * len(SCENE_OBJECTS))
    ranges += list(TEXTURE_RANGES.values()) * len(SCENE_OBJECTS)
    lo, hi = np.array(ranges).T
    draws = lo + (hi - lo) * np.random.default_rng(seed).random((sizes.total, len(ranges)))
    splits = ("train",) * sizes.train + ("val",) * sizes.val + ("test",) * sizes.test
    return DatasetManifest(
        seed=seed, sizes=sizes, boundary=boundary, draws=draws, splits=splits, hfov_deg=hfov_deg
    )


def sample_pose(sample: RandomizationSample) -> CameraPose:
    """Camera pose implied by a sample: its position with a pure-yaw
    orientation (the camera base is levelled)."""
    return CameraPose(sample.position, quat_from_yaw_pitch(sample.yaw_deg))


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
