"""Deployment boundaries and domain-randomised dataset manifests.

A synthetic training image is described by a draw of camera placement
(position inside the quadrant's 3 m x 3 m x 1 m box, yaw and pan inside the
quadrant window, tilt near -18 degrees) plus appearance parameters: ambient
and specular RGB per scene object and a texture placement (offset,
rotation, scale) per surface. Rendering is out of scope — a manifest is the
exact, reproducible list of parameter draws.

Reproducibility contract: draws are uniform, independent, and consumed in a
fixed documented order from a named generator (numpy's PCG64 via
``np.random.default_rng(seed)``), so a manifest is a pure function of
(boundary, sizes, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ptzscan.geometry import CameraPose, quat_from_yaw_pitch, wrap_degrees, yaw_from_quaternion
from ptzscan.pantilt import QUADRANT_PAN_OFFSETS, YAW_TOLERANCE_DEG

__all__ = [
    "GENERATOR_NAME",
    "SCENE_OBJECTS",
    "DeploymentBoundary",
    "MaterialColor",
    "TexturePlacement",
    "RandomizationSample",
    "SplitSizes",
    "DatasetManifest",
    "ConstraintViolation",
    "DeploymentReport",
    "sample_setup",
    "generate_manifest",
    "validate_deployment",
    "sample_pose",
]

# The portable RNG this module commits to; recorded in manifest headers.
GENERATOR_NAME = "numpy-pcg64"

# Textured objects in the synthetic scene, in draw order.
SCENE_OBJECTS = ("ground", "aircraft", "background")

# Texture-placement draw ranges (the placement itself is renderer input;
# these bounds are part of the manifest contract).
TEXTURE_OFFSET_RANGE = (0.0, 1.0)
TEXTURE_ROTATION_RANGE_DEG = (0.0, 360.0)
TEXTURE_SCALE_RANGE = (0.5, 2.0)


def _check_range(name: str, rng: tuple[float, float]) -> tuple[float, float]:
    lo, hi = float(rng[0]), float(rng[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"{name} range must satisfy lo <= hi, got ({lo}, {hi})")
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
        if self.yaw_window_deg < 0.0 or self.tilt_tolerance_deg < 0.0:
            raise ValueError("yaw window and tilt tolerance must be non-negative")

    @property
    def nominal_pan_deg(self) -> float:
        return QUADRANT_PAN_OFFSETS[self.quadrant]

    @property
    def yaw_range_deg(self) -> tuple[float, float]:
        return (
            self.nominal_pan_deg - self.yaw_window_deg,
            self.nominal_pan_deg + self.yaw_window_deg,
        )

    @property
    def tilt_range_deg(self) -> tuple[float, float]:
        return (
            self.tilt_center_deg - self.tilt_tolerance_deg,
            self.tilt_center_deg + self.tilt_tolerance_deg,
        )


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
        for name, rng in (
            ("offset_u", TEXTURE_OFFSET_RANGE),
            ("offset_v", TEXTURE_OFFSET_RANGE),
            ("rotation_deg", TEXTURE_ROTATION_RANGE_DEG),
            ("scale_u", TEXTURE_SCALE_RANGE),
            ("scale_v", TEXTURE_SCALE_RANGE),
        ):
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
    """A reproducible dataset description: header plus per-sample draws.

    ``splits`` assigns each sample index to train/val/test; samples are in
    generation order (train block, then val, then test).
    """

    seed: int
    sizes: SplitSizes
    boundary: DeploymentBoundary
    samples: tuple[RandomizationSample, ...]
    splits: tuple[str, ...]
    hfov_deg: float = 72.5
    generator: str = GENERATOR_NAME

    def __post_init__(self):
        if len(self.samples) != self.sizes.total or len(self.splits) != self.sizes.total:
            raise ValueError("sample and split counts must match the declared sizes")


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


def sample_setup(boundary: DeploymentBoundary, rng: np.random.Generator) -> RandomizationSample:
    """Draw one randomization sample from the boundary's ranges.

    Consumption order (fixed, part of the reproducibility contract):
    x, y, height, yaw, pan, tilt; then per object in SCENE_OBJECTS order
    ambient RGB and specular RGB; then per object a texture placement as
    (offset u, offset v, rotation, scale u, scale v). All draws uniform.
    """
    x = rng.uniform(*boundary.x_range)
    y = rng.uniform(*boundary.y_range)
    z = rng.uniform(*boundary.height_range)
    yaw = rng.uniform(*boundary.yaw_range_deg)
    pan = rng.uniform(*boundary.yaw_range_deg)
    tilt = rng.uniform(*boundary.tilt_range_deg)
    colors = {}
    for obj in SCENE_OBJECTS:
        ambient = tuple(rng.uniform(0.0, 1.0, size=3).tolist())
        specular = tuple(rng.uniform(0.0, 1.0, size=3).tolist())
        colors[obj] = MaterialColor(ambient, specular)
    textures = {}
    for obj in SCENE_OBJECTS:
        textures[obj] = TexturePlacement(
            offset_u=rng.uniform(*TEXTURE_OFFSET_RANGE),
            offset_v=rng.uniform(*TEXTURE_OFFSET_RANGE),
            rotation_deg=rng.uniform(*TEXTURE_ROTATION_RANGE_DEG),
            scale_u=rng.uniform(*TEXTURE_SCALE_RANGE),
            scale_v=rng.uniform(*TEXTURE_SCALE_RANGE),
        )
    return RandomizationSample(
        position=np.array([x, y, z]),
        yaw_deg=yaw,
        pan_deg=pan,
        tilt_deg=tilt,
        colors=colors,
        textures=textures,
    )


def generate_manifest(
    boundary: DeploymentBoundary,
    sizes: SplitSizes = SplitSizes(),
    seed: int = 0,
    hfov_deg: float = DatasetManifest.hfov_deg,
) -> DatasetManifest:
    """Deterministic manifest: one PCG64 stream, samples drawn sequentially
    and assigned to the train, val, and test blocks in that order."""
    rng = np.random.default_rng(seed)
    samples = tuple(sample_setup(boundary, rng) for _ in range(sizes.total))
    splits = ("train",) * sizes.train + ("val",) * sizes.val + ("test",) * sizes.test
    return DatasetManifest(
        seed=seed,
        sizes=sizes,
        boundary=boundary,
        samples=samples,
        splits=splits,
        hfov_deg=hfov_deg,
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
        if value < rng[0]:
            margin = rng[0] - value
            violations.append(
                ConstraintViolation(name, margin, f"{name}={value:.4g}{unit} is "
                                                  f"{margin:.4g}{unit} below {rng[0]:.4g}{unit}")
            )
        elif value > rng[1]:
            margin = value - rng[1]
            violations.append(
                ConstraintViolation(name, margin, f"{name}={value:.4g}{unit} is "
                                                  f"{margin:.4g}{unit} above {rng[1]:.4g}{unit}")
            )

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
