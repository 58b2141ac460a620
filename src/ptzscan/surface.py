"""Point-cloud ingestion, sectioning, and 5 cm surface-lattice interpolation.

A vehicle model arrives as a scattered point cloud. It is cut into named
sections (fuselage, tail, wing, stabiliser) by axis-aligned boxes, and each
section is resampled onto a regular 0.05 m lattice by piecewise-linear
interpolation over a Delaunay triangulation of the projected points:
height z over the (x, y) plane for most sections, lateral x over (y, z) for
the near-vertical tail.

Grid rows share one row coordinate (x, or z for the tail) and columns share
one y value; lattice points outside the convex hull of the section's data
are marked invalid. Input points are sorted and de-duplicated before
triangulation so repeated runs are bit-identical regardless of file order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "GRID_RESOLUTION",
    "KIND_FUSELAGE",
    "KIND_TAIL",
    "KIND_WING",
    "KIND_STABILISER",
    "RELEVANCE_BACK",
    "RELEVANCE_FRONT",
    "PointCloudParseError",
    "EmptySectionWarning",
    "DegenerateSectionError",
    "PointCloud",
    "SectionSpec",
    "SurfaceGrid",
    "load_point_cloud",
    "section_points",
    "interpolate_section",
]

# Lattice spacing for interpolated surface grids, metres.
GRID_RESOLUTION = 0.05

KIND_FUSELAGE = "fuselage"
KIND_TAIL = "tail"
KIND_WING = "wing"
KIND_STABILISER = "stabiliser"
_KINDS = (KIND_FUSELAGE, KIND_TAIL, KIND_WING, KIND_STABILISER)

RELEVANCE_BACK = "back-half"
RELEVANCE_FRONT = "front-half"


class PointCloudParseError(Exception):
    """A cloud file could not be parsed; message includes file and line."""


class EmptySectionWarning(UserWarning):
    """A section box selected no points; the section is unusable."""


class DegenerateSectionError(Exception):
    """Section points are too few or collinear after projection."""


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Scattered 3D points (N x 3, metres)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class SectionSpec:
    """A named axis-aligned box cut of the cloud; its kind fixes the layout.

    The tail interpolates x over (y, z), everything else z over (x, y):
    ``value_axis`` is the scene axis interpolated and ``row_axis`` the one
    grid rows step along (z for the tail, x otherwise); grid columns always
    step along y.
    ``relevance`` records which half of the vehicle a camera must occupy
    for this section to be worth scanning.
    """

    name: str
    kind: str
    box_min: tuple[float, float, float]
    box_max: tuple[float, float, float]
    relevance: str = RELEVANCE_BACK

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown section kind {self.kind!r}")
        if self.relevance not in (RELEVANCE_BACK, RELEVANCE_FRONT):
            raise ValueError(f"unknown relevance {self.relevance!r}")
        lo = tuple(float(v) for v in self.box_min)
        hi = tuple(float(v) for v in self.box_max)
        if len(lo) != 3 or len(hi) != 3:
            raise ValueError("box bounds must be 3-tuples")
        for axis, (a, b) in enumerate(zip(lo, hi)):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError(f"box must satisfy min < max on axis {axis}: {a} vs {b}")
        object.__setattr__(self, "box_min", lo)
        object.__setattr__(self, "box_max", hi)

    @property
    def value_axis(self) -> int:
        return 0 if self.kind == KIND_TAIL else 2

    @property
    def row_axis(self) -> int:
        return 2 if self.kind == KIND_TAIL else 0


@dataclass(frozen=True, eq=False)
class SurfaceGrid:
    """Regular 0.05 m lattice of interpolated surface points for a section.

    ``points[i, j]`` is the 3D surface point at row i, column j; ``valid``
    marks cells inside the data's convex hull. Rows all share one row
    coordinate (x, or z for the tail); columns all share one y.
    """

    section: SectionSpec
    row_values: np.ndarray
    col_values: np.ndarray
    points: np.ndarray
    valid: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.valid.shape

    def cell(self, i: int, j: int) -> Optional[np.ndarray]:
        """Surface point at (i, j), or None when outside the data hull."""
        if not (0 <= i < self.shape[0] and 0 <= j < self.shape[1]):
            raise IndexError(f"cell ({i}, {j}) outside grid of shape {self.shape}")
        if not self.valid[i, j]:
            return None
        return self.points[i, j].copy()


def load_point_cloud(path: str | Path, fmt: str = "xyz-ascii") -> PointCloud:
    """Read a cloud from ``xyz-ascii`` (one `x y z` per line, `#` comments)
    or ``ply-ascii-subset`` (ASCII ply header + vertex positions)."""
    loaders = {"xyz-ascii": _load_xyz, "ply-ascii-subset": _load_ply}
    if fmt not in loaders:
        raise ValueError(f"unknown point-cloud format {fmt!r}")
    try:
        return loaders[fmt](Path(path))
    except UnicodeDecodeError as exc:
        raise PointCloudParseError(f"{path}: not UTF-8 text ({exc})") from exc


def _load_xyz(path: Path) -> PointCloud:
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 3:
                raise PointCloudParseError(
                    f"{path}:{lineno}: expected 3 values, got {len(parts)}"
                )
            try:
                points.append([float(v) for v in parts])
            except ValueError as exc:
                raise PointCloudParseError(f"{path}:{lineno}: {exc}") from exc
    if not points:
        raise PointCloudParseError(f"{path}: no points found")
    return PointCloud(np.array(points, dtype=np.float64))


def _load_ply(path: Path) -> PointCloud:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise PointCloudParseError(f"{path}:1: missing 'ply' magic line")
    vertex_count = None
    body_start = None
    for idx, line in enumerate(lines[1:], start=2):
        text = line.strip()
        if text.startswith("element vertex"):
            try:
                vertex_count = int(text.split()[2])
            except (IndexError, ValueError) as exc:
                raise PointCloudParseError(f"{path}:{idx}: bad element line") from exc
        elif text.startswith("element "):
            raise PointCloudParseError(
                f"{path}:{idx}: only vertex elements are supported"
            )
        elif text == "end_header":
            body_start = idx
            break
    if vertex_count is None or body_start is None:
        raise PointCloudParseError(f"{path}: header lacks vertex count or end_header")
    body = [(n, ln) for n, ln in enumerate(lines[body_start:], body_start + 1) if ln.strip()]
    if len(body) != vertex_count:
        raise PointCloudParseError(
            f"{path}: header declares {vertex_count} vertices, body has {len(body)}"
        )
    if vertex_count == 0:
        raise PointCloudParseError(f"{path}: empty vertex list")
    points = np.empty((vertex_count, 3), dtype=np.float64)
    for row, (lineno, line) in enumerate(body):
        parts = line.split()
        if len(parts) < 3:
            raise PointCloudParseError(
                f"{path}:{lineno}: vertex line has fewer than 3 values"
            )
        try:
            points[row] = [float(v) for v in parts[:3]]
        except ValueError as exc:
            raise PointCloudParseError(
                f"{path}:{lineno}: {exc}"
            ) from exc
    return PointCloud(points)


def section_points(cloud: PointCloud, spec: SectionSpec) -> PointCloud:
    """Points of ``cloud`` inside the section's closed box (bounds included).

    An empty selection returns an empty cloud and raises
    EmptySectionWarning; downstream interpolation will refuse it.
    """
    lo = np.array(spec.box_min)
    hi = np.array(spec.box_max)
    mask = np.all((cloud.points >= lo) & (cloud.points <= hi), axis=1)
    selected = cloud.points[mask]
    if selected.shape[0] == 0:
        warnings.warn(
            f"section {spec.name!r} selected no points", EmptySectionWarning, stacklevel=2
        )
    return PointCloud(selected)


def _lattice(lo: float, hi: float, resolution: float) -> np.ndarray:
    """Ascending lattice from lo to hi inclusive at the given spacing.

    The final point is clipped back to hi when accumulated rounding pushes
    it a few ulps past the data range (which would fall outside the hull).
    """
    n = int(math.floor((hi - lo) / resolution + 1e-9)) + 1
    values = lo + resolution * np.arange(n)
    if n > 1 and values[-1] > hi:
        values[-1] = hi
    return values


def interpolate_section(sub: PointCloud, spec: SectionSpec) -> SurfaceGrid:
    """Interpolate a section onto its 0.05 m lattice.

    Piecewise-linear over a Delaunay triangulation of the projected points;
    the lattice spans the projected bounding rectangle anchored at its min
    corner. Cells outside the convex hull are invalid. Raises
    DegenerateSectionError for < 3 usable points or a collinear projection.
    """
    if len(sub) == 0:
        raise DegenerateSectionError(f"section {spec.name!r} has no points")
    # Canonical ordering, then first-wins de-duplication of projected
    # coordinates, so triangulation ties never depend on input order.
    pts = sub.points[np.lexsort((sub.points[:, 2], sub.points[:, 1], sub.points[:, 0]))]
    # The projection keeps the other two axes in scene order: (x, y) or (y, z).
    axes = [a for a in range(3) if a != spec.value_axis]
    _, keep = np.unique(pts[:, axes], axis=0, return_index=True)
    keep.sort()
    pts = pts[keep]
    # Column indexing yields Fortran order; the interpolator would keep a C copy.
    proj = np.ascontiguousarray(pts[:, axes])

    if len(proj) < 3 or np.linalg.matrix_rank(proj[1:] - proj[0], tol=1e-12) < 2:
        raise DegenerateSectionError(
            f"section {spec.name!r}: need >= 3 non-collinear projected points"
        )
    # Imported on first use: only the commands that interpolate load SciPy.
    from scipy.interpolate import LinearNDInterpolator
    from scipy.spatial import QhullError

    try:
        interp = LinearNDInterpolator(proj, pts[:, spec.value_axis])
    except QhullError as exc:
        raise DegenerateSectionError(
            f"section {spec.name!r}: triangulation failed ({exc})"
        ) from exc

    rows, cols = pts[:, spec.row_axis], pts[:, 1]
    row_values = _lattice(rows.min(), rows.max(), GRID_RESOLUTION)
    col_values = _lattice(cols.min(), cols.max(), GRID_RESOLUTION)

    points = np.empty((len(row_values), len(col_values), 3), dtype=np.float64)
    points[..., spec.row_axis] = row_values[:, None]
    points[..., 1] = col_values[None, :]
    interpolated = interp(points[..., axes].reshape(-1, 2)).reshape(points.shape[:2])
    valid = np.isfinite(interpolated)
    points[..., spec.value_axis] = interpolated
    points[~valid] = np.nan
    return SurfaceGrid(
        section=spec,
        row_values=row_values,
        col_values=col_values,
        points=points,
        valid=valid,
    )

