"""Point-cloud ingestion, sectioning, and 5 cm surface-lattice interpolation.

A vehicle model arrives as a scattered point cloud, as xyz text or ASCII
PLY; one reader tells them apart by the first line and parses both bodies
the same way. The cloud is cut into named sections (fuselage, tail, wing,
stabiliser) by axis-aligned boxes, and each section is resampled onto a
regular 0.05 m lattice by piecewise-linear interpolation over a Delaunay
triangulation of the projected points: height z over the (x, y) plane for
most sections, lateral x over (y, z) for the near-vertical tail.

Grid rows share one row coordinate (x, or z for the tail) and columns share
one y value; lattice points outside the convex hull of the section's data
are marked invalid. Input points are sorted and de-duplicated before
triangulation so repeated runs are bit-identical regardless of file order.
A section's points are checked once, by ``interpolate_section``: none, or
collinear or near-collinear ones, are a DegenerateSectionError.

Each lattice node takes the value of the triangle it lies in, with the
triangle's vertices in ascending index order, so its bits follow from that
triangle alone, not from Qhull's vertex order or SciPy's LAPACK. SciPy's
``find_simplex`` locates the nodes; it walks on every simplex's barycentric
transform, which SciPy would compute with a LAPACK solve per simplex, so a
plain numpy inverse goes in through ``Delaunay._transform``, the private
cache it reads (``tests/test_surface.py`` fails loudly if that changes).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import islice
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


class DegenerateSectionError(Exception):
    """Section points are too few, or (near-)collinear, after projection."""


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
        if not (isinstance(self.name, str) and self.name and "/" not in self.name):
            raise ValueError(f"section name must be a file name without '/', got {self.name!r}")
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


def load_point_cloud(path: str | Path) -> PointCloud:
    """Read an ASCII cloud: PLY when the first line is ``ply``, xyz text otherwise.

    A point row holds at least three values, the first three x, y and z;
    blank lines and lines starting with `#` are skipped. A PLY header
    declares only vertices and ends with ``end_header``, and its body holds
    exactly the declared number of points.
    """
    path = Path(path)
    try:
        skip, count = _ply_header(path)
        # Bulk parse; a body it rejects is parsed again without its comment
        # lines, and one still rejected (a bad line, no rows) goes to the line loop.
        points = _loadtxt(path, skip)
        if not len(points):
            with open(path, "r", encoding="utf-8") as fh:
                body = islice(fh, skip, None)
                points = _loadtxt(line for line in body if not line.lstrip().startswith("#"))
        if not len(points):
            points = _parse_rows(path, skip)
    except UnicodeDecodeError as exc:
        raise PointCloudParseError(f"{path}: not UTF-8 text ({exc})") from exc
    if count is not None and len(points) != count:
        raise PointCloudParseError(
            f"{path}: header declares {count} vertices, body has {len(points)}"
        )
    return PointCloud(points)


def _loadtxt(source, skip: int = 0) -> np.ndarray:
    """The first three values of each row, or no rows where np.loadtxt rejects the body."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            return np.loadtxt(source, dtype=np.float64, comments=None, skiprows=skip,
                              usecols=(0, 1, 2), ndmin=2, encoding="utf-8")
    except ValueError:
        return np.empty((0, 3))


def _ply_header(path: Path) -> tuple[int, Optional[int]]:
    """Header line count and declared vertex count; (0, None) for xyz text."""
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip() != "ply":
            return 0, None
        vertex_count = None
        for lineno, line in enumerate(fh, start=2):
            text = line.strip()
            if text.startswith("element vertex"):
                try:
                    vertex_count = int(text.split()[2])
                except (IndexError, ValueError) as exc:
                    raise PointCloudParseError(f"{path}:{lineno}: bad element line") from exc
            elif text.startswith("element "):
                raise PointCloudParseError(f"{path}:{lineno}: only vertex elements are supported")
            elif text == "end_header" and vertex_count is not None:
                return lineno, vertex_count
            elif text == "end_header":
                break
    raise PointCloudParseError(f"{path}: header lacks vertex count or end_header")


def _parse_rows(path: Path, skip: int) -> np.ndarray:
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if lineno <= skip or not parts or parts[0].startswith("#"):
                continue
            if len(parts) < 3:
                raise PointCloudParseError(
                    f"{path}:{lineno}: expected at least 3 values, got {len(parts)}"
                )
            try:
                points.append([float(v) for v in parts[:3]])
            except ValueError as exc:
                raise PointCloudParseError(f"{path}:{lineno}: {exc}") from exc
    if not points:
        raise PointCloudParseError(f"{path}: no points found")
    return np.array(points, dtype=np.float64)


def section_points(cloud: PointCloud, spec: SectionSpec) -> PointCloud:
    """Points of ``cloud`` inside the section's closed box (bounds included).

    An empty selection is an empty cloud, which ``interpolate_section``
    refuses.
    """
    lo = np.array(spec.box_min)
    hi = np.array(spec.box_max)
    mask = np.all((cloud.points >= lo) & (cloud.points <= hi), axis=1)
    return PointCloud(cloud.points[mask])


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
    DegenerateSectionError for no points, < 3 usable points or a collinear
    or near-collinear projection (Qhull's point at infinity in a triangle).
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
    # Column indexing yields Fortran order; Delaunay would keep a C copy.
    proj = np.ascontiguousarray(pts[:, axes])

    collinear = f"section {spec.name!r}: need >= 3 non-collinear projected points"
    if len(proj) < 3 or np.linalg.matrix_rank(proj[1:] - proj[0], tol=1e-12) < 2:
        raise DegenerateSectionError(collinear)
    # Imported on first use: only the commands that interpolate load SciPy.
    from scipy.spatial import Delaunay, QhullError

    try:
        tri = Delaunay(proj)
    except QhullError as exc:
        raise DegenerateSectionError(f"section {spec.name!r}: triangulation failed ({exc})") from exc
    if tri.simplices.max() >= len(proj):  # Qhull's Qz point at infinity: near-collinear points
        raise DegenerateSectionError(collinear)
    # find_simplex walks on the transform; SciPy's own takes a LAPACK solve per simplex.
    tri._transform = _transforms(proj, tri.simplices)

    rows, cols = pts[:, spec.row_axis], pts[:, 1]
    row_values = _lattice(rows.min(), rows.max(), GRID_RESOLUTION)
    col_values = _lattice(cols.min(), cols.max(), GRID_RESOLUTION)

    points = np.empty((len(row_values), len(col_values), 3), dtype=np.float64)
    points[..., spec.row_axis] = row_values[:, None]
    points[..., 1] = col_values[None, :]
    xi = points[..., axes].reshape(-1, 2)
    simplex = tri.find_simplex(xi)
    found = simplex != -1
    interpolated = np.full(len(xi), np.nan)
    interpolated[found] = _node_values(
        proj, pts[:, spec.value_axis], tri.simplices[simplex[found]], xi[found]
    )
    interpolated = interpolated.reshape(points.shape[:2])
    valid = np.isfinite(interpolated)
    points[..., spec.value_axis] = interpolated
    points[~valid] = np.nan
    return SurfaceGrid(spec, row_values, col_values, points, valid)


@np.errstate(all="ignore")  # a singular row is NaN, not a warning
def _transforms(points: np.ndarray, simplices: np.ndarray,
                rcond_min: float = 1000 * np.finfo(np.float64).eps) -> np.ndarray:
    """``Delaunay.transform`` of 2D simplices, from the plain 2x2 inverse.

    A has columns e0 = p0 - p2 and e1 = p1 - p2; rows 0 and 1 of each (3, 2)
    block are A^-1, its adjugate over its determinant, and row 2 is p2. A
    simplex whose 1-norm reciprocal condition number
    |det A| / (||A||_1 ||A||_inf) is under ``rcond_min`` is all NaN; the
    default is SciPy's.
    """
    v = points[simplices]
    r = v[:, 2]
    (a, c), (b, d) = (v[:, 0] - r).T, (v[:, 1] - r).T
    det = a * d - b * c
    out = np.empty((len(r), 3, 2))
    out[:, 0, 0], out[:, 0, 1] = d / det, -b / det
    out[:, 1, 0], out[:, 1, 1] = -c / det, a / det
    out[:, 2] = r
    norm_1 = np.maximum(abs(a) + abs(c), abs(b) + abs(d))
    norm_inf = np.maximum(abs(a) + abs(b), abs(c) + abs(d))
    out[abs(det) / norm_1 / norm_inf < rcond_min] = np.nan
    return out


def _node_values(points: np.ndarray, values: np.ndarray, simplices: np.ndarray,
                 xi: np.ndarray) -> np.ndarray:
    """The linear interpolant at each node ``xi[k]`` over its triangle ``simplices[k]``,
    its vertices in ascending index order: a node's bits follow from its
    triangle and itself, not from Qhull's vertex order."""
    simplices = np.sort(simplices, axis=1)
    # No NaN rule: each simplex passed it in the vertex order find_simplex used.
    t = _transforms(points, simplices, rcond_min=0.0)
    d = xi - t[:, 2]
    c0 = t[:, 0, 0] * d[:, 0] + t[:, 0, 1] * d[:, 1]
    c1 = t[:, 1, 0] * d[:, 0] + t[:, 1, 1] * d[:, 1]
    v = values[simplices]
    return c0 * v[:, 0] + c1 * v[:, 1] + (1.0 - c0 - c1) * v[:, 2]
