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

Each simplex's barycentric transform is a 2x2 LU solve that SciPy runs
through LAPACK one simplex at a time; ``_barycentric_transforms`` runs it in
numpy with the bundled OpenBLAS arithmetic, bit for bit, and leaves rows it
cannot vouch for to SciPy. SciPy has no public way to supply a transform, so
it goes in through ``Delaunay._transform``, the private cache ``find_simplex``
reads (``tests/test_surface.py`` fails loudly if that changes); ``_linear_nd``
then sums the barycentric terms as SciPy's interpolator would, in numpy.
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
    from scipy.spatial import Delaunay, QhullError
    from scipy.spatial._qhull import _get_barycentric_transforms

    try:
        tri = Delaunay(proj)
    except QhullError as exc:
        raise DegenerateSectionError(f"section {spec.name!r}: triangulation failed ({exc})") from exc
    # SciPy's own transform, bit for bit, set where find_simplex reads it.
    transform, unsure = _barycentric_transforms(tri.points, tri.simplices)
    transform[unsure] = _get_barycentric_transforms(tri.points, tri.simplices[unsure], _EPS)
    tri._transform = transform

    rows, cols = pts[:, spec.row_axis], pts[:, 1]
    row_values = _lattice(rows.min(), rows.max(), GRID_RESOLUTION)
    col_values = _lattice(cols.min(), cols.max(), GRID_RESOLUTION)

    points = np.empty((len(row_values), len(col_values), 3), dtype=np.float64)
    points[..., spec.row_axis] = row_values[:, None]
    points[..., 1] = col_values[None, :]
    interpolated = _linear_nd(tri, pts[:, spec.value_axis], points[..., axes].reshape(-1, 2))
    interpolated = interpolated.reshape(points.shape[:2])
    valid = np.isfinite(interpolated)
    points[..., spec.value_axis] = interpolated
    points[~valid] = np.nan
    return SurfaceGrid(spec, row_values, col_values, points, valid)


@np.errstate(all="ignore")  # SciPy's loop warns about nothing either
def _linear_nd(tri, values: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """``LinearNDInterpolator(tri, values)(xi)``, bit for bit: SciPy's simplex
    walk (``find_simplex``), then the interpolator's sum in its order. Next to
    a NaN transform row find_simplex searches ten times wider than the
    interpolator, so such a triangulation is left to the interpolator."""
    if np.isnan(tri.transform).any():
        from scipy.interpolate import LinearNDInterpolator
        return LinearNDInterpolator(tri, values)(xi)
    simplex = tri.find_simplex(xi)
    t = tri.transform[simplex]
    d = xi - t[:, 2]
    c = (0.0 + t[:, :2, 0] * d[:, :1]) + t[:, :2, 1] * d[:, 1:]
    v = values[tri.simplices[simplex]]
    out = ((0.0 + c[:, 0] * v[:, 0]) + c[:, 1] * v[:, 1]) + ((1.0 - c[:, 0]) - c[:, 1]) * v[:, 2]
    return np.where(simplex == -1, np.nan, out)


# Delaunay.transform's tolerance: SciPy's routine gives a simplex whose
# LAPACK-estimated reciprocal condition number is under 1000 * _EPS a NaN
# transform. That estimate never falls below the true value, so a row whose
# true value clears 16 times the limit is one SciPy solves; the rest are
# left to SciPy.
_EPS = float(np.finfo(np.float64).eps)
_RCOND_SURE = 16 * 1000 * _EPS


def _two_sum(a, b):
    """``a + b`` rounded, and its exact rounding error (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    """Veltkamp's split of ``a`` into two halves of at most 26 significant bits."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


@np.errstate(all="ignore")  # elements outside the exact range are flagged, not warned about
def _fma(a, b, c):
    """Elementwise ``a * b + c`` rounded once, and where that is guaranteed.

    Boldo and Melquiond's emulation of a fused multiply-add: Dekker's exact
    product p + e = a * b, Knuth's exact sum s + t = c + p, then t + e
    rounded to odd, so that adding it to s rounds only once. Every step is
    exact while |a|, |b| and |c| stay under 2**900 and a * b is zero or at
    least 2**-900 in magnitude; the second array marks those elements.
    """
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    s, t = _two_sum(c, p)
    v, w = _two_sum(t, e)
    # Round to odd: an inexact v whose last bit is even steps one ulp towards w.
    even = v.view(np.int64) & 1 == 0
    v = np.where((w != 0) & even, np.nextafter(v, np.copysign(np.inf, w)), v)
    big = 2.0**900
    exact = (abs(a) < big) & (abs(b) < big) & (abs(c) < big)
    exact &= (a == 0) | (b == 0) | (abs(p) >= 1.0 / big)
    return np.where(v == 0, s, s + v), exact  # s, not s + 0, keeps an exact -0


@np.errstate(all="ignore")  # a singular or non-finite row is flagged, not warned about
def _barycentric_transforms(points: np.ndarray, simplices: np.ndarray):
    """``Delaunay.transform`` of 2D simplices, bit for bit, and the rows left to SciPy.

    Row k of each (3, 2) block is column k of A^-1, where A has rows
    e0 = p0 - p2 and e1 = p1 - p2 (SciPy's T, which Fortran sees
    transposed); row 2 is p2. SciPy gets A^-1 from LAPACK's dgetrf and
    dgetrs, which the bundled OpenBLAS runs as: swap the rows only when
    |e1x| > |e0x|, then with pivot row (a, b) and other row (c, d),
    l = c * (1/a) and u22 = d - l * b; each column (B0, B1) of the
    row-permuted identity gives x1 = (B1 - l * B0) * (1/u22) and
    x0 = fma(-b, x1, B0) * (1/a). The second array marks rows this cannot
    vouch for: not finite, a reciprocal condition number within a factor
    of 16 of SciPy's limit, or fma operands outside ``_fma``'s exact range.
    """
    v = points[simplices]
    r = v[:, 2]
    e0, e1 = v[:, 0] - r, v[:, 1] - r
    swap = abs(e1[:, 0]) > abs(e0[:, 0])
    (a, b), (c, d) = np.where(swap, e1.T, e0.T), np.where(swap, e0.T, e1.T)
    out = np.empty((len(r), 3, 2))
    out[:, 2] = r
    inv_a = 1.0 / a
    l = c * inv_a
    u22 = d - l * b
    inv_u22 = 1.0 / u22
    sure = np.ones(len(r), dtype=bool)
    for k, b0 in enumerate((np.where(swap, 0.0, 1.0), np.where(swap, 1.0, 0.0))):
        x1 = ((1.0 - b0) - l * b0) * inv_u22
        x0, exact = _fma(-b, x1, b0)
        out[:, k] = np.column_stack([x0 * inv_a, x1])
        sure &= exact
    # The 1-norm reciprocal condition number of a 2x2 A is
    # |det A| / (||A||_1 ||A||_inf), with det A = a * u22; taken as two
    # ratios, it neither overflows nor underflows where it matters.
    norm_1 = np.maximum(abs(e0[:, 0]) + abs(e1[:, 0]), abs(e0[:, 1]) + abs(e1[:, 1]))
    norm_inf = np.maximum(abs(e0).sum(axis=1), abs(e1).sum(axis=1))
    sure &= abs(a) / norm_1 * (abs(u22) / norm_inf) >= _RCOND_SURE
    return out, ~(sure & np.isfinite(out).all(axis=(1, 2)))
