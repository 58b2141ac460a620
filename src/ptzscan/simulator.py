"""Virtual-PTZ execution of scan plans against ground-truth geometry.

The planner works from an *estimated* camera pose; the physical camera sits
at the *true* pose. Executing a plan therefore points the true camera using
pan/tilt values computed for the estimated one, and each image's centre ray
is cast onto the true surface. The gap between where that ray lands and the
label the plan carried is the labelling error this module quantifies,
together with footprint coverage of the surface grid and realized overlap
between consecutive images.

Casting is exact for the analytic cylinder; for grid surfaces the ray is
marched at half the lattice resolution and refined by bisection at the
first crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ptzscan.evaluation import noisy_oracle
from ptzscan.geometry import (
    CameraPose,
    CylinderIntersectionError,
    CylinderModel,
    Ray,
    intersect_cylinder,
    wrap_degrees,
    yaw_from_quaternion,
)
from ptzscan.pantilt import (
    PanTilt,
    PanTiltGrid,
    QuadrantSetup,
    compute_alpha,
    direction_from_pantilt,
    grid_to_pantilt,
)
from ptzscan.planner import ScanConfig, ScanPlan, plan_full
from ptzscan.surface import INTERP_Z_OVER_XY, SurfaceGrid

__all__ = [
    "SurfaceMissError",
    "ImageResult",
    "SectionReport",
    "SimulationReport",
    "PropagationDraw",
    "PropagationStudy",
    "footprint",
    "cast_to_surface",
    "execute_plan",
    "error_propagation",
]


class SurfaceMissError(Exception):
    """A commanded ray does not strike the target surface."""


@dataclass(frozen=True, eq=False)
class ImageResult:
    """One executed shot: command, label carried by the plan, true hit."""

    sequence: int
    section: str
    pan_deg: float
    tilt_deg: float
    label: np.ndarray
    hit: Optional[np.ndarray]
    error_m: Optional[float]
    missed: bool


@dataclass(frozen=True)
class SectionReport:
    """Coverage and overlap achieved within one section."""

    name: str
    image_count: int
    coverage: float
    overlaps: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError(f"coverage must be in [0, 1], got {self.coverage}")


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Per-section coverage plus the labelling-error distribution."""

    sections: tuple[SectionReport, ...]
    images: tuple[ImageResult, ...]
    label_error_median_m: float
    label_error_rmse_m: float
    missed_count: int

    @property
    def image_count(self) -> int:
        return len(self.images)

    def errors(self) -> np.ndarray:
        return np.array([im.error_m for im in self.images if im.error_m is not None])


def footprint(
    u_true: PanTiltGrid, shot: PanTilt, cfg: ScanConfig
) -> set[tuple[int, int]]:
    """Present cells within half a FOV of the shot on the true pan-tilt grid.

    Boundaries are closed: a cell exactly half an FOV away is included.
    Pan differences are wrapped, so footprints behave across the +/-180
    seam.
    """
    dpan = np.abs(180.0 - ((180.0 - (u_true.pans - shot.pan_deg)) % 360.0))
    dtilt = np.abs(u_true.tilts - shot.tilt_deg)
    with np.errstate(invalid="ignore"):
        inside = u_true.valid & (dpan <= cfg.hfov_deg / 2.0) & (dtilt <= cfg.vfov_deg / 2.0)
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(inside))}


def _grid_value(grid: SurfaceGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of the grid's dependent coordinate.

    ``a`` indexes the row axis, ``b`` the column axis (both in metres).
    Returns NaN where any of the four surrounding lattice cells is absent
    or the query leaves the lattice.
    """
    res = grid.resolution
    fr = (a - grid.row_values[0]) / res
    fc = (b - grid.col_values[0]) / res
    nr, nc = grid.shape
    out = np.full(fr.shape, np.nan)
    i0 = np.floor(fr).astype(int)
    j0 = np.floor(fc).astype(int)
    # Boundary queries use the nearest interior cell; the half-cell margin
    # extrapolates the edge patches so rays aimed exactly at the lattice
    # rim still produce a bracketable crossing instead of a NaN gap.
    i0 = np.clip(i0, 0, max(nr - 2, 0))
    j0 = np.clip(j0, 0, max(nc - 2, 0))
    ok = (fr >= -0.5) & (fr <= nr - 0.5) & (fc >= -0.5) & (fc <= nc - 0.5)
    if nr < 2 or nc < 2 or not ok.any():
        return out
    i0k, j0k = i0[ok], j0[ok]
    corners_ok = (
        grid.valid[i0k, j0k]
        & grid.valid[i0k + 1, j0k]
        & grid.valid[i0k, j0k + 1]
        & grid.valid[i0k + 1, j0k + 1]
    )
    vi = 2 if grid.section.interpolated_coordinate == INTERP_Z_OVER_XY else 0
    wa = fr[ok] - i0k
    wb = fc[ok] - j0k
    vals = (
        grid.points[i0k, j0k, vi] * (1 - wa) * (1 - wb)
        + grid.points[i0k + 1, j0k, vi] * wa * (1 - wb)
        + grid.points[i0k, j0k + 1, vi] * (1 - wa) * wb
        + grid.points[i0k + 1, j0k + 1, vi] * wa * wb
    )
    vals = np.where(corners_ok, vals, np.nan)
    out[ok] = vals
    return out


def _grid_offset(grid: SurfaceGrid, pts: np.ndarray) -> np.ndarray:
    """Signed offset of points from the grid surface along the dependent
    axis (NaN off-lattice)."""
    if grid.section.interpolated_coordinate == INTERP_Z_OVER_XY:
        surf = _grid_value(grid, pts[:, 0], pts[:, 1])
        return pts[:, 2] - surf
    surf = _grid_value(grid, pts[:, 2], pts[:, 1])
    return pts[:, 0] - surf


def _cast_to_grid(ray: Ray, grid: SurfaceGrid) -> np.ndarray:
    """First ray--grid crossing by marching at half resolution + bisection."""
    finite = grid.points[grid.valid]
    if finite.size == 0:
        raise SurfaceMissError("grid has no present cells")
    t_max = float(np.max(np.linalg.norm(finite - ray.origin, axis=1))) + 1.0
    step = grid.resolution / 2.0
    ts = np.arange(0.0, t_max + step, step)
    pts = ray.origin[None, :] + ts[:, None] * ray.direction[None, :]
    f = _grid_offset(grid, pts)
    both = np.isfinite(f[:-1]) & np.isfinite(f[1:])
    crossing = both & (f[:-1] * f[1:] <= 0.0) & (ts[1:] > 0.0)
    idx = np.nonzero(crossing)[0]
    if idx.size == 0:
        raise SurfaceMissError("ray does not cross the grid surface")
    k = int(idx[0])
    lo, hi = ts[k], ts[k + 1]
    f_lo = f[k]
    if f_lo == 0.0:
        return ray.at(float(lo))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = _grid_offset(grid, ray.at(mid)[None, :])[0]
        if not math.isfinite(f_mid):
            break
        if f_lo * f_mid > 0.0:
            lo = mid
            f_lo = f_mid
        else:
            hi = mid
    return ray.at(0.5 * (lo + hi))


def cast_to_surface(
    true_pose: CameraPose,
    pan_deg: float,
    tilt_deg: float,
    alpha_true_deg: float,
    target: Union[CylinderModel, SurfaceGrid],
) -> np.ndarray:
    """Where a commanded pan/tilt, executed from the true pose, strikes the
    target surface. Raises SurfaceMissError on a miss."""
    direction = direction_from_pantilt(pan_deg, tilt_deg, alpha_true_deg)
    ray = Ray(true_pose.position, direction)
    if isinstance(target, CylinderModel):
        try:
            return intersect_cylinder(ray, target)
        except CylinderIntersectionError as exc:
            raise SurfaceMissError(str(exc)) from exc
    return _cast_to_grid(ray, target)


def _median_rmse(errors: np.ndarray) -> tuple[float, float]:
    """Median and RMSE of labelling errors; NaN for an empty array."""
    if not errors.size:
        return math.nan, math.nan
    return float(np.median(errors)), float(np.sqrt(np.mean(errors**2)))


def _overlap_ratio(a: set, b: set) -> float:
    """Shared fraction of the smaller footprint; 0 when either is empty."""
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def execute_plan(
    plan: ScanPlan,
    true_pose: CameraPose,
    estimated_pose: CameraPose,
    sections: list[SurfaceGrid],
    cfg: ScanConfig,
    quadrant: int,
    cylinder: Optional[CylinderModel] = None,
) -> SimulationReport:
    """Execute a plan from the true pose and measure what it achieved.

    The plan's pan/tilt values were computed under ``estimated_pose``; here
    they are executed physically: the mount offset is recomputed from the
    true yaw, footprints and casts use the true pose. When ``cylinder`` is
    given it is the casting target (exact); otherwise each section's own
    grid is (marched). Missed shots are counted, not fatal.
    """
    if not isinstance(estimated_pose, CameraPose):
        raise TypeError("estimated_pose must be a CameraPose")
    by_name = {g.section.name: g for g in sections}
    true_setup = QuadrantSetup(quadrant, yaw_from_quaternion(true_pose.orientation), true_pose.position)
    alpha_true = compute_alpha(true_setup)

    images: list[ImageResult] = []
    section_reports: list[SectionReport] = []
    sequence = 0
    for section_plan in plan.sections:
        grid = by_name.get(section_plan.name)
        if grid is None:
            raise ValueError(f"plan references unknown section {section_plan.name!r}")
        u_true = grid_to_pantilt(grid, true_setup)
        covered: set[tuple[int, int]] = set()
        footprints: list[set[tuple[int, int]]] = []
        for point in section_plan.points:
            shot = PanTilt(point.pan_deg, point.tilt_deg)
            fp = footprint(u_true, shot, cfg)
            covered |= fp
            footprints.append(fp)
            target = cylinder if cylinder is not None else grid
            try:
                hit = cast_to_surface(
                    true_pose, point.pan_deg, point.tilt_deg, alpha_true, target
                )
                error = float(np.linalg.norm(hit - point.label))
                missed = False
            except SurfaceMissError:
                hit, error, missed = None, None, True
            images.append(
                ImageResult(
                    sequence=sequence,
                    section=section_plan.name,
                    pan_deg=point.pan_deg,
                    tilt_deg=point.tilt_deg,
                    label=point.label,
                    hit=hit,
                    error_m=error,
                    missed=missed,
                )
            )
            sequence += 1
        present = int(grid.valid.sum())
        coverage = len(covered) / present if present else 0.0
        overlaps = tuple(
            _overlap_ratio(a, b) for a, b in zip(footprints, footprints[1:])
        )
        section_reports.append(
            SectionReport(
                name=section_plan.name,
                image_count=len(section_plan.points),
                coverage=coverage,
                overlaps=overlaps,
            )
        )

    errors = np.array([im.error_m for im in images if im.error_m is not None])
    median, rmse = _median_rmse(errors)
    return SimulationReport(
        sections=tuple(section_reports),
        images=tuple(images),
        label_error_median_m=median,
        label_error_rmse_m=rmse,
        missed_count=sum(im.missed for im in images),
    )


@dataclass(frozen=True)
class PropagationDraw:
    """One Monte-Carlo draw of the pose-error propagation study."""

    draw: int
    position_error_m: float
    yaw_error_deg: float
    image_count: int
    label_error_median_m: float
    label_error_rmse_m: float
    coverage_min: float
    missed_count: int


@dataclass(frozen=True, eq=False)
class PropagationStudy:
    """Labelling-error distribution under pose-estimation noise."""

    seed: int
    sigma_pos_m: float
    sigma_yaw_deg: float
    draws: tuple[PropagationDraw, ...]
    all_errors_m: np.ndarray

    @property
    def error_median_m(self) -> float:
        return _median_rmse(self.all_errors_m)[0]

    @property
    def error_rmse_m(self) -> float:
        return _median_rmse(self.all_errors_m)[1]


def error_propagation(
    true_pose: CameraPose,
    sections: list[SurfaceGrid],
    cfg: ScanConfig,
    quadrant: int,
    sigma_pos_m: float,
    sigma_yaw_deg: float,
    n_draws: int,
    seed: int,
    cylinder: Optional[CylinderModel] = None,
) -> PropagationStudy:
    """Monte-Carlo pose-error propagation: each draw perturbs the estimated
    pose, replans the scan from it, executes from the true pose, and
    records the labelling-error outcome. Deterministic per seed."""
    if n_draws < 1:
        raise ValueError("need at least one draw")
    draw_seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=n_draws)
    draws: list[PropagationDraw] = []
    errors: list[np.ndarray] = []
    for k in range(n_draws):
        estimate = noisy_oracle(true_pose, sigma_pos_m, sigma_yaw_deg, seed=int(draw_seeds[k]))
        est_pose = estimate.pose
        est_setup = QuadrantSetup(
            quadrant, yaw_from_quaternion(est_pose.orientation), est_pose.position
        )
        triples = []
        for grid in sections:
            u_est = grid_to_pantilt(grid, est_setup)
            triples.append((u_est, grid, grid.section.kind))
        plan = plan_full(triples, cfg, quadrant)
        report = execute_plan(
            plan, true_pose, est_pose, sections, cfg, quadrant, cylinder=cylinder
        )
        errors.append(report.errors())
        draws.append(
            PropagationDraw(
                draw=k,
                position_error_m=float(
                    np.linalg.norm(est_pose.position - true_pose.position)
                ),
                yaw_error_deg=abs(
                    wrap_degrees(
                        yaw_from_quaternion(est_pose.orientation)
                        - yaw_from_quaternion(true_pose.orientation)
                    )
                ),
                image_count=len(plan),
                label_error_median_m=report.label_error_median_m,
                label_error_rmse_m=report.label_error_rmse_m,
                coverage_min=min((s.coverage for s in report.sections), default=0.0),
                missed_count=report.missed_count,
            )
        )
    all_errors = np.concatenate(errors) if errors else np.empty(0)
    return PropagationStudy(
        seed=seed,
        sigma_pos_m=sigma_pos_m,
        sigma_yaw_deg=sigma_yaw_deg,
        draws=tuple(draws),
        all_errors_m=all_errors,
    )
