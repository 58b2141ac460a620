"""Virtual-PTZ execution of scan plans against ground-truth geometry.

The planner works from an *estimated* camera pose; the physical camera sits
at the *true* pose. Executing a plan therefore points the true camera using
pan/tilt values computed for the estimated one, and each image's centre ray
is cast onto the true surface. The gap between where that ray lands and the
label the plan carried is the labelling error this module quantifies,
together with footprint coverage of the surface grid and realized overlap
between consecutive images.

Casting takes all shots of a section at once. It is exact, ray by ray,
for the analytic cylinder. For grid surfaces every ray is marched at half
the lattice resolution in one batch, and the first crossing of each is
refined by bisection, all brackets together; a ray that brackets no
crossing, or whose bisection reaches a hole in the grid, is a miss.
Footprints are boolean masks over the section's pan-tilt grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ptzscan.evaluation import median_rmse, noisy_oracle
from ptzscan.geometry import (
    CameraPose,
    CylinderIntersectionError,
    CylinderModel,
    Ray,
    intersect_cylinder,
    vector_norm,
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
from ptzscan.surface import GRID_RESOLUTION, SurfaceGrid

__all__ = [
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


def footprint(u_true: PanTiltGrid, shot: PanTilt, cfg: ScanConfig) -> np.ndarray:
    """Mask of present cells within half a FOV of the shot on the true
    pan-tilt grid (same shape as ``u_true``).

    Boundaries are closed: a cell exactly half an FOV away is included.
    Pan differences are wrapped, so footprints behave across the +/-180
    seam.
    """
    with np.errstate(invalid="ignore"):
        inside = u_true.valid & (np.abs(u_true.tilts - shot.tilt_deg) <= cfg.vfov_deg / 2.0)
        # The float remainder dominates the cost, so pan differences are
        # wrapped only for cells already inside the tilt band.
        dpan = np.abs(180.0 - ((180.0 - (u_true.pans[inside] - shot.pan_deg)) % 360.0))
        inside[inside] = dpan <= cfg.hfov_deg / 2.0
    return inside


def _grid_value(grid: SurfaceGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of the grid's value axis.

    ``a`` indexes the row axis, ``b`` the column axis (both in metres).
    Returns NaN where any of the four surrounding lattice cells is absent
    or the query leaves the lattice.
    """
    fr = (a - grid.row_values[0]) / GRID_RESOLUTION
    fc = (b - grid.col_values[0]) / GRID_RESOLUTION
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
    vi = grid.section.value_axis
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
    """Signed offset of points from the grid surface along its value axis
    (NaN off-lattice)."""
    spec = grid.section
    return pts[:, spec.value_axis] - _grid_value(grid, pts[:, spec.row_axis], pts[:, 1])


def _cast_to_grid(
    origin: np.ndarray, directions: np.ndarray, grid: SurfaceGrid
) -> tuple[np.ndarray, np.ndarray]:
    """First crossing of each ray ``origin + t * directions[i]`` with the
    grid surface: one march at half resolution for all rays, then
    bisection of every bracket together, for at most 60 steps. Bisection
    stops early once every open bracket spans adjacent floats, since its
    midpoint can then only repeat an end.

    A ray misses when no step pair brackets a sign change, or when a
    bisection midpoint has no surface value (a hole under the crossing).
    """
    n = len(directions)
    hits = np.full((n, 3), np.nan)
    missed = np.ones(n, dtype=bool)
    finite = grid.points[grid.valid]
    if finite.size == 0 or n == 0:
        return hits, missed
    t_max = float(np.max(np.linalg.norm(finite - origin, axis=1))) + 1.0
    step = GRID_RESOLUTION / 2.0
    ts = np.arange(0.0, t_max + step, step)
    pts = origin + ts[None, :, None] * directions[:, None, :]
    f = _grid_offset(grid, pts.reshape(-1, 3)).reshape(n, len(ts))
    crossing = np.isfinite(f[:, :-1]) & np.isfinite(f[:, 1:]) & (f[:, :-1] * f[:, 1:] <= 0.0)
    rows = np.nonzero(crossing.any(axis=1))[0]
    k = crossing[rows].argmax(axis=1)
    d = directions[rows]
    lo, hi = ts[k], ts[k + 1]
    f_lo = f[rows, k]
    on_sample = f_lo == 0.0
    bisecting = ~on_sample
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if not (bisecting & (lo < mid) & (mid < hi)).any():
            break
        f_mid = _grid_offset(grid, origin + mid[:, None] * d)
        bisecting &= np.isfinite(f_mid)
        up = bisecting & (f_lo * f_mid > 0.0)
        lo = np.where(up, mid, lo)
        f_lo = np.where(up, f_mid, f_lo)
        hi = np.where(bisecting & ~up, mid, hi)
    hit = on_sample | bisecting
    t = np.where(on_sample, lo, 0.5 * (lo + hi))[hit]
    hits[rows[hit]] = origin + t[:, None] * d[hit]
    missed[rows[hit]] = False
    return hits, missed


def cast_to_surface(
    true_pose: CameraPose,
    pans_deg: Sequence[float],
    tilts_deg: Sequence[float],
    alpha_true_deg: float,
    target: Union[CylinderModel, SurfaceGrid],
) -> tuple[np.ndarray, np.ndarray]:
    """Where each commanded pan/tilt, executed from the true pose, strikes
    the target surface.

    Returns an (n, 3) array of hits and a length-n boolean miss mask; a
    missed shot's row is NaN. The cylinder is intersected exactly, ray by
    ray; a grid is marched once for all shots (see ``_cast_to_grid``).
    """
    rays = [
        Ray(true_pose.position, direction_from_pantilt(pan, tilt, alpha_true_deg))
        for pan, tilt in zip(pans_deg, tilts_deg)
    ]
    if isinstance(target, CylinderModel):
        hits = np.full((len(rays), 3), np.nan)
        missed = np.zeros(len(rays), dtype=bool)
        for i, ray in enumerate(rays):
            try:
                hits[i] = intersect_cylinder(ray, target)
            except CylinderIntersectionError:
                missed[i] = True
        return hits, missed
    directions = np.array([ray.direction for ray in rays]).reshape(-1, 3)
    return _cast_to_grid(true_pose.position, directions, target)


def _overlap_ratio(a: np.ndarray, b: np.ndarray) -> float:
    """Shared fraction of the smaller footprint; 0 when either is empty."""
    na, nb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    if not na or not nb:
        return 0.0
    return int(np.count_nonzero(a & b)) / min(na, nb)


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
        points = section_plan.points
        hits, missed = cast_to_surface(
            true_pose,
            [point.pan_deg for point in points],
            [point.tilt_deg for point in points],
            alpha_true,
            cylinder if cylinder is not None else grid,
        )
        covered = np.zeros(u_true.valid.shape, dtype=bool)
        footprints: list[np.ndarray] = []
        for point, hit, miss in zip(points, hits, missed):
            fp = footprint(u_true, PanTilt(point.pan_deg, point.tilt_deg), cfg)
            covered |= fp
            footprints.append(fp)
            images.append(
                ImageResult(
                    sequence=sequence,
                    section=section_plan.name,
                    pan_deg=point.pan_deg,
                    tilt_deg=point.tilt_deg,
                    label=point.label,
                    hit=None if miss else hit,
                    error_m=None if miss else vector_norm(hit - point.label),
                    missed=bool(miss),
                )
            )
            sequence += 1
        present = int(grid.valid.sum())
        coverage = int(np.count_nonzero(covered)) / present if present else 0.0
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
    median, rmse = median_rmse(errors)
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
        return median_rmse(self.all_errors_m)[0]

    @property
    def error_rmse_m(self) -> float:
        return median_rmse(self.all_errors_m)[1]


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
                position_error_m=vector_norm(est_pose.position - true_pose.position),
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
