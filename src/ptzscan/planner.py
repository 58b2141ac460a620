"""Overlap-aware scan-path generation over pan/tilt grids.

A scan plan visits a subset of grid cells row-major, spaced so consecutive
images overlap by at least a configured fraction ``mu`` of the field of
view. With ``lam = 1 - mu``, a row is admitted when its median tilt moved
at least ``lam * VFOV`` since the last admitted row, and a cell within an
admitted row when its pan moved at least ``lam * HFOV`` since the last
selected cell. A supplementary rule admits the final row/cell when more
than half a FOV would otherwise go uncovered. Wing and stabiliser sections
use the same procedure with the pan/tilt roles and the two FOVs exchanged,
because their image rows run along pan rather than tilt.

The first present row, and the first present cell of each admitted row,
are always selected: the reference values are initialized exactly one
spacing away, which this implementation realizes as an explicit
first-admission rather than trusting float cancellation to reproduce the
equality. A section's plan is its selected cells, with the pan, tilt and
surface label of each read from the grids at those cells, as arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ptzscan.pantilt import PanTilt, PanTiltGrid
from ptzscan.surface import (
    KIND_FUSELAGE,
    KIND_STABILISER,
    KIND_TAIL,
    KIND_WING,
    RELEVANCE_BACK,
    RELEVANCE_FRONT,
    SurfaceGrid,
)

__all__ = [
    "SECTION_SCAN_ORDER",
    "SectionMismatchWarning",
    "ScanConfig",
    "SectionPlan",
    "ScanPlan",
    "plan_section",
    "plan_full",
    "quadrant_half",
    "estimate_image_count",
]

# Fixed concatenation order of section kinds within a full plan.
SECTION_SCAN_ORDER = (KIND_FUSELAGE, KIND_TAIL, KIND_STABILISER, KIND_WING)

# Sections whose image rows advance along pan instead of tilt.
_PAN_MAJOR_KINDS = (KIND_WING, KIND_STABILISER)


class SectionMismatchWarning(UserWarning):
    """A planned section is not relevant for the camera's half."""


@dataclass(frozen=True)
class ScanConfig:
    """Camera FOVs (degrees) and desired overlap ratio between images."""

    hfov_deg: float = 6.15
    vfov_deg: float = 3.46
    mu: float = 0.15

    def __post_init__(self):
        if not (self.hfov_deg > 0.0 and self.vfov_deg > 0.0):
            raise ValueError("FOVs must be positive")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError(f"mu must be in [0, 1), got {self.mu}")

    @property
    def spacing_factor(self) -> float:
        """lam = 1 - mu: selection spacing in FOV units."""
        return 1.0 - self.mu


@dataclass(frozen=True, eq=False)
class SectionPlan:
    """One section's shots in scan order: the (k, 2) grid cells they aim
    at, their (k,) pan and tilt commands in degrees, and their (k, 3)
    surface labels. Indexing a shot gives its ``PanTilt`` command."""

    name: str
    kind: str
    cells: np.ndarray
    pans: np.ndarray
    tilts: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        k = len(self.cells)
        shapes = (self.cells.shape, self.pans.shape, self.tilts.shape, self.labels.shape)
        if shapes != ((k, 2), (k,), (k,), (k, 3)):
            raise ValueError(f"cells, pans, tilts and labels {shapes} for {k} shots")

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, k: int) -> PanTilt:
        return PanTilt(float(self.pans[k]), float(self.tilts[k]))


@dataclass(frozen=True)
class ScanPlan:
    """Sections in scan order, each with its ordered shots."""

    sections: tuple[SectionPlan, ...]

    def __len__(self) -> int:
        return sum(len(s) for s in self.sections)


def _roles(u: PanTiltGrid, cfg: ScanConfig, kind: Optional[str]):
    """Row channel, column channel, row FOV and column FOV of a section kind."""
    if kind in _PAN_MAJOR_KINDS:
        return u.pans, u.tilts, cfg.hfov_deg, cfg.vfov_deg
    return u.tilts, u.pans, cfg.vfov_deg, cfg.hfov_deg


def _select_cells(
    row_channel: np.ndarray,
    col_channel: np.ndarray,
    row_fov: float,
    col_fov: float,
    valid: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Row-major cell selection, as a (k, 2) array of (i, j) cells.

    ``row_channel`` drives row admission via its per-row median;
    ``col_channel`` drives cell admission within a row. Absent cells are
    skipped; medians run over present cells only. The supplementary
    last-row/last-cell rule admits a trailing gap larger than half a FOV.
    """
    present_rows = [i for i in range(valid.shape[0]) if valid[i].any()]
    selected: list[tuple[int, int]] = []
    m_last: Optional[float] = None  # None: first present row admits by construction
    for i in present_rows:
        cols = np.nonzero(valid[i])[0]
        m_next = float(np.median(row_channel[i, cols]))
        admit_row = (
            m_last is None
            or abs(m_last - m_next) >= lam * row_fov
            or (i == present_rows[-1] and abs(m_last - m_next) > row_fov / 2.0)
        )
        if not admit_row:
            continue
        m_last = m_next
        last_col = cols[-1]
        n_last: Optional[float] = None
        for j in cols:
            n_next = float(col_channel[i, j])
            admit_col = (
                n_last is None
                or abs(n_last - n_next) >= lam * col_fov
                or (j == last_col and abs(n_last - n_next) > col_fov / 2.0)
            )
            if admit_col:
                selected.append((i, int(j)))
                n_last = n_next
    return np.array(selected, dtype=np.int64).reshape(-1, 2)


def plan_section(
    u: PanTiltGrid, grid: SurfaceGrid, cfg: ScanConfig, kind: Optional[str] = None
) -> SectionPlan:
    """The plan of one section, its cells in row-major selection order.

    Fuselage/tail sections space rows by tilt against VFOV and cells by pan
    against HFOV; wing/stabiliser sections exchange those roles. An
    all-absent grid yields an empty plan.
    """
    if u.shape != grid.shape:
        raise ValueError(f"pan-tilt grid {u.shape} does not align with surface grid {grid.shape}")
    if not np.array_equal(u.valid, grid.valid):
        raise ValueError("pan-tilt and surface grids disagree on present cells")
    kind = grid.section.kind if kind is None else kind
    cells = _select_cells(*_roles(u, cfg, kind), u.valid, cfg.spacing_factor)
    i, j = cells.T
    return SectionPlan(grid.section.name, kind, cells, u.pans[i, j], u.tilts[i, j], grid.points[i, j])


def quadrant_half(quadrant: int) -> str:
    """Vehicle half a camera quadrant belongs to (2 and 3 are the back)."""
    if quadrant not in (1, 2, 3, 4):
        raise ValueError(f"quadrant must be 1..4, got {quadrant}")
    return RELEVANCE_BACK if quadrant in (2, 3) else RELEVANCE_FRONT


def plan_full(
    sections: list[tuple[PanTiltGrid, SurfaceGrid, str]],
    cfg: ScanConfig,
    quadrant: int,
) -> ScanPlan:
    """Plan every section and concatenate in the fixed scan order
    (fuselage, tail, stabiliser, wing). Sections whose declared relevance
    does not match the camera's half are still planned but flagged with
    SectionMismatchWarning."""
    half = quadrant_half(quadrant)
    ranked = sorted(
        enumerate(sections), key=lambda e: (SECTION_SCAN_ORDER.index(e[1][2]), e[0])
    )
    plans = []
    for _, (u, grid, kind) in ranked:
        if grid.section.relevance != half:
            warnings.warn(
                f"section {grid.section.name!r} is marked {grid.section.relevance} "
                f"but the quadrant-{quadrant} camera sits in the {half}",
                SectionMismatchWarning,
                stacklevel=2,
            )
        plans.append(plan_section(u, grid, cfg, kind))
    return ScanPlan(sections=tuple(plans))


def estimate_image_count(
    u: PanTiltGrid, cfg: ScanConfig, kind: Optional[str] = None
) -> float:
    """Closed-form plan-size forecast: angular extent over adjusted FOV.

    Computed without running the selection loop, so it serves as an
    independent cross-check on plan sizes. The row count comes from the
    span of per-row median angles on the row-driving channel divided by
    lambda times that channel's FOV; the column count from the median
    per-row span on the other channel divided by lambda times its FOV
    (plus one fencepost each). Channel roles follow the section kind the
    same way planning does.
    """
    if kind is not None and kind not in SECTION_SCAN_ORDER:
        raise ValueError(f"unknown section kind {kind!r}")
    row_channel, col_channel, row_fov, col_fov = _roles(u, cfg, kind)
    lam = cfg.spacing_factor
    medians, spans = [], []
    for i in range(u.shape[0]):
        present = u.valid[i]
        if not present.any():
            continue
        medians.append(float(np.median(row_channel[i][present])))
        row = col_channel[i][present]
        spans.append(float(row.max() - row.min()))
    if not medians:
        return 0.0
    rows_est = (max(medians) - min(medians)) / (lam * row_fov) + 1.0
    cols_est = float(np.median(spans)) / (lam * col_fov) + 1.0
    return rows_est * cols_est
