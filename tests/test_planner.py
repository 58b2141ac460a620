"""Tests for overlap-aware scan-path selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptzscan.geometry import CameraPose, quat_from_yaw_pitch, vec3
from ptzscan.pantilt import PanTiltGrid, QuadrantSetup, grid_to_pantilt
from ptzscan.planner import (
    ScanConfig,
    ScanPlan,
    SectionMismatchWarning,
    SectionPlan,
    _row_medians,
    estimate_image_count,
    plan_full,
    plan_section,
    quadrant_half,
)
from ptzscan.simulator import execute_plan
from ptzscan.surface import PointCloud, SectionSpec, SurfaceGrid, interpolate_section


def make_pair(pans, tilts, kind="fuselage", name="fix", relevance="back-half"):
    """Build an aligned (PanTiltGrid, SurfaceGrid) pair from raw angle arrays.

    Cells where pan is NaN are absent in both grids.
    """
    pans = np.asarray(pans, dtype=float)
    tilts = np.asarray(tilts, dtype=float)
    valid = np.isfinite(pans) & np.isfinite(tilts)
    rows, cols = pans.shape
    spec = SectionSpec(name, kind, (-1e3, -1e3, -1e3), (1e3, 1e3, 1e3), relevance=relevance)
    row_values = 0.05 * np.arange(rows)
    col_values = 0.05 * np.arange(cols)
    points = np.empty((rows, cols, 3))
    points[..., 0] = row_values[:, None]
    points[..., 1] = col_values[None, :]
    points[..., 2] = 7.0
    points[~valid] = np.nan
    grid = SurfaceGrid(
        section=spec, row_values=row_values, col_values=col_values, points=points, valid=valid
    )
    u = PanTiltGrid(pans=np.where(valid, pans, np.nan), tilts=np.where(valid, tilts, np.nan), valid=valid)
    return u, grid


def selected_cells(plan):
    return [tuple(cell) for cell in plan.cells.tolist()]


class TestScanConfig:
    def test_defaults(self):
        cfg = ScanConfig()
        assert cfg.hfov_deg == 6.15
        assert cfg.vfov_deg == 3.46
        assert cfg.mu == 0.15
        assert cfg.spacing_factor == pytest.approx(0.85)

    def test_mu_bounds(self):
        ScanConfig(mu=0.0)
        with pytest.raises(ValueError):
            ScanConfig(mu=1.0)
        with pytest.raises(ValueError):
            ScanConfig(mu=-0.1)

    def test_positive_fovs(self):
        with pytest.raises(ValueError):
            ScanConfig(hfov_deg=0.0)


class TestSingleRowTrace:
    def test_two_degree_fov_selects_alternating_pans(self):
        # Pans 0..10 step 1, HFOV 2, mu 0.15: spacing threshold 1.7 deg, so
        # every second pan is taken and the end pan falls out naturally.
        pans = np.arange(0.0, 11.0)[None, :]
        tilts = np.zeros_like(pans)
        u, grid = make_pair(pans, tilts)
        cfg = ScanConfig(hfov_deg=2.0, vfov_deg=2.0, mu=0.15)
        points = plan_section(u, grid, cfg)
        assert [p.pan_deg for p in points] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_single_cell(self):
        u, grid = make_pair([[3.0]], [[-18.0]])
        points = plan_section(u, grid, ScanConfig())
        assert len(points) == 1
        assert points[0].pan_deg == 3.0
        assert points[0].tilt_deg == -18.0

    def test_single_present_cell_in_sparse_grid(self):
        pans = np.full((4, 5), np.nan)
        tilts = np.full((4, 5), np.nan)
        pans[2, 3] = 1.0
        tilts[2, 3] = -5.0
        u, grid = make_pair(pans, tilts)
        points = plan_section(u, grid, ScanConfig())
        assert selected_cells(points) == [(2, 3)]

    def test_all_absent_is_empty(self):
        u, grid = make_pair(np.full((3, 3), np.nan), np.full((3, 3), np.nan))
        assert len(plan_section(u, grid, ScanConfig())) == 0


class TestRowAdmission:
    def test_rows_spaced_by_median_tilt(self):
        # Row tilts 0, -1, ..., -10 with VFOV 2 (threshold 1.7): rows at
        # tilt 0, -2, -4, ... are admitted, mirroring the pan trace.
        tilts = -np.arange(0.0, 11.0)[:, None] * np.ones((1, 3))
        pans = np.zeros_like(tilts)
        u, grid = make_pair(pans, tilts)
        cfg = ScanConfig(hfov_deg=2.0, vfov_deg=2.0, mu=0.15)
        points = plan_section(u, grid, cfg)
        admitted_rows = sorted(set(points.cells[:, 0].tolist()))
        assert admitted_rows == [0, 2, 4, 6, 8, 10]

    def test_last_row_supplementary_rule_admits(self):
        # Final gap 1.2 deg: below the 1.7 threshold, above VFOV/2 = 1.0.
        u, grid = make_pair(np.zeros((2, 1)), np.array([[0.0], [-1.2]]))
        cfg = ScanConfig(hfov_deg=2.0, vfov_deg=2.0, mu=0.15)
        assert sorted(set(plan_section(u, grid, cfg).cells[:, 0].tolist())) == [0, 1]

    def test_last_row_supplementary_rule_rejects_small_gap(self):
        u, grid = make_pair(np.zeros((2, 1)), np.array([[0.0], [-0.9]]))
        cfg = ScanConfig(hfov_deg=2.0, vfov_deg=2.0, mu=0.15)
        assert sorted(set(plan_section(u, grid, cfg).cells[:, 0].tolist())) == [0]

    def test_last_column_supplementary_rule(self):
        cfg = ScanConfig(hfov_deg=2.0, vfov_deg=2.0, mu=0.15)
        u, grid = make_pair(np.array([[0.0, 1.2]]), np.zeros((1, 2)))
        assert [p.pan_deg for p in plan_section(u, grid, cfg)] == [0.0, 1.2]
        u, grid = make_pair(np.array([[0.0, 0.9]]), np.zeros((1, 2)))
        assert [p.pan_deg for p in plan_section(u, grid, cfg)] == [0.0]

    def test_median_ignores_absent_cells(self):
        # Row 1's absent cell would drag the median if counted.
        tilts = np.array([[0.0, 0.0, 0.0], [-2.0, np.nan, -2.0]])
        pans = np.zeros_like(tilts)
        u, grid = make_pair(pans, tilts)
        cfg = ScanConfig(hfov_deg=2.0, vfov_deg=2.0, mu=0.15)
        assert sorted(set(plan_section(u, grid, cfg).cells[:, 0].tolist())) == [0, 1]


class TestSpacingInvariant:
    def test_monotone_row_spacing_bounds(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            n = rng.integers(5, 40)
            steps = rng.uniform(0.2, 1.0, size=n - 1)
            pans = np.concatenate([[0.0], np.cumsum(steps)])[None, :]
            tilts = np.zeros_like(pans)
            u, grid = make_pair(pans, tilts)
            cfg = ScanConfig(hfov_deg=2.0, vfov_deg=2.0, mu=0.15)
            points = plan_section(u, grid, cfg)
            lam_h = cfg.spacing_factor * cfg.hfov_deg
            sel = [p.pan_deg for p in points]
            for a, b in zip(sel, sel[1:]):
                gap = b - a
                # The final point may ride in on the half-FOV rule instead.
                if b == sel[-1] and gap <= lam_h:
                    assert gap > cfg.hfov_deg / 2.0
                    continue
                assert lam_h <= gap <= lam_h + steps.max() + 1e-12

    def test_fewer_points_as_overlap_shrinks(self):
        pans = np.arange(0.0, 30.0, 0.4)[None, :]
        tilts = np.zeros_like(pans)
        u, grid = make_pair(pans, tilts)
        counts = []
        for mu in [0.0, 0.15, 0.3, 0.5, 0.7]:
            cfg = ScanConfig(hfov_deg=3.0, vfov_deg=3.0, mu=mu)
            counts.append(len(plan_section(u, grid, cfg)))
        assert counts == sorted(counts)


class TestChannelDuality:
    def random_pair(self, rng, kind="fuselage"):
        shape = (rng.integers(2, 12), rng.integers(2, 12))
        pans = rng.uniform(-30, 30, shape)
        tilts = rng.uniform(-40, 0, shape)
        drop = rng.random(shape) < 0.2
        pans[drop] = np.nan
        tilts[drop] = np.nan
        return make_pair(pans, tilts, kind=kind)

    def test_wing_equals_fuselage_with_channels_swapped(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            u, grid = self.random_pair(rng)
            cfg = ScanConfig(hfov_deg=4.0, vfov_deg=2.5, mu=0.2)
            base = plan_section(u, grid, cfg, kind="fuselage")
            swapped_u = PanTiltGrid(pans=u.tilts, tilts=u.pans, valid=u.valid)
            swapped_cfg = ScanConfig(hfov_deg=cfg.vfov_deg, vfov_deg=cfg.hfov_deg, mu=cfg.mu)
            swapped = plan_section(swapped_u, grid, swapped_cfg, kind="wing")
            assert selected_cells(swapped) == selected_cells(base)

    def test_transposed_wing_matches_on_separable_grid(self):
        # Pan depending only on the column and tilt only on the row makes
        # the selection a product set, so transposing inputs and running
        # the wing variant lands on the transposed cells.
        rng = np.random.default_rng(79)
        for _ in range(20):
            nrow, ncol = rng.integers(2, 10), rng.integers(2, 10)
            row_tilt = -np.sort(rng.uniform(0, 25, nrow))
            col_pan = np.sort(rng.uniform(-20, 20, ncol))
            tilts = np.repeat(row_tilt[:, None], ncol, axis=1)
            pans = np.repeat(col_pan[None, :], nrow, axis=0)
            u, grid = make_pair(pans, tilts)
            cfg = ScanConfig(hfov_deg=5.0, vfov_deg=3.0, mu=0.15)
            base = plan_section(u, grid, cfg, kind="fuselage")
            ut, gridt = make_pair(pans.T, tilts.T)
            transposed = plan_section(ut, gridt, cfg, kind="wing")
            assert sorted((j, i) for i, j in selected_cells(transposed)) == sorted(
                selected_cells(base)
            )

    def test_determinism(self):
        rng = np.random.default_rng(83)
        u, grid = self.random_pair(rng)
        cfg = ScanConfig()
        a = plan_section(u, grid, cfg)
        b = plan_section(u, grid, cfg)
        assert selected_cells(a) == selected_cells(b)
        assert [p.pan_deg for p in a] == [p.pan_deg for p in b]


class TestPlanFull:
    def make_sections(self):
        entries = []
        for name, kind, relevance in [
            ("wing-top", "wing", "back-half"),
            ("fuselage-rear", "fuselage", "back-half"),
            ("fin", "tail", "back-half"),
            ("stab-left", "stabiliser", "back-half"),
        ]:
            u, grid = make_pair(
                np.array([[0.0, 3.0]]), np.array([[-18.0, -18.0]]),
                kind=kind, name=name, relevance=relevance,
            )
            entries.append((u, grid, kind))
        return entries

    def test_fixed_section_order(self):
        plan = plan_full(self.make_sections(), ScanConfig(), quadrant=3)
        assert [s.kind for s in plan.sections] == ["fuselage", "tail", "stabiliser", "wing"]
        assert [s.name for s in plan.sections] == [
            "fuselage-rear", "fin", "stab-left", "wing-top",
        ]
        assert len(plan) == sum(len(s) for s in plan.sections)

    def test_relevance_mismatch_warns(self):
        sections = self.make_sections()
        with pytest.warns(SectionMismatchWarning):
            plan_full(sections, ScanConfig(), quadrant=1)

    def test_matching_relevance_silent(self, recwarn):
        plan_full(self.make_sections(), ScanConfig(), quadrant=2)
        assert not [w for w in recwarn if issubclass(w.category, SectionMismatchWarning)]

    def test_quadrant_half_mapping(self):
        assert quadrant_half(2) == "back-half"
        assert quadrant_half(3) == "back-half"
        assert quadrant_half(1) == "front-half"
        assert quadrant_half(4) == "front-half"
        with pytest.raises(ValueError):
            quadrant_half(0)

    def test_plan_iterates_all_points(self):
        plan = plan_full(self.make_sections(), ScanConfig(), quadrant=3)
        assert len([shot for section in plan.sections for shot in section]) == len(plan)
        assert isinstance(plan, ScanPlan)


class TestAttachLabels:
    """Planning labels each shot with the surface point of its (i, j) cell.

    Executing a plan rejects a cell off the grid or absent from it.
    """

    def run(self, plan, grid):
        pose = CameraPose(vec3(-7.0, 0.0, 10.0), quat_from_yaw_pitch(20.0))
        section = SectionPlan(grid.section.name, grid.section.kind, *plan)
        execute_plan(ScanPlan((section,)), pose, pose, [grid], ScanConfig(), quadrant=3)

    def test_labels_match_cells(self):
        u, grid = make_pair(np.array([[0.0, 3.0]]), np.array([[-18.0, -17.0]]))
        plan = plan_section(u, grid, ScanConfig(hfov_deg=2.0, vfov_deg=2.0))
        assert len(plan) == 2
        i, j = plan.cells[:, 0], plan.cells[:, 1]
        assert plan.labels.tobytes() == grid.points[i, j].tobytes()
        assert plan.pans.tobytes() == u.pans[i, j].tobytes()
        assert plan.tilts.tobytes() == u.tilts[i, j].tobytes()

    def test_tampered_index_rejected(self):
        u, grid = make_pair(np.array([[0.0]]), np.array([[-18.0]]))
        plan = plan_section(u, grid, ScanConfig())
        for cell in [(5, 0), (-1, 0), (0, -1)]:
            with pytest.raises(ValueError, match=r"point 0: cell \(.*\) is off the 1x1 grid"):
                self.run((np.array([cell]), plan.pans, plan.tilts, plan.labels), grid)

    def test_absent_cell_rejected(self):
        u, grid = make_pair(np.array([[0.0, np.nan]]), np.array([[-18.0, np.nan]]))
        plan = plan_section(u, grid, ScanConfig())
        assert plan.cells.tolist() == [[0, 0]]
        with pytest.raises(ValueError, match=r"cell \(0, 1\) is absent from the grid"):
            self.run((plan.cells + [0, 1], plan.pans, plan.tilts, plan.labels), grid)

    def test_cylinder_plan_labels_on_surface(self):
        # End to end on an interpolated arc: every selected label obeys the
        # cylinder equation within interpolation error.
        r0, h0 = 2.0, 2.0
        rng = np.random.default_rng(89)
        gx, gy = np.meshgrid(
            np.arange(-1.8, 0.0 + 1e-9, 0.01), np.arange(0.0, 3.0 + 1e-9, 0.01), indexing="ij"
        )
        xs = np.clip(gx + rng.uniform(-0.002, 0.002, gx.shape), -1.95, None).ravel()
        ys = (gy + rng.uniform(-0.002, 0.002, gy.shape)).ravel()
        zs = h0 + np.sqrt(r0**2 - xs**2)
        spec = SectionSpec("arc", "fuselage", (-2, -1, 0), (1, 7, 5))
        grid = interpolate_section(PointCloud(np.column_stack([xs, ys, zs])), spec)
        setup = QuadrantSetup(3, 20.0, vec3(-7.0, 3.0, 7.0))
        u = grid_to_pantilt(grid, setup)
        points = plan_section(u, grid, ScanConfig())
        assert len(points) > 3
        residual = points.labels[:, 0] ** 2 + (points.labels[:, 2] - h0) ** 2 - r0**2
        assert np.abs(residual).max() < 2 * r0 * 1e-3


class TestAlignmentValidation:
    def test_shape_mismatch(self):
        u, _ = make_pair(np.zeros((2, 2)), np.zeros((2, 2)))
        _, grid = make_pair(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            plan_section(u, grid, ScanConfig())

    def test_valid_mask_mismatch(self):
        u, _ = make_pair(np.array([[0.0, np.nan]]), np.array([[0.0, np.nan]]))
        _, grid = make_pair(np.array([[0.0, 1.0]]), np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError):
            plan_section(u, grid, ScanConfig())


@st.composite
def median_rows(draw):
    """A channel and its valid mask: each row holds 1-40 present cells
    (duplicates and both zeros among them) at random places, and NaN at
    absent ones."""
    values = st.sampled_from([0.0, -0.0, 1.5, -2.25]) | st.floats(-180.0, 180.0)
    rows = draw(st.integers(1, 6))
    channel, valid = np.full((rows, 40), np.nan), np.zeros((rows, 40), dtype=bool)
    for i in range(rows):
        cols = draw(st.permutations(range(40)))[: draw(st.integers(1, 40))]
        channel[i, cols] = draw(st.lists(values, min_size=len(cols), max_size=len(cols)))
        valid[i, cols] = True
    return channel, valid


class TestRowMedians:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(median_rows())
    def test_each_row_is_np_median_of_its_present_cells(self, rows):
        # By value, and bit for bit but for the sign of zero: np.median's
        # partition orders a 0.0 and -0.0 tie as it likes. A median only
        # feeds abs(m_last - m_next) and max - min, where that sign is lost.
        channel, valid = rows
        medians = _row_medians(channel, valid)
        for i, m in enumerate(medians.tolist()):
            ref = float(np.median(channel[i][valid[i]]))
            assert m == ref and (ref == 0.0 or np.float64(m).tobytes() == np.float64(ref).tobytes())

    def test_row_without_present_cells_is_nan(self):
        channel = np.array([[1.0, np.nan], [np.nan, np.nan]])
        medians = _row_medians(channel, np.isfinite(channel))
        assert medians[0] == 1.0 and np.isnan(medians[1])


def _reference_estimate(u, cfg, kind=None):
    """``estimate_image_count`` as a loop over rows with ``np.median``."""
    row_channel, col_channel = (u.pans, u.tilts) if kind == "wing" else (u.tilts, u.pans)
    row_fov, col_fov = (cfg.hfov_deg, cfg.vfov_deg) if kind == "wing" else (cfg.vfov_deg, cfg.hfov_deg)
    medians, spans = [], []
    for i in range(u.shape[0]):
        present = u.valid[i]
        if present.any():
            medians.append(float(np.median(row_channel[i][present])))
            spans.append(float(col_channel[i][present].max() - col_channel[i][present].min()))
    if not medians:
        return 0.0
    lam = cfg.spacing_factor
    return ((max(medians) - min(medians)) / (lam * row_fov) + 1.0) * (float(np.median(spans)) / (lam * col_fov) + 1.0)


class TestEstimateImageCount:
    @pytest.mark.parametrize("kind", [None, "wing"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_per_row_loop(self, seed, kind):
        rng = np.random.default_rng(seed)
        pans = rng.uniform(-60.0, 60.0, (12, 17))
        tilts = rng.uniform(-60.0, 10.0, (12, 17))
        pans[rng.random(pans.shape) < 0.3] = np.nan
        pans[3] = np.nan  # a row with no present cell
        u, _ = make_pair(pans, tilts)
        cfg = ScanConfig(hfov_deg=6.15, vfov_deg=3.46, mu=0.15)
        assert estimate_image_count(u, cfg, kind) == _reference_estimate(u, cfg, kind)

    def test_separable_grid_matches_hand_formula(self):
        # tilts depend only on the row, pans only on the column, so the
        # estimate reduces to (row span / lam V + 1)(col span / lam H + 1).
        i = np.arange(10)[:, None]
        j = np.arange(21)[None, :]
        pans = np.broadcast_to(2.0 * j, (10, 21))
        tilts = np.broadcast_to(-30.0 + 1.5 * i, (10, 21))
        u, _ = make_pair(pans, tilts)
        cfg = ScanConfig(hfov_deg=6.15, vfov_deg=3.46, mu=0.15)
        est = estimate_image_count(u, cfg)
        lam = 0.85
        expected = (13.5 / (lam * 3.46) + 1.0) * (40.0 / (lam * 6.15) + 1.0)
        assert est == pytest.approx(expected, rel=1e-12)

    def test_forecast_brackets_actual_plan_size(self):
        # Cell steps well below lam*FOV, as interpolated sections give:
        # the forecast ignores cell quantization, so coarse steps would
        # legitimately push the realized count below the 20% band.
        rng = np.random.default_rng(5)
        i = np.arange(40)[:, None]
        j = np.arange(80)[None, :]
        pans = 0.5 * j + 0.01 * i + rng.normal(0.0, 0.02, (40, 80))
        tilts = -40.0 + 0.4 * i + 0.005 * j + rng.normal(0.0, 0.02, (40, 80))
        u, grid = make_pair(pans, tilts)
        cfg = ScanConfig(hfov_deg=6.15, vfov_deg=3.46, mu=0.15)
        actual = len(plan_section(u, grid, cfg))
        est = estimate_image_count(u, cfg)
        assert 0.8 * est <= actual <= 1.2 * est

    def test_wing_swaps_channel_roles(self):
        i = np.arange(8)[:, None]
        j = np.arange(12)[None, :]
        pans = np.broadcast_to(3.0 * i, (8, 12)).copy()
        tilts = np.broadcast_to(1.0 * j, (8, 12)).copy()
        u, _ = make_pair(pans, tilts)
        cfg = ScanConfig(hfov_deg=6.0, vfov_deg=4.0, mu=0.0)
        est = estimate_image_count(u, cfg, kind="wing")
        expected = (21.0 / 6.0 + 1.0) * (11.0 / 4.0 + 1.0)
        assert est == pytest.approx(expected, rel=1e-12)

    def test_empty_grid_estimates_zero(self):
        pans = np.full((3, 3), np.nan)
        u, _ = make_pair(pans, pans)
        assert estimate_image_count(u, ScanConfig()) == 0.0

    def test_unknown_kind_rejected(self):
        u, _ = make_pair([[0.0]], [[0.0]])
        with pytest.raises(ValueError, match="unknown section kind"):
            estimate_image_count(u, ScanConfig(), kind="nose")
