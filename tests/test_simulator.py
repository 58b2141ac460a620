"""Tests for virtual-PTZ plan execution: footprints, casting, reports."""

import numpy as np
import pytest

from ptzscan.geometry import CameraPose, CylinderModel, quat_from_yaw_pitch
from ptzscan.pantilt import (
    PanTilt,
    PanTiltGrid,
    QuadrantSetup,
    YawToleranceWarning,
    grid_to_pantilt,
    point_to_pantilt,
)
from ptzscan.planner import ScanConfig, ScanPlan, SectionPlan, plan_full
from ptzscan.simulator import (
    SurfaceMissError,
    cast_to_surface,
    error_propagation,
    execute_plan,
    footprint,
)
from ptzscan.surface import (
    KIND_FUSELAGE,
    PointCloud,
    SectionSpec,
    interpolate_section,
    section_points,
)

R0 = 2.0
H0 = 2.0
CAMERA = np.array([-7.0, 1.5, 6.75])
YAW = 20.0  # quadrant-3 nominal direction, so alpha = 0
QUADRANT = 3


def cylinder_surface_grid(x_lo, x_hi, y_lo, y_hi, step=0.01, name="fuselage"):
    """Upper-cylinder section grid built through the real pipeline.

    The cloud is an exact lattice whose pitch divides the 5 cm grid pitch,
    so grid cells coincide with cloud vertices and carry exact surface
    points — any labelling error the simulator reports is its own.
    """
    xs = np.arange(x_lo, x_hi + step / 2, step)
    ys = np.arange(y_lo, y_hi + step / 2, step)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    zz = H0 + np.sqrt(np.maximum(R0**2 - xx**2, 0.0))
    cloud = PointCloud(points=np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()]))
    spec = SectionSpec(
        name=name,
        kind=KIND_FUSELAGE,
        box_min=(x_lo - 0.1, y_lo - 0.1, 0.0),
        box_max=(x_hi + 0.1, y_hi + 0.1, H0 + R0 + 0.5),
    )
    return interpolate_section(section_points(cloud, spec), spec)


@pytest.fixture(scope="module")
def cyl_grid():
    return cylinder_surface_grid(-1.8, 0.0, 0.0, 3.0)


@pytest.fixture(scope="module")
def true_pose():
    return CameraPose(CAMERA, quat_from_yaw_pitch(YAW))


@pytest.fixture(scope="module")
def true_setup():
    return QuadrantSetup(QUADRANT, YAW, CAMERA)


@pytest.fixture(scope="module")
def cfg():
    return ScanConfig(hfov_deg=6.15, vfov_deg=3.46, mu=0.15)


@pytest.fixture(scope="module")
def cyl_plan(cyl_grid, true_setup, cfg):
    u = grid_to_pantilt(cyl_grid, true_setup)
    return plan_full([(u, cyl_grid, KIND_FUSELAGE)], cfg, QUADRANT)


@pytest.fixture(scope="module")
def plane_grid():
    # z = 3 + 0.2 x - 0.1 y: bilinear patches reproduce a plane exactly,
    # so grid casts can be checked against the analytic intersection.
    xs, ys = np.meshgrid(np.arange(0.0, 1.0001, 0.05), np.arange(0.0, 1.0001, 0.05), indexing="ij")
    zz = 3.0 + 0.2 * xs - 0.1 * ys
    cloud = PointCloud(points=np.column_stack([xs.ravel(), ys.ravel(), zz.ravel()]))
    spec = SectionSpec(
        name="panel",
        kind=KIND_FUSELAGE,
        box_min=(-0.1, -0.1, 0.0),
        box_max=(1.1, 1.1, 4.0),
    )
    return interpolate_section(section_points(cloud, spec), spec)


def tiny_u(pans, tilts, valid=None):
    pans = np.asarray(pans, dtype=float)
    tilts = np.asarray(tilts, dtype=float)
    if valid is None:
        valid = np.isfinite(pans)
    return PanTiltGrid(pans=pans, tilts=tilts, valid=np.asarray(valid))


class TestFootprint:
    def test_shot_on_cell_includes_it(self, cyl_grid, true_setup, cfg):
        u = grid_to_pantilt(cyl_grid, true_setup)
        shot = PanTilt(float(u.pans[5, 7]), float(u.tilts[5, 7]))
        assert (5, 7) in footprint(u, shot, cfg)

    def test_fov_wider_than_grid_covers_everything(self, cyl_grid, true_setup):
        u = grid_to_pantilt(cyl_grid, true_setup)
        wide = ScanConfig(hfov_deg=179.0, vfov_deg=179.0, mu=0.15)
        fp = footprint(u, PanTilt(0.0, -30.0), wide)
        assert len(fp) == int(u.valid.sum())

    def test_boundary_is_closed(self):
        u = tiny_u([[0.0, 3.0, 3.0000001]], [[0.0, 0.0, 0.0]])
        cfg = ScanConfig(hfov_deg=6.0, vfov_deg=4.0, mu=0.0)
        fp = footprint(u, PanTilt(0.0, 0.0), cfg)
        assert (0, 1) in fp
        assert (0, 2) not in fp

    def test_pan_wraps_across_seam(self):
        u = tiny_u([[179.9, -179.9]], [[0.0, 0.0]])
        cfg = ScanConfig(hfov_deg=1.0, vfov_deg=1.0, mu=0.0)
        fp = footprint(u, PanTilt(179.9, 0.0), cfg)
        assert fp == {(0, 0), (0, 1)}

    def test_absent_cells_never_included(self):
        u = tiny_u([[0.0, 0.1]], [[0.0, 0.0]], valid=[[True, False]])
        cfg = ScanConfig(hfov_deg=6.0, vfov_deg=4.0, mu=0.0)
        assert footprint(u, PanTilt(0.0, 0.0), cfg) == {(0, 0)}


class TestCastToSurface:
    def test_cylinder_hit_is_exact(self, true_pose):
        target = np.array([-1.2, 1.0, H0 + np.sqrt(R0**2 - 1.2**2)])
        pt = point_to_pantilt(target, CAMERA, alpha_deg=0.0)
        cyl = CylinderModel(axis_height=H0, radius=R0)
        hit = cast_to_surface(true_pose, pt.pan_deg, pt.tilt_deg, 0.0, cyl)
        np.testing.assert_allclose(hit, target, atol=1e-9)

    def test_upward_ray_misses(self, true_pose):
        cyl = CylinderModel(axis_height=H0, radius=R0)
        with pytest.raises(SurfaceMissError):
            cast_to_surface(true_pose, 0.0, 45.0, 0.0, cyl)

    def test_plane_grid_matches_analytic_intersection(self, plane_grid):
        pose = CameraPose(np.array([0.5, 0.5, 6.0]), quat_from_yaw_pitch(0.0))
        target = np.array([0.32, 0.71, 3.0 + 0.2 * 0.32 - 0.1 * 0.71])
        pt = point_to_pantilt(target, pose.position, alpha_deg=0.0)
        hit = cast_to_surface(pose, pt.pan_deg, pt.tilt_deg, 0.0, plane_grid)
        np.testing.assert_allclose(hit, target, atol=1e-9)

    def test_grid_cast_tracks_cylinder_cast(self, cyl_grid, true_pose):
        # Generic aim point (not a lattice vertex): the marched grid cast
        # may differ from the analytic hit by the 5 cm patch sag, no more.
        target = np.array([-0.63, 1.37, H0 + np.sqrt(R0**2 - 0.63**2)])
        pt = point_to_pantilt(target, CAMERA, alpha_deg=0.0)
        cyl = CylinderModel(axis_height=H0, radius=R0)
        exact = cast_to_surface(true_pose, pt.pan_deg, pt.tilt_deg, 0.0, cyl)
        marched = cast_to_surface(true_pose, pt.pan_deg, pt.tilt_deg, 0.0, cyl_grid)
        assert np.linalg.norm(marched - exact) < 3e-3

    def test_ray_away_from_grid_misses(self, plane_grid):
        pose = CameraPose(np.array([0.5, 0.5, 6.0]), quat_from_yaw_pitch(0.0))
        with pytest.raises(SurfaceMissError):
            cast_to_surface(pose, 0.0, 10.0, 0.0, plane_grid)


@pytest.fixture(scope="module")
def report(cyl_plan, true_pose, cyl_grid, cfg):
    cyl = CylinderModel(axis_height=H0, radius=R0)
    return execute_plan(
        cyl_plan, true_pose, true_pose, [cyl_grid], cfg, QUADRANT, cylinder=cyl
    )


@pytest.fixture(scope="module")
def small_grid():
    return cylinder_surface_grid(-1.5, 0.0, 0.5, 2.5, step=0.05, name="fuselage")


class TestExecutePlan:
    def test_counts_equal_plan_lengths(self, report, cyl_plan):
        assert report.image_count == len(cyl_plan)
        assert report.sections[0].image_count == len(cyl_plan.sections[0])
        assert report.image_count > 0

    def test_zero_pose_error_labels_are_exact(self, report):
        errs = report.errors()
        assert errs.size == report.image_count
        assert report.missed_count == 0
        assert errs.max() < 1e-9

    def test_grid_target_casts_hit_lattice_vertices(
        self, cyl_plan, true_pose, cyl_grid, cfg
    ):
        rep = execute_plan(cyl_plan, true_pose, true_pose, [cyl_grid], cfg, QUADRANT)
        assert rep.missed_count == 0
        assert rep.errors().max() < 1e-9

    def test_coverage_high_at_default_overlap(self, report):
        assert report.sections[0].coverage >= 0.99

    def test_overlap_stats_shape_and_range(self, report):
        ovl = report.sections[0].overlaps
        assert len(ovl) == report.sections[0].image_count - 1
        assert all(0.0 <= v <= 1.0 for v in ovl)
        assert np.median(ovl) > 0.0

    def test_empty_plan_yields_empty_report(self, true_pose, cyl_grid, cfg):
        empty = ScanPlan(sections=())
        rep = execute_plan(empty, true_pose, true_pose, [cyl_grid], cfg, QUADRANT)
        assert rep.image_count == 0 and rep.sections == ()
        zero_shots = ScanPlan(
            sections=(SectionPlan(name="fuselage", kind=KIND_FUSELAGE, points=()),)
        )
        rep2 = execute_plan(zero_shots, true_pose, true_pose, [cyl_grid], cfg, QUADRANT)
        assert rep2.sections[0].coverage == 0.0
        assert rep2.errors().size == 0

    def test_unknown_section_rejected(self, cyl_plan, true_pose, cfg):
        other = cylinder_surface_grid(-1.0, 0.0, 0.0, 1.0, step=0.05, name="other")
        with pytest.raises(ValueError, match="unknown section"):
            execute_plan(cyl_plan, true_pose, true_pose, [other], cfg, QUADRANT)

    def test_deterministic_given_same_inputs(self, cyl_plan, true_pose, cyl_grid, cfg):
        cyl = CylinderModel(axis_height=H0, radius=R0)
        a = execute_plan(cyl_plan, true_pose, true_pose, [cyl_grid], cfg, QUADRANT, cylinder=cyl)
        b = execute_plan(cyl_plan, true_pose, true_pose, [cyl_grid], cfg, QUADRANT, cylinder=cyl)
        np.testing.assert_array_equal(a.errors(), b.errors())
        assert a.sections[0].coverage == b.sections[0].coverage

    def test_pose_offset_inflates_labels(self, cyl_grid, true_pose, cfg):
        est_pos = CAMERA + np.array([0.15, -0.1, 0.05])
        est_pose = CameraPose(est_pos, quat_from_yaw_pitch(YAW + 1.0))
        est_setup = QuadrantSetup(QUADRANT, YAW + 1.0, est_pos)
        u_est = grid_to_pantilt(cyl_grid, est_setup)
        plan = plan_full([(u_est, cyl_grid, KIND_FUSELAGE)], cfg, QUADRANT)
        cyl = CylinderModel(axis_height=H0, radius=R0)
        rep = execute_plan(plan, true_pose, est_pose, [cyl_grid], cfg, QUADRANT, cylinder=cyl)
        errs = rep.errors()
        assert errs.size > 0
        assert 1e-4 < np.median(errs) < 2.0

    def test_coverage_grows_with_overlap(self, cyl_grid, true_pose, true_setup):
        # Coarse mu ladder: nearby mu values can trade fractions of a
        # percent as row phases shift, but more overlap never loses
        # coverage at this granularity.
        u = grid_to_pantilt(cyl_grid, true_setup)
        cyl = CylinderModel(axis_height=H0, radius=R0)
        coverages = []
        for mu in (0.0, 0.15, 0.45):
            c = ScanConfig(hfov_deg=6.15, vfov_deg=3.46, mu=mu)
            plan = plan_full([(u, cyl_grid, KIND_FUSELAGE)], c, QUADRANT)
            rep = execute_plan(plan, true_pose, true_pose, [cyl_grid], c, QUADRANT, cylinder=cyl)
            coverages.append(rep.sections[0].coverage)
        assert coverages == sorted(coverages)
        assert coverages[-1] == 1.0


class TestErrorPropagation:
    def test_deterministic_per_seed(self, small_grid, true_pose, cfg):
        cyl = CylinderModel(axis_height=H0, radius=R0)
        kw = dict(cylinder=cyl)
        a = error_propagation(true_pose, [small_grid], cfg, QUADRANT, 0.1, 1.0, 5, seed=7, **kw)
        b = error_propagation(true_pose, [small_grid], cfg, QUADRANT, 0.1, 1.0, 5, seed=7, **kw)
        np.testing.assert_array_equal(a.all_errors_m, b.all_errors_m)
        c = error_propagation(true_pose, [small_grid], cfg, QUADRANT, 0.1, 1.0, 5, seed=8, **kw)
        assert not np.array_equal(a.all_errors_m, c.all_errors_m)

    def test_draw_records(self, small_grid, true_pose, cfg):
        study = error_propagation(
            true_pose, [small_grid], cfg, QUADRANT, 0.24, 2.0, 10, seed=3,
            cylinder=CylinderModel(axis_height=H0, radius=R0),
        )
        assert [d.draw for d in study.draws] == list(range(10))
        assert all(d.position_error_m > 0.0 for d in study.draws)
        assert all(d.image_count > 0 for d in study.draws)
        assert 0.001 < study.error_median_m < 5.0
        assert study.error_rmse_m >= study.error_median_m * 0.1

    def test_zero_noise_matches_direct_run(self, small_grid, true_pose, cfg):
        cyl = CylinderModel(axis_height=H0, radius=R0)
        setup = QuadrantSetup(QUADRANT, YAW, CAMERA)
        u = grid_to_pantilt(small_grid, setup)
        plan = plan_full([(u, small_grid, KIND_FUSELAGE)], cfg, QUADRANT)
        direct = execute_plan(plan, true_pose, true_pose, [small_grid], cfg, QUADRANT, cylinder=cyl)
        study = error_propagation(
            true_pose, [small_grid], cfg, QUADRANT, 0.0, 0.0, 3, seed=11, cylinder=cyl
        )
        for d in study.draws:
            assert d.image_count == direct.image_count
            assert d.missed_count == direct.missed_count
            assert abs(d.label_error_median_m - direct.label_error_median_m) < 1e-9
            assert d.coverage_min == direct.sections[0].coverage

    def test_yaw_error_wraps_across_the_seam(self, small_grid, cfg):
        # Draws around a true yaw of 179.5 deg land on both sides of +/-180;
        # unwrapped, those just across the seam read about 359 deg.
        pose = CameraPose(CAMERA, quat_from_yaw_pitch(179.5))
        with pytest.warns(YawToleranceWarning):
            study = error_propagation(
                pose, [small_grid], cfg, QUADRANT, 0.0, 2.0, 8, seed=1,
                cylinder=CylinderModel(axis_height=H0, radius=R0),
            )
        assert all(d.yaw_error_deg < 20.0 for d in study.draws)

    def test_requires_at_least_one_draw(self, small_grid, true_pose, cfg):
        with pytest.raises(ValueError, match="at least one draw"):
            error_propagation(true_pose, [small_grid], cfg, QUADRANT, 0.1, 1.0, 0, seed=1)
