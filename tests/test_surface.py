"""Tests for point-cloud IO, sectioning, and lattice interpolation."""

import math

import numpy as np
import pytest

from ptzscan.surface import (
    GRID_RESOLUTION,
    DegenerateSectionError,
    EmptySectionWarning,
    PointCloud,
    PointCloudParseError,
    SectionSpec,
    SurfaceGrid,
    interpolate_section,
    load_point_cloud,
    section_points,
)


def _xyz_text(points):
    return "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in points.tolist())


def make_spec(name="patch", kind="fuselage", lo=(-10, -10, -10), hi=(10, 10, 10), **kw):
    return SectionSpec(name=name, kind=kind, box_min=lo, box_max=hi, **kw)


class TestPointCloudIO:
    def test_xyz_three_lines(self, tmp_path):
        p = tmp_path / "cloud.xyz"
        p.write_text("0 0 0\n1.5 2 3\n-1 -2 -3\n")
        cloud = load_point_cloud(p, "xyz-ascii")
        assert len(cloud) == 3
        np.testing.assert_allclose(cloud.points[1], [1.5, 2.0, 3.0])

    def test_xyz_skips_comments_and_blanks(self, tmp_path):
        p = tmp_path / "cloud.xyz"
        p.write_text("# header\n\n1 2 3\n")
        assert len(load_point_cloud(p)) == 1

    def test_xyz_bad_line_reports_location(self, tmp_path):
        p = tmp_path / "cloud.xyz"
        p.write_text("1 2 3\n4 5\n")
        with pytest.raises(PointCloudParseError, match=r":2"):
            load_point_cloud(p)

    def test_xyz_empty_rejected(self, tmp_path):
        p = tmp_path / "cloud.xyz"
        p.write_text("# nothing\n")
        with pytest.raises(PointCloudParseError):
            load_point_cloud(p)

    def test_ply_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        cloud = PointCloud(rng.uniform(-20, 20, size=(50, 3)))
        p = tmp_path / "cloud.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 50\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n" + _xyz_text(cloud.points)
        )
        back = load_point_cloud(p, "ply-ascii-subset")
        np.testing.assert_array_equal(back.points, cloud.points)

    def test_xyz_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(-20, 20, size=(50, 3)))
        p = tmp_path / "cloud.xyz"
        p.write_text(_xyz_text(cloud.points))
        back = load_point_cloud(p, "xyz-ascii")
        np.testing.assert_array_equal(back.points, cloud.points)

    def test_ply_vertex_count_mismatch(self, tmp_path):
        p = tmp_path / "bad.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        with pytest.raises(PointCloudParseError, match="declares 3"):
            load_point_cloud(p, "ply-ascii-subset")

    @pytest.mark.parametrize("bad", ["2 2 x", "2 2"], ids=["text", "short"])
    def test_ply_bad_vertex_after_blank_line_names_its_line(self, tmp_path, bad):
        p = tmp_path / "bad.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property double x\nproperty double y\nproperty double z\n"
            f"end_header\n0 0 0\n\n1 1 1\n{bad}\n"
        )
        with pytest.raises(PointCloudParseError, match=r"bad\.ply:11: "):
            load_point_cloud(p, "ply-ascii-subset")

    def test_ply_missing_header_end(self, tmp_path):
        p = tmp_path / "bad.ply"
        p.write_text("ply\nformat ascii 1.0\nelement vertex 1\n0 0 0\n")
        with pytest.raises(PointCloudParseError):
            load_point_cloud(p, "ply-ascii-subset")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            load_point_cloud(tmp_path / "x", "obj")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, 0.0, np.nan]]))


class TestSectionSpec:
    def test_tail_uses_x_over_yz(self):
        spec = make_spec(kind="tail")
        assert (spec.value_axis, spec.row_axis) == (0, 2)

    def test_others_use_z_over_xy(self):
        for kind in ("fuselage", "wing", "stabiliser"):
            spec = make_spec(kind=kind)
            assert (spec.value_axis, spec.row_axis) == (2, 0)

    def test_conflicting_coordinate_rejected(self):
        # The layout follows from the kind alone; it cannot be given.
        with pytest.raises(TypeError):
            make_spec(kind="tail", interpolated_coordinate="z-over-xy")

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            make_spec(lo=(0, 0, 0), hi=(1, -1, 1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_spec(kind="engine")


class TestSectionPoints:
    def test_containing_box_keeps_all(self):
        cloud = PointCloud(np.array([[0.0, 0, 0], [1, 1, 1], [2, 2, 2]]))
        out = section_points(cloud, make_spec())
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_disjoint_box_warns_empty(self):
        cloud = PointCloud(np.array([[0.0, 0, 0]]))
        with pytest.warns(EmptySectionWarning):
            out = section_points(cloud, make_spec(lo=(5, 5, 5), hi=(6, 6, 6)))
        assert len(out) == 0

    def test_boundary_inclusive(self):
        cloud = PointCloud(np.array([[1.0, 0, 0], [2.0, 0, 0], [2.5, 0, 0]]))
        out = section_points(cloud, make_spec(lo=(1, -1, -1), hi=(2, 1, 1)))
        assert len(out) == 2

    def test_fin_box_selects_only_fin(self):
        # Horizontal slab plus a vertical fin sticking out the top.
        rng = np.random.default_rng(5)
        slab = np.column_stack(
            [rng.uniform(-3, 3, 200), rng.uniform(0, 10, 200), rng.uniform(1.8, 2.2, 200)]
        )
        fin = np.column_stack(
            [rng.uniform(-0.1, 0.1, 50), rng.uniform(8, 10, 50), rng.uniform(3, 6, 50)]
        )
        cloud = PointCloud(np.vstack([slab, fin]))
        out = section_points(cloud, make_spec(kind="tail", lo=(-0.5, 7.5, 2.5), hi=(0.5, 10.5, 6.5)))
        assert len(out) == 50
        assert out.points[:, 2].min() >= 3.0


class TestInterpolateSection:
    def test_affine_surface_reproduced_exactly(self):
        rng = np.random.default_rng(7)
        xy = rng.uniform([0.0, 0.0], [1.0, 2.0], size=(400, 2))
        z = 2.0 * xy[:, 0] + 3.0 * xy[:, 1] + 1.0
        cloud = PointCloud(np.column_stack([xy, z]))
        grid = interpolate_section(cloud, make_spec())
        assert grid.valid.any()
        pts = grid.points[grid.valid]
        np.testing.assert_allclose(
            pts[:, 2], 2.0 * pts[:, 0] + 3.0 * pts[:, 1] + 1.0, atol=1e-9
        )

    def test_half_cylinder_within_sag_bound(self):
        # Analytic oracle: arc z = h0 + sqrt(r0^2 - x^2). Samples are
        # jittered off the lattice so interpolation error is exercised;
        # the chord-sag bound keeps it far below a millimetre.
        r0, h0 = 2.0, 2.0
        rng = np.random.default_rng(11)
        xs = np.arange(-1.85, 1.85 + 1e-9, 0.01)
        ys = np.arange(0.0, 1.0 + 1e-9, 0.01)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        gx = gx + rng.uniform(-0.002, 0.002, gx.shape)
        gy = gy + rng.uniform(-0.002, 0.002, gy.shape)
        z = h0 + np.sqrt(r0**2 - gx**2)
        cloud = PointCloud(np.column_stack([gx.ravel(), gy.ravel(), z.ravel()]))
        grid = interpolate_section(cloud, make_spec())
        pts = grid.points[grid.valid]
        err = np.abs(pts[:, 2] - (h0 + np.sqrt(r0**2 - pts[:, 0] ** 2)))
        assert err.max() <= 1e-3

    def test_outside_hull_invalid(self):
        # L-shaped sample support: the empty quadrant must be invalid.
        pts = []
        for x in np.arange(0.0, 1.01, 0.05):
            for y in np.arange(0.0, 1.01, 0.05):
                if x < 0.5 or y < 0.5:
                    pts.append([x, y, 1.0])
        grid = interpolate_section(PointCloud(np.array(pts)), make_spec())
        i = int(np.argmin(np.abs(grid.row_values - 0.9)))
        j = int(np.argmin(np.abs(grid.col_values - 0.9)))
        assert not grid.valid[i, j]
        assert grid.cell(i, j) is None

    def test_no_overshoot(self):
        rng = np.random.default_rng(13)
        xy = rng.uniform(0, 2, size=(300, 2))
        z = np.sin(xy[:, 0] * 3) * np.cos(xy[:, 1] * 2)
        grid = interpolate_section(PointCloud(np.column_stack([xy, z])), make_spec())
        vals = grid.points[grid.valid][:, 2]
        assert vals.min() >= z.min() - 1e-12
        assert vals.max() <= z.max() + 1e-12

    def test_uniform_lattice_spacing(self):
        rng = np.random.default_rng(17)
        xy = rng.uniform(0, 3, size=(200, 2))
        z = xy[:, 0] + xy[:, 1]
        grid = interpolate_section(PointCloud(np.column_stack([xy, z])), make_spec())
        np.testing.assert_allclose(np.diff(grid.row_values)[:-1], GRID_RESOLUTION, atol=1e-12)
        np.testing.assert_allclose(np.diff(grid.col_values)[:-1], GRID_RESOLUTION, atol=1e-12)
        assert np.all(np.diff(grid.row_values) > 0)

    def test_exact_span_includes_clipped_endpoint(self):
        # A data span of exactly 2.0 m: accumulated 0.05 steps overshoot by
        # a few ulps and the final lattice line must be pulled back inside.
        xs = np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0])
        ys = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        cloud = PointCloud(np.column_stack([xs, ys, xs + ys]))
        grid = interpolate_section(cloud, make_spec())
        assert grid.row_values[-1] == pytest.approx(2.0, abs=0.0)
        assert grid.valid[-1, :].all()

    def test_row_and_column_coordinate_sharing(self):
        rng = np.random.default_rng(19)
        xy = rng.uniform(0, 1, size=(100, 2))
        z = xy[:, 0] * 0.5
        grid = interpolate_section(PointCloud(np.column_stack([xy, z])), make_spec())
        for i in range(grid.shape[0]):
            present = grid.points[i][grid.valid[i]]
            if len(present):
                np.testing.assert_allclose(present[:, 0], grid.row_values[i], atol=1e-12)
        for j in range(grid.shape[1]):
            present = grid.points[:, j][grid.valid[:, j]]
            if len(present):
                np.testing.assert_allclose(present[:, 1], grid.col_values[j], atol=1e-12)

    def test_tail_interpolates_x_over_yz(self):
        # Near-vertical fin: x is an affine function of (y, z).
        rng = np.random.default_rng(23)
        yz = rng.uniform([18.0, 2.0], [20.0, 5.0], size=(300, 2))
        x = 0.02 * yz[:, 0] - 0.05 * yz[:, 1] + 0.3
        cloud = PointCloud(np.column_stack([x, yz]))
        grid = interpolate_section(cloud, make_spec(kind="tail", lo=(-1, 17, 1), hi=(1, 21, 6)))
        pts = grid.points[grid.valid]
        np.testing.assert_allclose(
            pts[:, 0], 0.02 * pts[:, 1] - 0.05 * pts[:, 2] + 0.3, atol=1e-9
        )
        # Rows share z for the tail layout; columns share y.
        for i in range(grid.shape[0]):
            present = grid.points[i][grid.valid[i]]
            if len(present):
                np.testing.assert_allclose(present[:, 2], grid.row_values[i], atol=1e-12)

    def test_permutation_determinism(self):
        rng = np.random.default_rng(29)
        xy = rng.uniform(0, 1, size=(250, 2))
        z = np.hypot(xy[:, 0], xy[:, 1])
        pts = np.column_stack([xy, z])
        a = interpolate_section(PointCloud(pts), make_spec())
        b = interpolate_section(PointCloud(pts[rng.permutation(len(pts))]), make_spec())
        np.testing.assert_array_equal(a.valid, b.valid)
        np.testing.assert_array_equal(
            a.points[a.valid], b.points[b.valid]
        )

    def test_collinear_rejected(self):
        pts = np.column_stack([np.linspace(0, 1, 10), np.linspace(0, 2, 10), np.ones(10)])
        with pytest.raises(DegenerateSectionError):
            interpolate_section(PointCloud(pts), make_spec())

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateSectionError):
            interpolate_section(PointCloud(np.array([[0.0, 0, 0], [1, 0, 0]])), make_spec())

    def test_empty_rejected(self):
        with pytest.raises(DegenerateSectionError):
            interpolate_section(PointCloud(np.empty((0, 3))), make_spec())

    def test_qhull_failure_is_degenerate_section(self, monkeypatch):
        # SciPy is imported inside interpolate_section, so patching the
        # class where it lives reaches the call.
        import scipy.interpolate
        from scipy.spatial import QhullError

        def failing(*args, **kwargs):
            raise QhullError("QH6154 Qhull precision error: initial simplex is flat")

        monkeypatch.setattr(scipy.interpolate, "LinearNDInterpolator", failing)
        pts = np.array([[0.0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])
        with pytest.raises(DegenerateSectionError, match="triangulation failed"):
            interpolate_section(PointCloud(pts), make_spec())

    def test_duplicate_projected_points_handled(self):
        pts = np.array(
            [[0.0, 0, 1], [0.0, 0, 5], [1, 0, 1], [0, 1, 1], [1, 1, 1]]
        )
        grid = interpolate_section(PointCloud(pts), make_spec())
        assert grid.valid.any()


class TestGridCell:
    @pytest.fixture
    def grid(self) -> SurfaceGrid:
        rng = np.random.default_rng(31)
        xy = rng.uniform(0, 1, size=(100, 2))
        z = xy[:, 0] + 2 * xy[:, 1]
        return interpolate_section(PointCloud(np.column_stack([xy, z])), make_spec())

    def test_valid_cell_returns_point(self, grid):
        i, j = grid.shape[0] // 2, grid.shape[1] // 2
        assert grid.valid[i, j]
        cell = grid.cell(i, j)
        np.testing.assert_allclose(cell[0], grid.row_values[i], atol=1e-12)
        np.testing.assert_allclose(cell[1], grid.col_values[j], atol=1e-12)

    def test_out_of_range_raises(self, grid):
        with pytest.raises(IndexError):
            grid.cell(grid.shape[0], 0)
        with pytest.raises(IndexError):
            grid.cell(-1, 0)

    def test_cell_copy_is_isolated(self, grid):
        i, j = grid.shape[0] // 2, grid.shape[1] // 2
        cell = grid.cell(i, j)
        cell[0] = 999.0
        assert grid.points[i, j, 0] != 999.0
