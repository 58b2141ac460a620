"""Tests for point-cloud IO, sectioning, and lattice interpolation."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ptzscan.surface as surface
from ptzscan.surface import (
    GRID_RESOLUTION,
    DegenerateSectionError,
    PointCloud,
    PointCloudParseError,
    SectionSpec,
    interpolate_section,
    load_point_cloud,
    section_points,
)


def _xyz_text(points):
    return "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in points.tolist())


def near_collinear_points():
    """11 points along x spanning +-100 m, off the axis by about 5e-13 m:
    Qhull's ``Qz`` point at infinity ends up in one of their triangles."""
    rng = np.random.default_rng(0)
    t = rng.uniform(-1, 1, 11)
    off = rng.uniform(-1, 1, 11) * 10**-14.25
    return np.column_stack([100 * t, 100 * off, np.ones(11)])


def make_spec(name="patch", kind="fuselage", lo=(-10, -10, -10), hi=(10, 10, 10), **kw):
    return SectionSpec(name=name, kind=kind, box_min=lo, box_max=hi, **kw)


class TestPointCloudIO:
    def test_xyz_three_lines(self, tmp_path):
        p = tmp_path / "cloud.xyz"
        p.write_text("0 0 0\n1.5 2 3\n-1 -2 -3\n")
        cloud = load_point_cloud(p)
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
        back = load_point_cloud(p)
        np.testing.assert_array_equal(back.points, cloud.points)

    def test_xyz_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(-20, 20, size=(50, 3)))
        p = tmp_path / "cloud.xyz"
        p.write_text(_xyz_text(cloud.points))
        back = load_point_cloud(p)
        np.testing.assert_array_equal(back.points, cloud.points)

    def test_ply_vertex_count_mismatch(self, tmp_path):
        p = tmp_path / "bad.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        with pytest.raises(PointCloudParseError, match="declares 3"):
            load_point_cloud(p)

    @pytest.mark.parametrize("bad", ["2 2 x", "2 2"], ids=["text", "short"])
    def test_ply_bad_vertex_after_blank_line_names_its_line(self, tmp_path, bad):
        p = tmp_path / "bad.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property double x\nproperty double y\nproperty double z\n"
            f"end_header\n0 0 0\n\n1 1 1\n{bad}\n"
        )
        with pytest.raises(PointCloudParseError, match=r"bad\.ply:11: "):
            load_point_cloud(p)

    def test_xyz_values_past_the_third_are_ignored(self, tmp_path):
        p = tmp_path / "cloud.xyz"
        p.write_text("1 2 3 0.5\n4 5 6\n7 8 9 0.25 12\n")
        np.testing.assert_array_equal(load_point_cloud(p).points, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])

    def test_ply_body_skips_comments_and_extra_properties(self, tmp_path):
        p = tmp_path / "cloud.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property float intensity\nend_header\n# scanner pass 1\n1 2 3 0.5\n\n4 5 6 0.7\n"
        )
        np.testing.assert_array_equal(load_point_cloud(p).points, [[1, 2, 3], [4, 5, 6]])

    def test_ply_missing_header_end(self, tmp_path):
        p = tmp_path / "bad.ply"
        p.write_text("ply\nformat ascii 1.0\nelement vertex 1\n0 0 0\n")
        with pytest.raises(PointCloudParseError):
            load_point_cloud(p)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, 0.0, np.nan]]))


def _reference_load_xyz(path):
    """The reader as a plain line loop over the rows after any PLY header,
    with ``load_point_cloud``'s mapping of undecodable input. Drawn PLY
    headers are well formed: one ``element vertex`` line, then ``end_header``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise PointCloudParseError(f"{path}: not UTF-8 text ({exc})") from exc
    skip, count = 0, None
    if lines and lines[0].strip() == "ply":
        skip = [line.strip() for line in lines].index("end_header") + 1
        [count] = [int(line.split()[2]) for line in lines if line.startswith("element vertex")]
    points = []
    for lineno, line in enumerate(lines[skip:], start=skip + 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
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
    if count is not None and len(points) != count:
        raise PointCloudParseError(
            f"{path}: header declares {count} vertices, body has {len(points)}"
        )
    return PointCloud(np.array(points, dtype=np.float64))


def _outcome(load, path):
    """(bits, shape) of the loaded points, or (exception type, message)."""
    try:
        points = load(path).points
    except (PointCloudParseError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return points.view(np.int64).tolist(), points.shape


xyz_float = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e-300, 1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
token = st.one_of(
    xyz_float.map(repr),
    st.sampled_from(["1_0", "1e500", "inf", "-nan", "abc", "0x10", "+.5", "1.", "\u0661", "#", "#1"]),
)
separator = st.sampled_from([" ", "  ", "\t", " \t ", "\x0b", "\x1c", "\xa0"])


@st.composite
def xyz_line(draw):
    kind = draw(st.sampled_from(["row"] * 6 + ["blank", "comment", "short", "long"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if kind == "comment":  # the first token starts with '#', after any whitespace
        lead = draw(st.sampled_from(["", "", " ", "\t", "\xa0", "\x1c"]))
        return lead + "#" + draw(st.sampled_from(["", " 1 2 3", "comment", "#"]))
    count = {"row": 3, "short": 2, "long": 4}[kind]
    tokens = [draw(st.one_of(xyz_float.map(repr), token)) for _ in range(count)]
    sep = draw(separator)
    # A '#' after whitespace is one more token; glued to a value it spoils the value.
    tail = draw(st.sampled_from(["", " ", " # trailing", "#x", "#"]))
    return draw(st.sampled_from(["", " "])) + sep.join(tokens) + tail


@st.composite
def ply_header(draw, vertices):
    lines = [
        "ply", "format ascii 1.0", *draw(st.sampled_from([[], ["comment exported"]])),
        f"element vertex {vertices}", "property double x", "property double y",
        "property double z", *draw(st.sampled_from([[], ["property float intensity"]])),
        "end_header", "",
    ]
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


@st.composite
def xyz_files(draw):
    lines = draw(st.lists(xyz_line(), max_size=12))
    body = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))
    if draw(st.booleans()):  # a PLY header declaring the body's rows, or one more
        rows = sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))
        body = draw(ply_header(rows + draw(st.sampled_from([0, 0, 0, 1])))) + body
    data = body.encode("utf-8")
    return draw(st.sampled_from([b"", b"\xff"])) + data if draw(st.booleans()) else data


class TestXyzLoaderMatchesLineLoop:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(xyz_files())
    def test_same_points_or_same_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cloud.xyz"
            path.write_bytes(data)
            expected = _outcome(_reference_load_xyz, path)
            assert _outcome(load_point_cloud, path) == expected

    @pytest.mark.parametrize("header", ["", "ply\nformat ascii 1.0\nelement vertex 3\nend_header\n"])
    def test_comment_lines_stay_on_the_bulk_path(self, tmp_path, monkeypatch, header):
        def line_loop(path, skip):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr(surface, "_parse_rows", line_loop)
        p = tmp_path / "cloud.xyz"
        p.write_text(header + "# scanner export\n1 2 3\n  #4 5 6\n7 8 9 10\n\n-1 -2 -3\n")
        np.testing.assert_array_equal(load_point_cloud(p).points, [[1, 2, 3], [7, 8, 9], [-1, -2, -3]])

    def test_value_glued_to_a_comment_is_rejected(self, tmp_path):
        p = tmp_path / "cloud.xyz"
        p.write_text("# scanner export\n1 2 3#x\n")
        with pytest.raises(PointCloudParseError, match=r"cloud.xyz:2: could not convert string to float: '3#x'"):
            load_point_cloud(p)


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

    def test_disjoint_box_returns_an_empty_cloud_without_warning(self):
        """An empty section is reported once, by interpolate_section."""
        cloud = PointCloud(np.array([[0.0, 0, 0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = section_points(cloud, make_spec(lo=(5, 5, 5), hi=(6, 6, 6)))
        assert len(out) == 0 and out.points.shape == (0, 3)
        with pytest.raises(DegenerateSectionError, match="has no points"):
            interpolate_section(out, make_spec())

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
        assert np.isnan(grid.points[i, j]).all()

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

    def test_near_collinear_rejected(self):
        """Points that pass the rank check but leave Qhull's point at infinity
        in a triangle are refused like collinear ones, not with an IndexError."""
        pts = near_collinear_points()
        with pytest.raises(DegenerateSectionError, match="need >= 3 non-collinear projected points"):
            interpolate_section(PointCloud(pts), make_spec(lo=(-200, -1, -1), hi=(200, 1, 2)))

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateSectionError):
            interpolate_section(PointCloud(np.array([[0.0, 0, 0], [1, 0, 0]])), make_spec())

    def test_empty_rejected(self):
        with pytest.raises(DegenerateSectionError):
            interpolate_section(PointCloud(np.empty((0, 3))), make_spec())

    def test_qhull_failure_is_degenerate_section(self, monkeypatch):
        # SciPy is imported inside interpolate_section, so patching the
        # class where it lives reaches the call.
        import scipy.spatial
        from scipy.spatial import QhullError

        def failing(*args, **kwargs):
            raise QhullError("QH6154 Qhull precision error: initial simplex is flat")

        monkeypatch.setattr(scipy.spatial, "Delaunay", failing)
        pts = np.array([[0.0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])
        with pytest.raises(DegenerateSectionError, match="triangulation failed"):
            interpolate_section(PointCloud(pts), make_spec())

    def test_duplicate_projected_points_handled(self):
        pts = np.array(
            [[0.0, 0, 1], [0.0, 0, 5], [1, 0, 1], [0, 1, 1], [1, 1, 1]]
        )
        grid = interpolate_section(PointCloud(pts), make_spec())
        assert grid.valid.any()

    def test_interpolator_reads_the_transform_set_on_the_triangulation(self, monkeypatch):
        # interpolate_section hands its transform to SciPy's find_simplex
        # through the private Delaunay._transform; SciPy computing its own
        # costs seconds a section. A sentinel that halves the first two
        # barycentric coordinates of the one triangle makes every lattice node
        # read as inside it, and the node takes the triangle's plane there;
        # if find_simplex stopped reading the attribute, half would not.
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 4.0], [1.0, 0.0, 2.0]])
        plain = interpolate_section(PointCloud(pts), make_spec())
        assert 0 < plain.valid.sum() < plain.valid.size

        def halved(points, simplices, **kwargs):
            # Only the first call, the triangulation's; the node values take the plain one.
            monkeypatch.setattr(surface, "_transforms", real)
            transform = real(points, simplices, **kwargs)
            transform[:, :2] *= 0.5
            return transform

        real = surface._transforms
        monkeypatch.setattr(surface, "_transforms", halved)
        grid = interpolate_section(PointCloud(pts), make_spec())
        assert grid.valid.all()
        np.testing.assert_allclose(grid.points[-1, -1], [1.0, 1.0, 5.0], rtol=1e-12)


# --- Point location and node values against SciPy ----------------------------

_EPS = np.finfo(np.float64).eps
LAYOUTS = ("scattered", "lattice", "cocircular", "sliver", "collinear")


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _cloud_2d(draw, n, layouts=LAYOUTS):
    """n finite (x, y) points of one of the drawn layouts."""
    layout = draw(st.sampled_from(layouts))
    scale = 10.0 ** draw(st.integers(-6, 4))
    origin = np.array(draw(st.tuples(*[st.floats(-1e4, 1e4)] * 2)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if layout == "scattered":
        xy = rng.uniform(-1, 1, (n, 2))
    elif layout == "lattice":
        side = draw(st.integers(2, 8))
        xy = np.stack(np.meshgrid(np.arange(side), np.arange(draw(st.integers(2, 8)))), -1).reshape(-1, 2)
        xy = xy * draw(st.sampled_from([0.05, 0.01, 1.0, 0.1]))
    elif layout == "cocircular":
        angles = 2 * np.pi * np.arange(n) / n + draw(st.floats(0, 1))
        xy = np.column_stack([np.cos(angles), np.sin(angles)])
        xy = np.vstack([xy, [[0.0, 0.0]]]) if draw(st.booleans()) else xy
    elif layout == "sliver":
        xy = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n) * 10.0 ** draw(st.integers(-12, -3))])
    else:  # along a line, off it by a relative 1e-16 .. 1e-8
        t = rng.uniform(-1, 1, n)
        off = rng.uniform(-1, 1, n) * 10.0 ** draw(st.floats(-16, -8))
        angle = draw(st.floats(0, np.pi))
        xy = np.column_stack([t * np.cos(angle) - off * np.sin(angle), t * np.sin(angle) + off * np.cos(angle)])
    return origin + scale * xy


def _triangulation(draw, layouts=LAYOUTS):
    """A drawn cloud's Delaunay triangulation, and queries: lattices on and
    past its bounding box, its points and chord midpoints."""
    from scipy.spatial import Delaunay, QhullError

    xy = _cloud_2d(draw, draw(st.integers(3, 40)), layouts)
    try:
        tri = Delaunay(xy)
    except QhullError:
        assume(False)
    assume(tri.simplices.max() < len(xy))  # Qhull's point at infinity in a simplex
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    lattices = [np.stack(np.meshgrid(*np.linspace(lo - pad, hi + pad, 17).T), -1).reshape(-1, 2)
                for pad in (0.0, 0.2 * (hi - lo))]
    return tri, np.vstack([*lattices, xy, (xy + np.roll(xy, 1, axis=0)) / 2])


def _values(draw, n):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.choice([0.0, -0.0, 1.0, -2.5], n)
    return rng.normal(0.0, 10.0 ** draw(st.integers(-6, 6)), n)


def _locate(tri, queries):
    """find_simplex on the transform interpolate_section sets."""
    tri._transform = surface._transforms(tri.points, tri.simplices)
    return tri.find_simplex(queries)


def _rcond(points, simplices):
    """Each triangle's 1-norm reciprocal condition number, as SciPy defines it."""
    v = points[simplices]
    e0, e1 = v[:, 0] - v[:, 2], v[:, 1] - v[:, 2]
    det = e0[:, 0] * e1[:, 1] - e1[:, 0] * e0[:, 1]
    norm_1 = np.maximum(abs(e0).sum(axis=1), abs(e1).sum(axis=1))
    norm_inf = np.maximum(abs(e0[:, 0]) + abs(e1[:, 0]), abs(e0[:, 1]) + abs(e1[:, 1]))
    return abs(det) / norm_1 / norm_inf


class TestPointLocation:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_plain_transform_locates_as_scipys_own(self, data):
        # find_simplex takes a query as inside a triangle when every
        # barycentric coordinate is in [-tol, 1 + tol], tol = 100 eps. A query
        # whose coordinate sits on that edge to within rounding can go either
        # way on a last-bit change of the transform: on a 2 x 2 lattice of 1 cm
        # cells at x = 2 m, a query on the diagonal reads -2.2204e-14 against a
        # tol of 2.2204e-14. Every other query lands in SciPy's own triangle.
        tri, queries = _triangulation(data.draw, ("scattered", "lattice"))
        expected = tri.find_simplex(queries)  # SciPy's own transform, as nothing set the cache
        t = tri.transform
        c = np.einsum("sij,qsj->qsi", t[:, :2], queries[:, None] - t[:, 2])
        c = np.concatenate([c, 1.0 - c.sum(axis=2, keepdims=True)], axis=2)
        tol = 100 * _EPS
        away = ((abs(c + tol) > 0.01 * tol) & (abs(c - 1.0 - tol) > 0.01 * tol)).all(axis=(1, 2))
        np.testing.assert_array_equal(_locate(tri, queries)[away], expected[away])

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_nan_rows_are_scipys(self, data):
        tri, _ = _triangulation(data.draw)
        mine = surface._transforms(tri.points, tri.simplices)
        np.testing.assert_array_equal(np.isnan(mine).all(axis=(1, 2)), np.isnan(tri.transform[:, 0, 0]))
        assert not np.isnan(mine[~np.isnan(mine).all(axis=(1, 2))]).any()


# A sliver (its third point 2e-14 above the bottom edge) beside a triangle
# 1.3e-8 high. At the query, find_simplex's search, ten times wider than the
# interpolator's next to a NaN transform row, finds a triangle where
# LinearNDInterpolator finds none (found by a random search).
SLIVER = np.array([[0.0, 0.0], [1.0, 0.0], [0.3313790474616025, 2.1939325044749243e-14],
                   [0.25490852188700364, 1.2946690620719386e-08], [0.37274851746951454, 1.0],
                   [0.0, 1.0], [1.0, 1.0]])
SLIVER_QUERY = np.array([[0.07343326958964913, 3.533790634915233e-15]])


class TestNodeValues:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_bits_do_not_depend_on_the_vertex_order(self, data):
        tri, queries = _triangulation(data.draw)
        values = _values(data.draw, tri.npoints)
        simplex = _locate(tri, queries)
        found = simplex != -1
        simplices = tri.simplices[simplex[found]]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shuffled = rng.permuted(simplices, axis=1)
        expected = surface._node_values(tri.points, values, simplices, queries[found])
        got = surface._node_values(tri.points, values, shuffled, queries[found])
        np.testing.assert_array_equal(_bits(got), _bits(expected))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_bits_do_not_depend_on_the_input_row_order(self, data):
        xy = _cloud_2d(data.draw, data.draw(st.integers(3, 40)))
        assume(np.ptp(xy, axis=0).max() <= 10.0)  # at most 201 x 201 lattice nodes
        pts = np.column_stack([xy, _values(data.draw, len(xy))])
        order = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(len(pts))
        try:
            expected = interpolate_section(PointCloud(pts), make_spec())
        except DegenerateSectionError:
            assume(False)
        got = interpolate_section(PointCloud(pts[order]), make_spec())
        np.testing.assert_array_equal(got.valid, expected.valid)
        np.testing.assert_array_equal(_bits(got.points), _bits(expected.points))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_values_agree_with_linear_nd_interpolator(self, data):
        from scipy.interpolate import LinearNDInterpolator

        tri, queries = _triangulation(data.draw)
        values = _values(data.draw, tri.npoints)
        expected = LinearNDInterpolator(tri, values)(queries)
        simplex = _locate(tri, queries)
        both = (simplex != -1) & np.isfinite(expected)
        simplices = tri.simplices[simplex[both]]
        got = surface._node_values(tri.points, values, simplices, queries[both])
        # Within 4 eps of the triangle's largest vertex value, over its
        # reciprocal condition number: 4e-16 relative on a right isosceles one.
        bound = 4 * _EPS * abs(values[simplices]).max(axis=1) / _rcond(tri.points, simplices)
        assert np.all(abs(got - expected[both]) <= bound)

    def test_a_query_next_to_a_degenerate_triangle_takes_its_located_one(self):
        from scipy.interpolate import LinearNDInterpolator
        from scipy.spatial import Delaunay

        tri = Delaunay(SLIVER)
        values = np.arange(len(SLIVER), dtype=np.float64)
        assert np.isnan(LinearNDInterpolator(tri, values)(SLIVER_QUERY)).all()
        [simplex] = _locate(tri, SLIVER_QUERY)
        assert np.isnan(tri.transform).any() and simplex != -1
        got = surface._node_values(tri.points, values, tri.simplices[[simplex]], SLIVER_QUERY)
        assert np.isfinite(got).all()
