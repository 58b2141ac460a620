"""Tests for deployment boundaries and dataset manifest generation."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptzscan.formats import write_manifest_json
from ptzscan.geometry import CameraPose, quat_from_yaw_pitch, vec3
from ptzscan.randomizer import (
    SCENE_OBJECTS,
    DatasetManifest,
    DeploymentBoundary,
    SplitSizes,
    column_ranges,
    generate_manifest,
    sample_fields,
    sample_pose,
    validate_deployment,
)

ONE = SplitSizes(train=1, val=0, test=0)


def one_sample(boundary, seed):
    """The single sample record of a one-sample manifest."""
    return generate_manifest(boundary, ONE, seed=seed).samples[0]


@pytest.fixture
def q3_boundary():
    return DeploymentBoundary(quadrant=3, x_range=(-8.5, -5.5), y_range=(1.5, 4.5))


class TestDeploymentBoundary:
    def test_derived_windows(self, q3_boundary):
        assert q3_boundary.nominal_pan_deg == 20.0
        assert q3_boundary.yaw_range_deg == (10.0, 30.0)
        assert q3_boundary.tilt_range_deg == (-18.5, -17.5)
        assert q3_boundary.height_range == (6.25, 7.25)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            DeploymentBoundary(quadrant=3, x_range=(1.0, 0.0), y_range=(0.0, 1.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x_range": (-1e308, 1e308)},
            {"y_range": (-1.7e308, 1e308)},
            {"height_range": (-1e308, 1e308)},
            {"x_range": (0.0, float("inf"))},
            {"yaw_window_deg": 1e308},
            {"yaw_window_deg": float("nan")},
            {"tilt_tolerance_deg": float("inf")},
            {"tilt_center_deg": float("nan")},
        ],
        ids=["x", "y", "height", "infinite", "yaw", "nan-yaw", "tilt", "nan-tilt"],
    )
    def test_range_without_finite_width_rejected(self, kwargs):
        # The block draw maps u to lo + (hi - lo) * u, which must stay finite.
        with pytest.raises(ValueError, match="range must satisfy|must be non-negative"):
            DeploymentBoundary(**{"quadrant": 3, "x_range": (0, 1), "y_range": (0, 1), **kwargs})

    def test_degenerate_range_allowed(self):
        b = DeploymentBoundary(quadrant=1, x_range=(2.0, 2.0), y_range=(3.0, 3.0))
        assert b.x_range == (2.0, 2.0)

    def test_bad_quadrant(self):
        with pytest.raises(ValueError):
            DeploymentBoundary(quadrant=0, x_range=(0, 1), y_range=(0, 1))


class TestSampleSetup:
    def test_deterministic(self, q3_boundary):
        a = one_sample(q3_boundary, 7)
        b = one_sample(q3_boundary, 7)
        np.testing.assert_array_equal(a["position_m"], b["position_m"])
        assert a["yaw_deg"] == b["yaw_deg"]
        assert a["pan_deg"] == b["pan_deg"]
        assert a["tilt_deg"] == b["tilt_deg"]
        assert a["colors"] == b["colors"]
        assert a["textures"] == b["textures"]

    def test_degenerate_boundary_single_sample(self):
        b = DeploymentBoundary(
            quadrant=3,
            x_range=(-7.0, -7.0),
            y_range=(3.0, 3.0),
            height_range=(6.75, 6.75),
            yaw_window_deg=0.0,
            tilt_tolerance_deg=0.0,
        )
        s = one_sample(b, 0)
        np.testing.assert_array_equal(s["position_m"], [-7.0, 3.0, 6.75])
        assert s["yaw_deg"] == 20.0
        assert s["pan_deg"] == 20.0
        assert s["tilt_deg"] == -18.0

    def test_monte_carlo_ranges_and_means(self, q3_boundary):
        n = 10_000
        manifest = generate_manifest(q3_boundary, SplitSizes(train=n, val=0, test=0), seed=11)
        xs, yaws, tilts = [], [], []
        for s in manifest.samples:
            x, y, height = s["position_m"]
            assert q3_boundary.x_range[0] <= x <= q3_boundary.x_range[1]
            assert q3_boundary.y_range[0] <= y <= q3_boundary.y_range[1]
            assert q3_boundary.height_range[0] <= height <= q3_boundary.height_range[1]
            assert 10.0 <= s["yaw_deg"] <= 30.0
            assert 10.0 <= s["pan_deg"] <= 30.0
            assert -18.5 <= s["tilt_deg"] <= -17.5
            xs.append(x)
            yaws.append(s["yaw_deg"])
            tilts.append(s["tilt_deg"])
        # Uniform[a,b]: mean sigma is (b-a)/sqrt(12 n).
        for values, (lo, hi) in [
            (xs, q3_boundary.x_range),
            (yaws, (10.0, 30.0)),
            (tilts, (-18.5, -17.5)),
        ]:
            sigma = (hi - lo) / np.sqrt(12.0 * n)
            assert abs(np.mean(values) - (lo + hi) / 2.0) < 3.0 * sigma * 1.5

    def test_covers_all_scene_objects(self, q3_boundary):
        s = one_sample(q3_boundary, 3)
        assert set(s["colors"]) == set(SCENE_OBJECTS)
        assert set(s["textures"]) == set(SCENE_OBJECTS)
        for c in s["colors"].values():
            assert all(0.0 <= v <= 1.0 for v in c["ambient_rgb"] + c["specular_rgb"])

    @pytest.mark.parametrize("field", ["yaw_deg", "pan_deg", "tilt_deg"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_angle_rejected(self, q3_boundary, field, value):
        draws = generate_manifest(q3_boundary, ONE, seed=3).draws.copy()
        draws[0, 3 + ("yaw_deg", "pan_deg", "tilt_deg").index(field)] = value
        with pytest.raises(ValueError, match=f"must be finite.*: sample 0 {field} = "):
            DatasetManifest(0, ONE, q3_boundary, draws, ("train",))


def _reference_draws(boundary, n, seed):
    """Every sample's values as the per-sample sampler drew them: one scalar
    ``rng.uniform`` per field (three per RGB triple), in consumption order."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        row = [rng.uniform(*boundary.x_range), rng.uniform(*boundary.y_range)]
        row.append(rng.uniform(*boundary.height_range))
        row += [rng.uniform(*boundary.yaw_range_deg) for _ in range(2)]
        row.append(rng.uniform(*boundary.tilt_range_deg))
        for _ in range(2 * len(SCENE_OBJECTS)):
            row += rng.uniform(0.0, 1.0, size=3).tolist()
        for _ in SCENE_OBJECTS:
            row.append(rng.uniform(0.0, 1.0))
            row.append(rng.uniform(0.0, 1.0))
            row.append(rng.uniform(0.0, 360.0))
            row.append(rng.uniform(0.5, 2.0))
            row.append(rng.uniform(0.5, 2.0))
        rows.append(row)
    return rows


def _sample_values(s):
    """A sample record's values in consumption order."""
    out = [*s["position_m"], s["yaw_deg"], s["pan_deg"], s["tilt_deg"]]
    for obj in SCENE_OBJECTS:
        out += [*s["colors"][obj]["ambient_rgb"], *s["colors"][obj]["specular_rgb"]]
    for obj in SCENE_OBJECTS:
        t = s["textures"][obj]
        out += [t["offset_u"], t["offset_v"], t["rotation_deg"], t["scale_u"], t["scale_v"]]
    return out


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 2.5, -7.75])
coordinate = st.one_of(edge, st.floats(-1e6, 1e6))


@st.composite
def ranges(draw):
    lo = draw(coordinate)
    # Not (0.0, -0.0): numpy's scalar uniform rejects the width -0.0.
    hi = draw(st.one_of(st.just(lo), coordinate.filter(lambda v: v > lo)))
    return lo, hi


@st.composite
def boundaries(draw):
    return DeploymentBoundary(
        quadrant=draw(st.integers(1, 4)),
        x_range=draw(ranges()),
        y_range=draw(ranges()),
        height_range=draw(ranges()),
        yaw_window_deg=draw(st.one_of(st.just(0.0), st.floats(0.0, 180.0))),
        tilt_center_deg=draw(st.floats(-90.0, 90.0)),
        tilt_tolerance_deg=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
    )


class TestBlockDrawMatchesPerSampleDraws:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(boundaries(), st.integers(0, 12), st.integers(0, 2**63 - 1))
    def test_bit_for_bit(self, boundary, n, seed):
        manifest = generate_manifest(boundary, SplitSizes(train=n, val=0, test=0), seed=seed)
        got = [_sample_values(s) for s in manifest.samples]
        assert [_bits(row) for row in got] == [
            _bits(row) for row in _reference_draws(boundary, n, seed)
        ]


class TestDrawBlockCheck:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(boundaries(), st.integers(1, 6), st.integers(0, 2**63 - 1), st.data())
    def test_drawn_blocks_pass_and_one_ulp_outside_fails(self, boundary, n, seed, data):
        # Widths run from 0 and 5e-324 to 2e300. Every drawn block passes the
        # manifest's check, since generate_manifest builds the manifest.
        sizes = SplitSizes(train=n, val=0, test=0)
        drawn = generate_manifest(boundary, sizes, seed=seed)
        names, lo, hi = column_ranges(boundary)
        row = data.draw(st.integers(0, n - 1))
        for col in range(39):
            for outside in (np.nextafter(lo[col], -np.inf),
                            np.nextafter(lo[col] + (hi[col] - lo[col]), np.inf)):
                draws = drawn.draws.copy()
                draws[row, col] = outside
                with pytest.raises(ValueError, match=re.escape(f": sample {row} {names[col]} = ")):
                    DatasetManifest(seed, sizes, boundary, draws, drawn.splits)

    @pytest.mark.parametrize("hfov", [float("nan"), float("inf"), -5.0, 0.0, 180.0, -0.0])
    def test_render_fov_outside_0_180_is_refused(self, q3_boundary, hfov):
        with pytest.raises(ValueError, match=re.escape("hfov_deg must be finite and in (0, 180)")):
            generate_manifest(q3_boundary, SplitSizes(train=2, val=0, test=0), seed=1, hfov_deg=hfov)
        edge = generate_manifest(q3_boundary, SplitSizes(train=2, val=0, test=0), hfov_deg=5e-324)
        assert edge.hfov_deg == 5e-324

    def test_column_names_are_record_paths(self, q3_boundary):
        record = sample_fields(list(range(39)))
        for col, name in enumerate(column_ranges(q3_boundary)[0]):
            value = record
            for key, index in re.findall(r"(\w+)(?:\[(\d)\])?", name):
                value = value[key] if not index else value[key][int(index)]
            assert value == col, name


class TestGenerateManifest:
    def test_split_cardinalities(self, q3_boundary):
        sizes = SplitSizes(train=40, val=7, test=3)
        m = generate_manifest(q3_boundary, sizes, seed=5)
        assert len(m.samples) == 50
        assert m.splits.count("train") == 40
        assert m.splits.count("val") == 7
        assert m.splits.count("test") == 3

    def test_splits_disjoint_and_ordered(self, q3_boundary):
        sizes = SplitSizes(train=5, val=3, test=2)
        m = generate_manifest(q3_boundary, sizes, seed=5)
        assert m.splits == ("train",) * 5 + ("val",) * 3 + ("test",) * 2

    def test_regeneration_identical(self, q3_boundary):
        sizes = SplitSizes(train=20, val=5, test=5)
        a = generate_manifest(q3_boundary, sizes, seed=123)
        b = generate_manifest(q3_boundary, sizes, seed=123)
        for sa, sb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(sa["position_m"], sb["position_m"])
            assert sa["textures"] == sb["textures"]
            assert sa["colors"] == sb["colors"]

    def test_different_seeds_differ(self, q3_boundary):
        sizes = SplitSizes(train=2, val=1, test=1)
        a = generate_manifest(q3_boundary, sizes, seed=1)
        b = generate_manifest(q3_boundary, sizes, seed=2)
        assert not np.array_equal(a.samples[0]["position_m"], b.samples[0]["position_m"])

    def test_default_sizes_are_4000_700_300(self, q3_boundary):
        assert SplitSizes() == SplitSizes(train=4000, val=700, test=300)

    def test_every_sample_validates(self, q3_boundary):
        m = generate_manifest(q3_boundary, SplitSizes(train=30, val=10, test=10), seed=9)
        for s in m.samples:
            report = validate_deployment(sample_pose(s), q3_boundary)
            assert report.passed, report.violations

    def test_header_fields(self, q3_boundary, tmp_path):
        m = generate_manifest(q3_boundary, SplitSizes(1, 1, 1), seed=4, hfov_deg=60.0)
        write_manifest_json(tmp_path / "m.json", m)
        header = json.loads((tmp_path / "m.json").read_text())["header"]
        assert header["generator"] == "numpy-pcg64"
        assert header["hfov_deg"] == m.hfov_deg == 60.0
        assert header["seed"] == m.seed == 4

    def test_size_mismatch_rejected(self, q3_boundary):
        # Too few rows, too few columns, a flat block, too few splits.
        for shape, n_splits in [((3, 39), 4), ((4, 38), 4), ((4,), 4), ((4, 39), 3)]:
            with pytest.raises(ValueError, match="must match the declared sizes"):
                DatasetManifest(
                    seed=0,
                    sizes=SplitSizes(2, 1, 1),
                    boundary=q3_boundary,
                    draws=np.full(shape, 0.5),
                    splits=("train",) * n_splits,
                )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_draw_rejected(self, q3_boundary, value):
        draws = generate_manifest(q3_boundary, SplitSizes(2, 1, 0), seed=3).draws.copy()
        draws[1, 4] = value
        with pytest.raises(ValueError, match="draws must be finite"):
            DatasetManifest(0, SplitSizes(2, 1, 0), q3_boundary, draws, ("train",) * 3)

    def test_draws_are_a_read_only_copy(self, q3_boundary):
        block = generate_manifest(q3_boundary, SplitSizes(2, 1, 0), seed=3).draws.copy()
        m = DatasetManifest(0, SplitSizes(2, 1, 0), q3_boundary, block, ("train",) * 3)
        assert m.draws.dtype == np.float64 and not m.draws.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m.draws[0, 0] = 1.0
        block[0, 0] = 1.0  # the caller's array stays its own
        assert m.draws[0, 0] != 1.0

    def test_samples_are_built_once_from_the_draws(self, q3_boundary):
        m = generate_manifest(q3_boundary, SplitSizes(2, 1, 0), seed=3)
        assert m.samples is m.samples
        assert [_sample_values(s) for s in m.samples] == m.draws.tolist()


class TestValidateDeployment:
    def center_pose(self, q3_boundary, yaw=20.0, height=6.75):
        x = sum(q3_boundary.x_range) / 2
        y = sum(q3_boundary.y_range) / 2
        return CameraPose(vec3(x, y, height), quat_from_yaw_pitch(yaw))

    def test_center_pose_passes(self, q3_boundary):
        report = validate_deployment(self.center_pose(q3_boundary), q3_boundary)
        assert report.passed
        assert report.violations == ()

    def test_height_violation_margin(self, q3_boundary):
        report = validate_deployment(self.center_pose(q3_boundary, height=8.0), q3_boundary)
        assert not report.passed
        [v] = report.violations
        assert v.constraint == "height"
        assert v.margin == pytest.approx(0.75, abs=1e-12)

    def test_yaw_violation_margin(self, q3_boundary):
        report = validate_deployment(self.center_pose(q3_boundary, yaw=31.0), q3_boundary)
        assert not report.passed
        [v] = report.violations
        assert v.constraint == "yaw"
        assert v.margin == pytest.approx(1.0, abs=1e-9)

    def test_violation_details(self, q3_boundary):
        pose = CameraPose(vec3(-9.0, 5.0, 6.75), quat_from_yaw_pitch(20.0))
        details = [v.detail for v in validate_deployment(pose, q3_boundary).violations]
        assert details == ["x=-9 m is 0.5 m below -8.5 m", "y=5 m is 0.5 m above 4.5 m"]

    def test_multiple_violations_listed(self, q3_boundary):
        pose = CameraPose(vec3(0.0, 0.0, 5.0), quat_from_yaw_pitch(-40.0))
        report = validate_deployment(pose, q3_boundary)
        names = {v.constraint for v in report.violations}
        assert names == {"x", "y", "height", "yaw"}

    def test_boundary_values_pass(self, q3_boundary):
        pose = CameraPose(
            vec3(q3_boundary.x_range[0], q3_boundary.y_range[1], 7.25),
            quat_from_yaw_pitch(30.0),
        )
        assert validate_deployment(pose, q3_boundary).passed
