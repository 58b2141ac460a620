"""Tests for deployment boundaries and dataset manifest generation."""

import numpy as np
import pytest

from ptzscan.geometry import CameraPose, quat_from_yaw_pitch, vec3
from ptzscan.randomizer import (
    SCENE_OBJECTS,
    DatasetManifest,
    DeploymentBoundary,
    MaterialColor,
    RandomizationSample,
    SplitSizes,
    TexturePlacement,
    generate_manifest,
    sample_pose,
    sample_setup,
    validate_deployment,
)


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

    def test_degenerate_range_allowed(self):
        b = DeploymentBoundary(quadrant=1, x_range=(2.0, 2.0), y_range=(3.0, 3.0))
        assert b.x_range == (2.0, 2.0)

    def test_bad_quadrant(self):
        with pytest.raises(ValueError):
            DeploymentBoundary(quadrant=0, x_range=(0, 1), y_range=(0, 1))


class TestSampleSetup:
    def test_deterministic(self, q3_boundary):
        a = sample_setup(q3_boundary, np.random.default_rng(7))
        b = sample_setup(q3_boundary, np.random.default_rng(7))
        np.testing.assert_array_equal(a.position, b.position)
        assert a.yaw_deg == b.yaw_deg
        assert a.pan_deg == b.pan_deg
        assert a.tilt_deg == b.tilt_deg
        assert a.colors == b.colors
        assert a.textures == b.textures

    def test_degenerate_boundary_single_sample(self):
        b = DeploymentBoundary(
            quadrant=3,
            x_range=(-7.0, -7.0),
            y_range=(3.0, 3.0),
            height_range=(6.75, 6.75),
            yaw_window_deg=0.0,
            tilt_tolerance_deg=0.0,
        )
        s = sample_setup(b, np.random.default_rng(0))
        np.testing.assert_array_equal(s.position, [-7.0, 3.0, 6.75])
        assert s.yaw_deg == 20.0
        assert s.pan_deg == 20.0
        assert s.tilt_deg == -18.0

    def test_monte_carlo_ranges_and_means(self, q3_boundary):
        rng = np.random.default_rng(11)
        n = 10_000
        xs, yaws, tilts = [], [], []
        for _ in range(n):
            s = sample_setup(q3_boundary, rng)
            assert q3_boundary.x_range[0] <= s.position[0] <= q3_boundary.x_range[1]
            assert q3_boundary.y_range[0] <= s.position[1] <= q3_boundary.y_range[1]
            assert q3_boundary.height_range[0] <= s.position[2] <= q3_boundary.height_range[1]
            assert 10.0 <= s.yaw_deg <= 30.0
            assert 10.0 <= s.pan_deg <= 30.0
            assert -18.5 <= s.tilt_deg <= -17.5
            xs.append(s.position[0])
            yaws.append(s.yaw_deg)
            tilts.append(s.tilt_deg)
        # Uniform[a,b]: mean sigma is (b-a)/sqrt(12 n).
        for values, (lo, hi) in [
            (xs, q3_boundary.x_range),
            (yaws, (10.0, 30.0)),
            (tilts, (-18.5, -17.5)),
        ]:
            sigma = (hi - lo) / np.sqrt(12.0 * n)
            assert abs(np.mean(values) - (lo + hi) / 2.0) < 3.0 * sigma * 1.5

    def test_covers_all_scene_objects(self, q3_boundary):
        s = sample_setup(q3_boundary, np.random.default_rng(3))
        assert set(s.colors) == set(SCENE_OBJECTS)
        assert set(s.textures) == set(SCENE_OBJECTS)
        for c in s.colors.values():
            assert all(0.0 <= v <= 1.0 for v in c.ambient_rgb + c.specular_rgb)

    def test_color_range_validation(self):
        with pytest.raises(ValueError):
            MaterialColor((1.5, 0.0, 0.0), (0.0, 0.0, 0.0))

    def test_texture_range_validation(self):
        with pytest.raises(ValueError):
            TexturePlacement(0.0, 0.0, 400.0, 1.0, 1.0)


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
            np.testing.assert_array_equal(sa.position, sb.position)
            assert sa.textures == sb.textures
            assert sa.colors == sb.colors

    def test_different_seeds_differ(self, q3_boundary):
        sizes = SplitSizes(train=2, val=1, test=1)
        a = generate_manifest(q3_boundary, sizes, seed=1)
        b = generate_manifest(q3_boundary, sizes, seed=2)
        assert not np.array_equal(a.samples[0].position, b.samples[0].position)

    def test_default_sizes_are_4000_700_300(self, q3_boundary):
        assert SplitSizes() == SplitSizes(train=4000, val=700, test=300)

    def test_every_sample_validates(self, q3_boundary):
        m = generate_manifest(q3_boundary, SplitSizes(train=30, val=10, test=10), seed=9)
        for s in m.samples:
            report = validate_deployment(sample_pose(s), q3_boundary)
            assert report.passed, report.violations

    def test_header_fields(self, q3_boundary):
        m = generate_manifest(q3_boundary, SplitSizes(1, 1, 1), seed=4, hfov_deg=60.0)
        assert m.generator == "numpy-pcg64"
        assert m.hfov_deg == 60.0
        assert m.seed == 4

    def test_size_mismatch_rejected(self, q3_boundary):
        with pytest.raises(ValueError):
            DatasetManifest(
                seed=0,
                sizes=SplitSizes(2, 1, 1),
                boundary=q3_boundary,
                samples=(),
                splits=(),
            )


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
