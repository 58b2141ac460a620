"""Tests for pose-error statistics and the noisy oracle estimator."""

import math

import numpy as np
import pytest

from ptzscan.evaluation import (
    SOURCE_EXTERNAL,
    SOURCE_NOISY_ORACLE,
    ErrorStats,
    PoseEstimate,
    evaluate,
    median_rmse,
    noisy_oracle,
)
from ptzscan.geometry import (
    CameraPose,
    angular_distance,
    quat_from_yaw_pitch,
    vec3,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def pose(x, y, z, yaw=0.0, pitch=0.0):
    return CameraPose(vec3(x, y, z), quat_from_yaw_pitch(yaw, pitch))


def estimate_from(p: CameraPose) -> PoseEstimate:
    return PoseEstimate(p.position, p.orientation, SOURCE_EXTERNAL)


class TestEvaluate:
    def test_perfect_predictions(self):
        gts = [pose(0, 0, 0), pose(1, 2, 3, yaw=40.0), pose(-5, 1, 7, pitch=-20.0)]
        stats = evaluate([estimate_from(g) for g in gts], gts)
        assert stats.median_position == 0.0
        assert stats.rmse_position == 0.0
        assert stats.median_orientation == 0.0
        assert stats.rmse_orientation == 0.0
        assert stats.n == 3

    def test_single_pair(self):
        gt = pose(0, 0, 0)
        pred = estimate_from(pose(0.3, 0, 0, yaw=2.0))
        stats = evaluate([pred], [gt])
        assert stats.median_position == pytest.approx(0.3, abs=1e-12)
        assert stats.rmse_position == pytest.approx(0.3, abs=1e-12)
        assert stats.median_orientation == pytest.approx(2.0, abs=1e-9)
        assert stats.rmse_orientation == pytest.approx(2.0, abs=1e-9)

    def test_three_known_position_errors(self):
        gts = [pose(0, 0, 0), pose(0, 5, 0), pose(0, 10, 0)]
        preds = [
            estimate_from(pose(0.1, 0, 0)),
            estimate_from(pose(0, 5.2, 0)),
            estimate_from(pose(0, 10, 0.3)),
        ]
        stats = evaluate(preds, gts)
        assert stats.median_position == pytest.approx(0.2, abs=1e-12)
        assert stats.rmse_position == pytest.approx(math.sqrt(0.14 / 3.0), abs=1e-12)

    def test_even_count_median_averages_central_pair(self):
        gts = [pose(0, i, 0) for i in range(4)]
        offsets = [0.1, 0.2, 0.3, 0.4]
        preds = [estimate_from(pose(off, i, 0)) for i, off in enumerate(offsets)]
        stats = evaluate(preds, gts)
        assert stats.median_position == pytest.approx(0.25, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        gts = [pose(*rng.uniform(-5, 5, size=3), yaw=rng.uniform(-90, 90)) for _ in range(20)]
        preds = [
            estimate_from(pose(*(g.position + rng.normal(0, 0.2, 3)), yaw=rng.uniform(-90, 90)))
            for g in gts
        ]
        stats = evaluate(preds, gts)
        order = rng.permutation(20)
        shuffled = evaluate([preds[i] for i in order], [gts[i] for i in order])
        assert shuffled.median_position == pytest.approx(stats.median_position, abs=1e-12)
        assert shuffled.rmse_position == pytest.approx(stats.rmse_position, abs=1e-12)
        assert shuffled.rmse_orientation == pytest.approx(stats.rmse_orientation, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate([estimate_from(pose(0, 0, 0))], [])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [])


class TestErrorStats:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ErrorStats(-0.1, 0.0, 0.0, 0.0, 1)

    def test_median_rmse(self):
        assert median_rmse(np.array([3.0, 4.0])) == (3.5, math.sqrt(12.5))
        assert all(math.isnan(v) for v in median_rmse(np.empty(0)))

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            ErrorStats(0.0, 0.0, 0.0, 0.0, 0)


class TestNoisyOracle:
    def test_zero_noise_is_identity(self):
        gt = pose(-7.0, 1.5, 6.5, yaw=12.0, pitch=-18.0)
        est = noisy_oracle(gt, 0.0, 0.0, seed=5)
        np.testing.assert_allclose(est.position, gt.position, atol=0.0)
        assert angular_distance(est.orientation, gt.orientation) == 0.0
        assert est.source == SOURCE_NOISY_ORACLE

    def test_deterministic_under_seed(self):
        gt = pose(-7.0, 1.5, 6.5, yaw=12.0)
        a = noisy_oracle(gt, 0.24, 2.0, seed=42)
        b = noisy_oracle(gt, 0.24, 2.0, seed=42)
        np.testing.assert_array_equal(a.position, b.position)
        np.testing.assert_array_equal(a.orientation, b.orientation)

    def test_seeds_differ(self):
        gt = pose(-7.0, 1.5, 6.5)
        a = noisy_oracle(gt, 0.24, 2.0, seed=1)
        b = noisy_oracle(gt, 0.24, 2.0, seed=2)
        assert not np.array_equal(a.position, b.position)

    def test_position_rmse_calibration(self):
        # Per-axis sigma is sigma_pos/sqrt(3), so the RMS of the total
        # position error over many draws converges to sigma_pos itself.
        gt = pose(-7.0, 1.5, 6.5, yaw=12.0)
        sq = 0.0
        n = 10_000
        for seed in range(n):
            est = noisy_oracle(gt, 0.24, 0.0, seed=seed)
            sq += float(np.sum((est.position - gt.position) ** 2))
        rmse = math.sqrt(sq / n)
        assert rmse == pytest.approx(0.24, rel=0.05)

    def test_yaw_rmse_calibration(self):
        gt = pose(-7.0, 1.5, 6.5, yaw=12.0, pitch=-18.0)
        sq = 0.0
        n = 10_000
        for seed in range(n):
            est = noisy_oracle(gt, 0.0, 2.0, seed=seed)
            sq += angular_distance(est.orientation, gt.orientation) ** 2
        assert math.sqrt(sq / n) == pytest.approx(2.0, rel=0.05)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            noisy_oracle(pose(0, 0, 0), -0.1, 0.0, seed=0)


class TestOracle:
    def test_bad_source_tag_rejected(self):
        with pytest.raises(ValueError):
            PoseEstimate(vec3(0, 0, 0), IDENTITY, "guess")
