"""Tests for loss components and homoscedastic weighting."""

import math

import numpy as np
import pytest

from ptzscan.geometry import (
    CameraPose,
    CylinderModel,
    quat_from_yaw_pitch,
    vec3,
)
from ptzscan.losses import (
    ICSC_HIT,
    ICSC_SKIPPED,
    InvalidSetupError,
    LossWeights,
    PoseSample,
    combined_loss,
    finite_difference_grad,
    icsc_loss,
    optimal_log_variance,
    orientation_loss,
    position_loss,
    sigma_weighted_total,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


@pytest.fixture
def cylinder():
    return CylinderModel(axis_height=2.0, radius=2.0)


def make_sample(true_pos, true_q, pred_pos, pred_q_raw):
    return PoseSample(
        true_pose=CameraPose(vec3(*true_pos), true_q),
        predicted_position=np.asarray(pred_pos, dtype=float),
        predicted_orientation_raw=np.asarray(pred_q_raw, dtype=float),
    )


class TestPositionLoss:
    def test_exact_prediction(self):
        s = make_sample((1, 2, 3), IDENTITY, (1, 2, 3), IDENTITY)
        assert position_loss(s) == 0.0

    def test_axis_offset(self):
        s = make_sample((1, 2, 3), IDENTITY, (1.3, 2, 3), IDENTITY)
        assert position_loss(s) == pytest.approx(0.3, abs=1e-12)

    def test_hand_norm(self):
        # sqrt(0.01 + 0.04 + 0.04) = 0.3
        s = make_sample((0, 0, 0), IDENTITY, (0.1, 0.2, 0.2), IDENTITY)
        assert position_loss(s) == pytest.approx(0.3, abs=1e-12)


class TestOrientationLoss:
    def test_scaled_copy_is_zero(self):
        q = quat_from_yaw_pitch(33.0, -12.0)
        s = make_sample((0, 0, 0), q, (0, 0, 0), 2.0 * q)
        assert orientation_loss(s) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_unit_quaternions(self):
        s = make_sample((0, 0, 0), IDENTITY, (0, 0, 0), (0, 1, 0, 0))
        assert orientation_loss(s) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            raw = rng.normal(size=4) * rng.uniform(0.1, 5.0)
            s = make_sample((0, 0, 0), q, (0, 0, 0), raw)
            naive = math.sqrt(sum((q[i] - raw[i] / np.linalg.norm(raw)) ** 2 for i in range(4)))
            assert orientation_loss(s) == pytest.approx(naive, abs=1e-12)

    def test_sign_flip_penalized(self):
        # Antipodal quaternions encode one rotation but still score nonzero.
        q = quat_from_yaw_pitch(10.0)
        s = make_sample((0, 0, 0), q, (0, 0, 0), -q)
        assert orientation_loss(s) == pytest.approx(2.0, abs=1e-12)

    def test_zero_raw_rejected(self):
        with pytest.raises(ValueError):
            make_sample((0, 0, 0), IDENTITY, (0, 0, 0), (0, 0, 0, 0))


class TestIcscLoss:
    def test_perfect_prediction(self, cylinder):
        q = quat_from_yaw_pitch(0.0)
        s = make_sample((-10, 0, 2), q, (-10, 0, 2), q)
        value, status = icsc_loss(s, cylinder)
        assert status == ICSC_HIT
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_axial_shift(self, cylinder):
        # Camera on the cylinder axis height looking head-on; translating the
        # prediction along the cylinder axis shifts the hit by the same amount.
        q = quat_from_yaw_pitch(0.0)
        s = make_sample((-10, 0, 2), q, (-10, 0.5, 2), q)
        value, status = icsc_loss(s, cylinder)
        assert status == ICSC_HIT
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_predicted_miss_skips(self, cylinder):
        q = quat_from_yaw_pitch(0.0)
        s = make_sample((-10, 0, 2), q, (-10, 0, 20), q)
        value, status = icsc_loss(s, cylinder)
        assert value is None
        assert status == ICSC_SKIPPED

    def test_true_miss_is_setup_error(self, cylinder):
        q = quat_from_yaw_pitch(0.0)
        s = make_sample((-10, 0, 20), q, (-10, 0, 2), q)
        with pytest.raises(InvalidSetupError):
            icsc_loss(s, cylinder)


class TestCombinedLoss:
    def test_zero_weights_identity(self, cylinder):
        q = quat_from_yaw_pitch(3.0, 10.0)
        s = make_sample((-10, 0, 2), quat_from_yaw_pitch(0.0), (-9.8, 0.3, 2.1), q)
        b = combined_loss(s, LossWeights(0.0, 0.0, 0.0), cylinder)
        assert b.icsc_status == ICSC_HIT
        assert b.total == b.l_x + b.l_q + b.l_c  # exact, not approx

    def test_position_term_at_unit_log_variance(self, cylinder):
        # l_x = e with s_x = 1 contributes e*e^-1 + 1 = 2; the other
        # components are driven to zero contribution.
        q = quat_from_yaw_pitch(0.0)
        s = make_sample((-10, 0, 2), q, (-10 + math.e, 0, 2), q)
        b = combined_loss(s, LossWeights(s_x=1.0), cylinder, include_icsc=False)
        assert b.l_q == 0.0
        assert b.total == pytest.approx(2.0, abs=1e-12)

    def test_sigma_form_equivalence(self, cylinder):
        rng = np.random.default_rng(11)
        for _ in range(300):
            q = quat_from_yaw_pitch(rng.uniform(-5, 5), rng.uniform(-5, 5))
            raw = rng.normal(size=4)
            s = make_sample(
                (-10, 0, 2), q, (-10 + rng.normal(0, 0.3), rng.normal(0, 0.3), 2), raw
            )
            w = LossWeights(*rng.uniform(-2, 2, size=3))
            b = combined_loss(s, w, cylinder)
            sig = sigma_weighted_total(
                b.l_x,
                b.l_q,
                math.exp(w.s_x),
                math.exp(w.s_q),
                b.l_c,
                math.exp(w.s_c) if b.l_c is not None else None,
            )
            assert sig == pytest.approx(b.total, abs=1e-12)

    def test_quaternion_scale_invariance(self, cylinder):
        rng = np.random.default_rng(13)
        raw = rng.normal(size=4)
        w = LossWeights(0.4, -0.3, 0.7)
        totals = []
        for scale in [0.01, 1.0, 250.0]:
            s = make_sample((-10, 0, 2), quat_from_yaw_pitch(0.0), (-9.7, 0.2, 2.2), scale * raw)
            totals.append(combined_loss(s, w, cylinder).total)
        np.testing.assert_allclose(totals, totals[0], atol=1e-12)

    def test_monotone_in_position_residual(self, cylinder):
        q = quat_from_yaw_pitch(0.0)
        prev = -math.inf
        for r in [0.0, 0.1, 0.5, 1.0, 3.0]:
            s = make_sample((-10, 0, 2), q, (-10, r, 2), q)
            total = combined_loss(s, LossWeights(0.2, -0.1, 0.0), cylinder, include_icsc=False).total
            assert total >= prev
            prev = total

    def test_icsc_requires_cylinder(self):
        q = quat_from_yaw_pitch(0.0)
        s = make_sample((-10, 0, 2), q, (-10, 0, 2), q)
        with pytest.raises(ValueError):
            combined_loss(s, LossWeights(), cylinder=None, include_icsc=True)

    def test_skipped_component_absent_from_total(self, cylinder):
        q = quat_from_yaw_pitch(0.0)
        s = make_sample((-10, 0, 2), q, (-10, 0, 20), q)
        w = LossWeights(0.3, 0.3, 0.3)
        b = combined_loss(s, w, cylinder)
        assert b.l_c is None and b.icsc_status == ICSC_SKIPPED
        expected = b.l_x * math.exp(-0.3) + 0.3 + b.l_q * math.exp(-0.3) + 0.3
        assert b.total == pytest.approx(expected, abs=1e-15)


class TestOptimalLogVariance:
    def test_unit_mean(self):
        assert optimal_log_variance(1.0) == 0.0

    def test_e_mean_matches_grid_search(self):
        mean = math.e
        grid = np.linspace(-10.0, 10.0, 2000001)
        values = mean * np.exp(-grid) + grid
        s_grid = grid[np.argmin(values)]
        s_closed = optimal_log_variance(mean)
        assert s_closed == pytest.approx(1.0, abs=1e-12)
        assert s_closed == pytest.approx(s_grid, abs=1e-5)

    def test_minimized_value(self):
        for mean in [0.2, 1.0, 3.7]:
            s = optimal_log_variance(mean)
            assert mean * math.exp(-s) + s == pytest.approx(1.0 + math.log(mean), abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            optimal_log_variance(0.0)
        with pytest.raises(ValueError):
            optimal_log_variance(-1.0)


class TestFiniteDifferenceGrad:
    def test_log_variance_gradient_at_zero(self, cylinder):
        q = quat_from_yaw_pitch(0.0)
        s = make_sample((-10, 0, 2), q, (-8, 0, 2), q)  # l_x = 2
        assert position_loss(s) == pytest.approx(2.0)

        def f(sv):
            return combined_loss(s, LossWeights(*sv), cylinder, include_icsc=False).total

        g = finite_difference_grad(f, np.zeros(3))
        # d/ds [l e^-s + s] at s=0 is 1 - l.
        assert g[0] == pytest.approx(1.0 - 2.0, abs=1e-5)

    def test_stationary_at_log_loss(self, cylinder):
        q = quat_from_yaw_pitch(0.0)
        s = make_sample((-10, 0, 2), q, (-8, 0, 2), q)
        l_x = position_loss(s)

        def f(sv):
            return combined_loss(s, LossWeights(*sv), cylinder, include_icsc=False).total

        g = finite_difference_grad(f, np.array([math.log(l_x), 0.0, 0.0]))
        assert abs(g[0]) < 1e-5

    def test_position_gradient_along_residual(self, cylinder):
        q = quat_from_yaw_pitch(0.0)
        true = vec3(-10.0, 0.0, 2.0)

        def f(p):
            sample = make_sample(tuple(true), q, tuple(p), q)
            return position_loss(sample)

        # Gradient of ||x - p|| in p is the unit residual direction.
        g = finite_difference_grad(f, np.array([-8.0, 0.0, 2.0]))
        np.testing.assert_allclose(g, [1.0, 0.0, 0.0], atol=1e-5)

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            finite_difference_grad(lambda v: 0.0, np.zeros(1), h=1e-8)
        with pytest.raises(ValueError):
            finite_difference_grad(lambda v: 0.0, np.zeros(1), h=1e-2)
