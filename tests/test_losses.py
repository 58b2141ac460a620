"""Tests for loss components and homoscedastic weighting."""

import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptzscan.cli import EXIT_INTERNAL, CliError, _refuse_sample
from ptzscan.formats import read_sample_batch
from ptzscan.geometry import (
    CameraPose,
    CylinderModel,
    quat_from_yaw_pitch,
    vec3,
)
from ptzscan.losses import (
    _BLOCK_ROWS,
    ICSC_HIT,
    ICSC_SKIPPED,
    InvalidSetupError,
    LossWeights,
    PoseSample,
    SampleBatch,
    batch_losses,
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


# --- the stacked scoring of a batch -------------------------------------------

# Turns FORWARD onto +y exactly, along the cylinder axis.
_ALONG_THE_AXIS = [0.5, 0.5, 0.5, 0.5]
# np.exp(-s) differs from math.exp(-s) in the last bit at 1.3289300411644902 and
# -0.9725326469572004; exp(709.7) times a loss above about 1.1 m overflows.
_LOG_VARIANCES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, -2.0, 1.3289300411644902, -0.9725326469572004, -709.0, -709.7]),
    st.floats(-3.0, 3.0))
_WEIGHTS = st.builds(LossWeights, _LOG_VARIANCES, _LOG_VARIANCES, _LOG_VARIANCES)


@st.composite
def _batch_lines(draw):
    """A batch line: a camera near (-7, y, 2) looking at the cylinder, a
    prediction near it that hits, misses, looks back or looks along the axis,
    a true view ray along the axis or from a quaternion 0.95e-9 off unit, and
    weights or none."""
    kind = draw(st.sampled_from(["hit", "miss", "behind", "along", "true along", "off unit"]))
    position = np.array([-7.0, 0.0, 2.0]) + draw(st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3))
    yaw, pitch = draw(st.floats(-30.0, 30.0)), draw(st.floats(-10.0, 10.0))
    true_q = quat_from_yaw_pitch(yaw, pitch)
    offset = draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    raw = draw(st.floats(0.01, 100.0)) * quat_from_yaw_pitch(
        yaw + draw(st.floats(-5.0, 5.0)), pitch + draw(st.floats(-5.0, 5.0)))
    if kind == "miss":
        raw = quat_from_yaw_pitch(yaw, 75.0)
    elif kind == "behind":
        raw = quat_from_yaw_pitch(yaw + 180.0, pitch)
    elif kind == "along":
        raw = np.array(_ALONG_THE_AXIS)
    elif kind == "true along":
        true_q = np.array(_ALONG_THE_AXIS)
    elif kind == "off unit":  # a turn of about 90 degrees takes a norm s to about s * s
        true_q = quat_from_yaw_pitch(yaw + 90.0, 20.0) * (1.0 + draw(st.sampled_from([0.95e-9, -0.95e-9])))
    record = {
        "true": {"position_m": position.tolist(), "quaternion_wxyz": true_q.tolist()},
        "predicted": {"position_m": (position + offset).tolist(), "quaternion_wxyz": raw.tolist()},
    }
    weights = draw(st.one_of(st.none(), _WEIGHTS))
    if weights is not None:
        record["weights"] = {"s_x": weights.s_x, "s_q": weights.s_q, "s_c": weights.s_c}
    return json.dumps(record)


def _scalar_path(path, batch, weights, cylinder):
    """``combined_loss`` row by row, as ``loss-check`` once ran it, each row rebuilt by
    the checked constructors as ``loss-check`` rebuilds a refused row: the breakdowns
    up to the first refused row, then that row's index and its error's
    ``(class, message)`` with its line named, or None and None."""
    breakdowns = []
    for k in range(len(batch)):
        sample = PoseSample(CameraPose(batch.true_position[k], batch.true_orientation[k]),
                            batch.predicted_position[k], batch.predicted_orientation_raw[k])
        row_weights = batch.weights[k] or weights
        try:
            breakdown = combined_loss(sample, row_weights, cylinder=cylinder,
                                      include_icsc=cylinder is not None)
        except (ValueError, InvalidSetupError) as exc:
            return breakdowns, k, (type(exc), f"{path}:{batch.lines[k]}: {exc}")
        terms = zip(("s_x", "s_q", "s_c"), (breakdown.l_x, breakdown.l_q, breakdown.l_c))
        overflowing = [w for w, loss in terms
                       if loss is not None and math.isinf(loss * math.exp(-getattr(row_weights, w)))]
        if math.isinf(breakdown.total) and overflowing:
            return breakdowns, k, (CliError, f"{path}: sample {k + 1}: weighted {overflowing[0]} term overflows")
        breakdowns.append(breakdown)
    return breakdowns, None, None


class TestBatchLosses:
    """``batch_losses`` gives every row ``combined_loss``'s bits, and refuses the
    first row the per-sample path refuses; ``loss-check``'s rerun of that row
    raises the per-sample path's error, with its class and message."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(_batch_lines(), min_size=1, max_size=8), _WEIGHTS,
           st.sampled_from([CylinderModel(axis_height=2.0, radius=2.0), None]))
    @example([json.dumps({"true": {"position_m": [-7.0, 0.0, 2.0], "yaw_deg": 0.0},  # l_c = 2 m
                          "predicted": {"position_m": [-7.0, 2.0, 2.0], "yaw_deg": 0.0},
                          "weights": {"s_c": -709.7}})],
             LossWeights(), CylinderModel(axis_height=2.0, radius=2.0))
    def test_matches_combined_loss_bit_for_bit(self, lines, weights, cylinder):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "batch.jsonl"
            path.write_text("\n".join(lines) + "\n")
            batch = read_sample_batch(path)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                l_x, l_q, l_c, total, refused = batch_losses(batch, weights, cylinder)
            breakdowns, first, error = _scalar_path(path, batch, weights, cylinder)
            assert refused == first
            for k, breakdown in enumerate(breakdowns):
                assert float.hex(l_x[k]) == float.hex(breakdown.l_x)
                assert float.hex(l_q[k]) == float.hex(breakdown.l_q)
                assert math.isnan(l_c[k]) == (breakdown.l_c is None)
                if breakdown.l_c is not None:
                    assert float.hex(l_c[k]) == float.hex(breakdown.l_c)
                assert float.hex(total[k]) == float.hex(breakdown.total)
            if refused is not None:
                with pytest.raises(Exception) as raised:
                    _refuse_sample(path, batch, refused, weights, cylinder)
                assert (type(raised.value), str(raised.value)) == error

    def test_a_row_the_scalar_path_scores_is_an_internal_error(self, tmp_path, cylinder):
        """Handed a row that ``combined_loss`` scores without an overflow, the rerun
        reports that the two paths disagree, naming the batch line."""
        path = tmp_path / "batch.jsonl"
        path.write_text("\n" + json.dumps({"true": {"position_m": [-7.0, 0.0, 2.0], "yaw_deg": 0.0},
                                            "predicted": {"position_m": [-7.0, 0.5, 2.0], "yaw_deg": 0.0}}))
        batch = read_sample_batch(path)
        assert batch_losses(batch, LossWeights(), cylinder)[-1] is None
        with pytest.raises(CliError) as raised:
            _refuse_sample(path, batch, 0, LossWeights(), cylinder)
        assert raised.value.exit_code == EXIT_INTERNAL
        assert str(raised.value) == f"{path}:2: the batched and per-sample losses disagree"

    def test_blocks_score_alike(self):
        """Each row of a batch longer than a block scores as it does alone, and a
        row refused in a later block is reported by its index in the batch."""
        cylinder = CylinderModel(axis_height=2.0, radius=2.0)
        true = CameraPose(vec3(-7.0, 0.0, 2.0), quat_from_yaw_pitch(3.0, 4.0))
        n, raw = 2 * _BLOCK_ROWS + 1, quat_from_yaw_pitch(2.0, 5.0)
        predicted = np.array([-6.9, 0.1, 2.2]) + np.outer(np.arange(n), [0.0, 1e-3, 0.0])
        samples = [PoseSample(true, p, raw) for p in predicted]
        stacks = (np.tile(true.position, (n, 1)), np.tile(true.orientation, (n, 1)), predicted,
                  np.tile(raw, (n, 1)), np.array([s.predicted.orientation for s in samples]))
        l_x, l_q, l_c, total, refused = batch_losses(
            SampleBatch(*stacks, (None,) * n, np.arange(1, n + 1)), LossWeights(), cylinder)
        assert refused is None and not np.isnan(l_c).any()
        for k, sample in enumerate(samples):
            expected = combined_loss(sample, LossWeights(), cylinder=cylinder)
            assert [float.hex(s[k]) for s in (l_x, l_q, l_c, total)] == [
                float.hex(v) for v in (expected.l_x, expected.l_q, expected.l_c, expected.total)]
        # exp(709.7) times this row's position loss, about 1.15 m, overflows.
        row = _BLOCK_ROWS + 5
        weights = tuple(LossWeights(s_x=-709.7) if k == row else None for k in range(n))
        *_, refused = batch_losses(SampleBatch(*stacks, weights, np.arange(1, n + 1)), LossWeights(), cylinder)
        assert refused == row
