"""Small-vector kernels reproduce numpy's formulas bit for bit.

``vector_norm`` and ``rotate_vector`` avoid numpy's per-call dispatch on
3- and 4-vectors, and the losses and evaluation statistics are built on
them. Each test holds a kernel to a reference kept here, written the way
the library computed it with ``np.linalg.norm`` and ``np.cross``, and
compares the IEEE bit patterns, so a rounding difference of one ulp fails.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptzscan.evaluation import evaluate
from ptzscan.geometry import (
    FORWARD,
    CameraPose,
    angular_distance,
    CylinderIntersectionError,
    CylinderModel,
    Ray,
    intersect_cylinder,
    quat_conjugate,
    quat_from_yaw_pitch,
    quat_multiply,
    rotate_vector,
    vector_norm,
    vector_norms,
)
from ptzscan.losses import (
    _BLOCK_ROWS,
    ICSC_HIT,
    ICSC_SKIPPED,
    InvalidSetupError,
    LossWeights,
    PoseSample,
    combined_loss,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)
CYLINDER = CylinderModel(axis_height=2.0, radius=2.0)


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


def assert_same_bits(actual, expected):
    actual, expected = np.atleast_1d(actual), np.atleast_1d(expected)
    assert actual.shape == expected.shape
    assert actual.tobytes() == np.asarray(expected, dtype=np.float64).tobytes(), (
        actual.tolist(),
        expected.tolist(),
    )


# --- references: the numpy formulas the kernels replace ---------------------

def ref_rotate(q, v):
    u, w = q[1:], q[0]
    c = np.cross(u, v)
    return v + 2.0 * (w * c + np.cross(u, c))


def ref_combined(sample, weights, cylinder):
    true, pred_pos, raw = sample.true_pose, sample.predicted_position, sample.predicted_orientation_raw
    pred_q = raw / np.linalg.norm(raw)
    l_x = float(np.linalg.norm(true.position - pred_pos))
    l_q = float(np.linalg.norm(true.orientation - pred_q))
    l_c, status = None, ICSC_SKIPPED
    if cylinder is not None:
        try:
            true_hit = intersect_cylinder(
                Ray(true.position, ref_rotate(true.orientation, FORWARD)), cylinder
            )
        except CylinderIntersectionError:
            return None
        try:
            pred_hit = intersect_cylinder(Ray(pred_pos, ref_rotate(pred_q, FORWARD)), cylinder)
            l_c, status = float(np.linalg.norm(true_hit - pred_hit)), ICSC_HIT
        except CylinderIntersectionError:
            pass
    total = l_x * math.exp(-weights.s_x) + weights.s_x + l_q * math.exp(-weights.s_q) + weights.s_q
    if l_c is not None:
        total = total + l_c * math.exp(-weights.s_c) + weights.s_c
    return l_x, l_q, l_c, total, status


def ref_angular_distance(q1, q2):
    r = quat_multiply(quat_conjugate(q1), q2)
    return math.degrees(2.0 * math.atan2(float(np.linalg.norm(r[1:])), abs(float(r[0]))))


# --- strategies ---------------------------------------------------------------

any_float = st.floats(allow_nan=False, allow_infinity=True, allow_subnormal=True)
unit = st.floats(-1.0, 1.0)


@st.composite
def unit_quaternions(draw):
    q = np.array(draw(st.lists(unit, min_size=4, max_size=4)))
    n = np.linalg.norm(q)
    assume(n > 1e-3)
    return q / n


@st.composite
def pose_samples(draw):
    """A camera near (-7, y, 6) pitched down at the cylinder, and a noisy,
    unnormalised prediction of it."""
    position = np.array([-7.0, 0.0, 6.0]) + np.array(
        draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    )
    yaw = draw(st.floats(-40.0, 40.0))
    pitch = draw(st.floats(-10.0, 70.0))
    true = CameraPose(position, quat_from_yaw_pitch(yaw, pitch))
    offset = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    noise = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4)))
    scale = draw(st.floats(0.01, 100.0))
    raw = scale * (true.orientation + noise)
    assume(np.linalg.norm(raw) > 0.0)
    return PoseSample(true, position + offset, raw)


weights = st.builds(
    LossWeights, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)
)


# --- tests --------------------------------------------------------------------

class TestVectorNorm:
    @SETTINGS
    @given(st.lists(any_float, min_size=3, max_size=4))
    def test_matches_numpy_norm_over_the_whole_range(self, values):
        v = np.array(values)
        with np.errstate(over="ignore"):
            assert bits(vector_norm(v)) == bits(np.linalg.norm(v))

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, -0.0, 0.0],
            [-0.0, -0.0, -0.0, -0.0],
            [5e-324, 0.0, -5e-324],
            [2.2250738585072014e-308, 1e-310, 0.0, 0.0],
            [1e154, 1e154, 1e154],
            [1e200, 0.0, 0.0, 0.0],
            [-1.7976931348623157e308, 1.0, 1.0],
            [math.inf, 0.0, 0.0],
        ],
    )
    def test_edge_values(self, values):
        v = np.array(values)
        with np.errstate(over="ignore"):
            assert bits(vector_norm(v)) == bits(np.linalg.norm(v))

    @SETTINGS
    @given(st.sampled_from([2, 7, _BLOCK_ROWS + 1]), st.sampled_from([3, 4]),
           st.floats(-160.0, 154.0), st.integers(0, 2**32 - 1), st.booleans())
    def test_stacked_norms_match_row_norms(self, n, k, exponent, seed, contiguous):
        """The batch reader normalises a block with ``vector_norms`` and
        ``PoseSample`` one row with ``vector_norm``, so a batch row rebuilt by
        the constructors keeps the reader's bits only if the two agree. Each row
        is copied, as a constructor copies what it takes: ``dot`` of a strided
        row can round otherwise."""
        stack = np.random.default_rng(seed).normal(size=(n, k if contiguous else 2 * k)) * 10.0**exponent
        v = stack if contiguous else stack[:, ::2]
        with np.errstate(over="ignore"):
            assert_same_bits(vector_norms(v), [vector_norm(np.array(row)) for row in v])


class TestRotateVector:
    @SETTINGS
    @given(unit_quaternions(), st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
    def test_matches_cross_product_formula(self, q, values):
        v = np.array(values)
        assert_same_bits(rotate_vector(q, v), ref_rotate(q, v))

    @SETTINGS
    @given(unit_quaternions())
    def test_forward_axis(self, q):
        assert_same_bits(rotate_vector(q, FORWARD), ref_rotate(q, FORWARD))


class TestCombinedLoss:
    @SETTINGS
    @given(pose_samples(), weights, st.booleans())
    def test_matches_numpy_formula(self, sample, w, with_cylinder):
        cylinder = CYLINDER if with_cylinder else None
        expected = ref_combined(sample, w, cylinder)
        if expected is None:
            with pytest.raises(InvalidSetupError):
                combined_loss(sample, w, cylinder=cylinder, include_icsc=with_cylinder)
            return
        got = combined_loss(sample, w, cylinder=cylinder, include_icsc=with_cylinder)
        l_x, l_q, l_c, total, status = expected
        assert bits(got.l_x) == bits(l_x)
        assert bits(got.l_q) == bits(l_q)
        assert (got.l_c is None) == (l_c is None)
        if l_c is not None:
            assert bits(got.l_c) == bits(l_c)
        assert bits(got.total) == bits(total)
        assert got.icsc_status == status


class TestEvaluate:
    @SETTINGS
    @given(st.lists(pose_samples(), min_size=1, max_size=12))
    def test_matches_numpy_formula(self, samples):
        predictions = [s.predicted for s in samples]
        truths = [s.true_pose for s in samples]
        pos_err = np.array(
            [float(np.linalg.norm(p.position - g.position)) for p, g in zip(predictions, truths)]
        )
        ori_err = np.array(
            [ref_angular_distance(p.orientation, g.orientation) for p, g in zip(predictions, truths)]
        )
        stats = evaluate(predictions, truths)
        assert bits(stats.median_position) == bits(np.median(pos_err))
        assert bits(stats.rmse_position) == bits(np.sqrt(np.mean(pos_err**2)))
        assert bits(stats.median_orientation) == bits(np.median(ori_err))
        assert bits(stats.rmse_orientation) == bits(np.sqrt(np.mean(ori_err**2)))


def per_pair_orientation_error(q1, q2):
    """One pair's orientation error, computed alone with the scalar kernels."""
    r = quat_multiply(quat_conjugate(q1), q2)
    return math.degrees(2.0 * math.atan2(vector_norm(r[1:]), abs(float(r[0]))))


@st.composite
def pose_pairs(draw):
    """(prediction, truth) whose orientations are unrelated, identical,
    antipodal, or a few ulps apart, at positions up to 1e150 m."""
    coordinate = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e150, 1e150))
    position = lambda: np.array(draw(st.lists(coordinate, min_size=3, max_size=3)))
    q = draw(unit_quaternions())
    relation = draw(st.sampled_from(["unrelated", "identical", "antipodal", "near"]))
    if relation == "unrelated":
        other = draw(unit_quaternions())
    elif relation == "near":  # a few ulps off, renormalised: a tiny or zero angle
        other = np.nextafter(q, draw(st.sampled_from([np.inf, -np.inf])))
        other = other / vector_norm(other)
    else:
        other = q.copy() if relation == "identical" else -q
    return CameraPose(position(), q), CameraPose(position(), other)


class TestStackedEvaluate:
    @SETTINGS
    @given(st.lists(pose_pairs(), min_size=1, max_size=12))
    def test_errors_match_the_per_pair_formula(self, pairs):
        predictions, truths = (list(side) for side in zip(*pairs))
        ori_err = [per_pair_orientation_error(p.orientation, g.orientation) for p, g in pairs]
        a = np.array([p.orientation for p in predictions]).T
        b = np.array([g.orientation for g in truths]).T
        assert_same_bits(angular_distance(a, b), ori_err)
        for (p, g), expected in zip(pairs, ori_err):
            assert bits(angular_distance(p.orientation, g.orientation)) == bits(expected)
            one = evaluate([p], [g])  # the median of one error is that error's bits
            assert bits(one.median_position) == bits(vector_norm(p.position - g.position))
            assert bits(one.median_orientation) == bits(expected)
        pos_err = np.array([vector_norm(p.position - g.position) for p, g in pairs])
        stats = evaluate(predictions, truths)
        assert bits(stats.median_position) == bits(np.median(pos_err))
        assert bits(stats.rmse_position) == bits(np.sqrt(np.mean(pos_err**2)))
        assert bits(stats.median_orientation) == bits(np.median(ori_err))
        assert bits(stats.rmse_orientation) == bits(np.sqrt(np.mean(np.square(ori_err))))
