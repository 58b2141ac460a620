"""Tests for file formats: batches, configs, grids, plans, manifests, reports."""

import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptzscan.evaluation import evaluate, median_rmse
from ptzscan.formats import (
    _BLOCK_ROWS,
    FormatError,
    format_stats,
    load_external_predictions,
    read_boundary_config,
    read_plan_json,
    read_pose_json,
    read_sample_batch,
    read_section_config,
    write_grid_csv,
    write_manifest_json,
    write_pantilt_csv,
    write_plan_csv,
    write_plan_json,
    write_report_csv,
    write_report_json,
    write_stats_report,
)
from ptzscan.geometry import CameraPose, quat_from_yaw_pitch, vector_norm
from ptzscan.losses import LossWeights, PoseSample
from ptzscan.pantilt import PanTiltGrid
from ptzscan.planner import ScanPlan, SectionPlan
from ptzscan.randomizer import (
    SCENE_OBJECTS,
    TEXTURE_RANGES,
    DatasetManifest,
    DeploymentBoundary,
    SplitSizes,
    generate_manifest,
)
from ptzscan.simulator import SectionReport, SimulationReport
from ptzscan.surface import RELEVANCE_BACK, RELEVANCE_FRONT


def random_pose(rng):
    quat = rng.normal(size=4)
    quat /= np.linalg.norm(quat)
    return CameraPose(rng.normal(size=3), quat)


def pose_record(position, quaternion):
    return {"position_m": position.tolist(), "quaternion_wxyz": quaternion.tolist()}


def write_batch(path, samples, weights=None):
    """A JSON-lines batch: one line per sample, with its weights when given."""
    lines = []
    for sample, w in zip(samples, weights or [None] * len(samples)):
        record = {
            "true": pose_record(sample.true_pose.position, sample.true_pose.orientation),
            "predicted": pose_record(
                sample.predicted_position, sample.predicted_orientation_raw
            ),
        }
        if w is not None:
            record["weights"] = {"s_x": w.s_x, "s_q": w.s_q, "s_c": w.s_c}
        lines.append(json.dumps(record) + "\n")
    path.write_text("".join(lines))


def make_samples(n, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        samples.append(
            PoseSample(
                true_pose=random_pose(rng),
                predicted_position=rng.normal(size=3),
                predicted_orientation_raw=rng.normal(size=4) * 2.0,
            )
        )
    return samples


def batch_rows(batch):
    """Each row of a read batch, rebuilt by the checked constructors as
    ``loss-check`` rebuilds a refused row: its (sample, weights or None)."""
    return [(PoseSample(CameraPose(batch.true_position[k], batch.true_orientation[k]),
                        batch.predicted_position[k], batch.predicted_orientation_raw[k]),
             batch.weights[k]) for k in range(len(batch))]


def read_pose_record(tmp_path, record):
    path = tmp_path / "pose.json"
    path.write_text(json.dumps(record))
    return read_pose_json(path)


class TestPoseRecords:
    def test_round_trip_is_bitwise(self, tmp_path):
        pose = CameraPose(np.array([-9.5, 13.0, 6.75]), quat_from_yaw_pitch(20.0, -5.0))
        back = read_pose_record(tmp_path, pose_record(pose.position, pose.orientation))
        np.testing.assert_array_equal(back.position, pose.position)
        np.testing.assert_array_equal(back.orientation, pose.orientation)

    def test_yaw_variant(self, tmp_path):
        pose = read_pose_record(tmp_path, {"position_m": [1.0, 2.0, 3.0], "yaw_deg": 20.0})
        np.testing.assert_array_equal(pose.orientation, quat_from_yaw_pitch(20.0))

    def test_missing_orientation_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="quaternion_wxyz"):
            read_pose_record(tmp_path, {"position_m": [0.0, 0.0, 0.0]})

    def test_wrong_arity_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="expected 3 values"):
            read_pose_record(tmp_path, {"position_m": [0.0, 1.0], "yaw_deg": 0.0})


class TestSampleBatch:
    def test_round_trip(self, tmp_path):
        samples = make_samples(5, seed=1)
        weights = [LossWeights(0.1, -0.2, 0.3), None, LossWeights(), None, None]
        path = tmp_path / "batch.jsonl"
        write_batch(path, samples, weights)
        back = read_sample_batch(path)
        assert len(back) == 5
        for orig, (got, got_weights), w in zip(samples, batch_rows(back), weights):
            np.testing.assert_array_equal(got.predicted_position, orig.predicted_position)
            np.testing.assert_array_equal(
                got.predicted_orientation_raw, orig.predicted_orientation_raw
            )
            np.testing.assert_array_equal(got.predicted.orientation, orig.predicted.orientation)
            np.testing.assert_array_equal(got.true_pose.position, orig.true_pose.position)
            assert got_weights == w

    def test_empty_batch(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        for text in ("", "\n  \n"):
            path.write_text(text)
            batch = read_sample_batch(path)
            assert len(batch) == 0 and batch.weights == ()
            shapes = [a.shape for a in (batch.true_position, batch.true_orientation,
                                        batch.predicted_position, batch.predicted_orientation_raw,
                                        batch.predicted_orientation)]
            assert shapes == [(0, 3), (0, 4), (0, 3), (0, 4), (0, 4)]

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"true": {}}\nnot json\n')
        with pytest.raises(FormatError, match="bad.jsonl:1"):
            read_sample_batch(path)


GOOD_RECORD = {
    "true": {"position_m": [-7.0, 1.5, 6.0], "yaw_deg": 3.0, "pitch_deg": 30.0},
    "predicted": {"position_m": [-7.1, 1.4, 6.1], "quaternion_wxyz": [0.9, 0.1, 0.2, 0.05]},
}
GOOD_LINE = json.dumps(GOOD_RECORD)
_ZERO_QUAT = {"position_m": [0.0, 0.0, 0.0], "quaternion_wxyz": [0, 0, 0, 0]}
# A bad batch line and the message that names it, after "file:line: ", as the
# whole-text reader that splits with str.splitlines reported it.
BAD_LINES = [
    ("not json", "invalid JSON (Expecting value: line 1 column 1 (char 0))"),
    ('{"true": ', "invalid JSON (Expecting value: line 1 column 10 (char 9))"),
    ('{"true": NaN}', "invalid JSON (non-finite number NaN)"),
    ('{"true": {}}', "need 'true' and 'predicted' records"),
    (json.dumps({**GOOD_RECORD, "predicted": _ZERO_QUAT}),
     "raw orientation must be finite with a finite, nonzero norm"),
    (json.dumps({**GOOD_RECORD, "true": {"position_m": [1e200, 0.0, 0.0], "yaw_deg": 0}}),
     "true: vector must have a finite norm, got [1.e+200 0.e+000 0.e+000]"),
    (json.dumps({**GOOD_RECORD, "weights": {"s_x": "a"}}),
     "weights: expected numbers, got ['a', 0.0, 0.0]"),
    (json.dumps({"true": {"position_m": [1e154, 0.0, 0.0], "yaw_deg": 0.0},
                 "predicted": {"position_m": [-1e154, 0.0, 0.0], "quaternion_wxyz": [1, 0, 0, 0]}}),
     "position error must have a finite norm"),
    (json.dumps({**GOOD_RECORD, "predicted": {**_ZERO_QUAT, "quaternion_wxyz": [3e-162, 0, 0, 0]}}),
     "quaternion is not normalized (norm 0.9543637356285588)"),
    (json.dumps({**GOOD_RECORD, "true": {**_ZERO_QUAT, "quaternion_wxyz": [1.0, 0.0, 0.0, 1e-4]}}),
     "true: quaternion is not normalized (norm 1.000000005)"),
]


@st.composite
def batch_records(draw):
    """A decoded batch line: a true pose by quaternion or yaw/pitch, a raw
    predicted quaternion, and weights with any of their keys, or none."""
    coordinates = st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3)
    quaternion = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    assume(np.linalg.norm(quaternion) > 1e-3)
    true = {"position_m": draw(coordinates)}
    if draw(st.booleans()):
        true["quaternion_wxyz"] = (quaternion / np.linalg.norm(quaternion)).tolist()
    else:
        true["yaw_deg"] = draw(st.floats(-180.0, 180.0))
        if draw(st.booleans()):
            true["pitch_deg"] = draw(st.floats(-89.0, 89.0))
    scale = draw(st.floats(1e-3, 1e3))
    predicted = {"position_m": draw(coordinates), "quaternion_wxyz": (scale * quaternion).tolist()}
    record = {"true": true, "predicted": predicted}
    keys = draw(st.one_of(st.none(), st.sets(st.sampled_from(["s_x", "s_q", "s_c"]))))
    if keys is not None:
        record["weights"] = {k: draw(st.floats(-3.0, 3.0)) for k in sorted(keys)}
    return record


def sample_from_record(record):
    """The (sample, weights) pair a decoded batch record describes."""
    true, predicted = record["true"], record["predicted"]
    if "quaternion_wxyz" in true:
        orientation = np.array(true["quaternion_wxyz"])
    else:
        orientation = quat_from_yaw_pitch(true["yaw_deg"], true.get("pitch_deg", 0.0))
    sample = PoseSample(CameraPose(np.array(true["position_m"]), orientation),
                        np.array(predicted["position_m"]), np.array(predicted["quaternion_wxyz"]))
    weights = record.get("weights")
    return sample, None if weights is None else LossWeights(**weights)


def sample_bits(sample):
    return [a.tobytes() for a in (
        sample.true_pose.position, sample.true_pose.orientation, sample.predicted.position,
        sample.predicted.orientation, sample.predicted_orientation_raw)]


class TestStreamedBatch:
    """The reader goes a line at a time; lines end at \n, \r\n or \r, as
    str.splitlines ends them when no other separator is present."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        st.lists(st.one_of(batch_records(), st.sampled_from(["", "  ", "\t"])), max_size=8),
        st.one_of(st.none(), st.tuples(st.integers(0, 8), st.sampled_from(BAD_LINES))),
        st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=9, max_size=9),
        st.booleans(),
    )
    def test_matches_whole_text_reading(self, items, bad, endings, final_newline):
        lines = [item if isinstance(item, str) else json.dumps(item) for item in items]
        if bad is not None:
            lines.insert(min(bad[0], len(lines)), bad[1][0])
        text = "".join(line + ending for line, ending in zip(lines, endings))
        if lines and not final_newline:
            text = text[: -len(endings[len(lines) - 1])]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "batch.jsonl"
            path.write_bytes(text.encode())
            if bad is not None:
                lineno = text.splitlines().index(bad[1][0]) + 1
                with pytest.raises(FormatError) as raised:
                    read_sample_batch(path)
                assert str(raised.value) == f"{path}:{lineno}: {bad[1][1]}"
                return
            got = read_sample_batch(path)
        expected = [sample_from_record(item) for item in items if not isinstance(item, str)]
        assert len(got) == len(expected)
        for (sample, weights), (want, want_weights) in zip(batch_rows(got), expected):
            assert sample_bits(sample) == sample_bits(want)
            assert weights == want_weights
        assert ([r.tobytes() for r in got.predicted_orientation]
                == [s.predicted.orientation.tobytes() for s, _ in expected])

    def test_form_feed_is_not_a_line_end(self, tmp_path):
        # str.splitlines also splits at \f (and \v, \x1c-\x1e, \x85, \u2028
        # and \u2029). Lines are numbered by physical line: the \f line is
        # blank, and "not json" is line 3, where splitlines made it line 4.
        path = tmp_path / "batch.jsonl"
        path.write_text(f"{GOOD_LINE}\n\f\nnot json\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:3: invalid JSON")):
            read_sample_batch(path)
        # Two records parted by a form feed are one line, which is not JSON.
        path.write_text(f"{GOOD_LINE}\f{GOOD_LINE}\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:1: invalid JSON (Extra data")):
            read_sample_batch(path)

    def test_line_separator_inside_a_json_string_is_text(self, tmp_path):
        record = {**GOOD_RECORD, "note": "one\u2028two"}  # valid raw in a JSON string
        path = tmp_path / "batch.jsonl"
        path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        [(sample, weights)] = batch_rows(read_sample_batch(path))
        assert sample_bits(sample) == sample_bits(sample_from_record(GOOD_RECORD)[0])
        assert weights is None

    def test_first_bad_line_is_reported_even_if_a_later_one_is_not_utf8(self, tmp_path):
        # The whole-text reader decoded the file first and reported the bad
        # byte; the streamed reader stops at the bad JSON line before it.
        path = tmp_path / "batch.jsonl"
        path.write_bytes(f"{GOOD_LINE}\nnot json\n".encode() + b"\xff\xfe\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: invalid JSON")):
            read_sample_batch(path)
        path.write_bytes(f"{GOOD_LINE}\r\n".encode() + b"\xff\xfe\nnot json\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: not UTF-8 text")):
            read_sample_batch(path)


# Values a batch line may hold that the scalar constructors may refuse: squares
# that overflow, quaternions off unit by more or less than the 1e-9 tolerance,
# raw quaternions whose squared norm underflows or overflows, position errors
# that overflow, and log-variances whose exp(-s) overflows.
EDGE_COORDINATES = st.one_of(
    st.floats(-50.0, 50.0),
    st.sampled_from([0.0, -0.0, 1e154, -1e154, 1e155, -1e200, 1.7e308, -1.7e308]),
)
QUATERNION_SCALES = st.sampled_from([1.0, 1.0 + 1e-10, 1.0 - 1e-8, 5e-324, 1e-160, 3e-162, 0.0,
                                     1e-3, 1e3, 1e153, 1e300])
EDGE_LOG_VARIANCES = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-709.0, -710.0, -1e300]))


@st.composite
def edge_records(draw):
    """A well-typed batch record whose values may be refused."""
    coordinates = st.lists(EDGE_COORDINATES, min_size=3, max_size=3)
    quaternion = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    assume(np.linalg.norm(quaternion) > 1e-3)
    unit = quaternion / np.linalg.norm(quaternion)
    true = {"position_m": draw(coordinates)}
    if draw(st.booleans()):
        true["quaternion_wxyz"] = (draw(QUATERNION_SCALES) * unit).tolist()
    else:
        true["yaw_deg"] = draw(st.floats(-1e6, 1e6))
    raw = (draw(QUATERNION_SCALES) * unit).tolist()
    record = {"true": true, "predicted": {"position_m": draw(coordinates), "quaternion_wxyz": raw}}
    if draw(st.booleans()):
        record["weights"] = {k: draw(EDGE_LOG_VARIANCES) for k in ("s_x", "s_q", "s_c")}
    return record


@np.errstate(over="ignore")  # as the reader refuses an overflowing norm, without numpy's warning
def scalar_sample(record, context):
    """What the scalar constructors make of a well-typed batch record: its
    (sample, weights), or the message naming the first value they refuse."""
    true, predicted = record["true"], record["predicted"]
    if "quaternion_wxyz" in true:
        orientation = np.array(true["quaternion_wxyz"])
    else:
        orientation = quat_from_yaw_pitch(true["yaw_deg"], true.get("pitch_deg", 0.0))
    try:
        true_pose = CameraPose(np.array(true["position_m"]), orientation)
    except ValueError as exc:
        return f"{context}: true: {exc}"
    try:
        sample = PoseSample(true_pose, np.array(predicted["position_m"]),
                            np.array(predicted["quaternion_wxyz"]))
    except ValueError as exc:
        return f"{context}: {exc}"
    try:
        weights = None if "weights" not in record else LossWeights(**record["weights"])
    except ValueError as exc:
        return f"{context}: weights: {exc}"
    return sample, weights


class TestBatchChecks:
    """A read batch is checked once, a line at a time, by the scalar
    constructors; it accepts exactly the lines they accept, refuses the first
    line they refuse with their message, and keeps the bits they make."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        st.lists(st.one_of(edge_records(), batch_records(), st.just("")), max_size=8),
        st.one_of(st.none(), st.tuples(st.integers(0, 8), st.sampled_from(BAD_LINES))),
    )
    def test_accepts_what_the_scalar_constructors_accept(self, items, bad):
        lines = [item if isinstance(item, str) else json.dumps(item) for item in items]
        if bad is not None:
            lines.insert(min(bad[0], len(lines)), bad[1][0])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "batch.jsonl"
            path.write_text("".join(line + "\n" for line in lines))
            expected, refused = [], None
            for lineno, line in enumerate(lines, start=1):
                if bad is not None and line == bad[1][0]:
                    refused = f"{path}:{lineno}: {bad[1][1]}"
                    break
                if line:
                    got = scalar_sample(json.loads(line), f"{path}:{lineno}")
                    if isinstance(got, str):
                        refused = got
                        break
                    expected.append(got)
            if refused is not None:
                with pytest.raises(FormatError) as raised:
                    read_sample_batch(path)
                assert str(raised.value) == refused
                return
            batch = read_sample_batch(path)
        assert len(batch) == len(expected)
        for (sample, weights), (want, want_weights) in zip(batch_rows(batch), expected):
            assert sample_bits(sample) == sample_bits(want)
            assert weights == want_weights
        assert ([r.tobytes() for r in batch.predicted_orientation]
                == [s.predicted.orientation.tobytes() for s, _ in expected])

    @pytest.mark.parametrize("later", ["not json", "[" * 100_000 + "]" * 100_000],
                             ids=["parse-error", "deeply-nested"])
    def test_a_value_refused_before_a_later_bad_line_is_the_error(self, tmp_path, later):
        path = tmp_path / "batch.jsonl"
        zero = json.dumps({**GOOD_RECORD, "predicted": _ZERO_QUAT})
        path.write_text(f"{GOOD_LINE}\n{zero}\n{later}\n")
        with pytest.raises(FormatError) as raised:
            read_sample_batch(path)
        assert str(raised.value) == (
            f"{path}:2: raw orientation must be finite with a finite, nonzero norm")

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"true": {"position_m": [1e200, 0.0, 0.0], "yaw_deg": 0.0},
              "predicted": {"position_m": "x"}},
             "true: vector must have a finite norm, got [1.e+200 0.e+000 0.e+000]"),
            ({**GOOD_RECORD, "predicted": _ZERO_QUAT, "weights": {"s_x": "a"}},
             "raw orientation must be finite with a finite, nonzero norm"),
            ({**GOOD_RECORD, "weights": {"s_x": "a"}}, "weights: expected numbers, got ['a', 0.0, 0.0]"),
        ],
        ids=["true-value-then-predicted-type", "sample-value-then-weights-type", "weights-type"],
    )
    def test_a_value_read_before_its_lines_parse_error_is_the_error(self, tmp_path, record, message):
        path = tmp_path / "batch.jsonl"
        path.write_text(f"{GOOD_LINE}\n{json.dumps(record)}\n")
        with pytest.raises(FormatError) as raised:
            read_sample_batch(path)
        assert str(raised.value) == f"{path}:2: {message}"

    def test_a_line_nested_too_deep_is_a_format_error(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text(f"{GOOD_LINE}\n{'[' * 100_000}{']' * 100_000}\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: invalid JSON"):
            read_sample_batch(path)

    def test_rows_keep_their_physical_line_numbers(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text(f"\n{GOOD_LINE}\r\n  \r{GOOD_LINE}\n")
        assert read_sample_batch(path).lines.tolist() == [2, 4]


# The batch lines whose values are refused, and those that fail to parse.
REFUSED_LINES = [b for b in BAD_LINES if not b[1].startswith(("invalid JSON", "need ", "weights:"))]
UNPARSED_LINES = [b for b in BAD_LINES if b[1].startswith(("invalid JSON", "need "))]


class TestBlockBoundary:
    """The reader checks values a block of rows at a time: a refused row on
    either side of a block's end is the one reported, though the next line
    fails to parse."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(-2, 2), st.sampled_from(REFUSED_LINES), st.sampled_from(UNPARSED_LINES))
    def test_a_refused_row_is_reported_before_the_next_lines_error(self, offset, refused, later):
        row = _BLOCK_ROWS + offset
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "batch.jsonl"
            path.write_text(f"{GOOD_LINE}\n" * (row - 1) + f"{refused[0]}\n{later[0]}\n")
            with pytest.raises(FormatError) as raised:
                read_sample_batch(path)
        assert str(raised.value) == f"{path}:{row}: {refused[1]}"

    def test_every_block_is_read(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text(f"{GOOD_LINE}\n" * (2 * _BLOCK_ROWS + 1))
        batch = read_sample_batch(path)
        assert batch.lines.tolist() == list(range(1, 2 * _BLOCK_ROWS + 2))
        want = sample_from_record(GOOD_RECORD)[0]
        assert all(sample_bits(sample) == sample_bits(want) for sample, _ in batch_rows(batch))
        assert {r.tobytes() for r in batch.predicted_orientation} == {want.predicted.orientation.tobytes()}


class TestExternalPredictions:
    def test_load_and_evaluate(self, tmp_path):
        samples = make_samples(8, seed=3)
        path = tmp_path / "pred.jsonl"
        write_batch(path, samples)
        predictions, truths = load_external_predictions(path)
        (positions, orientations), (true_positions, true_orientations) = predictions, truths
        assert len(positions) == len(orientations) == len(true_positions) == 8
        assert len(true_orientations) == 8
        for k, s in enumerate(samples):
            assert np.linalg.norm(orientations[k]) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_array_equal(orientations[k], s.predicted.orientation)
            np.testing.assert_array_equal(positions[k], s.predicted.position)
            np.testing.assert_array_equal(true_orientations[k], s.true_pose.orientation)
            np.testing.assert_array_equal(true_positions[k], s.true_pose.position)
        stats = evaluate(predictions, truths)
        assert stats == evaluate([s.predicted for s in samples], [s.true_pose for s in samples])
        assert stats.n == 8

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_tuple_of_poses_is_scored_as_poses(self, n):
        samples = make_samples(n, seed=4)
        predicted, true = [s.predicted for s in samples], [s.true_pose for s in samples]
        assert evaluate(tuple(predicted), tuple(true)) == evaluate(predicted, true)


class TestSectionConfig:
    def test_round_trip(self, tmp_path):
        sections = [
            {"name": "fuselage", "kind": "fuselage",
             "box_min_m": [-2.0, 9.9, 0.0], "box_max_m": [0.1, 20.1, 5.0]},
            {"name": "fin", "kind": "tail", "relevance": "front-half",
             "box_min_m": [-1.0, 18.0, 4.0], "box_max_m": [1.0, 20.5, 9.0]},
        ]
        path = tmp_path / "sections.json"
        path.write_text(json.dumps({"sections": sections}))
        back = read_section_config(path)
        assert [s.name for s in back] == ["fuselage", "fin"]
        assert back[0].box_min == (-2.0, 9.9, 0.0)
        assert back[1].box_max == (1.0, 20.5, 9.0)
        # An omitted relevance takes SectionSpec's default.
        assert [s.relevance for s in back] == [RELEVANCE_BACK, RELEVANCE_FRONT]
        assert (back[1].value_axis, back[1].row_axis) == (0, 2)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "sections.json"
        path.write_text(
            '{"sections": [{"name": "a", "kind": "nose",'
            ' "box_min_m": [0,0,0], "box_max_m": [1,1,1]}]}'
        )
        with pytest.raises(FormatError, match="unknown section kind"):
            read_section_config(path)


class TestBoundaryConfig:
    def test_round_trip(self, tmp_path):
        record = {
            "quadrant": 1,
            "x_range_m": [-10.5, -8.5],
            "y_range_m": [11.5, 14.5],
            "height_range_m": [6.0, 7.0],
            "yaw_window_deg": 4.0,
            "tilt_center_deg": -20.0,
            "tilt_tolerance_deg": 1.5,
        }
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(record))
        assert read_boundary_config(path) == DeploymentBoundary(
            quadrant=1,
            x_range=(-10.5, -8.5),
            y_range=(11.5, 14.5),
            height_range=(6.0, 7.0),
            yaw_window_deg=4.0,
            tilt_center_deg=-20.0,
            tilt_tolerance_deg=1.5,
        )

    def test_optional_fields_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "boundary.json"
        path.write_text(
            '{"quadrant": 3, "x_range_m": [-10.5, -8.5], "y_range_m": [11.5, 14.5],'
            ' "height_range_m": [6.25, 7.25]}'
        )
        assert read_boundary_config(path) == DeploymentBoundary(
            quadrant=3, x_range=(-10.5, -8.5), y_range=(11.5, 14.5), height_range=(6.25, 7.25)
        )

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "boundary.json"
        path.write_text('{"quadrant": 3, "x_range_m": [0, 1]}')
        with pytest.raises(FormatError, match="missing field"):
            read_boundary_config(path)


def toy_grid():
    from ptzscan.surface import SectionSpec, SurfaceGrid

    spec = SectionSpec("strip", "fuselage", (0.0, 0.0, 0.0), (1.0, 1.0, 5.0))
    row_values = np.array([0.0, 0.05])
    col_values = np.array([0.0, 0.05, 0.1])
    points = np.empty((2, 3, 3))
    points[..., 0] = row_values[:, None]
    points[..., 1] = col_values[None, :]
    points[..., 2] = 3.0
    valid = np.ones((2, 3), dtype=bool)
    valid[1, 2] = False
    points[~valid] = np.nan
    return SurfaceGrid(
        section=spec, row_values=row_values, col_values=col_values, points=points, valid=valid
    )


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        grid = toy_grid()
        path = tmp_path / "grid.csv"
        write_grid_csv(path, grid)
        with open(path, newline="") as fh:
            table = list(csv.DictReader(fh))
        assert list(table[0]) == ["i", "j", "x_m", "y_m", "z_m", "valid"]
        cells = [(i, j) for i in range(2) for j in range(3)]
        assert [(int(r["i"]), int(r["j"])) for r in table] == cells
        assert sum(int(r["valid"]) for r in table) == 5
        row = table[1]
        assert (float(row["x_m"]), float(row["y_m"]), float(row["z_m"])) == (0.0, 0.05, 3.0)
        absent = table[5]
        assert absent["valid"] == "0"
        assert (absent["x_m"], absent["y_m"], absent["z_m"]) == ("", "", "")

    def test_pantilt_csv_layout(self, tmp_path):
        u = PanTiltGrid(
            pans=np.array([[0.0, 1.5, np.nan]]),
            tilts=np.array([[-10.0, -11.0, np.nan]]),
            valid=np.array([[True, True, False]]),
        )
        path = tmp_path / "u.csv"
        write_pantilt_csv(path, u)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,pan_deg,tilt_deg,valid"
        assert lines[1] == "0,0,0.0,-10.0,1"
        assert lines[3] == "0,2,,,0"


def toy_plan():
    k = np.arange(4)
    section = SectionPlan(
        name="fuselage",
        kind="fuselage",
        cells=np.column_stack([k, 2 * k]),
        pans=1.0 * k,
        tilts=-20.0 + 0.5 * k,
        labels=np.column_stack([0.1 * k, 0.2 * k, np.full(4, 3.0)]),
    )
    return ScanPlan(sections=(section,))


class TestPlanExports:
    def test_json_round_trip(self, tmp_path):
        plan = toy_plan()
        path = tmp_path / "plan.json"
        write_plan_json(path, plan)
        back = read_plan_json(path)
        assert len(back) == len(plan)
        [orig], [got] = plan.sections, back.sections
        assert (got.name, got.kind) == ("fuselage", "fuselage")
        for field in ("cells", "pans", "tilts", "labels"):
            np.testing.assert_array_equal(getattr(got, field), getattr(orig, field))

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "plan.csv"
        write_plan_csv(path, toy_plan())
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "section,sequence,pan_deg,tilt_deg,label_x_m,label_y_m,label_z_m"
        )
        assert len(lines) == 5
        assert lines[1].startswith("fuselage,0,0.0,-20.0,")

    def test_bad_points_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"sections": [{"name": "a", "kind": "fuselage", "points": [{}]}]}')
        with pytest.raises(FormatError, match="missing field"):
            read_plan_json(path)


class TestManifestJson:
    def test_round_trip_and_idempotence(self, tmp_path):
        boundary = DeploymentBoundary(quadrant=3, x_range=(-10.5, -8.5), y_range=(11.5, 14.5))
        manifest = generate_manifest(boundary, sizes=SplitSizes(train=4, val=2, test=1), seed=9)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest_json(a, manifest)
        back = json.loads(a.read_text())
        header = back["header"]
        assert header["seed"] == manifest.seed
        assert header["generator"] == "numpy-pcg64"
        assert header["hfov_deg"] == manifest.hfov_deg
        assert header["sizes"] == {"train": 4, "val": 2, "test": 1}
        assert tuple(back["splits"]) == manifest.splits
        assert header["boundary"] == {
            "quadrant": 3,
            "x_range_m": [-10.5, -8.5],
            "y_range_m": [11.5, 14.5],
            "height_range_m": [6.25, 7.25],
            "yaw_window_deg": 10.0,
            "tilt_center_deg": -18.0,
            "tilt_tolerance_deg": 0.5,
        }
        assert len(back["samples"]) == 7
        for orig, got in zip(manifest.samples, back["samples"]):
            assert got["position_m"] == orig["position_m"]
            assert (got["yaw_deg"], got["pan_deg"], got["tilt_deg"]) == (
                orig["yaw_deg"], orig["pan_deg"], orig["tilt_deg"]
            )
            assert got["colors"] == orig["colors"]
            assert got["textures"] == orig["textures"]
        write_manifest_json(b, manifest)
        assert a.read_bytes() == b.read_bytes()


def _reference_manifest_text(manifest, samples):
    """The manifest as one indented ``json.dumps`` of the ``samples`` records."""
    b = manifest.boundary
    payload = {
        "header": {
            "generator": "numpy-pcg64",
            "seed": manifest.seed,
            "hfov_deg": manifest.hfov_deg,
            "sizes": {
                "train": manifest.sizes.train,
                "val": manifest.sizes.val,
                "test": manifest.sizes.test,
            },
            "boundary": {
                "quadrant": b.quadrant,
                "x_range_m": list(b.x_range),
                "y_range_m": list(b.y_range),
                "height_range_m": list(b.height_range),
                "yaw_window_deg": b.yaw_window_deg,
                "tilt_center_deg": b.tilt_center_deg,
                "tilt_tolerance_deg": b.tilt_tolerance_deg,
            },
        },
        "samples": list(samples),
        "splits": list(manifest.splits),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, 0.1]
anywhere = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
# A render FOV lies in (0, 180) degrees, or the manifest refuses it.
render_fovs = st.one_of(st.sampled_from([5e-324, 72.5, math.nextafter(180.0, 0.0)]),
                        st.floats(0.0, 180.0, exclude_min=True, exclude_max=True))


def within(lo, hi):
    """Floats a draw column of range (lo, hi) holds: lo to lo + (hi - lo)."""
    hi = lo + (hi - lo)
    edges = [v for v in EDGES + [lo, hi, np.nextafter(hi, lo)] if lo <= v <= hi]
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi))


@st.composite
def samples(draw, boundary):
    """A manifest record whose values lie in ``boundary``'s column ranges."""
    ranges = (boundary.x_range, boundary.y_range, boundary.height_range)
    record = {"position_m": [draw(within(*r)) for r in ranges]}
    yaw_and_pan = [draw(within(*boundary.yaw_range_deg)) for _ in range(2)]
    record["yaw_deg"], record["pan_deg"] = yaw_and_pan
    record["tilt_deg"] = draw(within(*boundary.tilt_range_deg))
    record["colors"] = {
        obj: {
            rgb: [draw(within(0.0, 1.0)) for _ in range(3)]
            for rgb in ("ambient_rgb", "specular_rgb")
        }
        for obj in draw(st.permutations(SCENE_OBJECTS))
    }
    record["textures"] = {
        obj: {name: draw(within(*r)) for name, r in TEXTURE_RANGES.items()}
        for obj in draw(st.permutations(SCENE_OBJECTS))
    }
    return record


def _sample_values(s) -> list:
    """A sample record's 39 values in the randomizer's column order."""
    values = [*s["position_m"], s["yaw_deg"], s["pan_deg"], s["tilt_deg"]]
    for obj in SCENE_OBJECTS:
        values += s["colors"][obj]["ambient_rgb"] + s["colors"][obj]["specular_rgb"]
    for obj in SCENE_OBJECTS:
        t = s["textures"][obj]
        values += [t["offset_u"], t["offset_v"], t["rotation_deg"], t["scale_u"], t["scale_v"]]
    return values


@st.composite
def manifests(draw):
    """A hand-built manifest whose draw block holds the drawn samples' values,
    returned with those samples."""
    boundary = DeploymentBoundary(
        quadrant=draw(st.integers(1, 4)),
        x_range=(-1e300, draw(st.sampled_from([-1e300, -0.0, 5e-324, 1e300]))),
        y_range=(draw(st.sampled_from([-2.5, 0.0])), 3.0),
        height_range=draw(st.sampled_from([(6.25, 7.25), (-0.0, 0.0), (5e-324, 1e300)])),
    )
    record = samples(boundary)
    drawn = draw(st.one_of(st.just([]), st.lists(record, min_size=1, max_size=1),
                           st.lists(record, min_size=2, max_size=8)))
    train = draw(st.integers(0, len(drawn)))
    val = draw(st.integers(0, len(drawn) - train))
    sizes = SplitSizes(train=train, val=val, test=len(drawn) - train - val)
    # Labels that imitate the samples list's layout must not move the records.
    label = st.sampled_from(["train", "0", '"samples": [\n    0\n  ]', "\n    0\n"])
    manifest = DatasetManifest(
        seed=draw(st.integers(0, 2**64)),
        sizes=sizes,
        boundary=boundary,
        draws=np.array([_sample_values(s) for s in drawn]).reshape(len(drawn), 39),
        splits=tuple(draw(label) for _ in drawn),
        hfov_deg=draw(render_fovs),
    )
    return manifest, drawn


class TestManifestMatchesJsonDump:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(manifests())
    def test_byte_for_byte(self, manifest_and_samples):
        manifest, drawn = manifest_and_samples
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.json"
            write_manifest_json(path, manifest)
            assert path.read_bytes() == _reference_manifest_text(manifest, drawn).encode()
        # The samples built from the block are the drawn ones.
        assert [_sample_values(s) for s in manifest.samples] == [_sample_values(s) for s in drawn]

    def test_generated_manifest(self, tmp_path):
        boundary = DeploymentBoundary(quadrant=3, x_range=(-8.5, -5.5), y_range=(1.5, 4.5))
        manifest = generate_manifest(boundary, SplitSizes(train=40, val=7, test=3), seed=1)
        write_manifest_json(tmp_path / "m.json", manifest)
        expected = _reference_manifest_text(manifest, manifest.samples)
        assert (tmp_path / "m.json").read_text() == expected


def _reference_report_texts(plan, sections, hits, missed):
    """The reference for the report writers: their JSON and CSV text, built
    from one record per image (sequence, section, command, label, hit,
    error, miss flag) and statistics over those records."""
    images = []
    for section in plan.sections:
        for pan, tilt, label in zip(section.pans, section.tilts, section.labels):
            k = len(images)
            hit = None if missed[k] else hits[k]
            images.append(
                {
                    "sequence": k,
                    "section": section.name,
                    "pan_deg": float(pan),
                    "tilt_deg": float(tilt),
                    "label": label,
                    "hit": hit,
                    "error_m": None if hit is None else vector_norm(hit - label),
                    "missed": bool(missed[k]),
                }
            )
    median, rmse = median_rmse(
        np.array([im["error_m"] for im in images if im["error_m"] is not None])
    )

    def finite(v):
        return None if v is None or not math.isfinite(v) else v

    payload = {
        "sections": [
            {
                "name": s.name,
                "image_count": s.image_count,
                "coverage": s.coverage,
                "overlaps": list(s.overlaps),
            }
            for s in sections
        ],
        "label_error_median_m": finite(median),
        "label_error_rmse_m": finite(rmse),
        "missed_count": sum(im["missed"] for im in images),
        "image_count": len(images),
        "images": [
            {
                "sequence": im["sequence"],
                "section": im["section"],
                "pan_deg": im["pan_deg"],
                "tilt_deg": im["tilt_deg"],
                "label_m": [float(v) for v in im["label"]],
                "hit_m": None if im["hit"] is None else [float(v) for v in im["hit"]],
                "error_m": finite(im["error_m"]),
                "missed": im["missed"],
            }
            for im in images
        ],
    }
    rows = [
        [
            im["sequence"],
            im["section"],
            repr(im["pan_deg"]),
            repr(im["tilt_deg"]),
            *[repr(float(v)) for v in im["label"]],
            *(["", "", ""] if im["hit"] is None else [repr(float(v)) for v in im["hit"]]),
            "" if im["error_m"] is None else repr(im["error_m"]),
        ]
        for im in images
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sequence", "section", "pan_deg", "tilt_deg", "label_x_m", "label_y_m",
                     "label_z_m", "hit_x_m", "hit_y_m", "hit_z_m", "error_m"])
    writer.writerows(rows)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    return text, buf.getvalue()


@st.composite
def plans(draw):
    """A plan of 0-3 sections with 0-4 shots each: int64 cells, in-range pans
    and tilts, and labels whose norm is finite."""
    index = st.integers(-(2**63), 2**63 - 1)
    sections = []
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, 4))
        sections.append(
            SectionPlan(
                name=draw(st.text(max_size=6)),
                kind=draw(st.text(max_size=6)),
                cells=np.array([[draw(index), draw(index)] for _ in range(k)], dtype=np.int64)
                .reshape(k, 2),
                pans=np.array([draw(within(-180.0, 180.0).filter(lambda v: v > -180.0))
                               for _ in range(k)], dtype=np.float64),
                tilts=np.array([draw(within(-90.0, 90.0)) for _ in range(k)], dtype=np.float64),
                labels=np.array([[draw(within(-1e150, 1e150)) for _ in range(3)]
                                 for _ in range(k)], dtype=np.float64).reshape(k, 3),
            )
        )
    return ScanPlan(sections=tuple(sections))


class TestPlanJsonRoundTrip:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(plans())
    def test_arrays_and_bytes_survive(self, plan):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
            write_plan_json(first, plan)
            back = read_plan_json(first)
            write_plan_json(second, back)
            assert second.read_bytes() == first.read_bytes()
        assert [(s.name, s.kind) for s in back.sections] == [
            (s.name, s.kind) for s in plan.sections
        ]
        for orig, got in zip(plan.sections, back.sections):
            for field in ("cells", "pans", "tilts", "labels"):
                a, b = getattr(orig, field), getattr(got, field)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@st.composite
def reports(draw):
    """A plan of 0-3 sections with 0-4 shots each, its section reports, and
    hits with a NaN row on each drawn miss."""
    names = draw(st.lists(st.sampled_from(["fuselage", "tail", "a,b", 'say "hi"']),
                          max_size=3, unique=True))
    plan_sections, section_reports, hits, missed = [], [], [], []
    for name in names:
        k = draw(st.integers(0, 4))
        # Per shot: label x, y, z, pan, tilt.
        shots = np.array([[draw(anywhere) for _ in range(5)] for _ in range(k)]).reshape(k, 5)
        for _ in range(k):
            miss = draw(st.booleans())
            missed.append(miss)
            hits.append([math.nan] * 3 if miss else [draw(anywhere) for _ in range(3)])
        cells = np.column_stack([np.arange(k), 2 * np.arange(k)])
        plan_sections.append(
            SectionPlan(name, "fuselage", cells, shots[:, 3], shots[:, 4], shots[:, :3])
        )
        overlaps = tuple(draw(within(0.0, 1.0)) for _ in range(k - 1))
        section_reports.append(SectionReport(name, k, draw(within(0.0, 1.0)), overlaps))
    plan = ScanPlan(sections=tuple(plan_sections))
    return (plan, tuple(section_reports), np.array(hits).reshape(len(missed), 3),
            np.array(missed, dtype=bool))


class TestReportWritersMatchPerImageRecords:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(reports())
    def test_byte_for_byte(self, drawn):
        plan, sections, hits, missed = drawn
        # Hits and labels near the float limit overflow their difference
        # or its square: the error and statistics become inf, as before.
        with np.errstate(over="ignore"), tempfile.TemporaryDirectory() as tmp:
            expected_json, expected_csv = _reference_report_texts(plan, sections, hits, missed)
            report = SimulationReport(plan, sections, hits, missed)
            write_report_json(Path(tmp) / "report.json", report)
            write_report_csv(Path(tmp) / "report.csv", report)
            assert (Path(tmp) / "report.json").read_text() == expected_json
            assert (Path(tmp) / "report.csv").read_text() == expected_csv


class TestReportExports:
    def make_report(self):
        section_plan = SectionPlan(
            "fuselage",
            "fuselage",
            cells=np.array([[0, 0], [0, 1]]),
            pans=np.array([1.0, 2.0]),
            tilts=np.array([-20.0, -20.0]),
            labels=np.array([[0.0, 1.0, 3.0], [0.0, 2.0, 3.0]]),
        )
        plan = ScanPlan(sections=(section_plan,))
        section = SectionReport(
            name="fuselage", image_count=2, coverage=0.75, overlaps=(0.4,)
        )
        hits = np.array([[0.0, 1.0, 3.001], [math.nan] * 3])
        return SimulationReport(plan, (section,), hits, np.array([False, True]))

    def test_json_contains_summary_and_images(self, tmp_path):
        import json

        path = tmp_path / "report.json"
        write_report_json(path, self.make_report())
        payload = json.loads(path.read_text())
        assert payload["sections"][0]["coverage"] == 0.75
        assert payload["missed_count"] == 1
        assert payload["image_count"] == 2
        assert payload["images"][0]["error_m"] == pytest.approx(0.001)
        assert payload["label_error_median_m"] == payload["images"][0]["error_m"]
        assert payload["images"][1]["hit_m"] is None
        assert payload["images"][1]["error_m"] is None

    def test_csv_blank_cells_for_missed(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, self.make_report())
        lines = path.read_text().splitlines()
        assert lines[0].startswith("sequence,section,pan_deg,tilt_deg,label_x_m")
        assert lines[2].endswith(",,,,")


class TestStatsReport:
    def test_flat_key_value_lines(self, tmp_path):
        samples = make_samples(4, seed=5)
        predictions = [s.predicted for s in samples]
        truths = [s.true_pose for s in samples]
        stats = evaluate(predictions, truths)
        text = format_stats(stats)
        lines = text.splitlines()
        assert lines[0] == "n=4"
        assert lines[1].startswith("median_position_m=")
        assert float(lines[2].split("=")[1]) == stats.rmse_position
        path = tmp_path / "stats.txt"
        write_stats_report(path, stats)
        assert path.read_text() == text
