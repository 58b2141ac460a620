"""File formats: pose batches, configs, grid/plan/manifest/report exports.

Everything here is plain text — JSON, JSON Lines, or CSV — with metres for
positions and degrees for angles. Writers are deterministic functions of
their inputs (keys sorted, shortest round-trip float repr, no timestamps),
so rewriting unchanged data reproduces the file byte for byte. JSON never
holds NaN or Infinity: writers refuse to emit them and readers reject them,
naming the file (and line). A record field that is missing or fails its
JSON type's check (in ``_floats`` or ``_integer``: never a coercion, and a
boolean is not a number) is a ``FormatError`` naming the record. Writes go
through a temp-file rename, so a failed write leaves no truncated file. A
manifest is written row by row from its draw block, a plan from its arrays.

Pose records, read from pose files and batch lines, use ``position_m``
plus either ``quaternion_wxyz`` (scalar first) or ``yaw_deg``/optional
``pitch_deg``; no writer emits them. A batch is read a line at a time into
a ``SampleBatch`` of arrays, so it costs one line of text plus 18 floats a
row. Each line's fields are type-checked as it is read; its values are
checked once, a block of rows at a time, by ``geometry._check_rows``, the
home of the checks ``CameraPose`` and ``PoseSample`` make. A line refused
there (or one not UTF-8) is a ``FormatError`` naming the file and line.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import uuid
from array import array
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from ptzscan.geometry import CameraPose, _check_rows, quat_from_yaw_pitch, vec3
from ptzscan.losses import _BLOCK_ROWS, LossWeights, SampleBatch
from ptzscan.pantilt import PanTilt, PanTiltGrid
from ptzscan.planner import ScanPlan, SectionPlan
from ptzscan.randomizer import GENERATOR_NAME, DatasetManifest, DeploymentBoundary, sample_fields
from ptzscan.simulator import PropagationStudy, SimulationReport
from ptzscan.surface import RELEVANCE_BACK, SectionSpec, SurfaceGrid

__all__ = [
    "FormatError",
    "record_to_pose",
    "read_pose_json",
    "read_sample_batch",
    "load_external_predictions",
    "read_section_config",
    "read_boundary_config",
    "write_grid_csv",
    "write_pantilt_csv",
    "write_plan_json",
    "read_plan_json",
    "write_plan_csv",
    "write_manifest_json",
    "write_report_json",
    "write_report_csv",
    "write_propagation_json",
    "format_stats",
    "write_stats_report",
    "write_stats_csv",
    "write_loss_report",
]


class FormatError(Exception):
    """A file exists but its contents do not parse as the expected format."""


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_text(path: Union[str, Path], text: Union[str, Iterable[str]]) -> None:
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    # Mode 0o666 lets the umask set the final permissions, as a plain open()
    # would; mkstemp would force 0o600.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


# One strict decoder for every reader: NaN, Infinity and -Infinity are errors.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _decode(text: str, context: str):
    try:
        return _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, a refused constant, too deep
        raise FormatError(f"{context}: invalid JSON ({exc})") from exc


def _load_json(path: Union[str, Path]):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc
    return _decode(text, str(path))


@contextmanager
def _fields(context: str):
    """Report a record's missing field or rejected value as a FormatError
    naming the record."""
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{context}: missing field {exc}") from exc
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{context}: {exc}") from exc


def _floats(values, n, context) -> list[float]:
    """``n`` finite floats from a JSON list of ints and floats, never booleans."""
    try:  # a value of any other type is skipped, and fails the length test
        out = [float(v) for v in values if type(v) is float or type(v) is int]
    except (OverflowError, TypeError):  # an int past float's range, or not a list
        out = []
    if type(values) is not list or len(out) != len(values):
        raise FormatError(f"{context}: expected numbers, got {values!r}")
    if len(out) != n:
        raise FormatError(f"{context}: expected {n} values, got {len(out)}")
    if not all(map(math.isfinite, out)):
        raise FormatError(f"{context}: expected finite numbers, got {out!r}")
    return out


def _integer(value) -> int:
    """A JSON integer that fits in 64 bits, never a boolean."""
    integer = int(value)  # first, so that an overflowing float keeps int()'s message
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return int(np.int64(integer))  # OverflowError past 64 bits


def _finite_or_none(value):
    """JSON has no NaN: absent or non-finite values are written as null."""
    return None if value is None or not math.isfinite(value) else value


# ---------------------------------------------------------------------------
# Pose records and batch sample files (JSON Lines)

def _pose_fields(record: dict, context: str) -> tuple[list[float], list[float]]:
    """Position and (unvalidated) scalar-first quaternion of a pose record."""
    if not isinstance(record, dict) or "position_m" not in record:
        raise FormatError(f"{context}: missing 'position_m'")
    position = _floats(record["position_m"], 3, context)
    if "quaternion_wxyz" in record:
        return position, _floats(record["quaternion_wxyz"], 4, context)
    if "yaw_deg" in record:
        yaw, pitch = _floats([record["yaw_deg"], record.get("pitch_deg", 0.0)], 2, context)
        return position, quat_from_yaw_pitch(yaw, pitch).tolist()
    raise FormatError(f"{context}: need 'quaternion_wxyz' or 'yaw_deg'")


def record_to_pose(record: dict, context: str = "pose record") -> CameraPose:
    position, quat = _pose_fields(record, context)
    with _fields(context):
        return CameraPose(position, quat)


def read_pose_json(path: Union[str, Path]) -> CameraPose:
    """A camera pose from a JSON file holding one pose record."""
    return record_to_pose(_load_json(path), str(path))


# A batch row: true position and quaternion, then predicted position and raw quaternion.
_ROW = 14


def read_sample_batch(path: Union[str, Path]) -> SampleBatch:
    """The samples of a batch file, a row per non-blank line, with each line's weights
    or None. Lines are read one at a time, each ended by LF, CR LF or CR, and their
    values checked a block of rows at a time; the first bad line, UTF-8 or not, is the
    one reported."""
    rows, normalised, lines, weights = array("d"), array("d"), array("q"), []
    lineno = checked = 0  # checked: the rows the stacked check has passed

    def check_block():
        """Refuse the first bad row past ``checked``, the line being read included."""
        nonlocal checked
        start, checked = checked, len(lines)
        halves = np.frombuffer(rows, offset=8 * _ROW * start).reshape(-1, _ROW // 2)
        true, predicted = halves[::2], halves[1::2]  # the line being read may lack a predicted half
        _, true_refused = _check_rows(true[:, :3], true[:, 3:])
        unit, refused = _check_rows(predicted[:, :3], raw=predicted[:, 3:],
                                    true_position=true[: len(predicted), :3])
        normalised.frombytes(unit[: checked - start].tobytes())
        found = [(r[0], side, prefix + r[1])  # a row's true pose is checked before its sample
                 for side, prefix, r in ((0, "true: ", true_refused), (1, "", refused)) if r]
        if found:
            i, _, message = min(found)
            line = lines[start + i] if start + i < checked else lineno  # else the line being read
            raise FormatError(f"{path}:{line}: {message}")

    with open(path, "rb") as handle:
        physical = (line for chunk in handle for line in chunk.splitlines())  # chunks end at \n
        try:
            for lineno, data in enumerate(physical, start=1):
                context = f"{path}:{lineno}"
                try:
                    line = data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise FormatError(f"{context}: not UTF-8 text ({exc})") from exc
                if not line.strip():
                    continue
                record = _decode(line, context)
                if not isinstance(record, dict) or "true" not in record or "predicted" not in record:
                    raise FormatError(f"{context}: need 'true' and 'predicted' records")
                for side in ("true", "predicted"):
                    position, quaternion = _pose_fields(record[side], f"{context}: {side}")
                    rows.extend(position + quaternion)
                w = record.get("weights")
                if w is not None:
                    with _fields(f"{context}: weights"):
                        logvars = [w.get("s_x", 0.0), w.get("s_q", 0.0), w.get("s_c", 0.0)]
                        w = LossWeights(*_floats(logvars, 3, f"{context}: weights"))
                lines.append(lineno)
                weights.append(w)
                if len(lines) - checked == _BLOCK_ROWS:
                    check_block()
        finally:  # every exception, a later line's included, reports the rows read before it
            check_block()
    stacks = np.split(np.frombuffer(rows).reshape(-1, _ROW), [3, 7, 10], axis=1)
    return SampleBatch(*stacks, np.frombuffer(normalised).reshape(-1, 4), tuple(weights),
                       np.frombuffer(lines, dtype=np.int64))


def load_external_predictions(path: Union[str, Path]) -> tuple[tuple, tuple]:
    """Read a batch file as the (positions, orientations) stacks of its predicted and
    its true poses, for ``evaluate``; a predicted quaternion is normalised once."""
    batch = read_sample_batch(path)
    return ((batch.predicted_position, batch.predicted_orientation),
            (batch.true_position, batch.true_orientation))


# ---------------------------------------------------------------------------
# Section and boundary configs (JSON)

def read_section_config(path: Union[str, Path]) -> list[SectionSpec]:
    payload = _load_json(path)
    if not isinstance(payload, dict) or not isinstance(payload.get("sections"), list):
        raise FormatError(f"{path}: expected an object with a 'sections' list")
    out = []
    for k, entry in enumerate(payload["sections"]):
        context = f"{path}: sections[{k}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{context}: expected an object")
        with _fields(context):
            spec = SectionSpec(
                name=entry["name"],
                kind=entry["kind"],
                box_min=tuple(_floats(entry["box_min_m"], 3, context)),
                box_max=tuple(_floats(entry["box_max_m"], 3, context)),
                relevance=entry.get("relevance", RELEVANCE_BACK),
            )
        if any(s.name == spec.name for s in out):
            raise FormatError(f"{context}: section name {spec.name!r} is used twice")
        out.append(spec)
    return out


def _boundary_to_record(boundary: DeploymentBoundary) -> dict:
    return {
        "quadrant": boundary.quadrant,
        "x_range_m": list(boundary.x_range),
        "y_range_m": list(boundary.y_range),
        "height_range_m": list(boundary.height_range),
        "yaw_window_deg": boundary.yaw_window_deg,
        "tilt_center_deg": boundary.tilt_center_deg,
        "tilt_tolerance_deg": boundary.tilt_tolerance_deg,
    }


# Fields a hand-written boundary config may omit, with DeploymentBoundary's defaults.
_BOUNDARY_DEFAULTS = {
    name: getattr(DeploymentBoundary, name)
    for name in ("yaw_window_deg", "tilt_center_deg", "tilt_tolerance_deg")
}


def read_boundary_config(path: Union[str, Path]) -> DeploymentBoundary:
    payload = _load_json(path)
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object")
    record, context = {**_BOUNDARY_DEFAULTS, **payload}, str(path)
    with _fields(context):
        scalars = _floats([record[name] for name in _BOUNDARY_DEFAULTS], 3, context)
        return DeploymentBoundary(
            quadrant=_integer(record["quadrant"]),
            x_range=tuple(_floats(record["x_range_m"], 2, context)),
            y_range=tuple(_floats(record["y_range_m"], 2, context)),
            height_range=tuple(_floats(record["height_range_m"], 2, context)),
            **dict(zip(_BOUNDARY_DEFAULTS, scalars)),
        )


# ---------------------------------------------------------------------------
# Grid / pan-tilt CSV exports

def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def _cell_fields(value: float) -> str:
    return repr(float(value)) if math.isfinite(value) else ""


def _write_lattice_csv(
    path: Union[str, Path], header: list[str], columns: list[np.ndarray], valid: np.ndarray
) -> None:
    """One row per lattice cell in row-major order: i, j, each column's value
    (blank where non-finite), then the valid flag."""
    rows = []
    nr, nc = valid.shape
    for i in range(nr):
        for j in range(nc):
            values = [_cell_fields(c[i, j]) for c in columns]
            rows.append([i, j, *values, int(bool(valid[i, j]))])
    _write_text(path, _csv_text(["i", "j", *header, "valid"], rows))


def write_grid_csv(path: Union[str, Path], grid: SurfaceGrid) -> None:
    xyz = [grid.points[..., k] for k in range(3)]
    _write_lattice_csv(path, ["x_m", "y_m", "z_m"], xyz, grid.valid)


def write_pantilt_csv(path: Union[str, Path], u: PanTiltGrid) -> None:
    _write_lattice_csv(path, ["pan_deg", "tilt_deg"], [u.pans, u.tilts], u.valid)


# ---------------------------------------------------------------------------
# Plan exports

def _plan_rows(plan: ScanPlan):
    """(section name, pan, tilt, label) of each shot in plan order, as Python values."""
    for s in plan.sections:
        yield from zip(repeat(s.name), s.pans.tolist(), s.tilts.tolist(), s.labels.tolist())


def write_plan_json(path: Union[str, Path], plan: ScanPlan) -> None:
    sequence = 0
    sections = []
    for section in plan.sections:
        rows = zip(section.pans.tolist(), section.tilts.tolist(), section.labels.tolist(),
                   section.cells.tolist())
        points = [
            {"sequence": k, "pan_deg": pan, "tilt_deg": tilt, "label_m": label, "i": i, "j": j}
            for k, (pan, tilt, label, (i, j)) in enumerate(rows, sequence)
        ]
        sequence += len(points)
        sections.append({"name": section.name, "kind": section.kind, "points": points})
    _write_text(path, _dump_json({"sections": sections}))


def read_plan_json(path: Union[str, Path]) -> ScanPlan:
    payload = _load_json(path)
    if not isinstance(payload, dict) or not isinstance(payload.get("sections"), list):
        raise FormatError(f"{path}: expected an object with a 'sections' list")
    sections = []
    for k, entry in enumerate(payload["sections"]):
        context = f"{path}: sections[{k}]"
        if not isinstance(entry, dict) or {type(entry.get(k)) for k in ("name", "kind")} != {str}:
            raise FormatError(f"{context}: need 'name' and 'kind' strings")
        if not isinstance(entry.get("points", []), list):
            raise FormatError(f"{context}: 'points' must be a list")
        cells, shots = [], []
        for m, rec in enumerate(entry.get("points", [])):
            pcontext = f"{context}.points[{m}]"
            with _fields(pcontext):
                shot = PanTilt(*_floats([rec["pan_deg"], rec["tilt_deg"]], 2, pcontext))
                label = vec3(*_floats(rec["label_m"], 3, pcontext))
                cells.append([_integer(rec["i"]), _integer(rec["j"])])
            shots.append([shot.pan_deg, shot.tilt_deg, *label])
        cells = np.array(cells, dtype=np.int64).reshape(-1, 2)
        shots = np.array(shots, dtype=np.float64).reshape(-1, 5)  # pan, tilt, label x, y, z
        pans, tilts, labels = shots[:, 0], shots[:, 1], shots[:, 2:]
        sections.append(SectionPlan(entry["name"], entry["kind"], cells, pans, tilts, labels))
    return ScanPlan(sections=tuple(sections))


def write_plan_csv(path: Union[str, Path], plan: ScanPlan) -> None:
    rows = [
        [name, sequence, repr(pan), repr(tilt), *map(repr, label)]
        for sequence, (name, pan, tilt, label) in enumerate(_plan_rows(plan))
    ]
    header = ["section", "sequence", "pan_deg", "tilt_deg", "label_x_m", "label_y_m", "label_z_m"]
    _write_text(path, _csv_text(header, rows))


# ---------------------------------------------------------------------------
# Dataset manifests

def write_manifest_json(path: Union[str, Path], manifest: DatasetManifest) -> None:
    payload = {
        "header": {
            "generator": GENERATOR_NAME,
            "seed": manifest.seed,
            "hfov_deg": manifest.hfov_deg,
            "sizes": {name: getattr(manifest.sizes, name) for name in ("train", "val", "test")},
            "boundary": _boundary_to_record(manifest.boundary),
        },
        "samples": [0] if len(manifest.draws) else [],
        "splits": list(manifest.splits),
    }
    # Samples stream in at json's 0 (matched with its key, which no string can imitate),
    # each as one record laid out by json at that depth, its slots taking a row's float reprs.
    head, *tail = re.split(r'(?<="samples": \[\n    )0(?=\n  \])', _dump_json(payload))
    slots = [f"@{k}" for k in range(manifest.draws.shape[1])]
    marked = _dump_json(sample_fields(slots)).rstrip("\n")
    marked = marked.replace("\n", "\n    ").replace("{", "{{").replace("}", "}}")
    template = re.sub(r'"@(\d+)"', r"{\1}", marked)

    def chunks():
        yield head
        for k, row in enumerate(map(np.ndarray.tolist, manifest.draws)):  # a row at a time
            yield (",\n    " if k else "") + template.format(*map(repr, row))
        yield from tail

    _write_text(path, chunks())


# ---------------------------------------------------------------------------
# Simulation reports and evaluation stats

def write_report_json(path: Union[str, Path], report: SimulationReport) -> None:
    columns = (report.hits.tolist(), report.missed.tolist(), report.shot_errors.tolist())
    shots = enumerate(zip(_plan_rows(report.plan), *columns))
    payload = {
        "sections": [
            {
                "name": s.name,
                "image_count": s.image_count,
                "coverage": s.coverage,
                "overlaps": list(s.overlaps),
            }
            for s in report.sections
        ],
        "label_error_median_m": _finite_or_none(report.label_error_median_m),
        "label_error_rmse_m": _finite_or_none(report.label_error_rmse_m),
        "missed_count": report.missed_count,
        "image_count": report.image_count,
        "images": [
            {
                "sequence": sequence,
                "section": name,
                "pan_deg": pan,
                "tilt_deg": tilt,
                "label_m": label,
                "hit_m": None if miss else hit,
                "error_m": _finite_or_none(error),
                "missed": miss,
            }
            for sequence, ((name, pan, tilt, label), hit, miss, error) in shots
        ],
    }
    _write_text(path, _dump_json(payload))


def write_report_csv(path: Union[str, Path], report: SimulationReport) -> None:
    columns = (report.hits.tolist(), report.missed.tolist(), report.shot_errors.tolist())
    shots = enumerate(zip(_plan_rows(report.plan), *columns))
    rows = [
        [
            sequence,
            name,
            repr(pan),
            repr(tilt),
            *map(repr, label),
            *(["", "", ""] if miss else map(repr, hit)),
            "" if miss else repr(error),
        ]
        for sequence, ((name, pan, tilt, label), hit, miss, error) in shots
    ]
    header = ["sequence", "section", "pan_deg", "tilt_deg", "label_x_m", "label_y_m", "label_z_m"]
    header += ["hit_x_m", "hit_y_m", "hit_z_m", "error_m"]
    _write_text(path, _csv_text(header, rows))


def write_propagation_json(path: Union[str, Path], study: PropagationStudy) -> None:
    payload = {
        "seed": study.seed,
        "sigma_pos_m": study.sigma_pos_m,
        "sigma_yaw_deg": study.sigma_yaw_deg,
        "n_draws": len(study.draws),
        "error_median_m": _finite_or_none(study.error_median_m),
        "error_rmse_m": _finite_or_none(study.error_rmse_m),
        "draws": [
            {
                "draw": d.draw,
                "position_error_m": d.position_error_m,
                "yaw_error_deg": d.yaw_error_deg,
                "image_count": d.image_count,
                "label_error_median_m": _finite_or_none(d.label_error_median_m),
                "label_error_rmse_m": _finite_or_none(d.label_error_rmse_m),
                "coverage_min": d.coverage_min,
                "missed_count": d.missed_count,
            }
            for d in study.draws
        ],
    }
    _write_text(path, _dump_json(payload))


def _stats_fields(stats) -> list[tuple[str, str]]:
    """(name, text) of each pose-error statistic, in export order."""
    return [
        ("n", repr(stats.n)),
        ("median_position_m", repr(stats.median_position)),
        ("rmse_position_m", repr(stats.rmse_position)),
        ("median_orientation_deg", repr(stats.median_orientation)),
        ("rmse_orientation_deg", repr(stats.rmse_orientation)),
    ]


def format_stats(stats) -> str:
    """Flat key=value lines for pose-error statistics."""
    return "".join(f"{name}={text}\n" for name, text in _stats_fields(stats))


def write_stats_report(path: Union[str, Path], stats) -> None:
    _write_text(path, format_stats(stats))


def write_stats_csv(path: Union[str, Path], stats) -> None:
    names, texts = zip(*_stats_fields(stats))
    _write_text(path, _csv_text(list(names), [list(texts)]))


def write_loss_report(path: Union[str, Path], report: dict) -> None:
    _write_text(path, _dump_json(report))
