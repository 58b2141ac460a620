"""File formats: pose batches, configs, grid/plan/manifest/report exports.

Everything here is plain text — JSON, JSON Lines, or CSV — with metres for
positions and degrees for angles. Writers are deterministic functions of
their inputs (keys sorted, shortest round-trip float repr, no timestamps),
so rewriting unchanged data reproduces the file byte for byte. Writers
also go through a temp-file rename, so a failed write never leaves a
truncated file behind.

Pose records, read from pose files and batch lines, use ``position_m``
plus either ``quaternion_wxyz`` (scalar first) or ``yaw_deg``/optional
``pitch_deg``; no writer emits them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ptzscan.evaluation import SOURCE_EXTERNAL, PoseEstimate
from ptzscan.geometry import CameraPose, quat_from_yaw_pitch
from ptzscan.losses import LossWeights, PoseSample
from ptzscan.pantilt import PanTiltGrid
from ptzscan.planner import ScanPlan, ScanPoint, SectionPlan
from ptzscan.randomizer import DatasetManifest, DeploymentBoundary, RandomizationSample
from ptzscan.simulator import PropagationStudy, SimulationReport
from ptzscan.surface import RELEVANCE_BACK, SectionSpec, SurfaceGrid

__all__ = [
    "FormatError",
    "BatchSample",
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
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_text(path: Union[str, Path], text: str) -> None:
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    # Mode 0o666 lets the umask set the final permissions, as a plain open()
    # would; mkstemp would force 0o600.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: Union[str, Path]) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _load_json(path: Union[str, Path]):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def _floats(values, n, context) -> list[float]:
    try:
        out = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{context}: expected numbers, got {values!r}") from exc
    if len(out) != n:
        raise FormatError(f"{context}: expected {n} values, got {len(out)}")
    return out


def _finite_or_none(value):
    """JSON has no NaN: absent or non-finite values are written as null."""
    return None if value is None or not math.isfinite(value) else value


# ---------------------------------------------------------------------------
# Pose records and batch sample files (JSON Lines)

def _pose_fields(record: dict, context: str) -> tuple[np.ndarray, np.ndarray]:
    """Position and (unvalidated) scalar-first quaternion of a pose record."""
    if not isinstance(record, dict) or "position_m" not in record:
        raise FormatError(f"{context}: missing 'position_m'")
    position = np.array(_floats(record["position_m"], 3, context))
    if "quaternion_wxyz" in record:
        return position, np.array(_floats(record["quaternion_wxyz"], 4, context))
    if "yaw_deg" in record:
        yaw, pitch = _floats([record["yaw_deg"], record.get("pitch_deg", 0.0)], 2, context)
        return position, quat_from_yaw_pitch(yaw, pitch)
    raise FormatError(f"{context}: need 'quaternion_wxyz' or 'yaw_deg'")


def record_to_pose(record: dict, context: str = "pose record") -> CameraPose:
    position, quat = _pose_fields(record, context)
    try:
        return CameraPose(position, quat)
    except ValueError as exc:
        raise FormatError(f"{context}: {exc}") from exc


# Pose readers reject an overflowing quaternion norm without numpy's warning.
@np.errstate(over="ignore")
def read_pose_json(path: Union[str, Path]) -> CameraPose:
    """A camera pose from a JSON file holding one pose record."""
    return record_to_pose(_load_json(path), str(path))


@dataclass(frozen=True)
class BatchSample:
    """One line of a batch file: a pose pair plus optional loss weights."""

    sample: PoseSample
    weights: Optional[LossWeights] = None


@np.errstate(over="ignore")
def read_sample_batch(path: Union[str, Path]) -> list[BatchSample]:
    out = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        context = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{context}: invalid JSON ({exc})") from exc
        if not isinstance(record, dict) or "true" not in record or "predicted" not in record:
            raise FormatError(f"{context}: need 'true' and 'predicted' records")
        true_pose = record_to_pose(record["true"], f"{context}: true")
        position, raw = _pose_fields(record["predicted"], f"{context}: predicted")
        try:
            sample = PoseSample(true_pose, position, raw)
        except ValueError as exc:
            raise FormatError(f"{context}: {exc}") from exc
        w = record.get("weights")
        weights = None
        if w is not None:
            try:
                weights = LossWeights(
                    s_x=float(w.get("s_x", 0.0)),
                    s_q=float(w.get("s_q", 0.0)),
                    s_c=float(w.get("s_c", 0.0)),
                )
            except (AttributeError, TypeError, ValueError) as exc:
                raise FormatError(f"{context}: bad weights ({exc})") from exc
        out.append(BatchSample(sample=sample, weights=weights))
    return out


def load_external_predictions(
    path: Union[str, Path],
) -> tuple[list[PoseEstimate], list[CameraPose]]:
    """Read a batch file as (predictions, ground truths) for evaluation.

    Predicted orientations are normalized into estimates tagged with the
    external-file source.
    """
    predictions, truths = [], []
    for batch in read_sample_batch(path):
        sample = batch.sample
        predictions.append(
            PoseEstimate(
                position=sample.predicted_position,
                orientation=sample.predicted_orientation,
                source=SOURCE_EXTERNAL,
            )
        )
        truths.append(sample.true_pose)
    return predictions, truths


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
        try:
            out.append(
                SectionSpec(
                    name=str(entry["name"]),
                    kind=str(entry["kind"]),
                    box_min=tuple(_floats(entry["box_min_m"], 3, context)),
                    box_max=tuple(_floats(entry["box_max_m"], 3, context)),
                    relevance=str(entry.get("relevance", RELEVANCE_BACK)),
                )
            )
        except KeyError as exc:
            raise FormatError(f"{context}: missing field {exc}") from exc
        except ValueError as exc:
            raise FormatError(f"{context}: {exc}") from exc
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


def _record_to_boundary(record: dict, context: str) -> DeploymentBoundary:
    """Strict: every field of ``_boundary_to_record`` must be present."""
    try:
        return DeploymentBoundary(
            quadrant=int(record["quadrant"]),
            x_range=tuple(_floats(record["x_range_m"], 2, context)),
            y_range=tuple(_floats(record["y_range_m"], 2, context)),
            height_range=tuple(_floats(record["height_range_m"], 2, context)),
            yaw_window_deg=float(record["yaw_window_deg"]),
            tilt_center_deg=float(record["tilt_center_deg"]),
            tilt_tolerance_deg=float(record["tilt_tolerance_deg"]),
        )
    except KeyError as exc:
        raise FormatError(f"{context}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{context}: {exc}") from exc


# Fields a hand-written boundary config may omit, with DeploymentBoundary's defaults.
_BOUNDARY_DEFAULTS = {
    name: getattr(DeploymentBoundary, name)
    for name in ("yaw_window_deg", "tilt_center_deg", "tilt_tolerance_deg")
}


def read_boundary_config(path: Union[str, Path]) -> DeploymentBoundary:
    payload = _load_json(path)
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return _record_to_boundary({**_BOUNDARY_DEFAULTS, **payload}, str(path))


# ---------------------------------------------------------------------------
# Grid / pan-tilt CSV exports

def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
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

def write_plan_json(path: Union[str, Path], plan: ScanPlan) -> None:
    sequence = 0
    sections = []
    for section in plan.sections:
        points = []
        for p in section.points:
            points.append(
                {
                    "sequence": sequence,
                    "pan_deg": p.pan_deg,
                    "tilt_deg": p.tilt_deg,
                    "label_m": [float(v) for v in p.label],
                    "i": p.i,
                    "j": p.j,
                }
            )
            sequence += 1
        sections.append({"name": section.name, "kind": section.kind, "points": points})
    _write_text(path, _dump_json({"sections": sections}))


def read_plan_json(path: Union[str, Path]) -> ScanPlan:
    payload = _load_json(path)
    if not isinstance(payload, dict) or not isinstance(payload.get("sections"), list):
        raise FormatError(f"{path}: expected an object with a 'sections' list")
    sections = []
    for k, entry in enumerate(payload["sections"]):
        context = f"{path}: sections[{k}]"
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise FormatError(f"{context}: need 'name' and 'kind'")
        points = []
        for m, rec in enumerate(entry.get("points", [])):
            pcontext = f"{context}.points[{m}]"
            try:
                points.append(
                    ScanPoint(
                        pan_deg=float(rec["pan_deg"]),
                        tilt_deg=float(rec["tilt_deg"]),
                        label=np.array(_floats(rec["label_m"], 3, pcontext)),
                        section=str(entry["name"]),
                        i=int(rec["i"]),
                        j=int(rec["j"]),
                    )
                )
            except KeyError as exc:
                raise FormatError(f"{pcontext}: missing field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise FormatError(f"{pcontext}: {exc}") from exc
        sections.append(
            SectionPlan(name=str(entry["name"]), kind=str(entry["kind"]), points=tuple(points))
        )
    return ScanPlan(sections=tuple(sections))


def _float_fields(values) -> list[str]:
    return [repr(float(v)) for v in values]


def write_plan_csv(path: Union[str, Path], plan: ScanPlan) -> None:
    rows = [
        [p.section, sequence, repr(p.pan_deg), repr(p.tilt_deg), *_float_fields(p.label)]
        for sequence, p in enumerate(plan)
    ]
    header = ["section", "sequence", "pan_deg", "tilt_deg", "label_x_m", "label_y_m", "label_z_m"]
    _write_text(path, _csv_text(header, rows))


# ---------------------------------------------------------------------------
# Dataset manifests

def _sample_to_record(sample: RandomizationSample) -> dict:
    return {
        "position_m": [float(v) for v in sample.position],
        "yaw_deg": sample.yaw_deg,
        "pan_deg": sample.pan_deg,
        "tilt_deg": sample.tilt_deg,
        "colors": {
            name: {
                "ambient_rgb": list(color.ambient_rgb),
                "specular_rgb": list(color.specular_rgb),
            }
            for name, color in sample.colors.items()
        },
        "textures": {
            name: {
                "offset_u": tex.offset_u,
                "offset_v": tex.offset_v,
                "rotation_deg": tex.rotation_deg,
                "scale_u": tex.scale_u,
                "scale_v": tex.scale_v,
            }
            for name, tex in sample.textures.items()
        },
    }


def write_manifest_json(path: Union[str, Path], manifest: DatasetManifest) -> None:
    payload = {
        "header": {
            "generator": manifest.generator,
            "seed": manifest.seed,
            "hfov_deg": manifest.hfov_deg,
            "sizes": {
                "train": manifest.sizes.train,
                "val": manifest.sizes.val,
                "test": manifest.sizes.test,
            },
            "boundary": _boundary_to_record(manifest.boundary),
        },
        "samples": [_sample_to_record(s) for s in manifest.samples],
        "splits": list(manifest.splits),
    }
    _write_text(path, _dump_json(payload))


# ---------------------------------------------------------------------------
# Simulation reports and evaluation stats

def write_report_json(path: Union[str, Path], report: SimulationReport) -> None:
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
                "sequence": im.sequence,
                "section": im.section,
                "pan_deg": im.pan_deg,
                "tilt_deg": im.tilt_deg,
                "label_m": [float(v) for v in im.label],
                "hit_m": None if im.hit is None else [float(v) for v in im.hit],
                "error_m": _finite_or_none(im.error_m),
                "missed": im.missed,
            }
            for im in report.images
        ],
    }
    _write_text(path, _dump_json(payload))


def write_report_csv(path: Union[str, Path], report: SimulationReport) -> None:
    rows = [
        [
            im.sequence,
            im.section,
            repr(im.pan_deg),
            repr(im.tilt_deg),
            *_float_fields(im.label),
            *(["", "", ""] if im.hit is None else _float_fields(im.hit)),
            "" if im.error_m is None else repr(im.error_m),
        ]
        for im in report.images
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
