"""Output checks for each workload, against references independent of ptzscan.

Each check reads what one iteration of a workload wrote and returns
``(problems, outcome)``: a list of human-readable failures (empty when the
outputs are right) and the accuracy/outcome figures read from the outputs.
A missing or unparsable file is a problem; a file with missing fields may
raise, and the caller counts that as a failed command too.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np

import inputs

GRID_TOL_M = 1e-3  # the README's interpolation guarantee on a cylinder
STAT_RTOL = 1e-9
SIZES = {"train": 4000, "val": 700, "test": 300}
DRAWS = 30


def hit_tolerance(x: np.ndarray) -> np.ndarray:
    """Allowed radial offset of a cast hit.

    A grid-cast hit lies on the bilinear patch between 5 cm lattice cells,
    not on a cell, so it may sit off the cylinder by the cell tolerance plus
    the linear-interpolation error over one cell, h^2/8 * |z''| with
    z(x) = H0 + sqrt(R0^2 - x^2), taken at the steeper edge of the cell.
    """
    h = 0.05
    edge = np.minimum(np.abs(x) + h, inputs.R0 - 1e-3)
    curvature = inputs.R0**2 / (inputs.R0**2 - edge**2) ** 1.5
    return GRID_TOL_M + h * h / 8.0 * curvature


def _close(a: float, b: float, rtol: float = STAT_RTOL) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-15)


def _read_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return None


def _grid_cells(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["valid"] == "1"]
    return np.array([[float(r["x_m"]), float(r["y_m"]), float(r["z_m"])] for r in rows])


def check_scan_pipeline(out: Path, seed: int) -> tuple[list[str], dict]:
    problems: list[str] = []
    outcome: dict[str, float] = {}
    run = out / "run"
    grid_err = 0.0
    for section in (inputs.REAR_SECTION, inputs.FRONT_SECTION):
        path = run / f"{section['name']}_grid.csv"
        try:
            cells = _grid_cells(path)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"{path.name}: unreadable ({exc})")
            continue
        if len(cells) == 0:
            problems.append(f"{path.name}: no present cells")
            continue
        err = float(inputs.radial_offset(cells).max())
        if not err <= GRID_TOL_M:
            problems.append(f"{path.name}: cell {err * 1e3:.3f} mm off the cylinder")
        grid_err = max(grid_err, err)
    outcome["grid_error_max_mm"] = grid_err * 1e3

    report = _read_json(run / "report.json", problems)
    if report is None:
        return problems, outcome
    images = report.get("images") or []
    hit_imgs = [im for im in images if not im["missed"]]
    if not hit_imgs:
        problems.append("report.json: no image hit the surface")
        return problems, outcome
    hits = np.array([im["hit_m"] for im in hit_imgs], dtype=float)
    labels = np.array([im["label_m"] for im in hit_imgs], dtype=float)
    offsets = inputs.radial_offset(hits)
    bad = offsets > hit_tolerance(hits[:, 0])
    if bad.any():
        problems.append(f"report.json: {int(bad.sum())} hits off the cylinder beyond tolerance")
    errors = np.linalg.norm(hits - labels, axis=1)
    if not np.allclose(errors, [im["error_m"] for im in hit_imgs], rtol=1e-12, atol=0.0):
        problems.append("report.json: error_m differs from |hit - label|")
    median = report.get("label_error_median_m")
    if median is None or not _close(median, float(np.median(errors))):
        problems.append("report.json: label_error_median_m differs from the median of the errors")
    if report.get("image_count") != len(images) or report.get("missed_count") != len(images) - len(hit_imgs):
        problems.append("report.json: image or miss count inconsistent")
    coverage = [s["coverage"] for s in report.get("sections", [])]
    if len(coverage) != 2 or not all(0.0 < c <= 1.0 for c in coverage):
        problems.append(f"report.json: bad section coverage {coverage}")
    outcome.update(
        hit_error_max_mm=float(offsets.max()) * 1e3,
        label_error_median_m=float(np.median(errors)),
        coverage_min=min(coverage, default=0.0),
        images=len(images),
        missed=len(images) - len(hit_imgs),
    )
    return problems, outcome


def check_pose_study(out: Path, seed: int) -> tuple[list[str], dict]:
    problems: list[str] = []
    study = _read_json(out / "study.json", problems)
    if study is None:
        return problems, {}
    draws = study.get("draws") or []
    if study.get("seed") != seed or study.get("n_draws") != DRAWS or len(draws) != DRAWS:
        problems.append("study.json: seed or draw count differs from the command")
        return problems, {}
    shots = sum(d["image_count"] for d in draws)
    misses = sum(d["missed_count"] for d in draws)
    coverage = [d["coverage_min"] for d in draws]
    if shots == 0 or misses >= shots:
        problems.append(f"study.json: {shots} shots, {misses} missed")
    if not all(0.0 < c <= 1.0 for c in coverage):
        problems.append("study.json: coverage outside (0, 1]")
    median = study.get("error_median_m")
    if median is None or not 0.0 < median < 5.0:
        problems.append(f"study.json: implausible median labelling error {median}")
        median = 0.0
    for d in draws:
        if not 0.0 <= d["position_error_m"] < 2.0 or d["image_count"] < 1:
            problems.append(f"study.json: implausible draw {d['draw']}")
            break
    return problems, {
        "shots": shots,
        "misses": misses,
        "label_error_median_m": median,
        "coverage_min": min(coverage, default=0.0),
    }


def _angles_deg(q_true: np.ndarray, q_pred: np.ndarray) -> np.ndarray:
    """Rotation angle between unit quaternions, from the relative rotation."""
    w1, x1, y1, z1 = q_true.T
    w2, x2, y2, z2 = q_pred.T
    # conj(q_true) * q_pred
    rw = w1 * w2 + x1 * x2 + y1 * y2 + z1 * z2
    rx = w1 * x2 - x1 * w2 - y1 * z2 + z1 * y2
    ry = w1 * y2 + x1 * z2 - y1 * w2 - z1 * x2
    rz = w1 * z2 - x1 * y2 + y1 * x2 - z1 * w2
    return np.degrees(2.0 * np.arctan2(np.sqrt(rx * rx + ry * ry + rz * rz), np.abs(rw)))


@functools.lru_cache(maxsize=1)
def batch_reference(seed: int) -> dict[str, float]:
    """What ``evaluate`` and ``loss-check`` must report for the seed's batch
    (cached: every iteration of a run checks against the same batch)."""
    b = inputs.pose_batch(seed)
    q_pred = b["pred_q"] / np.linalg.norm(b["pred_q"], axis=1, keepdims=True)
    pos_err = np.linalg.norm(b["pred_pos"] - b["true_pos"], axis=1)
    ang = _angles_deg(b["true_q"], q_pred)
    miss = inputs.axis_distance(b["pred_pos"], inputs.view_directions(q_pred)) > inputs.R0
    return {
        "n": len(pos_err),
        "median_position_m": float(np.median(pos_err)),
        "rmse_position_m": float(np.sqrt(np.mean(pos_err**2))),
        "median_orientation_deg": float(np.median(ang)),
        "rmse_orientation_deg": float(np.sqrt(np.mean(ang**2))),
        "mean_position_loss": float(np.mean(pos_err)),
        "mean_orientation_loss": float(np.mean(np.linalg.norm(b["true_q"] - q_pred, axis=1))),
        "surface_skipped": int(miss.sum()),
    }


def _check_manifest(path: Path, seed: int, problems: list[str]) -> int:
    manifest = _read_json(path, problems)
    if manifest is None:
        return 0
    samples = manifest.get("samples") or []
    splits = manifest.get("splits") or []
    header = manifest.get("header", {})
    expected_splits = [s for s, n in SIZES.items() for _ in range(n)]
    if len(samples) != sum(SIZES.values()) or splits != expected_splits:
        problems.append(f"manifest.json: {len(samples)} samples / splits differ from 4000/700/300")
    if header.get("seed") != seed or header.get("sizes") != SIZES:
        problems.append("manifest.json: header seed or sizes differ from the command")
    b = inputs.BOUNDARY
    nominal = 20.0  # quadrant 3's pan offset
    yaw_lo, yaw_hi = nominal - b["yaw_window_deg"], nominal + b["yaw_window_deg"]
    tilt_lo = b["tilt_center_deg"] - b["tilt_tolerance_deg"]
    tilt_hi = b["tilt_center_deg"] + b["tilt_tolerance_deg"]
    ranges = (b["x_range_m"], b["y_range_m"], b["height_range_m"])
    for k, s in enumerate(samples):
        pos = s["position_m"]
        inside = all(lo <= v <= hi for v, (lo, hi) in zip(pos, ranges))
        inside &= yaw_lo <= s["yaw_deg"] <= yaw_hi and yaw_lo <= s["pan_deg"] <= yaw_hi
        inside &= tilt_lo <= s["tilt_deg"] <= tilt_hi
        if not inside:
            problems.append(f"manifest.json: sample {k} outside the boundary")
            break
    return len(samples)


def _read_stats(path: Path, problems: list[str]) -> dict:
    try:
        pairs = (line.split("=", 1) for line in path.read_text().splitlines() if line)
        return {k: float(v) for k, v in pairs}
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return {}


def check_dataset_audit(out: Path, seed: int) -> tuple[list[str], dict]:
    problems: list[str] = []
    reference = batch_reference(seed)
    samples = _check_manifest(out / "manifest.json", seed, problems)
    stats = _read_stats(out / "stats.txt", problems)
    for key in ("n", "median_position_m", "rmse_position_m", "median_orientation_deg", "rmse_orientation_deg"):
        if key not in stats or not _close(stats[key], reference[key]):
            problems.append(f"stats.txt: {key}={stats.get(key)} differs from reference {reference[key]}")
    loss = _read_json(out / "loss.json", problems) or {}
    for key in ("mean_position_loss", "mean_orientation_loss"):
        if key not in loss or not _close(loss[key], reference[key]):
            problems.append(f"loss.json: {key}={loss.get(key)} differs from reference {reference[key]}")
    if loss.get("n") != reference["n"] or loss.get("surface_skipped") != reference["surface_skipped"]:
        problems.append("loss.json: sample or skip count differs from reference")
    if loss.get("gradient_check_passed") is not True:
        problems.append("loss.json: gradient_check_passed is not true")
    return problems, {
        "manifest_samples": samples,
        "median_position_m": stats.get("median_position_m", 0.0),
        "mean_position_loss": loss.get("mean_position_loss", 0.0),
    }
