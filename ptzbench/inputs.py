"""Seeded input files for the benchmark workloads.

Everything here is written by the benchmark's own code, never by ptzscan's
writers, so a change to a ptzscan writer cannot change what the program is
fed. The same seed always produces byte-identical files.

The surface is an upper-fuselage surrogate: a cylinder of radius ``R0``
whose axis runs along y at height ``H0``, sampled for x in [-1.8, 0].
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

R0 = 2.0
H0 = 2.0
X_RANGE = (-1.8, 0.0)

# Same boxes as configs/a320_surrogate_sections.json, kept here so that an
# edit to the shipped config does not silently change the benchmark input.
REAR_SECTION = {
    "box_max_m": [0.1, 20.1, 4.5],
    "box_min_m": [-1.9, 9.9, 0.0],
    "kind": "fuselage",
    "name": "fuselage_rear_upper",
    "relevance": "back-half",
}
FRONT_SECTION = {
    "box_max_m": [0.1, 10.1, 4.5],
    "box_min_m": [-1.9, -0.1, 0.0],
    "kind": "fuselage",
    "name": "fuselage_front_upper",
    "relevance": "front-half",
}

# Same ranges as configs/quadrant3_boundary.json.
BOUNDARY = {
    "height_range_m": [6.25, 7.25],
    "quadrant": 3,
    "tilt_center_deg": -18.0,
    "tilt_tolerance_deg": 0.5,
    "x_range_m": [-10.5, -8.5],
    "y_range_m": [11.5, 14.5],
    "yaw_window_deg": 10.0,
}

# The scan operator's case: true pose and the worst estimate of demo 04.
TRUE_CAMERA = {"position_m": [-9.5, 13.0, 6.75], "yaw_deg": 20.0}
ESTIMATED_CAMERA = {"position_m": [-9.67, 13.12, 6.85], "yaw_deg": 18.0}

BATCH_SIZE = 20_000
CYLINDER_ARG = f"{R0},{H0}"


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _upper_z(x: np.ndarray) -> np.ndarray:
    return H0 + np.sqrt(np.maximum(R0 * R0 - x * x, 0.0))


def lattice_points(y_lo: float, y_hi: float, step: float) -> np.ndarray:
    """Cylinder vertices on a regular (x, y) lattice, bounds included."""
    xs = np.arange(X_RANGE[0], X_RANGE[1] + step / 2, step)
    ys = np.arange(y_lo, y_hi + step / 2, step)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel(), _upper_z(xx.ravel())])


def scattered_points(rng: np.random.Generator, n: int, y_lo: float, y_hi: float) -> np.ndarray:
    """``n`` cylinder points drawn uniformly over the (x, y) rectangle."""
    x = rng.uniform(X_RANGE[0], X_RANGE[1], n)
    y = rng.uniform(y_lo, y_hi, n)
    return np.column_stack([x, y, _upper_z(x)])


def xyz_text(points: np.ndarray) -> str:
    """xyz-ascii with every coordinate at full (round-trip) precision."""
    return "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in points.tolist())


def quat_from_yaw_pitch(yaw_deg: np.ndarray, pitch_deg: np.ndarray) -> np.ndarray:
    """Scalar-first quaternions of yaw about z then pitch about the new y
    (pitch > 0 looks down), one row per angle pair."""
    hy = np.radians(yaw_deg) / 2.0
    hp = np.radians(pitch_deg) / 2.0
    cz, sz, cp, sp = np.cos(hy), np.sin(hy), np.cos(hp), np.sin(hp)
    return np.column_stack([cz * cp, -sz * sp, cz * sp, sz * cp])


def view_directions(q: np.ndarray) -> np.ndarray:
    """Optical axes (+x rotated by each unit quaternion)."""
    w, x, y, z = q.T
    return np.column_stack(
        [1 - 2 * (y * y + z * z), 2 * (x * y + w * z), 2 * (x * z - w * y)]
    )


def axis_distance(origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Closest approach of each forward ray to the cylinder axis, metres
    (infinite for a ray that points away from the axis)."""
    ox, oz = origins[:, 0], origins[:, 2] - H0
    vx, vz = dirs[:, 0], dirs[:, 2]
    towards = ox * vx + oz * vz < 0.0
    dist = np.abs(ox * vz - oz * vx) / np.hypot(vx, vz)
    return np.where(towards, dist, np.inf)


def pose_batch(seed: int, n: int = BATCH_SIZE) -> dict[str, np.ndarray]:
    """Pose pairs pitched about 30 degrees down at the cylinder.

    True view rays that pass within 0.2 m of the rim, or miss, are redrawn, so no
    sample is outside the deployment geometry and ``loss-check`` never has
    to refuse one. Predicted rays may miss; those are the ICSC skips.
    """
    rng = np.random.default_rng([seed, 2])
    keep = {"true_pos": [], "true_q": [], "pred_pos": [], "pred_q": []}
    have = 0
    while have < n:
        m = n - have + 64
        pos = np.array([-7.0, 1.5, 6.0]) + rng.normal(0.0, 0.3, (m, 3))
        q = quat_from_yaw_pitch(rng.normal(0.0, 4.0, m), 30.0 + rng.normal(0.0, 2.0, m))
        pred_pos = pos + rng.normal(0.0, 0.1, (m, 3))
        pred_q = q + rng.normal(0.0, 0.01, (m, 4))
        ok = axis_distance(pos, view_directions(q)) < R0 - 0.2
        for key, arr in zip(keep, (pos, q, pred_pos, pred_q)):
            keep[key].append(arr[ok])
        have += int(ok.sum())
    return {k: np.concatenate(v)[:n] for k, v in keep.items()}


def batch_text(batch: dict[str, np.ndarray]) -> str:
    lines = []
    for tp, tq, pp, pq in zip(
        batch["true_pos"].tolist(),
        batch["true_q"].tolist(),
        batch["pred_pos"].tolist(),
        batch["pred_q"].tolist(),
    ):
        record = {
            "predicted": {"position_m": pp, "quaternion_wxyz": pq},
            "true": {"position_m": tp, "quaternion_wxyz": tq},
        }
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def scan_pipeline_files(seed: int) -> dict[str, str]:
    """Rear half on the 1 cm lattice, front half scattered with the same
    point count, rows shuffled by the seed."""
    rng = np.random.default_rng([seed, 0])
    rear = lattice_points(10.0, 20.0, 0.01)
    front = scattered_points(rng, len(rear), 0.0, 10.0)
    cloud = np.concatenate([rear, front])[rng.permutation(2 * len(rear))]
    return {
        "cloud.xyz": xyz_text(cloud),
        "sections.json": _dump({"sections": [REAR_SECTION, FRONT_SECTION]}),
        "true_camera.json": _dump(TRUE_CAMERA),
        "camera.json": _dump(ESTIMATED_CAMERA),
    }


def pose_study_files(seed: int) -> dict[str, str]:
    """The rear section alone on the 5 cm lattice (7,437 points)."""
    rng = np.random.default_rng([seed, 1])
    cloud = lattice_points(10.0, 20.0, 0.05)
    return {
        "cloud.xyz": xyz_text(cloud[rng.permutation(len(cloud))]),
        "sections.json": _dump({"sections": [REAR_SECTION]}),
        "true_camera.json": _dump(TRUE_CAMERA),
        "camera.json": _dump(ESTIMATED_CAMERA),
    }


def dataset_audit_files(seed: int) -> dict[str, str]:
    return {
        "boundary.json": _dump(BOUNDARY),
        "batch.jsonl": batch_text(pose_batch(seed)),
    }


GENERATORS = {
    "scan_pipeline": scan_pipeline_files,
    "pose_study": pose_study_files,
    "dataset_audit": dataset_audit_files,
}


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, dict]:
    """Write a workload's inputs; return each file's size, line count and sha256."""
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name, text in GENERATORS[workload](seed).items():
        data = text.encode()
        (directory / name).write_bytes(data)
        manifest[name] = {
            "bytes": len(data),
            "lines": data.count(b"\n"),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    return manifest


def radial_offset(points: np.ndarray) -> np.ndarray:
    """Distance of each point from the analytic cylinder surface, metres."""
    return np.abs(np.hypot(points[:, 0], points[:, 2] - H0) - R0)

