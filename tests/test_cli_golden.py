"""Byte-identity contract for the files every CLI command writes.

Seeded inputs are built in ``tmp_path`` by this file's own code, never by
ptzscan's writers, so a writer change cannot alter what the commands are
fed. Each command runs in process through ``main(argv)``; the test checks
its exit code and the sha256 of every file it wrote against
``golden_cli.json``.

Float arithmetic and formatting can change in the last digits between
NumPy/SciPy releases, so the JSON records the versions it was made with
and a digest mismatch names both sets. Regenerate the JSON only at a
commit whose outputs are known good::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
import os
import stat
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from ptzscan.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")

R0 = 2.0
H0 = 2.0
SECTION = {
    "name": "fuselage",
    "kind": "fuselage",
    "box_min_m": [-1.9, 9.9, 0.0],
    "box_max_m": [0.1, 20.1, 4.5],
    "relevance": "back-half",
}
BOUNDARY = {
    "quadrant": 3,
    "x_range_m": [-10.5, -8.5],
    "y_range_m": [11.5, 14.5],
    "height_range_m": [6.25, 7.25],
    "yaw_window_deg": 10.0,
    "tilt_center_deg": -18.0,
    "tilt_tolerance_deg": 0.5,
}


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _quat(yaw_deg, pitch_deg):
    """Scalar-first quaternions: yaw about z, then pitch (> 0 looks down)."""
    hy, hp = np.radians(yaw_deg) / 2.0, np.radians(pitch_deg) / 2.0
    return np.column_stack(
        [np.cos(hy) * np.cos(hp), -np.sin(hy) * np.sin(hp),
         np.cos(hy) * np.sin(hp), np.sin(hy) * np.cos(hp)]
    )


def write_inputs(root: Path) -> None:
    """5 cm cylinder lattice (7,437 points), one fuselage section, true and
    estimated poses, a boundary config and a 200-line pose batch."""
    root.mkdir(parents=True, exist_ok=True)
    xs = np.arange(-1.8, 0.0 + 0.025, 0.05)
    ys = np.arange(10.0, 20.0 + 0.025, 0.05)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    zz = H0 + np.sqrt(np.maximum(R0 * R0 - xx * xx, 0.0))
    cloud = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    cloud = cloud[np.random.default_rng(3).permutation(len(cloud))]
    (root / "cloud.xyz").write_text(
        "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in cloud.tolist())
    )
    (root / "sections.json").write_text(json.dumps({"sections": [SECTION]}) + "\n")
    (root / "true_camera.json").write_text(
        json.dumps({"position_m": [-9.5, 13.0, 6.75], "yaw_deg": 20.0}) + "\n"
    )
    (root / "camera.json").write_text(
        json.dumps({"position_m": [-9.67, 13.12, 6.85], "yaw_deg": 18.0}) + "\n"
    )
    (root / "boundary.json").write_text(json.dumps(BOUNDARY) + "\n")

    rng = np.random.default_rng(4)
    n = 200
    pos = np.array([-7.0, 1.5, 6.0]) + rng.normal(0.0, 0.3, (n, 3))
    q = _quat(rng.normal(0.0, 4.0, n), 30.0 + rng.normal(0.0, 2.0, n))
    pred_pos = pos + rng.normal(0.0, 0.1, (n, 3))
    pred_q = q + rng.normal(0.0, 0.01, (n, 4))
    lines = [
        json.dumps(
            {
                "true": {"position_m": tp, "quaternion_wxyz": tq},
                "predicted": {"position_m": pp, "quaternion_wxyz": pq},
            }
        )
        for tp, tq, pp, pq in zip(pos.tolist(), q.tolist(), pred_pos.tolist(), pred_q.tolist())
    ]
    (root / "batch.jsonl").write_text("\n".join(lines) + "\n")


def commands(inp: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(run name, argv) in execution order; later runs read earlier outputs."""
    cloud = ["--cloud", str(inp / "cloud.xyz"), "--sections", str(inp / "sections.json")]
    cams = ["--true-camera", str(inp / "true_camera.json"),
            "--estimated-camera", str(inp / "camera.json"), "--quadrant", "3"]
    batch = ["--predictions", str(inp / "batch.jsonl")]
    return [
        ("interpolate", ["interpolate", *cloud, "--out", str(out / "grids")]),
        ("plan", ["plan", *cloud, "--camera", str(inp / "camera.json"), "--quadrant", "3",
                  "--out", str(out / "plan.json"), "--csv", str(out / "plan.csv"),
                  "--export-pantilt", str(out / "pantilt")]),
        ("simulate-plan", ["simulate", *cloud, *cams, "--plan", str(out / "plan.json"),
                           "--out", str(out / "report.json"), "--csv", str(out / "report.csv")]),
        ("simulate-draws", ["simulate", *cloud, *cams, "--draws", "4", "--seed", "5",
                            "--out", str(out / "study.json")]),
        ("pipeline", ["pipeline", *cloud, "--camera", str(inp / "camera.json"),
                      "--true-camera", str(inp / "true_camera.json"), "--quadrant", "3",
                      "--out", str(out / "pipeline")]),
        ("randomize", ["randomize", "--boundary", str(inp / "boundary.json"), "--seed", "9",
                       "--train", "30", "--val", "6", "--test", "4",
                       "--out", str(out / "manifest.json")]),
        ("evaluate", ["evaluate", *batch, "--out", str(out / "stats.txt"),
                      "--csv", str(out / "stats.csv")]),
        ("loss-check", ["loss-check", *batch, "--cylinder", f"{R0},{H0}",
                        "--out", str(out / "loss.json")]),
    ]


def run_all(root: Path) -> tuple[dict, dict]:
    """Run every command; return exit codes plus per-file sha256 digests,
    and each output file's permission bits."""
    inp, out = root / "inputs", root / "outputs"
    write_inputs(inp)
    out.mkdir(parents=True)
    codes = {name: main(argv) for name, argv in commands(inp, out)}
    files = {p.relative_to(out).as_posix(): p for p in sorted(out.rglob("*")) if p.is_file()}
    digests = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in files.items()}
    modes = {k: stat.S_IMODE(p.stat().st_mode) for k, p in files.items()}
    return {"exit_codes": codes, "sha256": digests}, modes


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None


@pytest.fixture(scope="module")
def actual(tmp_path_factory):
    if GOLDEN is None:
        pytest.fail(f"{GOLDEN_PATH.name} is missing")
    previous = os.umask(0o022)
    try:
        return run_all(tmp_path_factory.mktemp("golden"))
    finally:
        os.umask(previous)


def _version_note() -> str:
    if GOLDEN["versions"] == _versions():
        return ""
    return f" (golden made with {GOLDEN['versions']}, running {_versions()})"


def test_exit_codes(actual):
    assert actual[0]["exit_codes"] == GOLDEN["exit_codes"]


def test_same_files_written(actual):
    assert sorted(actual[0]["sha256"]) == sorted(GOLDEN["sha256"])


@pytest.mark.parametrize("name", sorted(GOLDEN["sha256"]) if GOLDEN else [])
def test_output_bytes_match_golden(actual, name):
    assert actual[0]["sha256"].get(name) == GOLDEN["sha256"][name], (
        f"{name} differs from the golden output{_version_note()}"
    )


def test_outputs_follow_umask(actual):
    # Written under umask 022, every output is 0644, as a plain open() gives.
    modes = actual[1]
    assert modes and all(m == 0o644 for m in modes.values()), {k: oct(m) for k, m in modes.items()}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {"versions": _versions(), **run_all(Path(tmp))[0]}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden['sha256'])} files)", file=sys.stderr)
