"""Tests of the benchmark itself (not of ptzscan).

Run with ``python3 -m pytest ptzbench`` from the root of a checkout.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import run
import tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", list(inputs.GENERATORS))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a = inputs.write_inputs(workload, 7, tmp_path / "a")
    b = inputs.write_inputs(workload, 7, tmp_path / "b")
    c = inputs.write_inputs(workload, 8, tmp_path / "c")
    assert a == b
    for name in a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    seeded = {"scan_pipeline": "cloud.xyz", "pose_study": "cloud.xyz", "dataset_audit": "batch.jsonl"}
    assert a[seeded[workload]]["sha256"] != c[seeded[workload]]["sha256"]


def test_inputs_have_the_documented_sizes():
    files = inputs.scan_pipeline_files(3)
    assert files["cloud.xyz"].count("\n") == 2 * 181 * 1001
    assert inputs.pose_study_files(3)["cloud.xyz"].count("\n") == 7437
    batch = inputs.pose_batch(3)
    assert len(batch["true_pos"]) == inputs.BATCH_SIZE
    # Every true view ray reaches the cylinder, so loss-check never refuses a sample.
    dist = inputs.axis_distance(batch["true_pos"], inputs.view_directions(batch["true_q"]))
    assert np.all(dist < inputs.R0)


def test_every_metric_name_is_well_formed_and_reported():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layers = {m["name"] for m in SPEC["per_layer"]}
    for name in e2e | layers | {w["name"] for w in SPEC["workloads"]}:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    reported = set(tracer.layer_metrics([], {}, "x")) | {
        "trace.command_s",
        "trace.overhead_s",
        "trace.profile_max_share_diff",
    }
    assert reported == layers
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == 3.0
    samples = [float(k) for k in range(20)]
    assert run.tail(samples) == 9.0
    assert sum(s > run.tail(samples) for s in samples) == 10


def test_self_time_subtracts_children():
    spans = [
        ["command", "x", 0, 10_000_000_000, -1],
        ["a", None, 1_000_000_000, 4_000_000_000, 0],
        ["b", None, 2_000_000_000, 3_000_000_000, 1],
    ]
    assert tracer.self_times(spans) == [7.0, 2.0, 1.0]


def _write_grid(path: Path, cells: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "x_m", "y_m", "z_m", "valid"])
        for k, (x, y, z) in enumerate(cells.tolist()):
            w.writerow([k, 0, repr(x), repr(y), repr(z), 1])


def _fake_pipeline_output(out: Path) -> list[run.Command]:
    """A small, correct pipeline output written without ptzscan."""
    run_dir = out / "run"
    run_dir.mkdir(parents=True)
    cells = inputs.lattice_points(10.0, 10.5, 0.05)
    for section in (inputs.REAR_SECTION, inputs.FRONT_SECTION):
        _write_grid(run_dir / f"{section['name']}_grid.csv", cells)
    hits = cells[:5]
    labels = hits + 0.01
    images = [
        {"hit_m": list(h), "label_m": list(lab), "error_m": float(np.linalg.norm(h - lab)), "missed": False}
        for h, lab in zip(hits, labels)
    ]
    report = {
        "images": images,
        "image_count": 5,
        "missed_count": 0,
        "label_error_median_m": float(np.median([im["error_m"] for im in images])),
        "sections": [{"coverage": 0.99}, {"coverage": 0.95}],
    }
    (run_dir / "report.json").write_text(json.dumps(report))
    return run._scan_pipeline(Path("in"), out, 0)


def test_corrupted_output_is_counted_as_failed(tmp_path):
    commands = _fake_pipeline_output(tmp_path)
    problems, outcome = checks.check_scan_pipeline(tmp_path, 0)
    assert problems == []
    assert outcome["grid_error_max_mm"] < 1e-6
    assert set(outcome) <= set(run.OUTCOME_UNITS)
    tally = run.Tally()
    tally.record(commands, [0], problems)
    assert (tally.attempted, tally.failed) == (1, 0)

    grid = tmp_path / "run" / f"{inputs.FRONT_SECTION['name']}_grid.csv"
    rows = grid.read_text().splitlines()
    i, j, x, y, z, v = rows[3].split(",")
    rows[3] = ",".join([i, j, x, y, repr(float(z) + 0.005), v])
    grid.write_text("\n".join(rows) + "\n")
    problems, _ = checks.check_scan_pipeline(tmp_path, 0)
    assert any("off the cylinder" in p for p in problems)
    tally.record(commands, [0], problems)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_changed_bytes_between_runs_are_counted_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    bench = run.Run(run.WORKLOADS["pose_study"], 0, trace=False)
    commands = bench._fresh_out()
    study = {"seed": 0, "n_draws": checks.DRAWS, "error_median_m": 0.25, "draws": [
        {"draw": k, "image_count": 40, "missed_count": 5, "coverage_min": 0.9, "position_error_m": 0.2}
        for k in range(checks.DRAWS)
    ]}
    (bench.out / "study.json").write_text(json.dumps(study))
    bench._finish(commands, [0])
    (bench.out / "study.json").write_text(json.dumps(study, indent=1))
    bench._finish(commands, [0])
    assert (bench.tally.attempted, bench.tally.failed) == (2, 1)
    assert any("bytes differ" in p for p in bench.tally.problems)


def test_malformed_output_is_counted_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    bench = run.Run(run.WORKLOADS["pose_study"], 0, trace=False)
    commands = bench._fresh_out()
    (bench.out / "study.json").write_text(json.dumps({"seed": 0, "n_draws": 30, "draws": [{}] * 30}))
    bench._finish(commands, [0])
    assert (bench.tally.attempted, bench.tally.failed) == (1, 1)


def test_nonzero_exit_is_counted_as_failed():
    tally = run.Tally()
    tally.record(run._dataset_audit(Path("in"), Path("out"), 0), [0, 3, 0], [])
    assert (tally.attempted, tally.failed) == (3, 1)


def test_child_peak_rss_is_its_own(tmp_path):
    ballast = np.ones(300 * 2**20 // 8)  # make this process's own peak large
    code, wall, rss = run.run_child([run.sys.executable, "-c", "pass"], tmp_path, tmp_path / "log")
    del ballast
    assert code == 0 and wall > 0.0
    assert rss < 100.0


def test_child_over_time_limit_is_killed_and_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.5)
    argv = [run.sys.executable, "-c", "import time; time.sleep(30)"]
    code, wall, _ = run.run_child(argv, tmp_path, tmp_path / "log")
    assert code != 0 and wall < 10.0


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "pose_study", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
