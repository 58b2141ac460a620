"""End-to-end tests for the command-line interface.

Each test drives ``ptzscan.cli.main`` in process with an argv list and
checks the exit code, the files written, and the ``error: category=...``
line on stderr for failure paths. A small cylinder-section world is
built once per module and shared.
"""

import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from csv import DictReader
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptzscan import (
    GimbalLockWarning,
    SectionMismatchWarning,
    YawToleranceWarning,
    cli,
)
from ptzscan.cli import build_parser, main
from ptzscan.formats import read_plan_json
from ptzscan.geometry import quat_from_yaw_pitch
from ptzscan.planner import ScanConfig
from ptzscan.randomizer import DatasetManifest, SplitSizes, generate_manifest

RADIUS = 2.0
AXIS_HEIGHT = 2.0


def _write_cloud(path, step=0.02):
    """Upper cylinder surface x in [-1.8, 0], y in [0, 2] as xyz-ascii."""
    xs = np.arange(-1.8, 0.0 + step / 2, step)
    ys = np.arange(0.0, 2.0 + step / 2, step)
    lines = ["# cylinder section, camera side"]
    for x in xs:
        z = AXIS_HEIGHT + math.sqrt(RADIUS * RADIUS - x * x)
        for y in ys:
            lines.append(f"{x:.6f} {y:.6f} {z:.6f}")
    path.write_text("\n".join(lines) + "\n")


def _xyz_lines(points) -> str:
    return "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in points.tolist())


def _write_batch(path, n, seed, pitch_deg):
    """JSON-lines pose pairs near the camera region; pitch > 0 aims down at
    the surface."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        pos = np.array([-7.0, 1.0, 6.0]) + rng.normal(0.0, 0.3, 3)
        quat = quat_from_yaw_pitch(rng.normal(0.0, 3.0), pitch_deg + rng.normal(0.0, 2.0))
        true = {"position_m": pos.tolist(), "quaternion_wxyz": quat.tolist()}
        predicted = {
            "position_m": (pos + rng.normal(0.0, 0.1, 3)).tolist(),
            "quaternion_wxyz": (quat + rng.normal(0.0, 0.01, 4)).tolist(),
        }
        lines.append(json.dumps({"true": true, "predicted": predicted}) + "\n")
    path.write_text("".join(lines))


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_world")
    _write_cloud(root / "cloud.xyz")
    sections = {
        "sections": [
            {
                "name": "fuselage",
                "kind": "fuselage",
                "box_min_m": [-1.9, -0.1, 0.0],
                "box_max_m": [0.1, 2.1, 5.0],
                "relevance": "back-half",
            }
        ]
    }
    (root / "sections.json").write_text(json.dumps(sections, indent=2) + "\n")
    (root / "camera.json").write_text(
        json.dumps({"position_m": [-7.0, 1.0, 6.75], "yaw_deg": 20.0}) + "\n"
    )
    (root / "true_camera.json").write_text(
        json.dumps({"position_m": [-7.05, 1.06, 6.72], "yaw_deg": 20.4}) + "\n"
    )
    # The yaw window and tilt fields are left to their defaults.
    boundary = {
        "quadrant": 3,
        "x_range_m": [-10.5, -8.5],
        "y_range_m": [11.5, 14.5],
        "height_range_m": [6.25, 7.25],
    }
    (root / "boundary.json").write_text(json.dumps(boundary) + "\n")
    _write_batch(root / "batch.jsonl", 20, seed=0, pitch_deg=24.0)
    _write_batch(root / "level_batch.jsonl", 5, seed=1, pitch_deg=0.0)
    return root


def _base(world):
    return [
        "--cloud", str(world / "cloud.xyz"),
        "--sections", str(world / "sections.json"),
    ]


@pytest.fixture(scope="module")
def plan_path(world, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_plan") / "plan.json"
    code = main(
        ["plan", *_base(world), "--camera", str(world / "camera.json"),
         "--quadrant", "3", "--out", str(out)]
    )
    assert code == 0
    return out


class TestInterpolate:
    def test_writes_one_grid_csv_per_section(self, world, tmp_path, capsys):
        out = tmp_path / "grids"
        code = main(["interpolate", *_base(world), "--out", str(out)])
        assert code == 0
        target = out / "fuselage_grid.csv"
        assert target.exists()
        with open(target, newline="") as fh:
            rows = list(DictReader(fh))
        assert sum(int(r["valid"]) for r in rows) > 100
        assert "fuselage" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, world, tmp_path):
        out = tmp_path / "grids"
        main(["interpolate", *_base(world), "--out", str(out)])
        first = (out / "fuselage_grid.csv").read_bytes()
        main(["interpolate", *_base(world), "--out", str(out)])
        assert (out / "fuselage_grid.csv").read_bytes() == first

    def test_ply_cloud_writes_the_grid_bytes_of_its_xyz_points(self, world, tmp_path):
        """The format is read from the file: a PLY cloud needs no flag, and
        values past x y z and blank body lines are skipped."""
        rows = [r for r in (world / "cloud.xyz").read_text().splitlines() if not r.startswith("#")]
        header = [
            "ply", "format ascii 1.0", f"element vertex {len(rows)}", "property double x",
            "property double y", "property double z", "property float intensity", "end_header",
        ]
        body = [f"{row} 0.5" for row in rows]
        body.insert(len(body) // 2, "")
        ply = tmp_path / "cloud.ply"
        ply.write_text("\n".join(header + body) + "\n")
        sections, grids = str(world / "sections.json"), []
        for cloud in (ply, world / "cloud.xyz"):
            out = tmp_path / cloud.suffix.lstrip(".")
            argv = ["interpolate", "--cloud", str(cloud), "--sections", sections, "--out", str(out)]
            assert main(argv) == 0
            grids.append((out / "fuselage_grid.csv").read_bytes())
        assert grids[0] == grids[1]

    def test_missing_cloud_exits_io_error(self, world, tmp_path, capsys):
        code = main(
            ["interpolate", "--cloud", str(tmp_path / "nope.xyz"),
             "--sections", str(world / "sections.json"), "--out", str(tmp_path / "g")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "category=io-error" in err
        assert "nope.xyz" in err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda sections: sections.append({**sections[0], "kind": "wing"}),
             "sections[1]: section name 'fuselage' is used twice"),
            (lambda sections: sections[0].update(name="grids/fuselage"),
             "sections[0]: section name must be a file name without '/', got 'grids/fuselage'"),
        ],
        ids=["duplicate-name", "slash-name"],
    )
    def test_name_that_cannot_name_one_grid_file_exits_parse_error(
        self, world, tmp_path, capsys, edit, where
    ):
        config = json.loads((world / "sections.json").read_text())
        edit(config["sections"])
        bad = tmp_path / "sections.json"
        bad.write_text(json.dumps(config))
        out = tmp_path / "grids"
        code = main(["interpolate", "--cloud", str(world / "cloud.xyz"), "--sections", str(bad),
                     "--out", str(out)])
        assert code == 3
        [err] = capsys.readouterr().err.splitlines()
        assert err == f"error: category=parse-error: {bad}: {where}"
        assert not out.exists()


    def test_near_collinear_section_exits_compute_error(self, tmp_path):
        """11 points along x spanning +-100 m, about 5e-13 m off the axis: Qhull
        puts its point at infinity in a triangle, which is refused as collinear."""
        rng = np.random.default_rng(0)
        t, off = rng.uniform(-1, 1, 11), rng.uniform(-1, 1, 11) * 10**-14.25
        (tmp_path / "line.xyz").write_text(_xyz_lines(np.column_stack([100 * t, 100 * off, np.ones(11)])))
        section = {"name": "line", "kind": "fuselage", "box_min_m": [-200, -1, 0], "box_max_m": [200, 1, 2]}
        (tmp_path / "sections.json").write_text(json.dumps({"sections": [section]}))
        out = tmp_path / "grids"
        code, stdout, stderr, _ = _run(["interpolate", "--cloud", str(tmp_path / "line.xyz"),
                                        "--sections", str(tmp_path / "sections.json"), "--out", str(out)])
        assert (code, stdout) == (5, "")
        assert stderr == ("error: category=compute-error: section 'line': "
                          "need >= 3 non-collinear projected points\n")


class TestPlan:
    def test_plan_has_contiguous_sequences(self, plan_path):
        assert len(read_plan_json(plan_path)) > 10
        raw = json.loads(plan_path.read_text())
        points = raw["sections"][0]["points"]
        assert [p["sequence"] for p in points] == list(range(len(points)))

    def test_csv_and_pantilt_exports(self, world, tmp_path):
        out = tmp_path / "plan.json"
        csv = tmp_path / "plan.csv"
        pt_dir = tmp_path / "pt"
        code = main(
            ["plan", *_base(world), "--camera", str(world / "camera.json"),
             "--quadrant", "3", "--out", str(out), "--csv", str(csv),
             "--export-pantilt", str(pt_dir)]
        )
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "section,sequence,pan_deg,tilt_deg,label_x_m,label_y_m,label_z_m"
        assert len(lines) == len(read_plan_json(out)) + 1
        pt = (pt_dir / "fuselage_pantilt.csv").read_text().splitlines()
        assert pt[0] == "i,j,pan_deg,tilt_deg,valid"

    def test_rerun_is_byte_identical(self, world, plan_path, tmp_path):
        out = tmp_path / "plan.json"
        main(["plan", *_base(world), "--camera", str(world / "camera.json"),
              "--quadrant", "3", "--out", str(out)])
        assert out.read_bytes() == plan_path.read_bytes()

    def test_invalid_overlap_exits_config_error(self, world, tmp_path, capsys):
        code = main(
            ["plan", *_base(world), "--camera", str(world / "camera.json"),
             "--quadrant", "3", "--mu", "1.5", "--out", str(tmp_path / "p.json")]
        )
        assert code == 4
        assert "category=config-error" in capsys.readouterr().err

    def test_empty_section_prints_one_error_line(self, world, tmp_path):
        # section_points returns the empty selection; interpolate_section refuses it.
        sections = json.loads((world / "sections.json").read_text())
        sections["sections"][0]["box_min_m"][0], sections["sections"][0]["box_max_m"][0] = 1e300, 1.5e300
        path = tmp_path / "sections.json"
        path.write_text(json.dumps(sections) + "\n")
        code, _, stderr, caught = _run(
            ["plan", "--cloud", str(world / "cloud.xyz"), "--sections", str(path), "--camera",
             str(world / "camera.json"), "--quadrant", "3", "--out", str(tmp_path / "plan.json")]
        )
        assert code == 5 and not caught
        assert stderr == "error: category=compute-error: section 'fuselage' has no points\n"


class TestSimulate:
    def test_true_equals_estimate_gives_tiny_errors(self, world, plan_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["simulate", *_base(world), "--plan", str(plan_path),
             "--true-camera", str(world / "camera.json"),
             "--estimated-camera", str(world / "camera.json"),
             "--quadrant", "3", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["missed_count"] == 0
        assert report["label_error_median_m"] < 1e-6

    def test_pose_offset_report_and_csv(self, world, plan_path, tmp_path):
        out = tmp_path / "report.json"
        csv = tmp_path / "report.csv"
        code = main(
            ["simulate", *_base(world), "--plan", str(plan_path),
             "--true-camera", str(world / "true_camera.json"),
             "--estimated-camera", str(world / "camera.json"),
             "--quadrant", "3", "--out", str(out), "--csv", str(csv)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert 1e-4 < report["label_error_median_m"] < 1.0
        lines = csv.read_text().splitlines()
        assert len(lines) == report["image_count"] + 1

    @pytest.mark.parametrize(
        "sections",
        [[], [{"name": "fuselage", "kind": "fuselage", "points": []}]],
        ids=["no-sections", "no-points"],
    )
    def test_plan_without_shots_writes_empty_report(self, world, tmp_path, sections):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"sections": sections}))
        out = tmp_path / "report.json"
        csv = tmp_path / "report.csv"
        code = main(
            ["simulate", *_base(world), "--plan", str(plan),
             "--true-camera", str(world / "camera.json"),
             "--estimated-camera", str(world / "camera.json"),
             "--quadrant", "3", "--out", str(out), "--csv", str(csv)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["image_count"] == 0 and report["missed_count"] == 0
        assert report["images"] == []
        assert report["label_error_median_m"] is None and report["label_error_rmse_m"] is None
        assert len(report["sections"]) == len(sections)
        assert csv.read_text().splitlines()[1:] == []

    def test_draws_mode_writes_study(self, world, tmp_path):
        out = tmp_path / "study.json"
        code = main(
            ["simulate", *_base(world),
             "--true-camera", str(world / "camera.json"),
             "--estimated-camera", str(world / "camera.json"),
             "--quadrant", "3", "--draws", "3", "--seed", "11",
             "--sigma-pos", "0.1", "--sigma-yaw", "1.0", "--out", str(out)]
        )
        assert code == 0
        study = json.loads(out.read_text())
        assert study["n_draws"] == 3
        assert len(study["draws"]) == 3
        assert study["error_median_m"] > 0.0

    @pytest.mark.parametrize("option, value, name", [("--sigma-yaw", "inf", "sigma_yaw_deg"),
                                                     ("--sigma-pos", "nan", "sigma_pos")])
    def test_non_finite_sigma_exits_config_error_naming_it(
        self, world, tmp_path, capsys, option, value, name
    ):
        out = tmp_path / "study.json"
        code = main(
            ["simulate", *_base(world), "--true-camera", str(world / "camera.json"),
             "--quadrant", "3", "--draws", "2", option, value, "--out", str(out)]
        )
        assert code == 4
        [err] = capsys.readouterr().err.splitlines()
        assert err == (f"error: category=config-error: {name} must be finite and non-negative,"
                       f" got {float(value)}")
        assert not out.exists()

    @pytest.mark.parametrize("estimated", [None, "{}"], ids=["absent", "not-a-pose"])
    def test_draws_mode_reads_no_estimated_camera(self, world, tmp_path, estimated):
        argv = ["simulate", *_base(world), "--true-camera", str(world / "camera.json"),
                "--quadrant", "3", "--draws", "2", "--seed", "11"]
        assert main([*argv, "--estimated-camera", str(world / "camera.json"),
                     "--out", str(tmp_path / "with.json")]) == 0
        if estimated is not None:
            (tmp_path / "estimate.json").write_text(estimated)
            argv += ["--estimated-camera", str(tmp_path / "estimate.json")]
        assert main([*argv, "--out", str(tmp_path / "without.json")]) == 0
        assert (tmp_path / "without.json").read_bytes() == (tmp_path / "with.json").read_bytes()

    def test_missing_estimated_camera_without_draws_exits_config_error(
        self, world, plan_path, tmp_path, capsys
    ):
        code = main(
            ["simulate", *_base(world), "--plan", str(plan_path),
             "--true-camera", str(world / "camera.json"),
             "--quadrant", "3", "--out", str(tmp_path / "r.json")]
        )
        assert code == 4
        assert "--estimated-camera is required unless --draws" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_missing_plan_without_draws_exits_config_error(self, world, tmp_path, capsys):
        code = main(
            ["simulate", *_base(world),
             "--true-camera", str(world / "camera.json"),
             "--estimated-camera", str(world / "camera.json"),
             "--quadrant", "3", "--out", str(tmp_path / "r.json")]
        )
        assert code == 4
        assert "--plan is required" in capsys.readouterr().err


class TestRandomize:
    def test_manifest_sizes_and_determinism(self, world, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["randomize", "--boundary", str(world / "boundary.json"),
                "--seed", "5", "--train", "8", "--val", "3", "--test", "2"]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        manifest = json.loads(a.read_text())
        assert len(manifest["samples"]) == 13
        assert manifest["header"]["sizes"]["train"] == 8
        # Without --hfov-deg the library's default render FOV is recorded.
        render_hfov = inspect.signature(generate_manifest).parameters["hfov_deg"].default
        assert manifest["header"]["hfov_deg"] == render_hfov

    @pytest.mark.parametrize(
        "field, value",
        [("x_range_m", [-1e308, 1e308]), ("yaw_window_deg", 1e308)],
        ids=["x-range", "yaw-window"],
    )
    def test_range_width_overflow_exits_parse_error(self, world, tmp_path, capsys, field, value):
        boundary = tmp_path / "wide.json"
        record = json.loads((world / "boundary.json").read_text())
        boundary.write_text(json.dumps({**record, field: value}))
        out = tmp_path / "m.json"
        assert main(["randomize", "--boundary", str(boundary), "--out", str(out)]) == 3
        [err] = capsys.readouterr().err.splitlines()
        assert "category=parse-error" in err
        assert str(boundary) in err
        assert not out.exists()

    @pytest.mark.parametrize("hfov", ["nan", "-5", "0", "180", "inf"])
    def test_render_fov_outside_0_180_exits_config_error(self, world, tmp_path, capsys, hfov):
        # Before the manifest checked it, nan exited 4 with json's bare "Out of
        # range float values" and -5 exited 0, writing a -5 degree render FOV.
        out = tmp_path / "m.json"
        argv = ["randomize", "--boundary", str(world / "boundary.json"), "--hfov-deg", hfov]
        assert main([*argv, "--out", str(out)]) == 4
        [err] = capsys.readouterr().err.splitlines()
        assert err == (f"error: category=config-error: hfov_deg must be finite and in (0, 180),"
                       f" got {float(hfov)}")
        assert not out.exists()

    def test_unparsable_boundary_exits_parse_error(self, world, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        code = main(["randomize", "--boundary", str(bad), "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert "category=parse-error" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


class TestEvaluate:
    def test_stats_on_stdout_and_files(self, world, tmp_path, capsys):
        out = tmp_path / "stats.txt"
        csv = tmp_path / "stats.csv"
        code = main(
            ["evaluate", "--predictions", str(world / "batch.jsonl"),
             "--out", str(out), "--csv", str(csv)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "n=20" in text
        assert "median_position_m=" in text
        assert out.read_text() == text
        assert len(csv.read_text().splitlines()) == 2

    def test_empty_batch_exits_config_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["evaluate", "--predictions", str(empty)])
        assert code == 4
        assert "no samples" in capsys.readouterr().err


class TestLossCheck:
    def test_gradient_check_passes_without_surface_term(self, world, capsys):
        code = main(["loss-check", "--predictions", str(world / "batch.jsonl")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gradient_check_passed"] is True
        assert abs(report["gradient_at_optimum"]["s_x"]) < 1e-5
        assert "s_c" not in report["optimal_log_variance"]

    def test_surface_term_with_cylinder(self, world, tmp_path, capsys):
        out = tmp_path / "loss.json"
        code = main(
            ["loss-check", "--predictions", str(world / "batch.jsonl"),
             "--cylinder", "2.0,2.0", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["surface_skipped"] == 0
        assert report["mean_surface_loss"] > 0.0
        assert abs(report["gradient_at_optimum"]["s_c"]) < 1e-5

    @pytest.mark.parametrize(
        "exact, cylinder",
        [(("position_m",), True), (("quaternion_wxyz",), False),
         (("position_m", "quaternion_wxyz"), False)],
        ids=["position", "orientation", "both"],
    )
    def test_perfect_channel_reports_null_optimum(self, world, tmp_path, capsys, exact, cylinder):
        path = tmp_path / "perfect.jsonl"
        lines = []
        for line in (world / "batch.jsonl").read_text().splitlines():
            record = json.loads(line)
            if "quaternion_wxyz" in exact:  # exactly unit, so normalising keeps it
                record["true"]["quaternion_wxyz"] = [1.0, 0.0, 0.0, 0.0]
            record["predicted"].update({key: record["true"][key] for key in exact})
            lines.append(json.dumps(record) + "\n")
        path.write_text("".join(lines))
        out = tmp_path / "loss.json"
        argv = ["loss-check", "--predictions", str(path), "--out", str(out)]
        assert main(argv + (["--cylinder", "2.0,2.0"] if cylinder else [])) == 0
        text = capsys.readouterr().out
        assert out.read_text() == text

        def reject(constant):
            raise AssertionError(f"non-finite {constant} in the report")

        report = json.loads(text, parse_constant=reject)
        assert report["gradient_check_passed"] is True
        channels = {"s_x": ("mean_position_loss", "position_m" in exact),
                    "s_q": ("mean_orientation_loss", "quaternion_wxyz" in exact)}
        if cylinder:
            channels["s_c"] = ("mean_surface_loss", False)
        for weight, (mean, perfect) in channels.items():
            optimum = report["optimal_log_variance"][weight]
            gradient = report["gradient_at_optimum"][weight]
            if perfect:
                assert report[mean] == 0.0
                assert optimum is None and gradient is None
            else:
                assert report[mean] > 0.0
                assert math.isfinite(optimum) and abs(gradient) < 1e-5

    def test_predicted_misses_are_counted_as_skipped(self, world, tmp_path, capsys):
        # A level predicted view ray from 6 m up passes over the radius-2
        # surface, so those samples drop the surface term.
        path = tmp_path / "misses.jsonl"
        lines = (world / "batch.jsonl").read_text().splitlines()
        for k in (0, 5, 7):
            record = json.loads(lines[k])
            record["predicted"]["quaternion_wxyz"] = [1.0, 0.0, 0.0, 0.0]
            lines[k] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        code = main(["loss-check", "--predictions", str(path), "--cylinder", "2.0,2.0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 20
        assert report["surface_skipped"] == 3

    def test_level_view_rays_exit_compute_error(self, world, capsys):
        # Horizontal view rays from 6 m up never reach a radius-2 surface,
        # so the surface term cannot be evaluated for the true pose.
        code = main(
            ["loss-check", "--predictions", str(world / "level_batch.jsonl"),
             "--cylinder", "2.0,2.0"]
        )
        assert code == 5
        assert "category=compute-error" in capsys.readouterr().err

    def test_bad_cylinder_spec_exits_config_error(self, world, capsys):
        code = main(
            ["loss-check", "--predictions", str(world / "batch.jsonl"),
             "--cylinder", "two,2"]
        )
        assert code == 4
        assert "category=config-error" in capsys.readouterr().err

    def test_cylinder_whose_square_overflows_exits_config_error(self, world, capsys):
        code = main(
            ["loss-check", "--predictions", str(world / "batch.jsonl"), "--cylinder", "1e200,2"]
        )
        assert code == 4
        [err] = capsys.readouterr().err.splitlines()
        assert "category=config-error" in err and "finite square" in err

    def test_weight_whose_exponential_overflows_exits_cleanly(self, world, tmp_path, capsys):
        # A log-variance s weights its loss by exp(-s), which overflows below about -709.78.
        code = main(["loss-check", "--predictions", str(world / "batch.jsonl"), "--s-x", "-800"])
        [err] = capsys.readouterr().err.splitlines()
        assert code == 4
        assert "category=config-error: s_x must be finite and at least -709.78" in err
        record = json.loads((world / "batch.jsonl").read_text().splitlines()[0])
        batch = tmp_path / "batch.jsonl"
        batch.write_text(json.dumps({**record, "weights": {"s_q": -800.0}}) + "\n")
        assert main(["loss-check", "--predictions", str(batch)]) == 3
        [err] = capsys.readouterr().err.splitlines()
        assert f"category=parse-error: {batch}:1: weights: s_q must be finite and at least" in err

    def test_weighted_term_that_overflows_names_file_sample_and_channel(self, world, tmp_path, capsys):
        # exp(709.7) is finite, but 100 m times it is not.
        lines = (world / "batch.jsonl").read_text().splitlines()[:2]
        record = json.loads(lines[1])
        record["predicted"]["position_m"][0] += 100.0
        batch = tmp_path / "batch.jsonl"
        batch.write_text(lines[0] + "\n" + json.dumps({**record, "weights": {"s_x": -709.7}}) + "\n")
        assert main(["loss-check", "--predictions", str(batch), "--out", str(tmp_path / "loss.json")]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "loss.json").exists()
        [err] = captured.err.splitlines()
        assert err == f"error: category=config-error: {batch}: sample 2: weighted s_x term overflows"

    def test_mean_total_that_overflows_exits_config_error(self, world, tmp_path, capsys):
        # Each total is about 1.6e308 * 0.6, finite; their sum is not.
        record = json.loads((world / "batch.jsonl").read_text().splitlines()[0])
        record["predicted"]["position_m"] = record["true"]["position_m"][:2] + [
            record["true"]["position_m"][2] + 0.6]
        line = json.dumps({**record, "weights": {"s_x": -709.7}}) + "\n"
        batch = tmp_path / "batch.jsonl"
        batch.write_text(line * 2)
        assert main(["loss-check", "--predictions", str(batch)]) == 4
        captured = capsys.readouterr()
        [err] = captured.err.splitlines()
        assert captured.out == ""
        assert err == f"error: category=config-error: {batch}: mean_total of the weighted losses overflows"

    # A level ray from x = 1.3e154 toward the axis: b * b overflows in the quadratic.
    FAR = {"position_m": [1.3e154, 1.0, 2.0], "yaw_deg": 180.0}

    def test_overflowing_true_ray_exits_compute_error(self, tmp_path, capsys):
        path = tmp_path / "far.jsonl"
        path.write_text(json.dumps({"true": self.FAR, "predicted": self.FAR}) + "\n")
        assert main(["loss-check", "--predictions", str(path), "--cylinder", "2.0,2.0"]) == 5
        captured = capsys.readouterr()
        [err] = captured.err.splitlines()
        assert "category=compute-error" in err and "overflows" in err
        assert captured.out == ""

    def test_overflowing_predicted_ray_is_counted_as_skipped(self, world, tmp_path, capsys):
        path = tmp_path / "far.jsonl"
        lines = (world / "batch.jsonl").read_text().splitlines()
        record = json.loads(lines[3])
        record["predicted"] = self.FAR
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        assert main(["loss-check", "--predictions", str(path), "--cylinder", "2.0,2.0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["surface_skipped"] == 1


class TestPipeline:
    def test_full_run_writes_all_artifacts(self, world, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["pipeline", *_base(world), "--camera", str(world / "camera.json"),
             "--quadrant", "3", "--out", str(out)]
        )
        assert code == 0
        for name in ("fuselage_grid.csv", "plan.json", "report.json", "report.csv"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        # --true-camera defaults to --camera, so labelling is near exact.
        assert report["label_error_median_m"] < 1e-6
        assert "pipeline:" in capsys.readouterr().out


    def test_empty_cylinder_option_means_no_cylinder(self, world, tmp_path, capsys):
        argv = ["pipeline", *_base(world), "--camera", str(world / "camera.json"),
                "--true-camera", str(world / "true_camera.json"), "--quadrant", "3"]
        assert main([*argv, "--out", str(tmp_path / "without")]) == 0
        assert main([*argv, "--cylinder", "", "--out", str(tmp_path / "empty")]) == 0
        for name in ("plan.json", "report.json", "report.csv"):
            assert (tmp_path / "empty" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()
        without, empty = capsys.readouterr().out.splitlines()
        assert empty == without.replace("without", "empty")


class TestScanFovOptions:
    """A scan FOV must be finite and in (0, 180): anything else is a config
    error naming the field, raised before any input is read."""

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "180", "1e300"])
    @pytest.mark.parametrize("option", ["--hfov-deg", "--vfov-deg"])
    @pytest.mark.parametrize("command", ["plan", "simulate", "pipeline"])
    def test_bad_fov_exits_config_error_naming_it(
        self, world, plan_path, tmp_path, command, option, value
    ):
        out = tmp_path / "out"
        argv = {
            "plan": ["--camera", str(world / "camera.json")],
            "simulate": ["--plan", str(plan_path), "--true-camera", str(world / "camera.json"),
                         "--estimated-camera", str(world / "camera.json")],
            "pipeline": ["--camera", str(world / "camera.json")],
        }[command]
        code, stdout, stderr, caught = _run(
            [command, *_base(world), *argv, "--quadrant", "3", f"{option}={value}", "--out", str(out)]
        )
        field = option.lstrip("-").replace("-", "_")
        assert (code, stdout, caught) == (4, "", [])
        assert stderr == (f"error: category=config-error: {field} must be finite and in (0, 180),"
                          f" got {float(value)}\n")
        assert not out.exists()


class TestMalformedPoseRecords:
    """Bad pose records are parse errors that name the file and line."""

    POSE = {"position_m": [-7.0, 1.0, 6.0], "yaw_deg": 0.0, "pitch_deg": 24.0}

    @pytest.mark.parametrize(
        "command",
        [["evaluate"], ["loss-check"], ["loss-check", "--cylinder", "2.0,2.0"]],
        ids=["evaluate", "loss-check", "loss-check-cylinder"],
    )
    @pytest.mark.parametrize(
        "line",
        [
            "42",
            '"true predicted"',
            json.dumps({"true": {**POSE, "yaw_deg": "abc"}, "predicted": POSE}),
            json.dumps({"true": POSE, "predicted": {**POSE, "yaw_deg": [1.0]}}),
            json.dumps({"true": POSE, "predicted": {**POSE, "pitch_deg": "abc"}}),
            # The norm overflows to inf; normalising would give all zeros.
            json.dumps(
                {"true": POSE, "predicted": {**POSE, "quaternion_wxyz": [1e200, 0, 0, 0]}}
            ),
            json.dumps(
                {"true": {**POSE, "quaternion_wxyz": [1e200, 0, 0, 0]}, "predicted": POSE}
            ),
            # The squared norm is subnormal: normalising gives norm 1.0000056, not 1.
            json.dumps(
                {"true": POSE, "predicted": {**POSE, "quaternion_wxyz": [1e-160, 0, 0, 0]}}
            ),
            # Position norms that overflow: each position's, then only the error's.
            json.dumps({"true": POSE, "predicted": {**POSE, "position_m": [1e200, 0, 6]}}),
            json.dumps({"true": {**POSE, "position_m": [1e200, 0, 6]}, "predicted": POSE}),
            json.dumps(
                {
                    "true": {**POSE, "position_m": [1e154, 0, 6]},
                    "predicted": {**POSE, "position_m": [-1e154, 0, 6]},
                }
            ),
        ],
        ids=[
            "number", "string", "text-yaw", "list-yaw", "text-pitch",
            "overflow-quaternion", "overflow-true-quaternion", "underflow-quaternion",
            "overflow-position", "overflow-true-position", "overflow-position-error",
        ],
    )
    def test_batch_line_exits_parse_error(self, world, tmp_path, capsys, command, line):
        path = tmp_path / "bad.jsonl"
        good = (world / "batch.jsonl").read_text().splitlines()[0]
        path.write_text(f"{good}\n{line}\n")
        assert main([*command, "--predictions", str(path)]) == 3
        captured = capsys.readouterr()
        [err] = captured.err.splitlines()
        assert "category=parse-error" in err
        assert f"{path}:2" in err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "fields",
        [
            '"position_m": [-7.0, 1.0, 6.75], "yaw_deg": "abc"',
            '"position_m": [-7.0, 1.0, 6.75], "yaw_deg": [20.0]',
            '"position_m": [-7.0, 1.0, 6.75], "quaternion_wxyz": [1e200, 0, 0, 0]',
            '"position_m": [1e200, 0, 6.75], "yaw_deg": 20.0',
        ],
        ids=["text", "list", "overflow-quaternion", "overflow-position"],
    )
    def test_pose_file_exits_parse_error(self, world, tmp_path, capsys, fields):
        camera = tmp_path / "camera.json"
        camera.write_text("{%s}\n" % fields)
        code = main(
            ["plan", *_base(world), "--camera", str(camera),
             "--quadrant", "3", "--out", str(tmp_path / "p.json")]
        )
        assert code == 3
        [err] = capsys.readouterr().err.splitlines()
        assert "category=parse-error" in err
        assert str(camera) in err


# JSON number literals Python decodes to inf, or to an int no float can hold.
BIG_FLOAT, BIG_INT = "1e400", "1" + "0" * 400


def _with_literals(record) -> str:
    """``record`` as JSON, with each string "@<literal>" replaced by the bare literal."""
    return re.sub(r'"@([^"]*)"', r"\1", json.dumps(record))


class TestStrictJsonInput:
    """Readers accept strict JSON only, and a bad field is a parse error that
    names its file and the record (or batch line) it sits in."""

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda plan: plan["sections"][0].update(points=5), "sections[0]: 'points' must be"),
            (lambda plan: plan["sections"][0]["points"][1].update(pan_deg="@NaN"),
             "invalid JSON (non-finite number NaN)"),
            (lambda plan: plan["sections"][0]["points"][1].update(i=f"@{BIG_FLOAT}"),
             "sections[0].points[1]: cannot convert float infinity"),
            (lambda plan: plan["sections"][0]["points"][1].update(label_m=[f"@{BIG_INT}", 0, 0]),
             "sections[0].points[1]: expected numbers"),
            (lambda plan: plan["sections"][0]["points"][1].update(pan_deg=f"@{BIG_FLOAT}"),
             "sections[0].points[1]: expected finite numbers"),
            (lambda plan: plan["sections"][0]["points"][1].update(label_m=[0, f"@{BIG_FLOAT}", 0]),
             "sections[0].points[1]: expected finite numbers"),
            (lambda plan: plan["sections"][0]["points"][1].update(label_m=[1e200, 0, 0]),
             "sections[0].points[1]: vector must have a finite norm"),
            (lambda plan: plan["sections"][0]["points"][1].update(pan_deg=1e300),
             "sections[0].points[1]: pan 1e+300 outside (-180, 180]"),
            (lambda plan: plan["sections"][0]["points"][1].update(pan_deg=-180.0),
             "sections[0].points[1]: pan -180.0 outside (-180, 180]"),
            (lambda plan: plan["sections"][0]["points"][1].update(tilt_deg=-1e300),
             "sections[0].points[1]: tilt -1e+300 outside [-90, 90]"),
            (lambda plan: plan["sections"][0]["points"][1].update(i=2.9),
             "sections[0].points[1]: expected an integer, got 2.9"),
            (lambda plan: plan["sections"][0]["points"][1].update(i=True),
             "sections[0].points[1]: expected an integer, got True"),
            (lambda plan: plan["sections"][0]["points"][1].update(j=1e308),
             "sections[0].points[1]: expected an integer, got 1e+308"),
            (lambda plan: plan["sections"][0]["points"][1].update(i=f"@{BIG_INT}"),
             "sections[0].points[1]: Python int too large to convert"),
            (lambda plan: plan["sections"][0]["points"][1].update(pan_deg=True),
             "sections[0].points[1]: expected numbers, got [True, "),
            (lambda plan: plan["sections"][0]["points"][1].update(tilt_deg=False),
             "sections[0].points[1]: expected numbers, got ["),
            (lambda plan: plan["sections"][0]["points"][1]["label_m"].__setitem__(1, False),
             "sections[0].points[1]: expected numbers, got ["),
        ],
        ids=["points-not-a-list", "nan-pan", "overflowing-index", "huge-int-label",
             "overflowing-pan", "overflowing-label", "label-norm-overflows", "huge-pan",
             "pan-at-minus-180", "huge-tilt", "fractional-index", "bool-index", "float-index",
             "huge-int-index", "bool-pan", "bool-tilt", "bool-label"],
    )
    def test_bad_plan_exits_parse_error(self, world, plan_path, tmp_path, capsys, edit, where):
        plan = json.loads(plan_path.read_text())
        edit(plan)
        bad = tmp_path / "plan.json"
        bad.write_text(_with_literals(plan))
        out = tmp_path / "r.json"
        code = main(
            ["simulate", *_base(world), "--plan", str(bad),
             "--true-camera", str(world / "camera.json"),
             "--estimated-camera", str(world / "camera.json"),
             "--quadrant", "3", "--out", str(out)]
        )
        assert code == 3
        [err] = capsys.readouterr().err.splitlines()
        assert f"category=parse-error: {bad}: " in err and where in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, where",
        [("quadrant", f"@{BIG_FLOAT}", "cannot convert float infinity"),
         ("tilt_center_deg", "@-Infinity", "invalid JSON (non-finite number -Infinity)"),
         ("x_range_m", [-10.5, True], "expected numbers, got [-10.5, True]")],
        ids=["overflowing-quadrant", "infinite-tilt", "bool-range-end"],
    )
    def test_bad_boundary_exits_parse_error(self, world, tmp_path, capsys, field, value, where):
        bad = tmp_path / "boundary.json"
        record = json.loads((world / "boundary.json").read_text())
        bad.write_text(_with_literals({**record, field: value}))
        out = tmp_path / "m.json"
        assert main(["randomize", "--boundary", str(bad), "--out", str(out)]) == 3
        [err] = capsys.readouterr().err.splitlines()
        assert f"category=parse-error: {bad}: " in err and where in err
        assert not out.exists()

    def test_huge_int_section_corner_exits_parse_error(self, world, tmp_path, capsys):
        bad = tmp_path / "sections.json"
        config = json.loads((world / "sections.json").read_text())
        config["sections"][0]["box_min_m"][2] = f"@{BIG_INT}"
        bad.write_text(_with_literals(config))
        code = main(["interpolate", "--cloud", str(world / "cloud.xyz"), "--sections", str(bad),
                     "--out", str(tmp_path / "grids")])
        assert code == 3
        [err] = capsys.readouterr().err.splitlines()
        assert f"category=parse-error: {bad}: sections[0]: expected numbers" in err

    def test_bool_section_corner_exits_parse_error(self, world, tmp_path, capsys):
        bad = tmp_path / "sections.json"
        config = json.loads((world / "sections.json").read_text())
        config["sections"][0]["box_min_m"][2] = False
        bad.write_text(json.dumps(config))
        code = main(["interpolate", "--cloud", str(world / "cloud.xyz"), "--sections", str(bad),
                     "--out", str(tmp_path / "grids")])
        assert code == 3
        [err] = capsys.readouterr().err.splitlines()
        assert f"category=parse-error: {bad}: sections[0]: expected numbers, got [-1.9, -0.1, False]" in err

    @pytest.mark.parametrize("command", ["evaluate", "loss-check"])
    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda r: r.update(note="@NaN"), "invalid JSON (non-finite number NaN)"),
            (lambda r: r["true"].update(pitch_deg="@Infinity"),
             "invalid JSON (non-finite number Infinity)"),
            (lambda r: r.update(weights={"s_x": f"@{BIG_INT}"}),
             f"weights: expected numbers, got [{BIG_INT}, 0.0, 0.0]"),
            (lambda r: r["true"].update(position_m=[f"@{BIG_INT}", 0, 6]), "true: expected numbers"),
            (lambda r: r["true"]["quaternion_wxyz"].__setitem__(0, True), "true: expected numbers, got [True, "),
            (lambda r: r["predicted"].update(position_m=[0, True, 6]),
             "predicted: expected numbers, got [0, True, 6]"),
        ],
        ids=["nan-anywhere", "infinite-pitch", "huge-int-weight", "huge-int-position",
             "bool-quaternion", "bool-position"],
    )
    def test_bad_batch_line_exits_parse_error(self, world, tmp_path, capsys, command, edit, where):
        lines = (world / "batch.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        edit(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f"{lines[0]}\n{_with_literals(record)}\n")
        assert main([command, "--predictions", str(bad)]) == 3
        captured = capsys.readouterr()
        [err] = captured.err.splitlines()
        assert f"category=parse-error: {bad}:2: " in err and where in err
        assert captured.out == ""


class TestSimulatePlanFitsItsGrids:
    """A plan runs only on the grids it was made from: a cell off the grid or
    absent from it, or a label other than its cell's point, is a config error."""

    def simulate(self, world, cloud_args, plan, out):
        return main(
            ["simulate", *cloud_args, "--plan", str(plan),
             "--true-camera", str(world / "camera.json"),
             "--estimated-camera", str(world / "camera.json"),
             "--quadrant", "3", "--out", str(out)]
        )

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda point: point.update(i=-1), r"point 1: cell \(-1, \d+\) is off the 37x41 grid"),
            (lambda point: point.update(j=point["j"] - 1),
             r"point 1: cell \(\d+, \d+\) holds another point than the label"),
        ],
        ids=["negative-index", "neighbouring-cell"],
    )
    def test_edited_cell_exits_config_error(
        self, world, plan_path, tmp_path, capsys, edit, where
    ):
        plan = json.loads(plan_path.read_text())
        edit(plan["sections"][0]["points"][1])
        bad = tmp_path / "plan.json"
        bad.write_text(json.dumps(plan))
        out = tmp_path / "r.json"
        assert self.simulate(world, _base(world), bad, out) == 4
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith("error: category=config-error: plan section 'fuselage' ")
        assert re.search(where, err)
        assert not out.exists()

    def test_plan_on_another_clouds_grids_exits_config_error(
        self, world, plan_path, tmp_path, capsys
    ):
        # The plan's cloud with a corner cut away: its lattice keeps the
        # plan's shape, and the cut cells are absent.
        points = np.loadtxt(world / "cloud.xyz")
        np.savetxt(tmp_path / "cut.xyz", points[(points[:, 0] < -0.9) | (points[:, 1] < 1.0)])
        cloud_args = ["--cloud", str(tmp_path / "cut.xyz"), "--sections", str(world / "sections.json")]
        out = tmp_path / "r.json"
        assert self.simulate(world, cloud_args, plan_path, out) == 4
        [err] = capsys.readouterr().err.splitlines()
        assert re.search(r"category=config-error: .* is absent from the grid$", err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda sections: sections.append(sections[0]),
             "plan lists section 'fuselage' more than once"),
            (lambda sections: sections[0].update(kind="wing"),
             "plan section 'fuselage' has kind 'wing', its grid 'fuselage'"),
            (lambda sections: sections[0].update(kind="hull"),
             "plan section 'fuselage' has kind 'hull', its grid 'fuselage'"),
        ],
        ids=["section-twice", "other-kind", "unknown-kind"],
    )
    def test_section_that_does_not_match_its_grid_exits_config_error(
        self, world, plan_path, tmp_path, capsys, edit, where
    ):
        plan = json.loads(plan_path.read_text())
        edit(plan["sections"])
        bad = tmp_path / "plan.json"
        bad.write_text(json.dumps(plan))
        out = tmp_path / "r.json"
        assert self.simulate(world, _base(world), bad, out) == 4
        [err] = capsys.readouterr().err.splitlines()
        assert err == f"error: category=config-error: {where}"
        assert not out.exists()


def _around(*values):
    return [v for x in values for v in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


# A plan field is set to one of these, moved to its neighbouring value
# (``NEIGHBOUR``: one more, as from a cell to the next), or deleted.
NEIGHBOUR = object()
PLAN_EDITS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, 1e-300, -1e-300, 1e308, -1, 2.9]),
    st.sampled_from(_around(180.0, -180.0, 90.0, -90.0)),
    st.sampled_from([10**400, "x", "12", {}, None, True, False, [1.0]]),
    st.sampled_from([NEIGHBOUR, KeyError]),
)
PLAN_FIELDS = ["pan_deg", "tilt_deg", "label_m", "label_m", "label_m", "i", "j"]


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


@pytest.fixture(scope="module")
def coarse_plan(world, tmp_path_factory):
    """Cloud arguments and a plan for the world's section sampled every 5 cm,
    which interpolates about ten times faster than the 2 cm cloud."""
    root = tmp_path_factory.mktemp("cli_coarse")
    _write_cloud(root / "cloud.xyz", step=0.05)
    base = ["--cloud", str(root / "cloud.xyz"), "--sections", str(world / "sections.json")]
    argv = ["plan", *base, "--camera", str(world / "camera.json"), "--quadrant", "3"]
    assert main([*argv, "--out", str(root / "plan.json")]) == 0
    return base, root / "plan.json"


def _run(argv) -> tuple[int, str, str, list]:
    """Exit code, stdout, stderr and the warnings raised of ``main(argv)`` run
    in process. Any run prints one error line if, and only if, it fails."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with (
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stderr(stderr),
        contextlib.redirect_stdout(stdout),
    ):
        warnings.simplefilter("always")
        code = main(argv)
    if code:
        [line] = stderr.getvalue().splitlines()
        assert line.startswith("error: category="), line
    else:
        assert stderr.getvalue() == ""
    return code, stdout.getvalue(), stderr.getvalue(), [w.message for w in caught]


class TestSimulatePlanEdits:
    """Any one edit of one plan point either runs or fails cleanly: a known
    exit code, one error line, no warning, strict JSON output."""

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(data=st.data())
    def test_one_field_edit_exits_cleanly(self, world, coarse_plan, data):
        base, plan_path = coarse_plan
        plan = json.loads(plan_path.read_text())
        points = plan["sections"][0]["points"]
        record = points[data.draw(st.integers(0, len(points) - 1))]
        field, value = data.draw(st.sampled_from(PLAN_FIELDS)), data.draw(PLAN_EDITS)
        target, key = record, field
        if field == "label_m":
            target, key = record["label_m"], data.draw(st.integers(0, 2))
        old = target[key]
        if value is KeyError:
            del target[key]
        else:
            target[key] = old + 1 if value is NEIGHBOUR else value
        # An index edit changes the plan unless it writes back the same int.
        new = target.get(key) if field in ("i", "j") else None
        index_changed = field in ("i", "j") and not (type(new) is int and new == old)
        with tempfile.TemporaryDirectory() as tmp:
            bad, out = Path(tmp) / "plan.json", Path(tmp) / "report.json"
            bad.write_text(json.dumps(plan))
            code, _, stderr, caught = _run(
                ["simulate", *base, "--plan", str(bad),
                 "--true-camera", str(world / "camera.json"),
                 "--estimated-camera", str(world / "camera.json"),
                 "--quadrant", "3", "--out", str(out)]
            )
            assert not caught, [str(w) for w in caught]
            assert code in (0, 3, 4, 5), stderr
            if index_changed:
                assert code in (3, 4), (field, value)
            if value is None or isinstance(value, (bool, str, dict, list)):  # not a JSON number
                assert code == 3, (field, value)
            if code:
                assert not out.exists()
            else:
                json.loads(out.read_text(), parse_constant=_reject_constant)


@pytest.fixture(scope="module")
def field_inputs(world, coarse_plan):
    """Each hand-written input kind: (a valid record, the argv of a command
    that reads it from "{path}" and writes under "{out}")."""
    base, plan_path = coarse_plan
    camera = str(world / "camera.json")
    plan_argv = ["--quadrant", "3", "--out", "{out}/plan.json"]
    batch_line = json.loads((world / "batch.jsonl").read_text().splitlines()[0])
    boundary = json.loads((world / "boundary.json").read_text())
    return {
        "pose": (
            {"position_m": [-7.0, 1.0, 6.75], "yaw_deg": 20.0, "pitch_deg": 0.0},
            ["plan", *base, "--camera", "{path}", *plan_argv],
        ),
        "batch": (
            {**batch_line, "weights": {"s_x": 0.5, "s_q": -0.5, "s_c": 0.0}},
            ["loss-check", "--predictions", "{path}", "--out", "{out}/loss.json"],
        ),
        "sections": (
            json.loads((world / "sections.json").read_text()),
            ["plan", *base[:2], "--sections", "{path}", "--camera", camera, *plan_argv],
        ),
        "boundary": (
            {**boundary, "yaw_window_deg": 5.0, "tilt_center_deg": -18.0,
             "tilt_tolerance_deg": 0.5},
            ["randomize", "--boundary", "{path}", "--train", "4", "--val", "1", "--test", "1",
             "--out", "{out}/manifest.json"],
        ),
        "plan": (
            json.loads(plan_path.read_text()),
            ["simulate", *base, "--plan", "{path}", "--true-camera", camera,
             "--estimated-camera", camera, "--quadrant", "3", "--out", "{out}/report.json"],
        ),
    }


def _field_paths(node, prefix=()):
    """The key path of every value inside a decoded JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if type(node) is list else ()
    for key, child in items:
        yield (*prefix, key)
        yield from _field_paths(child, (*prefix, key))


def _run_edited(field_inputs, kind, path, value) -> tuple[int, str, str, str]:
    """Run the command of input ``kind`` on its record with the field at
    ``path`` set to ``value`` (deleted for ``KeyError``); every JSON it
    writes, to a file or to stdout, must parse strictly. Returns the exit
    code, stdout, stderr and the edited file's path."""
    record, argv = field_inputs[kind]
    record = json.loads(json.dumps(record))
    *parents, key = path
    target = record
    for parent in parents:
        target = target[parent]
    if value is KeyError:
        del target[key]
    else:
        target[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        bad, out = Path(tmp) / f"{kind}.json", Path(tmp) / "out"
        out.mkdir()
        bad.write_text(_with_literals(record) + "\n")
        code, stdout, stderr, caught = _run([arg.format(path=bad, out=out) for arg in argv])
        assert all(isinstance(w, DOMAIN_WARNINGS) for w in caught), [str(w) for w in caught]
        assert code in (0, 2, 3, 4, 5), stderr
        for output in out.iterdir():
            json.loads(output.read_text(), parse_constant=_reject_constant)
    if argv[0] == "loss-check" and stdout:
        json.loads(stdout, parse_constant=_reject_constant)
    return code, stdout, stderr, str(bad)


# The package's own warnings, which flag a questionable but valid setup:
# a camera yaw outside its deployment band, a section on the camera's far
# half, or a pose at gimbal lock. A section box that selects no points is
# one error line, with no warning before it.
DOMAIN_WARNINGS = (YawToleranceWarning, SectionMismatchWarning, GimbalLockWarning)

# One-field edits of a hand-written input: wrong JSON types, digit strings,
# ±0, the smallest subnormal, huge floats, a literal that overflows to inf,
# an int past float's range, and a deleted field.
FIELD_EDITS = st.sampled_from(
    [True, False, "3", "12", "123", "000", "1.5", "x", {}, [1.0], None,
     0.0, -0.0, 5e-324, 1e300, -1e300, f"@{BIG_FLOAT}", 10**400, KeyError]
)


def _json_kind(value):
    """The kind of a JSON value: "number" for any number (the overflowing
    literal included), else its Python type."""
    return "number" if type(value) in (int, float) or value == f"@{BIG_FLOAT}" else type(value)


class TestInputFieldEdits:
    """Any one edit of one field of a pose file, a batch line, a section config
    or a boundary config either runs or fails cleanly. A field is read by its
    JSON type: a number field takes only numbers and a name only strings, and
    any other type is a parse error naming the file."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(data=st.data())
    def test_one_field_edit_exits_cleanly(self, field_inputs, data):
        kind = data.draw(st.sampled_from(["pose", "batch", "sections", "boundary"]))
        record = field_inputs[kind][0]
        path = data.draw(st.sampled_from(list(_field_paths(record))))
        value = data.draw(FIELD_EDITS)
        old = record
        for key in path:
            old = old[key]
        code, _, stderr, bad = _run_edited(field_inputs, kind, path, value)
        typed = type(old) in (int, float, str)
        if typed and value is not KeyError and _json_kind(value) != _json_kind(old):
            assert code == 3 and bad in stderr, (path, value)

    @pytest.mark.parametrize(
        "kind, path, value, where",
        [
            ("pose", ("position_m",), "123", ": expected numbers, got '123'"),
            ("pose", ("position_m",), {"1": 0, "2": 0, "3": 0}, ": expected numbers, got {'1': 0"),
            ("pose", ("pitch_deg",), "5", ": expected numbers, got [20.0, '5']"),
            ("sections", ("sections", 0, "box_min_m"), "000",
             ": sections[0]: expected numbers, got '000'"),
            ("sections", ("sections", 0, "name"), None,
             ": sections[0]: section name must be a file name without '/', got None"),
            ("boundary", ("x_range_m",), "12", ": expected numbers, got '12'"),
            ("boundary", ("quadrant",), True, ": expected an integer, got True"),
            ("boundary", ("quadrant",), 3.9, ": expected an integer, got 3.9"),
            ("boundary", ("quadrant",), "3", ": expected an integer, got '3'"),
            ("boundary", ("tilt_tolerance_deg",), True,
             ": expected numbers, got [5.0, -18.0, True]"),
            ("boundary", ("tilt_tolerance_deg",), "1.5",
             ": expected numbers, got [5.0, -18.0, '1.5']"),
            ("batch", ("weights", "s_x"), True,
             ":1: weights: expected numbers, got [True, -0.5, 0.0]"),
            ("batch", ("weights", "s_c"), "2",
             ":1: weights: expected numbers, got [0.5, -0.5, '2']"),
            ("plan", ("sections", 0, "points", 1, "pan_deg"), "12",
             ": sections[0].points[1]: expected numbers, got ['12', "),
            ("plan", ("sections", 0, "points", 1, "label_m"), "123",
             ": sections[0].points[1]: expected numbers, got '123'"),
            ("plan", ("sections", 0, "name"), None,
             ": sections[0]: need 'name' and 'kind' strings"),
            ("plan", ("sections", 0, "kind"), 1, ": sections[0]: need 'name' and 'kind' strings"),
        ],
        ids=["text-position", "object-position", "text-pitch", "text-box", "null-section-name",
             "text-range", "bool-quadrant", "fractional-quadrant", "text-quadrant",
             "bool-tolerance", "text-tolerance", "bool-weight", "text-weight", "text-pan",
             "text-label", "null-plan-name", "number-plan-kind"],
    )
    def test_mistyped_field_exits_parse_error(self, field_inputs, kind, path, value, where):
        code, stdout, stderr, bad = _run_edited(field_inputs, kind, path, value)
        assert code == 3 and stdout == ""
        assert f"error: category=parse-error: {bad}{where}" in stderr


def test_unexpected_failure_prints_traceback_then_one_error_line(
    world, monkeypatch, capsys
):
    def fail(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "load_external_predictions", fail)
    assert main(["evaluate", "--predictions", str(world / "batch.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "RuntimeError: boom" in err
    lines = err.splitlines()
    assert lines[-1] == "error: category=internal-error: RuntimeError: boom"
    assert sum(line.startswith("error: category=") for line in lines) == 1


@pytest.mark.parametrize(
    "command, name",
    [
        (["randomize", "--boundary", "{bad}", "--out", "{out}/m.json"], "boundary.json"),
        (["interpolate", "--cloud", "{bad}", "--sections", "{sections}", "--out", "{out}"],
         "cloud.xyz"),
        (["evaluate", "--predictions", "{bad}"], "batch.jsonl"),
    ],
    ids=["boundary", "cloud", "batch"],
)
def test_non_utf8_input_exits_parse_error_naming_the_file(
    world, tmp_path, capsys, command, name
):
    bad = tmp_path / name
    bad.write_bytes(b"\xff" + (world / name).read_bytes())
    fields = {"bad": bad, "out": tmp_path / "out", "sections": world / "sections.json"}
    assert main([arg.format(**fields) for arg in command]) == 3
    err = capsys.readouterr().err
    assert "category=parse-error" in err
    assert str(bad) in err


def test_dataset_commands_never_load_scipy(world, tmp_path):
    """randomize, evaluate and loss-check do not interpolate, so they must not
    pay for importing SciPy."""
    script = f"""
import sys
import ptzscan, ptzscan.cli
for argv in (
    ["randomize", "--boundary", {str(world / "boundary.json")!r}, "--train", "8",
     "--val", "1", "--test", "1", "--out", {str(tmp_path / "manifest.json")!r}],
    ["evaluate", "--predictions", {str(world / "batch.jsonl")!r}],
    ["loss-check", "--predictions", {str(world / "batch.jsonl")!r}, "--cylinder", "2.0,2.0"],
):
    assert ptzscan.cli.main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_randomize_memory_growth_is_bounded(world, tmp_path):
    """Writing a 5,000-sample manifest streams it from the draw block: peak
    RSS grows by the block and one row at a time, not by a copy of the
    manifest as JSON."""
    # VmHWM is the process's own peak RSS. ru_maxrss would also count the
    # RSS of the test process it was spawned from, which can hide the growth.
    script = f"""
import ptzscan.cli

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

before = peak_kb()
argv = ["randomize", "--boundary", {str(world / "boundary.json")!r}, "--seed", "1",
        "--train", "4000", "--val", "700", "--test", "300",
        "--out", {str(tmp_path / "manifest.json")!r}]
assert ptzscan.cli.main(argv) == 0
print((peak_kb() - before) / 1024)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    growth_mb = float(result.stdout.split()[-1])
    assert growth_mb < 35.0, f"peak RSS grew by {growth_mb:.1f} MB"


class TestParsing:
    def test_defaults_match_the_library(self):
        parser = build_parser()
        cfg, sizes = ScanConfig(), SplitSizes()
        scan_args = ["--cloud", "c", "--sections", "s", "--quadrant", "3", "--out", "o"]
        for argv in (
            ["plan", *scan_args, "--camera", "e"],
            ["simulate", *scan_args, "--true-camera", "t", "--estimated-camera", "e"],
            ["pipeline", *scan_args, "--camera", "e"],
        ):
            args = parser.parse_args(argv)
            assert (args.hfov_deg, args.vfov_deg, args.mu) == (cfg.hfov_deg, cfg.vfov_deg, cfg.mu)
        args = parser.parse_args(["randomize", "--boundary", "b", "--out", "o"])
        assert (args.train, args.val, args.test) == (sizes.train, sizes.val, sizes.test)
        assert args.hfov_deg == DatasetManifest.hfov_deg

    def test_pipeline_takes_no_seed(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["pipeline", "--cloud", "c", "--sections", "s", "--camera", "e",
                 "--quadrant", "3", "--out", "o", "--seed", "1"]
            )
        capsys.readouterr()

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "ptzscan" in capsys.readouterr().out
