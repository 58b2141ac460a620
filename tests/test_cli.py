"""End-to-end tests for the command-line interface.

Each test drives ``ptzscan.cli.main`` in process with an argv list and
checks the exit code, the files written, and the ``error: category=...``
line on stderr for failure paths. A small cylinder-section world is
built once per module and shared.
"""

import inspect
import json
import math
import os
import subprocess
import sys
from csv import DictReader
from pathlib import Path

import numpy as np
import pytest

from ptzscan.cli import build_parser, main
from ptzscan.formats import read_plan_json
from ptzscan.geometry import quat_from_yaw_pitch
from ptzscan.planner import ScanConfig
from ptzscan.randomizer import SplitSizes, generate_manifest

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


class TestMalformedPoseRecords:
    """Bad pose records are parse errors that name the file and line."""

    POSE = {"position_m": [-7.0, 1.0, 6.0], "yaw_deg": 0.0, "pitch_deg": 24.0}

    @pytest.mark.parametrize("command", ["evaluate", "loss-check"])
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
        ],
        ids=[
            "number", "string", "text-yaw", "list-yaw", "text-pitch",
            "overflow-quaternion", "overflow-true-quaternion",
        ],
    )
    def test_batch_line_exits_parse_error(self, world, tmp_path, capsys, command, line):
        path = tmp_path / "bad.jsonl"
        good = (world / "batch.jsonl").read_text().splitlines()[0]
        path.write_text(f"{good}\n{line}\n")
        assert main([command, "--predictions", str(path)]) == 3
        err = capsys.readouterr().err
        assert "category=parse-error" in err
        assert f"{path}:2" in err

    @pytest.mark.parametrize(
        "orientation",
        ['"yaw_deg": "abc"', '"yaw_deg": [20.0]', '"quaternion_wxyz": [1e200, 0, 0, 0]'],
        ids=["text", "list", "overflow-quaternion"],
    )
    def test_pose_file_exits_parse_error(self, world, tmp_path, capsys, orientation):
        camera = tmp_path / "camera.json"
        camera.write_text('{"position_m": [-7.0, 1.0, 6.75], %s}\n' % orientation)
        code = main(
            ["plan", *_base(world), "--camera", str(camera),
             "--quadrant", "3", "--out", str(tmp_path / "p.json")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "category=parse-error" in err
        assert str(camera) in err


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
