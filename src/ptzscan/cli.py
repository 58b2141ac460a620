"""Command-line front end: one subcommand per workflow phase.

``interpolate`` builds surface grids from a point cloud, ``plan`` turns
grids into a pan-tilt scan path, ``simulate`` executes a plan against
ground truth, ``randomize`` emits dataset manifests, ``evaluate`` scores
pose predictions, ``loss-check`` audits the training loss, and
``pipeline`` chains interpolate, plan, and simulate in one run.

Exit codes are categorised so scripts can react without parsing prose:
0 success, 2 missing/unreadable files, 3 unparsable content, 4 invalid
configuration, 5 computation failures on valid input, 1 anything else.
An unexpected failure (exit 1) also prints its traceback before the error
line, and a warning is one ``warning: category=<class>: <message>`` line.
Every command is deterministic given its inputs and ``--seed``; rerunning
one rewrites byte-identical outputs. No environment variable is read.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
import warnings
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ptzscan import __version__
from ptzscan.evaluation import evaluate
from ptzscan.formats import (
    FormatError,
    _dump_json,
    format_stats,
    load_external_predictions,
    read_boundary_config,
    read_plan_json,
    read_pose_json,
    read_sample_batch,
    read_section_config,
    write_grid_csv,
    write_loss_report,
    write_manifest_json,
    write_pantilt_csv,
    write_plan_csv,
    write_plan_json,
    write_propagation_json,
    write_report_csv,
    write_report_json,
    write_stats_csv,
    write_stats_report,
)
from ptzscan.geometry import (
    CameraPose,
    CylinderModel,
    yaw_from_quaternion,
)
from ptzscan.losses import (
    InvalidSetupError,
    LossWeights,
    PoseSample,
    batch_losses,
    combined_loss,
    finite_difference_grad,
    optimal_log_variance,
)
from ptzscan.pantilt import QuadrantSetup, grid_to_pantilt
from ptzscan.planner import ScanConfig, plan_full
from ptzscan.randomizer import DatasetManifest, SplitSizes, generate_manifest
from ptzscan.simulator import error_propagation, execute_plan
from ptzscan.surface import (
    DegenerateSectionError,
    PointCloudParseError,
    interpolate_section,
    load_point_cloud,
    section_points,
)

__all__ = [
    "main",
    "EXIT_OK",
    "EXIT_INTERNAL",
    "EXIT_IO",
    "EXIT_PARSE",
    "EXIT_CONFIG",
    "EXIT_COMPUTE",
]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_CONFIG = 4
EXIT_COMPUTE = 5

_CATEGORIES = {
    EXIT_IO: "io-error",
    EXIT_PARSE: "parse-error",
    EXIT_CONFIG: "config-error",
    EXIT_COMPUTE: "compute-error",
    EXIT_INTERNAL: "internal-error",
}


class CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def _require_files(*paths) -> None:
    missing = [str(p) for p in paths if not Path(p).is_file()]
    if missing:
        raise CliError(EXIT_IO, f"missing input file(s): {', '.join(missing)}")


def _scan_config(args) -> ScanConfig:
    return ScanConfig(hfov_deg=args.hfov_deg, vfov_deg=args.vfov_deg, mu=args.mu)


def _build_grids(cloud_path, sections_path):
    specs = read_section_config(sections_path)
    if not specs:
        raise CliError(EXIT_CONFIG, f"{sections_path}: no sections defined")
    cloud = load_point_cloud(cloud_path)
    return [interpolate_section(section_points(cloud, spec), spec) for spec in specs]


def _parse_cylinder(text: Optional[str]) -> Optional[CylinderModel]:
    """The ``--cylinder`` option's model; None when it is absent or empty."""
    if not text:
        return None
    try:
        radius, axis_height = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise CliError(
            EXIT_CONFIG, f"--cylinder expects 'radius,axis-height', got {text!r}"
        ) from exc
    return CylinderModel(axis_height=axis_height, radius=radius)


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _plan(grids, pose: CameraPose, cfg: ScanConfig, quadrant: int):
    """Pan/tilt grids of every section as seen from ``pose``, and the plan
    built over them."""
    setup = QuadrantSetup(quadrant, yaw_from_quaternion(pose.orientation), pose.position)
    pantilts = [grid_to_pantilt(grid, setup) for grid in grids]
    triples = [(u, grid, grid.section.kind) for u, grid in zip(pantilts, grids)]
    return pantilts, plan_full(triples, cfg, quadrant)


def _execute(plan, true_pose, estimated_pose, grids, cfg, args, cylinder, json_path, csv_path):
    """Execute ``plan``, write its report as JSON (and CSV if ``csv_path``), and return
    the report with its median labelling error as text."""
    report = execute_plan(plan, true_pose, estimated_pose, grids, cfg, args.quadrant, cylinder=cylinder)
    write_report_json(json_path, report)
    if csv_path:
        write_report_csv(csv_path, report)
    med = report.label_error_median_m
    return report, f"{med:.6f}" if math.isfinite(med) else "n/a"


def cmd_interpolate(args) -> int:
    _require_files(args.cloud, args.sections)
    grids = _build_grids(args.cloud, args.sections)
    out = _out_dir(args.out)
    for grid in grids:
        target = out / f"{grid.section.name}_grid.csv"
        write_grid_csv(target, grid)
        present = int(grid.valid.sum())
        print(f"{grid.section.name}: {grid.shape[0]}x{grid.shape[1]} grid, {present} present -> {target}")
    return EXIT_OK


def cmd_plan(args) -> int:
    cfg = _scan_config(args)
    _require_files(args.cloud, args.sections, args.camera)
    pose = read_pose_json(args.camera)
    grids = _build_grids(args.cloud, args.sections)
    pantilts, plan = _plan(grids, pose, cfg, args.quadrant)
    write_plan_json(args.out, plan)
    print(f"plan: {len(plan)} points across {len(plan.sections)} sections -> {args.out}")
    if args.csv:
        write_plan_csv(args.csv, plan)
    if args.export_pantilt:
        out = _out_dir(args.export_pantilt)
        for grid, u in zip(grids, pantilts):
            write_pantilt_csv(out / f"{grid.section.name}_pantilt.csv", u)
    return EXIT_OK


def cmd_simulate(args) -> int:
    # A Monte-Carlo study perturbs the true pose: it reads no plan and no estimate.
    inputs = () if args.draws else (args.plan, args.estimated_camera)
    for flag, value in zip(("--plan", "--estimated-camera"), inputs):
        if not value:
            raise CliError(EXIT_CONFIG, f"{flag} is required unless --draws is given")
    cfg = _scan_config(args)
    _require_files(*inputs, args.cloud, args.sections, args.true_camera)
    true_pose = read_pose_json(args.true_camera)
    estimated_pose = read_pose_json(args.estimated_camera) if inputs else None
    grids = _build_grids(args.cloud, args.sections)
    cylinder = _parse_cylinder(args.cylinder)
    if args.draws:
        study = error_propagation(true_pose, grids, cfg, args.quadrant, sigma_pos_m=args.sigma_pos,
                                  sigma_yaw_deg=args.sigma_yaw, n_draws=args.draws, seed=args.seed,
                                  cylinder=cylinder)
        write_propagation_json(args.out, study)
        print(
            f"propagation: {len(study.draws)} draws, median error "
            f"{study.error_median_m:.4f} m -> {args.out}"
        )
        return EXIT_OK
    report, med_text = _execute(read_plan_json(args.plan), true_pose, estimated_pose, grids, cfg,
                                args, cylinder, args.out, args.csv)
    print(
        f"simulated {report.image_count} images, median labelling error {med_text} m, "
        f"{report.missed_count} missed -> {args.out}"
    )
    return EXIT_OK


def cmd_randomize(args) -> int:
    _require_files(args.boundary)
    boundary = read_boundary_config(args.boundary)
    sizes = SplitSizes(train=args.train, val=args.val, test=args.test)
    manifest = generate_manifest(boundary, sizes=sizes, seed=args.seed, hfov_deg=args.hfov_deg)
    write_manifest_json(args.out, manifest)
    print(
        f"manifest: {sizes.total} samples (train {sizes.train} / val {sizes.val} / "
        f"test {sizes.test}), seed {args.seed} -> {args.out}"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _require_files(args.predictions)
    predictions, truths = load_external_predictions(args.predictions)
    if not len(truths[0]):  # no positions
        raise CliError(EXIT_CONFIG, f"{args.predictions}: no samples to evaluate")
    stats = evaluate(predictions, truths)
    sys.stdout.write(format_stats(stats))
    if args.out:
        write_stats_report(args.out, stats)
    if args.csv:
        write_stats_csv(args.csv, stats)
    return EXIT_OK


def cmd_loss_check(args) -> int:
    """Per channel: mean loss, optimal log-variance ln(mean) and the gradient
    there, which must vanish. A perfect channel (mean loss 0) has no finite
    optimum: its optimum and gradient are null and the check skips it."""
    _require_files(args.predictions)
    batch = read_sample_batch(args.predictions)
    if not batch:
        raise CliError(EXIT_CONFIG, f"{args.predictions}: no samples in batch")
    cylinder = _parse_cylinder(args.cylinder)
    default_weights = LossWeights(s_x=args.s_x, s_q=args.s_q, s_c=args.s_c)
    l_x, l_q, l_c, totals, refused = batch_losses(batch, default_weights, cylinder)
    if refused is not None:
        _refuse_sample(args.predictions, batch, refused, default_weights, cylinder)
    l_c = l_c[~np.isnan(l_c)]
    with np.errstate(over="ignore"):  # finite totals can sum past the float range
        mean_total = float(np.mean(totals))
    if math.isinf(mean_total):
        raise CliError(EXIT_CONFIG, f"{args.predictions}: mean_total of the weighted losses overflows")

    optima, gradients = {}, {}
    report = {
        "n": len(batch),
        "mean_total": mean_total,
        "optimal_log_variance": optima,
        "gradient_at_optimum": gradients,
    }
    channels = {"s_x": ("mean_position_loss", l_x), "s_q": ("mean_orientation_loss", l_q)}
    if cylinder is not None:
        report["surface_skipped"] = len(batch) - len(l_c)
        if len(l_c):
            channels["s_c"] = ("mean_surface_loss", l_c)
    for weight, (key, losses) in channels.items():
        report[key] = mean = float(np.mean(losses))
        if mean == 0.0:
            optima[weight] = gradients[weight] = None
            continue
        optima[weight] = optimal_log_variance(mean)
        gradient = finite_difference_grad(
            lambda s: mean * math.exp(-float(s[0])) + float(s[0]), np.array([optima[weight]])
        )
        gradients[weight] = float(gradient[0])
    checked = [abs(g) < 1e-5 for g in gradients.values() if g is not None]
    report["gradient_check_passed"] = all(checked)
    sys.stdout.write(_dump_json(report))
    if args.out:
        write_loss_report(args.out, report)
    if not report["gradient_check_passed"]:
        raise CliError(EXIT_COMPUTE, "finite-difference gradient check failed")
    return EXIT_OK


def _refuse_sample(path, batch, k: int, default_weights, cylinder) -> None:
    """Raise ``combined_loss``'s refusal of row ``k``, which ``batch_losses`` refused,
    naming its batch line, or name its weighted term that overflows."""
    sample = PoseSample(CameraPose(batch.true_position[k], batch.true_orientation[k]),
                        batch.predicted_position[k], batch.predicted_orientation_raw[k])
    weights = batch.weights[k] or default_weights
    try:
        breakdown = combined_loss(sample, weights, cylinder=cylinder, include_icsc=cylinder is not None)
    except (ValueError, InvalidSetupError) as exc:
        raise type(exc)(f"{path}:{batch.lines[k]}: {exc}") from exc
    if math.isinf(breakdown.total):  # name its overflowing term; an overflowing sum is named by the caller
        for w, loss in zip(("s_x", "s_q", "s_c"), (breakdown.l_x, breakdown.l_q, breakdown.l_c)):
            if loss is not None and math.isinf(loss * math.exp(-getattr(weights, w))):
                raise CliError(EXIT_CONFIG, f"{path}: sample {k + 1}: weighted {w} term overflows")
    raise CliError(EXIT_INTERNAL, f"{path}:{batch.lines[k]}: the batched and per-sample losses disagree")


def cmd_pipeline(args) -> int:
    cfg = _scan_config(args)
    _require_files(args.cloud, args.sections, args.camera)
    out = _out_dir(args.out)
    estimated_pose = read_pose_json(args.camera)
    true_pose = read_pose_json(args.true_camera) if args.true_camera else estimated_pose
    grids = _build_grids(args.cloud, args.sections)
    for grid in grids:
        write_grid_csv(out / f"{grid.section.name}_grid.csv", grid)
    _, plan = _plan(grids, estimated_pose, cfg, args.quadrant)
    write_plan_json(out / "plan.json", plan)
    report, med_text = _execute(plan, true_pose, estimated_pose, grids, cfg, args,
                                _parse_cylinder(args.cylinder), out / "report.json", out / "report.csv")
    print(
        f"pipeline: {len(plan)} planned images, median labelling error {med_text} m, "
        f"coverage {min((s.coverage for s in report.sections), default=0.0):.4f} -> {out}"
    )
    return EXIT_OK


def _add_scan_flags(parser):
    parser.add_argument(
        "--hfov-deg", type=float, default=ScanConfig.hfov_deg, help="horizontal FOV at scan zoom"
    )
    parser.add_argument(
        "--vfov-deg", type=float, default=ScanConfig.vfov_deg, help="vertical FOV at scan zoom"
    )
    parser.add_argument("--mu", type=float, default=ScanConfig.mu, help="overlap ratio in [0, 1)")
    parser.add_argument("--quadrant", type=int, choices=(1, 2, 3, 4), required=True)


def _add_cloud_flags(parser):
    parser.add_argument("--cloud", required=True, help="point-cloud file (xyz or ASCII PLY)")
    parser.add_argument("--sections", required=True, help="section config JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptzscan",
        description="Plan, simulate, and evaluate PTZ-camera surface scans.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("interpolate", help="interpolate cloud sections onto 5 cm grids")
    _add_cloud_flags(p)
    p.add_argument("--out", required=True, help="output directory for grid CSVs")
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("plan", help="generate an overlap-aware scan plan")
    _add_cloud_flags(p)
    _add_scan_flags(p)
    p.add_argument("--camera", required=True, help="estimated camera pose JSON")
    p.add_argument("--out", required=True, help="plan JSON output")
    p.add_argument("--csv", help="optional plan CSV output")
    p.add_argument("--export-pantilt", help="optional directory for pan-tilt CSVs")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="execute a plan against ground truth")
    _add_cloud_flags(p)
    _add_scan_flags(p)
    p.add_argument("--plan", help="plan JSON (required unless --draws is given)")
    p.add_argument("--true-camera", required=True, help="true camera pose JSON")
    p.add_argument("--estimated-camera", help="estimated pose JSON (required unless --draws)")
    p.add_argument("--cylinder", help="analytic cast target as 'radius,axis-height'")
    p.add_argument("--draws", type=int, default=0, help="Monte-Carlo draws (0 = single run)")
    p.add_argument("--sigma-pos", type=float, default=0.24, help="position noise sigma, m")
    p.add_argument("--sigma-yaw", type=float, default=2.0, help="yaw noise sigma, deg")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="report JSON output")
    p.add_argument("--csv", help="optional per-image CSV output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("randomize", help="generate a domain-randomised dataset manifest")
    p.add_argument("--boundary", required=True, help="per-quadrant boundary config JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train", type=int, default=SplitSizes.train)
    p.add_argument("--val", type=int, default=SplitSizes.val)
    p.add_argument("--test", type=int, default=SplitSizes.test)
    p.add_argument("--hfov-deg", type=float, default=DatasetManifest.hfov_deg, help="render FOV")
    p.add_argument("--out", required=True, help="manifest JSON output")
    p.set_defaults(func=cmd_randomize)

    p = sub.add_parser("evaluate", help="median/RMSE pose-error statistics")
    p.add_argument("--predictions", required=True, help="batch JSONL of true/predicted poses")
    p.add_argument("--out", help="optional key=value report file")
    p.add_argument("--csv", help="optional stats CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("loss-check", help="loss report plus gradient check")
    p.add_argument("--predictions", required=True, help="batch JSONL of true/predicted poses")
    p.add_argument("--s-x", type=float, default=0.0, help="position log-variance weight")
    p.add_argument("--s-q", type=float, default=0.0, help="orientation log-variance weight")
    p.add_argument("--s-c", type=float, default=0.0, help="surface log-variance weight")
    p.add_argument("--cylinder", help="enable surface term: 'radius,axis-height'")
    p.add_argument("--out", help="optional JSON report file")
    p.set_defaults(func=cmd_loss_check)

    p = sub.add_parser("pipeline", help="interpolate, plan, and simulate in one run")
    _add_cloud_flags(p)
    _add_scan_flags(p)
    p.add_argument("--camera", required=True, help="estimated camera pose JSON")
    p.add_argument("--true-camera", help="true pose JSON (defaults to --camera)")
    p.add_argument("--cylinder", help="analytic cast target as 'radius,axis-height'")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    shown = warnings.formatwarning  # restored below: a caller recording warnings sees them as raised
    warnings.formatwarning = lambda msg, category, *_: f"warning: category={category.__name__}: {msg}\n"
    try:
        return args.func(args)
    except CliError as exc:
        _report(exc.exit_code, str(exc))
        return exc.exit_code
    except (FormatError, PointCloudParseError) as exc:
        _report(EXIT_PARSE, str(exc))
        return EXIT_PARSE
    except FileNotFoundError as exc:
        _report(EXIT_IO, str(exc))
        return EXIT_IO
    except (DegenerateSectionError, InvalidSetupError) as exc:
        _report(EXIT_COMPUTE, str(exc))
        return EXIT_COMPUTE
    except OSError as exc:
        _report(EXIT_IO, str(exc))
        return EXIT_IO
    except (ValueError, TypeError) as exc:
        _report(EXIT_CONFIG, str(exc))
        return EXIT_CONFIG
    except Exception as exc:  # safety net
        traceback.print_exc()
        _report(EXIT_INTERNAL, f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL
    finally:
        warnings.formatwarning = shown


def _report(exit_code: int, message: str) -> None:
    category = _CATEGORIES.get(exit_code, "internal-error")
    print(f"error: category={category}: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
