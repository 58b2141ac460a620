"""Benchmark for the ptzscan CLI: seeded workloads, timed end to end and
traced layer by layer from outside the program.

Usage (from the root of a checkout)::

    python3 ptzbench/run.py --workload scan_pipeline --seed 1 --seconds 30 --trace 0
    python3 ptzbench/run.py --workload all --seed 1            # every workload

Each run writes its inputs from ``--seed`` (see ``inputs.py``), then runs
the workload's ``ptzscan`` command(s) from ``src/`` as child processes: a
closed loop with one client, each command started after the previous one
exits. With ``--trace 0`` the commands repeat for ``--seconds`` and the
end-to-end metrics are reported; with ``--trace 1`` the commands run once
untraced, once under the span tracer and once under cProfile, and the
per-layer metrics are reported. Every output is checked (``checks.py``);
a command that exits non-zero or fails a check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(environment, input hashes, every sample) goes to
``.ptzbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".ptzbench_work"
BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Command:
    argv: list[str]
    outputs: tuple[str, ...]  # files (relative to the output dir) it writes


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[Path, Path, int], list[Command]]
    check: Callable[[Path, int], tuple[list[str], dict]]
    item_name: str  # the per-workload name of ``items_per_s``
    items: Callable[[dict, dict], float]  # (input manifest, outcome) -> items per iteration


def _scan_pipeline(inp: Path, out: Path, seed: int) -> list[Command]:
    grids = tuple(f"run/{s['name']}_grid.csv" for s in (inputs.REAR_SECTION, inputs.FRONT_SECTION))
    return [
        Command(
            ["pipeline", "--cloud", str(inp / "cloud.xyz"), "--sections", str(inp / "sections.json"),
             "--camera", str(inp / "camera.json"), "--true-camera", str(inp / "true_camera.json"),
             "--quadrant", "3", "--out", str(out / "run")],
            grids + ("run/plan.json", "run/report.json", "run/report.csv"),
        )
    ]


def _pose_study(inp: Path, out: Path, seed: int) -> list[Command]:
    return [
        Command(
            ["simulate", "--cloud", str(inp / "cloud.xyz"), "--sections", str(inp / "sections.json"),
             "--true-camera", str(inp / "true_camera.json"),
             "--estimated-camera", str(inp / "camera.json"), "--quadrant", "3",
             "--draws", str(checks.DRAWS), "--sigma-pos", "0.24", "--sigma-yaw", "2.0",
             "--seed", str(seed), "--out", str(out / "study.json")],
            ("study.json",),
        )
    ]


def _dataset_audit(inp: Path, out: Path, seed: int) -> list[Command]:
    batch = str(inp / "batch.jsonl")
    return [
        Command(["randomize", "--boundary", str(inp / "boundary.json"), "--seed", str(seed),
                 "--out", str(out / "manifest.json")], ("manifest.json",)),
        Command(["evaluate", "--predictions", batch, "--out", str(out / "stats.txt")], ("stats.txt",)),
        Command(["loss-check", "--predictions", batch, "--cylinder", inputs.CYLINDER_ARG,
                 "--out", str(out / "loss.json")], ("loss.json",)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan_pipeline",
            _scan_pipeline,
            checks.check_scan_pipeline,
            "points_per_s",
            lambda manifest, outcome: manifest["cloud.xyz"]["lines"],
        ),
        Workload(
            "pose_study",
            _pose_study,
            checks.check_pose_study,
            "shots_per_s",
            lambda manifest, outcome: outcome.get("shots", 0),
        ),
        Workload(
            "dataset_audit",
            _dataset_audit,
            checks.check_dataset_audit,
            "samples_per_s",
            lambda manifest, outcome: outcome.get("manifest_samples", 0)
            + 2 * manifest["batch.jsonl"]["lines"],
        ),
    )
}

# Units of the accuracy and outcome figures the checks read from the outputs.
OUTCOME_UNITS = {
    "grid_error_max_mm": "mm",
    "hit_error_max_mm": "mm",
    "label_error_median_m": "m",
    "coverage_min": "ratio",
    "images": "count",
    "missed": "count",
    "shots": "count",
    "misses": "count",
    "manifest_samples": "count",
    "median_position_m": "m",
    "mean_position_loss": "m",
}


# --- child processes ---------------------------------------------------------

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PTZSCAN_LOG_LEVEL", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run ``argv`` to completion: (exit code, wall seconds, peak RSS in MB).

    The command runs under ``launch.py`` in a process group of its own; output
    goes to ``log``. A command that outlives CHILD_TIMEOUT_S is killed
    with its launcher and reported as failed.
    """
    launcher = [sys.executable, "-S", str(BENCH_DIR / "launch.py"), *argv]
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            launcher, cwd=cwd, env=_child_env(), stdout=subprocess.PIPE, stderr=fh,
            start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            out, _ = proc.communicate()
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
    try:
        code, wall, rss = json.loads(out)
    except ValueError:  # the launcher was killed: no report
        return proc.returncode or 1, time.perf_counter() - start, 0.0
    return code, wall, rss


def _ptzscan(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "ptzscan.cli", *argv]


def measure_setup(work: Path, samples: int) -> list[float]:
    """Fresh interpreter plus ``import ptzscan.cli``, after one untimed warm-up
    (which also compiles the byte code once)."""
    argv = [sys.executable, "-c", "import ptzscan.cli"]
    times = []
    for k in range(samples + 1):
        code, wall, _ = run_child(argv, work, work / "setup.log")
        if code != 0:
            raise RuntimeError(f"cannot import ptzscan.cli from {SRC} (see {work / 'setup.log'})")
        if k:
            times.append(wall)
    return times


# --- statistics --------------------------------------------------------------

def tail(samples: list[float]) -> float:
    """Highest percentile with at least ten samples above it.

    With ten samples or fewer no percentile qualifies; the slowest sample
    is reported instead.
    """
    s = sorted(samples)
    return s[len(s) - 11] if len(s) > 10 else s[-1]


def tail_rule(n: int) -> str:
    if n > 10:
        return f"p{100.0 * (n - 10) / n:.0f} of {n}, ten samples beyond"
    return f"slowest of {n}; under 11 samples no percentile has ten beyond"


# --- one workload ------------------------------------------------------------

class Tally:
    """Commands attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, commands: list[Command], codes: list[int], problems: list[str]) -> None:
        self.problems.extend(problems)
        for cmd, code in zip(commands, codes):
            self.attempted += 1
            mine = any(p.startswith(Path(o).name) for p in problems for o in cmd.outputs)
            if code != 0:
                self.problems.append(f"{cmd.argv[0]} exited with {code}")
            if code != 0 or mine:
                self.failed += 1


def _digests(out: Path, commands: list[Command]) -> dict[str, str]:
    digests = {}
    for cmd in commands:
        for name in cmd.outputs:
            path = out / name
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else ""
    return digests


class Run:
    """Shared state of one benchmark invocation for one workload."""

    def __init__(self, workload: Workload, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.work = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.inp = self.work / "inputs"
        self.out = self.work / "out"
        self.inputs = inputs.write_inputs(workload.name, seed, self.inp)
        self.tally = Tally()
        self.first_digests: dict[str, str] | None = None
        self.outcome: dict = {}

    def _fresh_out(self) -> list[Command]:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        return self.workload.commands(self.inp, self.out, self.seed)

    def _finish(self, commands: list[Command], codes: list[int]) -> None:
        try:
            problems, self.outcome = self.workload.check(self.out, self.seed)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            names = [Path(o).name for cmd in commands for o in cmd.outputs]
            problems, self.outcome = [f"{n}: malformed output ({exc!r})" for n in names], {}
        digests = _digests(self.out, commands)
        if self.first_digests is None:
            self.first_digests = digests
        problems += [
            f"{Path(name).name}: bytes differ from the first run of this seed"
            for name, d in digests.items()
            if d != self.first_digests.get(name)
        ]
        self.tally.record(commands, codes, problems)

    def iterate(self) -> tuple[float, float]:
        """Run the workload's commands once: (wall seconds, peak RSS MB)."""
        commands = self._fresh_out()
        wall, rss, codes = 0.0, 0.0, []
        for cmd in commands:
            code, t, peak = run_child(_ptzscan(cmd.argv), self.work, self.work / "commands.log")
            codes.append(code)
            wall += t
            rss = max(rss, peak)
        self._finish(commands, codes)
        return wall, rss

    def in_process(self, mode: str) -> dict:
        """Run every command once inside ``tracer.py`` in the given mode."""
        commands = self._fresh_out()
        spec, result = self.work / "commands.json", self.work / f"{mode}.json"
        spec.write_text(json.dumps([c.argv for c in commands]))
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), mode, str(spec), str(result)]
        run_child(argv, self.work, self.work / f"{mode}.log")
        try:
            data = json.loads(result.read_text())
        except (OSError, ValueError):
            data = {}
        codes = data.get("returncodes") or [1] * len(commands)
        self._finish(commands, codes)
        return data


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics: the commands repeat until ``seconds`` would be
    exceeded by one more iteration (at least one iteration runs)."""
    setup = measure_setup(run.work, SETUP_SAMPLES)
    walls, rss, items = [], 0.0, []
    start = time.perf_counter()
    while True:
        wall, peak = run.iterate()
        walls.append(wall)
        rss = max(rss, peak)
        items.append(run.workload.items(run.inputs, run.outcome))
        elapsed = time.perf_counter() - start
        if elapsed + max(walls) > seconds:
            break
    wall_med = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_med,
        "wall_s_tail": tail(walls),
        "items_per_s": statistics.median(items) / wall_med,
        "peak_rss_mb": rss,
    }
    return {"metrics": metrics, "samples": {"setup_s": setup, "wall_s": walls, "items": items}}


def measure_layers(run: Run) -> dict:
    """Per-layer metrics from one traced run, with the untraced reference and
    the cProfile cross-check of the same commands."""
    setup = statistics.median(measure_setup(run.work, SETUP_SAMPLES))
    wall, _ = run.iterate()
    traced = run.in_process("trace")
    profiled = run.in_process("profile")
    spans = traced.get("spans", [])
    metrics = tracer.layer_metrics(spans, traced.get("counts", {}), inputs.REAR_SECTION["name"])
    inclusive = tracer.inclusive_times(spans)
    traced_s = inclusive.get(tracer.COMMAND, 0.0)
    n_cmds = len(run.workload.commands(run.inp, run.out, run.seed))
    metrics["trace.command_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - (wall - n_cmds * setup)
    agreement = tracer.profile_agreement(spans, profiled.get("inclusive_s", {}))
    metrics["trace.profile_max_share_diff"] = max(
        (abs(p - t) for t, p, _ in agreement.values()), default=0.0
    )
    return {
        "metrics": metrics,
        "samples": {"setup_s": setup, "untraced_wall_s": wall},
        "profile_agreement": agreement,
        "inclusive_s": inclusive,
    }


# --- environment and reporting ---------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import scipy

    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_before": os.getloadavg(),
        "noise_note": (
            "on the 2-core reference box one command's wall and CPU time both spread "
            "about 25% run to run (host speed varies), so only run medians and exact "
            "counts are steady"
        ),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(
    name: str, seed: int, trace: bool, result: dict, tally: Tally, outcome: dict, units: dict
) -> None:
    print(f"== {name}  seed={seed}  trace={int(trace)}")
    samples = result["samples"]
    if not trace:
        m = result["metrics"]
        n = len(samples["wall_s"])
        notes = {
            "setup_s": f"median of {len(samples['setup_s'])}",
            "wall_s": f"median of {n}",
            "wall_s_tail": tail_rule(n),
            "items_per_s": f"= {WORKLOADS[name].item_name}",
            "peak_rss_mb": "highest child peak RSS",
        }
        for key, value in m.items():
            print(f"  {key:<24} {_fmt(value):>14} {units[key]:<6} {notes[key]}")
        print(f"  {WORKLOADS[name].item_name:<24} {_fmt(m['items_per_s']):>14} 1/s")
    else:
        for key, value in result["metrics"].items():
            print(f"  {key:<36} {_fmt(value):>14} {units[key]}")
        agreement = result["profile_agreement"]
        for fn, (t, p, rel) in sorted(agreement.items()):
            print(f"  share {fn:<34} trace {t:6.1%}  cProfile {p:6.1%}  (diff {p - t:+.1%}, rel {rel:.0%})")
        ok = all(abs(p - t) <= 0.10 for t, p, _ in agreement.values())
        print(f"  cProfile cross-check (stages >= 5% within 10 points): {'pass' if ok else 'FAIL'}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':<24} {_fmt(frac):>14} ratio  {tally.failed} of {tally.attempted} commands")
    for key, value in outcome.items():
        print(f"  {key:<24} {_fmt(value):>14} {OUTCOME_UNITS[key]}")
    for problem in tally.problems[:10]:
        print(f"  problem: {problem}")


def bench_one(name: str, seed: int, seconds: float, trace: bool, units: dict) -> tuple[dict, Tally]:
    env = environment()
    run = Run(WORKLOADS[name], seed, trace)
    result = measure_layers(run) if trace else measure(run, seconds)
    env["loadavg_after"] = os.getloadavg()
    print_report(name, seed, trace, result, run.tally, run.outcome, units)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "inputs": run.inputs,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "problems": run.tally.problems,
        "outcome": run.outcome,
        **result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(run.work, ignore_errors=True)
    return result["metrics"], run.tally


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ptzscan" / "cli.py").is_file():
        print(f"error: no ptzscan sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    units = _units()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        values, tally = bench_one(name, args.seed, args.seconds, bool(args.trace), units)
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in values.items():
            if key in units:
                metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
