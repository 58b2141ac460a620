"""Per-layer spans for ptzscan CLI commands, recorded from outside the program.

Run as a child process by ``run.py``::

    python3 ptzbench/tracer.py trace|profile COMMANDS.json OUT.json

``COMMANDS.json`` holds a list of argv lists for ``ptzscan.cli.main``. In
``trace`` mode the public functions listed in ``WRAPPED`` are replaced, in
the module that calls them, by wrappers that record a span (name, tag,
start, end, parent) and a few exact counts; the spans stay in memory and
are written once when every command has run. In ``profile`` mode the same
commands run under cProfile with no wrappers, and the inclusive time of
each wrapped function is written instead, for the cross-check.

Nothing in ``src/`` knows about this module. The aggregation functions at
the bottom need no ptzscan import and are shared with ``run.py``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# Calling module -> names it imported and calls. A function reached under
# several names (e.g. ``grid_to_pantilt`` from the CLI and from the
# simulator) gets one wrapper and one span name, ``<home module>.<name>``.
WRAPPED = {
    "ptzscan.cli": (
        "load_point_cloud",
        "section_points",
        "interpolate_section",
        "grid_to_pantilt",
        "plan_full",
        "execute_plan",
        "error_propagation",
        "evaluate",
        "combined_loss",
        "generate_manifest",
        "read_sample_batch",
        "load_external_predictions",
        "write_grid_csv",
        "write_plan_json",
        "write_report_json",
        "write_report_csv",
        "write_propagation_json",
        "write_manifest_json",
        "write_stats_report",
    ),
    "ptzscan.simulator": (
        "grid_to_pantilt",
        "plan_full",
        "execute_plan",
        "footprint",
        "cast_to_surface",
        "intersect_cylinder",
        "noisy_oracle",
    ),
    "ptzscan.losses": ("intersect_cylinder",),
    "ptzscan.formats": ("read_sample_batch",),
}

COMMAND = "command"


# Span name -> counts taken from the call's (args, result).
COUNTERS = {
    "surface.load_point_cloud": lambda a, r: {"surface.points_loaded": len(r)},
    "surface.section_points": lambda a, r: {"surface.points_kept": len(r)},
    "surface.interpolate_section": lambda a, r: {"surface.valid_cells": int(r.valid.sum())},
    "planner.plan_full": lambda a, r: {"planner.shots": len(r)},
    "losses.combined_loss": lambda a, r: {"losses.icsc_skipped": int(r.l_c is None)},
    "randomizer.generate_manifest": lambda a, r: {"randomizer.samples": len(r.samples)},
    "formats.read_sample_batch": lambda a, r: {"formats.records_read": len(r)},
}
WRITERS = {name for names in WRAPPED.values() for name in names if name.startswith("write_")}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def wrapped_functions() -> dict[str, object]:
    """Span name -> the original function, for every wrapped target."""
    out = {}
    for module_name, names in WRAPPED.items():
        module = importlib.import_module(module_name)
        for name in names:
            fn = getattr(module, name)
            out[span_name(fn)] = fn
    return out


class Tracer:
    """In-memory span and count recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, tag, start_ns, end_ns, parent]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def run(self, name: str, tag, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, tag, time.perf_counter_ns(), 0, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.counts[f"{name}.raised"] += 1
            raise
        finally:
            span[3] = time.perf_counter_ns()
            self._stack.pop()
        self.counts[f"{name}.calls"] += 1
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, n in counter(args, result).items():
                self.counts[key] += n
        if fn.__name__ in WRITERS:
            self.counts["formats.bytes_written"] += os.path.getsize(args[0])
        return result

    def wrap(self, fn):
        name = span_name(fn)
        tagged = name == "surface.interpolate_section"

        def wrapper(*args, **kwargs):
            tag = args[1].name if tagged else None
            return self.run(name, tag, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(fn)
                setattr(module, name, wrappers[id(fn)])


def trace_commands(commands: list[list[str]]) -> dict:
    from ptzscan import cli

    tracer = Tracer()
    tracer.install()
    codes = [tracer.run(COMMAND, argv[0], cli.main, (argv,), {}) for argv in commands]
    return {"returncodes": codes, "spans": tracer.spans, "counts": dict(tracer.counts)}


def profile_commands(commands: list[list[str]]) -> dict:
    import cProfile
    import pstats

    from ptzscan import cli

    profiler = cProfile.Profile(builtins=False)
    codes = [profiler.runcall(cli.main, argv) for argv in commands]
    stats = pstats.Stats(profiler).stats
    functions = wrapped_functions()
    functions[COMMAND] = cli.main
    inclusive = {}
    for name, fn in functions.items():
        code = fn.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        inclusive[name] = entry[3] if entry else 0.0
    return {"returncodes": codes, "inclusive_s": inclusive}


# --- aggregation (no ptzscan import) ----------------------------------------

def self_times(spans) -> list[float]:
    """Seconds each span spent outside its child spans."""
    own = [(end - start) / 1e9 for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= (end - start) / 1e9
    return own


def inclusive_times(spans) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for name, _, start, end, _ in spans:
        out[name] += (end - start) / 1e9
    return dict(out)


def layer_metrics(spans, counts: dict, lattice_section: str) -> dict[str, float]:
    """Per-layer self times and counts from one traced run."""
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    for (name, tag, *_), t in zip(spans, own):
        if name == "surface.interpolate_section":
            name = "surface.interpolate_lattice" if tag == lattice_section else "surface.interpolate_scattered"
        elif name.startswith("formats.write_"):
            name = "formats.write"
        elif name in ("formats.read_sample_batch", "formats.load_external_predictions"):
            name = "formats.read_batch"
        by_name[name] += t

    def c(key: str) -> int:
        return int(counts.get(key, 0))

    casts = c("simulator.cast_to_surface.calls") + c("simulator.cast_to_surface.raised")
    misses = c("simulator.cast_to_surface.raised")
    cast_s = by_name["simulator.cast_to_surface"]
    return {
        "surface.load_point_cloud_s": by_name["surface.load_point_cloud"],
        "surface.points_loaded": c("surface.points_loaded"),
        "surface.section_points_s": by_name["surface.section_points"],
        "surface.points_kept": c("surface.points_kept"),
        "surface.interpolate_lattice_s": by_name["surface.interpolate_lattice"],
        "surface.interpolate_scattered_s": by_name["surface.interpolate_scattered"],
        "surface.valid_cells": c("surface.valid_cells"),
        "simulator.cast_s": cast_s,
        "simulator.casts": casts,
        "simulator.cast_us_per_call": 1e6 * cast_s / casts if casts else 0.0,
        "simulator.misses": misses,
        "simulator.miss_frac": misses / casts if casts else 0.0,
        "simulator.footprint_s": by_name["simulator.footprint"],
        "simulator.footprints": c("simulator.footprint.calls"),
        "simulator.execute_plan_self_s": by_name["simulator.execute_plan"],
        "simulator.error_propagation_self_s": by_name["simulator.error_propagation"],
        "pantilt.grid_to_pantilt_s": by_name["pantilt.grid_to_pantilt"],
        "pantilt.grid_to_pantilt_calls": c("pantilt.grid_to_pantilt.calls"),
        "planner.plan_full_s": by_name["planner.plan_full"],
        "planner.shots": c("planner.shots"),
        "evaluation.noisy_oracle_s": by_name["evaluation.noisy_oracle"],
        "evaluation.evaluate_s": by_name["evaluation.evaluate"],
        "losses.combined_loss_s": by_name["losses.combined_loss"],
        "losses.combined_loss_calls": c("losses.combined_loss.calls"),
        "losses.icsc_skipped": c("losses.icsc_skipped"),
        "geometry.intersect_cylinder_s": by_name["geometry.intersect_cylinder"],
        "geometry.intersect_cylinder_calls": c("geometry.intersect_cylinder.calls")
        + c("geometry.intersect_cylinder.raised"),
        "randomizer.generate_manifest_s": by_name["randomizer.generate_manifest"],
        "randomizer.samples": c("randomizer.samples"),
        "formats.read_batch_s": by_name["formats.read_batch"],
        "formats.records_read": c("formats.records_read"),
        "formats.write_s": by_name["formats.write"],
        "formats.bytes_written": c("formats.bytes_written"),
        "trace.uncovered_s": by_name[COMMAND],
    }


def profile_agreement(spans, profile_inclusive: dict, min_share: float = 0.05):
    """Compare each function's share of command time, traced vs cProfile.

    Returns ``{name: (trace_share, profile_share, relative_difference)}`` for
    every function whose traced share is at least ``min_share``.
    """
    traced = inclusive_times(spans)
    t_total = traced.get(COMMAND, 0.0)
    p_total = profile_inclusive.get(COMMAND, 0.0)
    out = {}
    if t_total <= 0.0 or p_total <= 0.0:
        return out
    for name, t in traced.items():
        if name == COMMAND or t / t_total < min_share:
            continue
        ts = t / t_total
        ps = profile_inclusive.get(name, 0.0) / p_total
        out[name] = (ts, ps, abs(ps - ts) / ts)
    return out


def main(argv: list[str]) -> int:
    mode, commands_path, out_path = argv
    commands = json.loads(Path(commands_path).read_text())
    if mode == "trace":
        result = trace_commands(commands)
    elif mode == "profile":
        result = profile_commands(commands)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    Path(out_path).write_text(json.dumps(result))
    return 0 if all(code == 0 for code in result["returncodes"]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
