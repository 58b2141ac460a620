"""The benchmark's tracer still finds, and can wrap, every function it traces.

``ptzbench/tracer.py`` replaces named functions in the modules that call
them. A source change that renames, moves or stops calling one of them,
or that inspects one of them at run time, would break
``ptzbench/run.py --trace 1``; these tests catch it first.
"""

import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli_golden import GOLDEN, commands, write_inputs

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "ptzbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("ptzbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_resolve():
    tracer = _load_tracer()
    functions = tracer.wrapped_functions()
    assert all(callable(fn) for fn in functions.values())
    assert set(tracer.COUNTERS) <= set(functions)


def test_wrapped_names_are_called_where_wrapped():
    tracer = _load_tracer()
    for module_name, names in tracer.WRAPPED.items():
        source = inspect.getsource(importlib.import_module(module_name))
        for name in names:
            assert f"{name}(" in source.replace(f"def {name}(", ""), (module_name, name)


def test_traced_commands_write_golden_bytes(tmp_path):
    inp, out = tmp_path / "inputs", tmp_path / "outputs"
    write_inputs(inp)
    out.mkdir()
    spec, result = tmp_path / "commands.json", tmp_path / "trace.json"
    argvs = [argv for _, argv in commands(inp, out)]
    spec.write_text(json.dumps(argvs))
    proc = subprocess.run(
        [sys.executable, str(TRACER_PATH), "trace", str(spec), str(result)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["returncodes"] == [0] * len(argvs)
    digests = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.rglob("*")
        if p.is_file()
    }
    assert digests == GOLDEN["sha256"]
