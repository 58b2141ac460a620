"""Each demo runs to completion as its own process against ``src/``.

The demos exercise the public API the README advertises, so a deleted or
renamed name they use fails here. Files a demo writes go to a temporary
directory under ``tmp_path``, which must be empty again when the demo exits.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    scratch = tmp_path / "tmpdir"
    scratch.mkdir()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(scratch)}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
    assert not list(scratch.iterdir()), "demo left temporary files behind"
