"""Every demo script runs to completion against the package under test."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zoneldp

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    # the child imports the same package as this process
    package_root = str(Path(zoneldp.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = package_root + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 0, proc.stderr
