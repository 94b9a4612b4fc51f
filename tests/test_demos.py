"""The demo scripts run to completion (each in a fresh interpreter)."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,expected",
    [
        ("propagating_bump.py", "cone-exterior leak"),
        ("causal_pairing.py", "right-inverse reconstruction defect"),
    ],
)
def test_demo_runs(tmp_path, script, expected):
    # run a copy, so anything the demo writes next to itself lands in tmp_path
    shutil.copy(ROOT / "demos" / script, tmp_path / script)
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, script],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout and "FAILED" not in proc.stdout
