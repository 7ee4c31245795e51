"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewpoly

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(skewpoly.__file__)))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
