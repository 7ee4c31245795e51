"""Every demo script runs to completion, and the README lists the public names."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import skewpoly

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(skewpoly.__file__)))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_readme_public_names_are_all():
    """The README's "Public names" paragraph lists ``skewpoly.__all__``, in order."""
    text = (ROOT / "README.md").read_text()
    para = text[text.index("Public names"):].split("\n\n")[0]
    assert re.findall(r"`(\w+)`", para.split(":", 1)[1]) == skewpoly.__all__
