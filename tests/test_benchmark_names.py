"""The benchmark tracer wraps package functions by name; keep those names."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import skewpoly

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_entry_points_resolve_and_run():
    tracer = _load_tracer()
    for _, modname, attr, *_ in tracer.ENTRY_POINTS + tracer.COUNTED:
        _, _, fn = tracer._resolve(modname, attr)
        assert callable(fn), (modname, attr)
    # the wrappers forward keywords such as cache= and jet_spec= by name, so
    # a traced verify run catches a renamed parameter too
    script = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('t', {str(TRACER)!r})\n"
        "t = importlib.util.module_from_spec(spec); spec.loader.exec_module(t)\n"
        "t.Tracer().install()\n"
        "from skewpoly import cli\n"
        "sys.exit(cli.main(['verify', '--kind', 'none', '--seed', '3',\n"
        "                   '--n-max', '1', '--m-max', '0']))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(skewpoly.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
