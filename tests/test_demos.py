"""Every demo script runs to completion without writing to stderr."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(
    name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py")
)


def test_demo_directory_is_not_empty():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
