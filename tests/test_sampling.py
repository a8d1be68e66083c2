"""Sampling: the numpy Sobol generator and normal quantile against
scipy's references (from the test extra), the dimension cap, and an
import of the CLI that loads no scipy."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from liftkit import InputError
from liftkit.sampling import (
    SOBOL_MAX_DIM,
    normal_quantile,
    sphere_directions,
    unit_box_points,
)

from test_cli import run_cli_process

SIZES = [1, 7, 64, 1000, 4096]


def _scipy_sobol(n, dim):
    eng = qmc.Sobol(d=dim, scramble=False)
    eng.fast_forward(1)
    return eng.random(n)


@pytest.mark.parametrize("dim", range(1, SOBOL_MAX_DIM + 1))
def test_sobol_points_equal_scipy_bitwise(dim):
    for n in SIZES:
        got = unit_box_points(n, dim)
        assert got.shape == (n, dim) and got.dtype == np.float64
        assert got.tobytes() == _scipy_sobol(n, dim).tobytes(), n


@pytest.mark.parametrize("dim", range(1, SOBOL_MAX_DIM + 1))
def test_normal_quantile_matches_ndtri(dim):
    # the first 4096 points hold every smaller size; no coordinate is
    # within 2^-30 of 0 or 1, so sphere_directions' clip to
    # [1e-12, 1 - 1e-12] leaves them as they are; its ends are added
    grid = unit_box_points(SIZES[-1], dim).ravel()
    p = np.concatenate([grid, [1e-12, 1.0 - 1e-12, 0.075, 0.925]])
    want = ndtri(p)
    assert np.all(np.abs(normal_quantile(p) - want) <= 2e-15 * np.abs(want))
    # Sobol coordinates are dyadic, so 1 - u is exact and AS241 is odd
    assert np.array_equal(normal_quantile(1.0 - grid), -normal_quantile(grid))
    assert normal_quantile(np.array([0.5]))[0] == 0.0


@pytest.mark.parametrize("call, message", [
    (lambda: unit_box_points(8, SOBOL_MAX_DIM + 1), "at most 16 dimensions"),
    (lambda: sphere_directions(8, SOBOL_MAX_DIM + 1), "at most 16 dimensions"),
    (lambda: unit_box_points(2**30, 1), "fewer than 2"),
], ids=["unit_box_points", "sphere_directions", "points"])
def test_sampling_beyond_the_caps_is_refused(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_cli_refuses_seventeen_dimensions():
    zeros = ",".join(["0"] * 17)
    proc = run_cli_process(["deriv", "--map", "identity(17)", "--point", zeros,
                            "--method", "shell_sampling"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, liftkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300, check=True)
    assert proc.stdout.strip() == "[]"
