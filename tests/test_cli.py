"""Command line interface: exit codes, report shape, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftkit.cli import run
from liftkit.report import validate_report


def invoke(argv):
    """Run the CLI in-process; returns (exit_code, stdout_text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def invoke_json(argv):
    code, out = invoke(list(argv) + ["--json"])
    return code, json.loads(out)


# -- core commands ---------------------------------------------------------


def test_invert_finds_exact_preimage():
    code, doc = invoke_json(
        ["invert", "--map", "shear3", "--target", "9,2", "--start", "0,0"]
    )
    assert code == 0
    assert doc["verdicts"]["invert"] == "Completed"
    assert np.allclose(doc["results"]["preimage"], [1.0, 2.0], atol=1e-8)
    assert doc["results"]["forward_residual"] < 1e-8


def test_lift_reports_failure_with_exit_one():
    code, doc = invoke_json(
        ["lift", "--map", "expmap", "--path", "seg:1,0", "--start", "0"]
    )
    assert code == 1
    assert doc["verdicts"]["lift"].startswith("Failed")
    assert doc["results"]["b"] >= 0.999
    assert doc["results"]["final_point"][0] <= -5.0


def test_lift_success_matches_explicit_inverse(tmp_path):
    out = str(tmp_path / "run")
    code, doc = invoke_json(
        [
            "lift",
            "--map",
            "shear3",
            "--path",
            "seg:0,0,9,2",
            "--start",
            "0,0",
            "--out",
            out,
        ]
    )
    assert code == 0
    assert doc["verdicts"]["lift"] == "Completed"
    # explicit inverse of (x + y^3, y) at (9, 2) is (1, 2)
    assert np.allclose(doc["results"]["final_point"], [1.0, 2.0], atol=1e-8)
    assert "lift_trace.csv" in doc["artifacts"]
    assert os.path.exists(os.path.join(out, "lift_trace.csv"))
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        assert validate_report(json.load(fh))


def test_deriv_svd_matches_analytic_extremes():
    code, doc = invoke_json(["deriv", "--map", "shear3", "--point", "1,2"])
    assert code == 0
    got = doc["results"]["jacobian_svd"]
    jac = np.array([[1.0, 12.0], [0.0, 1.0]])
    s = np.linalg.svd(jac, compute_uv=False)
    assert got["d_plus"] == pytest.approx(s[0], rel=1e-9)
    assert got["d_minus"] == pytest.approx(s[-1], rel=1e-9)
    assert "shell_sampling" in doc["results"]


def test_deriv_single_method_only():
    code, doc = invoke_json(
        ["deriv", "--map", "shear3", "--point", "0,0", "--method", "jacobian_svd"]
    )
    assert code == 0
    assert "jacobian_svd" in doc["results"]
    assert "shell_sampling" not in doc["results"]


def test_length_of_flat_segment():
    code, doc = invoke_json(["length", "--path", "seg:0,0,1,1", "--dim", "2"])
    assert code == 0
    assert doc["results"]["length"] == pytest.approx(np.sqrt(2.0))
    assert doc["results"]["converged"] is True


def test_length_of_mapped_path_exceeds_flat():
    code, doc = invoke_json(
        ["length", "--path", "seg:0,0,1,1", "--map", "shear3"]
    )
    assert code == 0
    assert doc["results"]["mapped_length"] > np.sqrt(2.0)
    assert doc["results"]["mapped_converged"] is True


def test_meanvalue_passes_on_smooth_pair():
    code, doc = invoke_json(
        ["meanvalue", "--map", "shear3", "--path", "seg:0,0,1,1"]
    )
    assert code == 0
    assert doc["verdicts"]["lower"] == "passed"
    assert doc["verdicts"]["upper"] == "passed"


def test_hadamard_classifies_decaying_profile():
    code, doc = invoke_json(["hadamard", "--map", "expmap", "--center", "0"])
    assert code == 0
    assert doc["verdicts"]["classification"] == "convergent"


def test_sheets_counts_cube_roots():
    code, doc = invoke_json(
        ["sheets", "--map", "powk(3)", "--target", "1,0", "--start", "1,0"]
    )
    assert code == 0
    assert doc["results"]["sheets"] == 3
    assert doc["results"]["monodromy"]["kind"] == "cyclic"


def test_sheets_translation_monodromy():
    code, doc = invoke_json(
        ["sheets", "--map", "polar_exp", "--target", "1,0", "--start", "0,0"]
    )
    assert code == 0
    assert doc["verdicts"]["orbit"] == "open"
    assert doc["results"]["sheets"] is None
    vec = doc["results"]["monodromy"]["vector"]
    assert np.allclose(vec, [0.0, 2.0 * np.pi], atol=1e-6)


def test_fiber_enumerates_square_roots(tmp_path):
    out = str(tmp_path / "fib")
    code, doc = invoke_json(
        ["fiber", "--map", "powk(2)", "--target", "1,0", "--out", out]
    )
    assert code == 0
    assert doc["results"]["count"] == 2
    assert os.path.exists(os.path.join(out, "fiber.csv"))


# built-ins and their expression forms
FIBER_FORMS = {
    "polar_exp": "(exp(x)*cos(y), exp(x)*sin(y))",
    "powk(3)": "(x^3 - 3*x*y^2, 3*x^2*y - y^3)",
    "shear3": "(x + y^3, y)",
}


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(FIBER_FORMS)),
    radius=st.floats(0.2, 6.0),  # inside the powk(3) image annulus
    angle=st.floats(-3.14, 3.14),
)
def test_fiber_forms_agree(name, radius, angle):
    target = "--target=%r,%r" % (radius * math.cos(angle), radius * math.sin(angle))
    outcomes = []
    for spec in (name, FIBER_FORMS[name]):
        code, doc = invoke_json(["fiber", "--map", spec, target])
        outcomes.append((code, doc["results"]["count"]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0


@pytest.mark.parametrize("spec", ["polar_exp", FIBER_FORMS["polar_exp"]])
def test_polar_exp_fiber_exits_cleanly(spec):
    # Newton trials far out overflow exp(); they must count as faults,
    # with no traceback and no numpy warning
    proc = run_cli_process(["fiber", "--map", spec, "--target", "1,0.5", "--json"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["results"]["count"] == 9


def test_implicit_eval_mode():
    code, doc = invoke_json(
        [
            "implicit",
            "--map",
            "cubic_implicit",
            "--x-dim",
            "1",
            "--w",
            "0",
            "--x-target",
            "2",
            "--start-x",
            "0",
            "--start-y",
            "0",
        ]
    )
    assert code == 0
    assert doc["results"]["y_end"][0] == pytest.approx(1.0, abs=1e-8)
    assert doc["results"]["max_residual"] <= 1e-8


def test_implicit_branch_probe():
    code, doc = invoke_json(
        [
            "implicit",
            "--map",
            "(y^2 - x)",
            "--x-dim",
            "1",
            "--w",
            "0",
            "--branches",
            "--x-box=1:1",
            "--y-box=-2:2",
        ]
    )
    assert code == 0
    assert doc["results"]["groups"] == 2


def test_implicit_from_registry_with_weight(registry_file):
    code, doc = invoke_json(
        [
            "implicit",
            "--problem",
            "cubic",
            "--registry",
            registry_file,
            "--x-path",
            "seg:0,1",
            "--y0",
            "0",
            "--weight",
            "affine:1,1",
        ]
    )
    assert code == 0
    assert doc["results"]["verdict"] == "Completed"
    assert doc["results"]["weight_check"] == "holds"
    assert doc["results"]["monitor_ok"] is True


# -- registry subcommand ---------------------------------------------------


def test_registry_list(registry_file):
    code, doc = invoke_json(["registry", "list", "--registry", registry_file])
    assert code == 0
    assert doc["results"]["maps"] == ["hump"]
    assert doc["results"]["implicits"] == ["cubic"]


def test_registry_validate_clean(registry_file):
    code, doc = invoke_json(
        ["registry", "validate", "--registry", registry_file]
    )
    assert code == 0


def test_registry_validate_broken_exits_two(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(
        "[map m]\ndim_in = 2\ndim_out = 2\ncomponents = x + y\n",
        encoding="utf-8",
    )
    code, _ = invoke(["registry", "validate", "--registry", str(bad), "--json"])
    assert code == 2


# -- error handling --------------------------------------------------------


def test_unknown_map_is_input_error(capsys):
    code, _ = invoke(["deriv", "--map", "nosuchmap", "--point", "0,0"])
    assert code == 2
    assert "unknown map" in capsys.readouterr().err


def test_missing_required_flag_exits_two():
    with contextlib.redirect_stderr(io.StringIO()):
        code, _ = invoke(["deriv", "--point", "0,0"])
    assert code == 2


def test_unknown_subcommand_exits_two():
    with contextlib.redirect_stderr(io.StringIO()):
        code, _ = invoke(["frobnicate"])
    assert code == 2


def test_dimension_mismatch_exits_two(capsys):
    code, _ = invoke(
        ["lift", "--map", "shear3", "--path", "seg:1,0", "--start", "0,0"]
    )
    assert code == 2


@pytest.mark.parametrize("spec", ["expmap", "exp(x)"])
def test_overflowing_profile_exits_two_in_both_forms(spec, capsys):
    with np.errstate(over="ignore"):
        code, out = invoke(["hadamard", "--map", spec, "--center", "8", "--json"])
    assert code == 2
    assert out == ""
    assert "error:" in capsys.readouterr().err


def run_cli_process(argv, *python_flags):
    """Run the CLI in a fresh interpreter; returns the CompletedProcess."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *python_flags, "-c",
         "import sys; from liftkit.cli import run; sys.exit(run(sys.argv[1:]))"]
        + argv,
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_overflowing_profile_fails_under_optimize_flag():
    # invariant checks must not be asserts: -O strips those
    argv = ["hadamard", "--map", "expmap", "--center", "8", "--json"]
    proc = run_cli_process(argv, "-O")
    assert proc.returncode != 0
    assert "NaN" not in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["hadamard", "--map", "expmap", "--center", "8"],  # batched Jacobians
        ["deriv", "--map", "expmap", "--point", "709.5",
         "--method", "shell_sampling"],  # batched evaluation
    ],
    ids=["hadamard", "deriv"],
)
def test_overflow_prints_only_the_error_line(argv):
    proc = run_cli_process(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


@pytest.mark.parametrize("method", ["both", "shell_sampling", "jacobian_svd"])
def test_deriv_on_three_dimensional_identity(method):
    code, out = invoke(
        ["deriv", "--map", "identity(3)", "--point", "0,0,0", "--method", method,
         "--surjection", "--json"]
    )
    assert code == 0
    assert "NaN" not in out
    res = json.loads(out)["results"]
    for key in ("jacobian_svd", "shell_sampling"):
        if method in ("both", key):
            assert res[key]["d_minus"] == pytest.approx(1.0, rel=1e-9)
            assert res[key]["d_plus"] == pytest.approx(1.0, rel=1e-9)
    assert res["surjection"]["value"] == pytest.approx(1.0, rel=1e-9)


# -- output contract -------------------------------------------------------


def test_human_output_has_summary_lines():
    code, out = invoke(
        ["invert", "--map", "shear3", "--target", "9,2", "--start", "0,0"]
    )
    assert code == 0
    assert out.startswith("command: invert")
    assert "invert: Completed" in out


def test_identical_runs_are_byte_identical(tmp_path):
    argv = ["hadamard", "--map", "expmap", "--center", "0", "--json"]
    _, first = invoke(list(argv))
    _, second = invoke(list(argv))
    assert first == second

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = ["lift", "--map", "shear3", "--path", "seg:0,0,3,1", "--start", "0,0"]
    invoke(base + ["--out", str(out_a)])
    invoke(base + ["--out", str(out_b)])
    for name in ("report.json", "lift_trace.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_every_report_validates_against_schema():
    for argv in (
        ["deriv", "--map", "expmap", "--point", "0"],
        ["length", "--path", "seg:0,1", "--dim", "1"],
        ["fiber", "--map", "powk(2)", "--target", "1,0"],
    ):
        code, doc = invoke_json(argv)
        assert code == 0
        assert validate_report(doc)
