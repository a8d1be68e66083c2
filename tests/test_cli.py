"""Command line interface: exit codes, report shape, determinism."""

import contextlib
import io
import json
import math
import os
import re
import shlex
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


@pytest.mark.parametrize(
    "argv",
    [["lift", "--path", "seg:1,0"], ["invert", "--target", "0"]],
    ids=["lift", "invert"],
)
def test_failure_reports_name_their_cause(argv):
    # toward 0 at a tolerance under e^x's rounding the corrector stalls
    causes = set()
    for spec in ("expmap", "exp(x)"):
        code, doc = invoke_json(argv + ["--map", spec, "--start", "0", "--tol", "1e-20"])
        assert code == 1
        assert doc["verdicts"][argv[0]] == "FailedStall"
        causes.add(doc["verdicts"]["cause"])
    (cause,) = causes
    assert cause.startswith("NonConvergenceError: newton line search stalled")


@pytest.mark.parametrize("spec", ["expmap", "exp(x)"])
def test_readme_lift_names_the_crossed_threshold(spec):
    # the README's example ends on an accepted node whose smallest
    # singular value is under singular_threshold
    argv = ["lift", "--map", spec, "--path", "seg:1,0", "--start", "0", "--json"]
    code, out = invoke(argv)
    assert code == 1
    assert invoke(argv) == (code, out)
    doc = json.loads(out)
    assert doc["verdicts"]["lift"] == "FailedSingular"
    smin, threshold = re.fullmatch(
        r"smin (\S+) < singular_threshold (\S+)", doc["verdicts"]["cause"]
    ).groups()
    assert float(smin) < float(threshold) == 1e-10


@pytest.mark.parametrize("spec", ["expmap", "exp(x)"])
def test_lift_from_a_subnormal_jacobian_gives_a_verdict(spec):
    # e^-745 is the smallest subnormal, so the first predictor step
    # overflows to inf; the step starts its corrector at x0 instead
    argv = ["lift", "--map", spec, "--path", "seg:0,1", "--start=-745"]
    code, doc = invoke_json(argv)
    assert code == 1
    assert doc["verdicts"]["lift"] == "FailedSingular"
    assert doc["verdicts"]["cause"].startswith("smin 4.94e-324 < singular_threshold")


@pytest.mark.parametrize(
    "argv",
    [
        ["--map", "(x*x - y*y, 2*x*y)", "--path", "seg:0,0,1000,0", "--start", "0,0"],
        ["--map", "x^3", "--path", "seg:0,1000", "--start", "0"],
    ],
    ids=["square", "cube"],
)
def test_a_lift_that_fails_at_its_first_step_keeps_its_verdict(argv):
    # from a critical point the first step fails, so the trace holds the
    # start alone; its report still carries the verdict
    code, doc = invoke_json(["lift", *argv])
    assert code == 1
    assert validate_report(doc)
    assert doc["verdicts"]["lift"] == "FailedSingular"
    assert doc["results"]["nodes"] == 1
    assert 0.0 < doc["results"]["b"] < 1e-11
    assert doc["results"]["alpha_hat"] == 0.0


def test_sheets_report_records_its_loop():
    argv = ["sheets", "--map", "powk(3)", "--target", "1,0", "--start", "1,0"]
    _, doc = invoke_json(argv)
    assert doc["inputs"]["loop"] is None
    _, doc = invoke_json(argv + ["--loop", "loop:0,0,1"])
    assert doc["inputs"]["loop"] == "loop:0,0,1"
    assert doc["results"]["sheets"] == 3


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


def test_meanvalue_lower_is_not_applicable_on_a_closed_loop():
    code, doc = invoke_json(
        ["meanvalue", "--map", "shear3", "--path", "loop:0,0,1", "--direction", "lower"]
    )
    assert code == 0
    assert doc["verdicts"]["lower"] == "not applicable"
    assert doc["results"]["lower"]["error"] == (
        "lower certificate needs distinct path endpoints"
    )


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


def test_sheets_refuses_an_empty_orbit(capsys):
    code, out = invoke(["sheets", "--map", "powk(3)", "--target", "1,0", "--start", "1,0",
                        "--max-orbit", "0"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: max_orbit must be at least 1, got 0\n"


def test_a_vector_starting_with_a_minus_is_a_value():
    joined = invoke(["deriv", "--map", "shear3", "--point=-1.55,1.69", "--json"])
    assert joined[0] == 0
    assert invoke(["deriv", "--map", "shear3", "--point", "-1.55,1.69", "--json"]) == joined


@pytest.mark.parametrize(
    "path",
    ["poly:0,0;1", "poly:", "expr:(t,t):a:1", "loop:0,0,1,1.5", "loop:0,0,1,inf",
     "loop:nan,0,1", "loop:0,0,inf", "loop:0,0,1,1,nan"],
)
def test_a_malformed_path_spec_is_one_error_line(path, capsys):
    # bad input: exit 2 and one error line, never a traceback or a NaN report
    code, out = invoke(["length", "--dim", "2", "--path", path])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_implicit_fold_exits_one_singular():
    argv = ["implicit", "--map", "y^3 - y - x", "--x-dim", "1", "--w", "0",
            "--x-target=-0.3849001794597505", "--start-x", "0", "--start-y", "1",
            "--json"]
    code, first = invoke(list(argv))
    assert code == 1
    assert json.loads(first)["verdicts"]["continuation"] == "FailedSingular"
    assert "NaN" not in first
    assert invoke(list(argv)) == (code, first)


POLAR_EXP_FORM = "(exp(x)*cos(y), exp(x)*sin(y))"

# each subcommand, on a built-in map and on its expression form
REPORT_CASES = {
    "invert": (["invert", "--target", "9,2", "--start", "0,0"], "shear3", "(x + y^3, y)"),
    "lift": (["lift", "--path", "seg:1,0", "--start", "0"], "expmap", "exp(x)"),
    "hadamard": (
        ["hadamard", "--center", "0,0", "--weight", "affine:1,1"],
        "polar_exp", POLAR_EXP_FORM,
    ),
    "fiber": (["fiber", "--target", "1,0.5"], "polar_exp", POLAR_EXP_FORM),
    "sheets": (["sheets", "--target", "1,0", "--start", "0,0"], "polar_exp", POLAR_EXP_FORM),
    "deriv": (
        ["deriv", "--point", "1,1", "--method", "both", "--surjection"],
        "shear3", "(x + y^3, y)",
    ),
    "implicit": (
        ["implicit", "--x-dim", "1", "--w", "0", "--x-target", "2",
         "--start-x", "0", "--start-y", "0"],
        "cubic_implicit", "y^3 + y - x",
    ),
    "implicit --branches": (
        ["implicit", "--x-dim", "1", "--w", "0", "--branches", "--x-box=1:1",
         "--y-box=-2:2"],
        "cubic_implicit", "y^3 + y - x",
    ),
}


def _refuse_non_finite(token):
    raise ValueError("report holds %s" % token)


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_reports_hold_no_nan_in_either_map_form(case):
    argv, *forms = REPORT_CASES[case]
    outcomes = []
    for spec in forms:
        code, out = invoke(argv + ["--map", spec, "--json"])
        assert code in (0, 1), (spec, out)
        doc = json.loads(out, parse_constant=_refuse_non_finite)
        outcomes.append((code, doc["verdicts"]))
    assert outcomes[0] == outcomes[1]


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


# the subcommands that read --tol
_TOL_COMMANDS = {
    "invert": ["invert", "--map", "shear3", "--target", "1,1", "--start", "0,0"],
    "lift": ["lift", "--map", "shear3", "--path", "seg:0,0,9,2", "--start", "0,0"],
    "fiber": ["fiber", "--map", "powk(3)", "--target", "1,0", "--n-starts", "8"],
    "implicit": ["implicit", "--map", "cubic_implicit", "--x-dim", "1", "--w", "0",
                 "--x-target", "2", "--start-x", "0", "--start-y", "0"],
}
# and those that refuse it, having no tolerance it could set (sheets
# lifts its loop at the default corrector_tol)
_NO_TOL_COMMANDS = {
    "sheets": ["sheets", "--map", "powk(3)", "--target", "1,0", "--start", "1,0"],
    "deriv": ["deriv", "--map", "shear3", "--point", "0,0"],
    "length": ["length", "--dim", "2", "--path", "seg:0,0,1,1"],
    "meanvalue": ["meanvalue", "--map", "shear3", "--path", "seg:0,0,1,1"],
    "hadamard": ["hadamard", "--weight", "constant:1"],
    "registry": ["registry", "list"],
}


@pytest.mark.parametrize("tol", ["nan", "0", "inf", "-1e-9", "1e-400", "tight"])
@pytest.mark.parametrize("command", sorted({**_TOL_COMMANDS, **_NO_TOL_COMMANDS}))
def test_a_bad_tol_is_an_input_error(command, tol, capsys):
    argv = {**_TOL_COMMANDS, **_NO_TOL_COMMANDS}[command]
    code, out = invoke(argv + ["--tol=" + tol, "--json"])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    if command in _TOL_COMMANDS:
        assert "--tol must be a finite positive number" in err
    else:
        assert "unrecognized arguments: --tol=" + tol in err


@pytest.mark.parametrize(
    "command, key",
    [
        ("invert", "corrector_tol"),
        ("lift", "corrector_tol"),
        ("fiber", "residual_tol"),
        ("implicit", "residual_tol"),
    ],
)
def test_tol_reaches_the_report(command, key):
    code, default = invoke_json(_TOL_COMMANDS[command])
    assert code == 0
    code, doc = invoke_json(_TOL_COMMANDS[command] + ["--tol", "1e-9"])
    assert code == 0
    assert doc["tolerances"][key] == 1e-9
    assert default["tolerances"][key] != 1e-9


_CAUSE_REGISTRY = """
[map fold_cubic]
dim_in = 2
dim_out = 1
components = y^3 - y - x

[map annulus_cube]
dim_in = 2
dim_out = 2
components = x^3 - 3*x*y^2 ; 3*x^2*y - y^3
domain = min(x*x + y*y - 0.25, 4.0 - x*x - y*y)
"""


@pytest.mark.parametrize(
    "argv, key, kind, cause",
    [
        # the branch through y = 0 folds at x = -2 / (3 * sqrt(3))
        (["implicit", "--x-dim", "1", "--w", "0", "--x-target", "-0.5",
          "--start-x", "0", "--start-y", "0"],
         "continuation", "FailedSingular", "y-block smin "),
        # the loop runs into the annulus' inner circle
        (["sheets", "--target", "1,0", "--start", "1,0", "--loop", "loop:0.5,0,0.5"],
         "lift", "FailedDomainExit", "newton direction leaves the domain"),
    ],
    ids=["implicit", "sheets"],
)
def test_failed_continuations_report_their_cause(argv, key, kind, cause, tmp_path):
    registry = tmp_path / "registry.ini"
    registry.write_text(_CAUSE_REGISTRY, encoding="utf-8")
    specs = (
        ["y^3 - y - x", "fold_cubic"] if key == "continuation" else ["powk(3)", "annulus_cube"]
    )
    for spec in specs:
        argv_map = argv + ["--map", spec, "--registry", str(registry)]
        code, doc = invoke_json(argv_map)
        assert code == 1
        assert doc["verdicts"][key] == kind
        assert doc["verdicts"]["cause"].startswith(cause)
        if key == "continuation":
            assert doc["verdicts"]["cause"].endswith("< singular_threshold 1e-06")
        else:
            assert doc["verdicts"]["orbit"] == "aborted"
            assert doc["verdicts"]["note"].startswith("engine-conservative")


@pytest.mark.parametrize("spec", ["expmap", "exp(x)"])
def test_overflowing_profile_exits_two_in_both_forms(spec, capsys):
    # the center is a sample of every ball, so a fault there is bad input
    code, out = invoke(["hadamard", "--map", spec, "--center", "800", "--json"])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err == "error: the Jacobian of %s faults at the center\n" % spec


def test_overflowing_profile_exits_zero_with_equal_results_in_both_forms():
    # samples past exp's overflow are dropped; exp(8 - 900) underflows to
    # 0, so the profile is not regular and its class is inconclusive
    docs = []
    for spec in ("expmap", "exp(x)"):
        code, out = invoke(["hadamard", "--map", spec, "--center", "8", "--json"])
        assert code == 0
        assert "NaN" not in out
        docs.append(json.loads(out))
    assert docs[0]["results"] == docs[1]["results"]
    assert docs[0]["results"]["classification"]["class"] == "inconclusive"
    assert docs[0]["results"]["profile"]["regular"] is False


@pytest.mark.parametrize("spec", ["powk(3)", "annulus_cube"])
def test_overflowing_start_is_outside_the_domain_in_both_forms(spec, tmp_path, capsys):
    registry = tmp_path / "registry.ini"
    registry.write_text(
        "[map annulus_cube]\ndim_in = 2\ndim_out = 2\n"
        "components = x^3 - 3*x*y^2 ; 3*x^2*y - y^3\n"
        "domain = min(x*x + y*y - 0.25, 4.0 - x*x - y*y)\n",
        encoding="utf-8",
    )
    argv = ["invert", "--map", spec, "--target", "1,0", "--start", "1e200,0",
            "--registry", str(registry)]
    code, _ = invoke(argv)
    assert code == 2
    assert "outside" in capsys.readouterr().err


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
    argv = ["hadamard", "--map", "expmap", "--center", "800", "--json"]
    proc = run_cli_process(argv, "-O")
    assert proc.returncode != 0
    assert "NaN" not in proc.stdout


@pytest.mark.parametrize("spec", ["expmap", "exp(x)"])
def test_profile_with_dropped_samples_is_the_same_under_optimize_flag(spec):
    argv = ["hadamard", "--map", spec, "--center", "8", "--json"]
    plain, optimized = run_cli_process(argv), run_cli_process(argv, "-O")
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout
    assert "NaN" not in optimized.stdout


@pytest.mark.parametrize(
    "argv, code",
    [
        # batched Jacobians: the profile's center, a faulting path node
        (["hadamard", "--map", "expmap", "--center", "800"], 2),
        (["meanvalue", "--map", "expmap", "--path", "seg:700,720"], 2),
        (["meanvalue", "--map", "exp(x)", "--path", "seg:700,720"], 2),
        # batched evaluation: at the largest x whose exp is finite, every
        # shell's step up overflows
        (["deriv", "--map", "expmap", "--point", "709.782712893384",
          "--method", "shell_sampling"], 2),
        # one-point evaluation: a float power overflows
        (["invert", "--map", "shear3", "--target", "9,2", "--start", "0,1e103"], 2),
        (["invert", "--map", "cubic_implicit", "--target", "9",
          "--start", "0,1e103"], 2),
        # a one-point Jacobian whose overflow ends in a finite 0
        (["deriv", "--map", "arctan", "--point", "1e200",
          "--method", "jacobian_svd"], 0),
    ],
    ids=["hadamard", "meanvalue-expmap", "meanvalue-exp(x)", "deriv", "invert-shear3",
         "invert-cubic_implicit", "deriv-arctan"],
)
def test_overflow_prints_only_the_error_line(argv, code):
    proc = run_cli_process(argv)
    assert proc.returncode == code
    if code == 0:
        assert proc.stderr == ""
        assert "d_minus': 0.0, 'd_plus': 0.0" in proc.stdout
        return
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_shells_around_a_huge_value_keep_their_default_radii():
    # exp(368) is about 6.6e159 and its shell value differences are finite
    # distances (their squares overflow, the 2-norm does not), so the
    # shells keep their default radii rho0 2^-k, rho0 = 0.01 (1 + 368):
    # the estimates are exp's one-sided difference quotients on the
    # larger of the two polished shells
    reports = [
        invoke_json(["deriv", "--map", spec, "--point", "368", "--method", "both"])
        for spec in ("expmap", "exp(x)")
    ]
    assert [code for code, _ in reports] == [0, 0]
    (_, analytic), (_, expression) = reports
    res = analytic["results"]
    assert res == expression["results"]
    rho, value = 0.01 * 369.0 / 32.0, math.exp(368.0)
    shell = res["shell_sampling"]
    assert shell["d_minus"] == pytest.approx(-value * math.expm1(-rho) / rho, rel=1e-12)
    assert shell["d_plus"] == pytest.approx(value * math.expm1(rho) / rho, rel=1e-12)


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


def test_surjection_of_a_wide_map_is_one_error_line(capsys):
    code, out = invoke(
        ["deriv", "--map", "(x + y, y*z)", "--point", "0.375,1.192,0.827", "--surjection"]
    )
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == (
        "error: the surjection constant is not estimated for a wide map: "
        "(x + y, y*z) has codomain dimension 2 < domain dimension 3\n"
    )


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


_README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def _readme_examples():
    """(argv, exit code) of each liftkit line of README.md's sh blocks;
    the code is 0 unless the comment above the line says "(exit code
    N)"."""
    with open(_README, encoding="utf-8") as fh:
        text = fh.read()
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        code = 0
        for line in block.splitlines():
            said = re.search(r"\(exit code (\d)\)", line)
            if line.startswith("#") and said:
                code = int(said.group(1))
            elif line.startswith("liftkit "):
                examples.append((shlex.split(line)[1:], code))
                code = 0
    return examples


_README_EXAMPLES = _readme_examples()


def test_readme_has_command_line_examples():
    assert len(_README_EXAMPLES) >= 5


@pytest.mark.parametrize(
    "argv, code", _README_EXAMPLES, ids=[" ".join(a[:1]) for a, _ in _README_EXAMPLES]
)
def test_readme_examples_exit_as_documented(argv, code):
    assert invoke(argv)[0] == code
