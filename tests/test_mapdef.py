"""Map handles: builtins, expression maps, resolution, local Newton."""

import dataclasses
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftkit import (
    DomainError,
    InputError,
    expression_map,
    jacobian_at,
    local_solve,
    newton_block,
    resolve_map,
)
from liftkit import exprlang
from liftkit.errors import (
    EvalDomainError,
    NonConvergenceError,
    SingularJacobianError,
)
from liftkit.geometry import OpenSubset
from liftkit.globalinv import fiber_enumerate
from liftkit.implicit import ImplicitProblem
from liftkit.mapdef import (
    BUDGET,
    CONVERGED,
    DOMAIN,
    SINGULAR,
    STALLED,
    _newton,
    _trial_value,
    builtin_names,
    det_sign,
    det_sign_many,
    linear_solve,
    linear_solve_many,
    singular_extremes,
    singular_extremes_many,
)
from liftkit.lift import POLISH_STEPS, POLISH_TOL


def test_shear_handle_analytic_jacobian(shear3):
    jac = jacobian_at(shear3, np.array([0.0, 1.0]))
    assert np.allclose(jac, [[1.0, 3.0], [0.0, 1.0]])


def test_shear_eval(shear3):
    assert np.allclose(shear3.eval(np.array([1.0, 2.0])), [9.0, 2.0])


def test_expression_map_ad_jacobian():
    f = resolve_map("(x*x, x+y)")
    jac = jacobian_at(f, np.array([2.0, 0.5]))
    assert np.allclose(jac, [[4.0, 0.0], [1.0, 1.0]])


def test_powk_zero_rejected():
    with pytest.raises(InputError):
        resolve_map("powk(0)")


@pytest.mark.parametrize("spec", ["powk(512)", "powk(-512)", "powk(2000)"])
def test_powk_exponent_whose_annulus_overflows_rejected(spec):
    with pytest.raises(InputError):
        resolve_map(spec)


@pytest.mark.parametrize("spec", ["powk(13)", "powk(-13)"])
def test_powk_exponent_past_the_expansion_s_accuracy_rejected(spec):
    with pytest.raises(InputError, match=r"1 <= \|k\| <= 12"):
        resolve_map(spec)


@settings(max_examples=200, deadline=None)
@given(
    k=st.sampled_from([k for k in range(-6, 7) if k]),
    r=st.floats(0.51, 1.99),  # inside the 0.5 < |z| < 2 annulus
    theta=st.floats(-math.pi, math.pi),
)
def test_powk_is_z_to_the_k(k, r, theta):
    # the expansion in products equals Python's complex power, and its
    # Jacobian the real 2x2 form of k z^(k-1)
    x, y = r * math.cos(theta), r * math.sin(theta)
    f = resolve_map("powk(%d)" % k)
    z = complex(x, y) ** k
    assert abs(complex(*f.eval([x, y])) - z) <= 1e-13 * abs(z)
    w = k * complex(x, y) ** (k - 1)
    want = np.array([[w.real, -w.imag], [w.imag, w.real]])
    assert np.abs(jacobian_at(f, [x, y]) - want).max() <= 1e-13 * abs(w)


def test_identity_jacobian():
    f = resolve_map("identity(3)")
    jac = jacobian_at(f, np.array([5.0, -1.0, 0.5]))
    assert np.allclose(jac, np.eye(3))


def test_expmap_jacobian_at_zero(expmap):
    assert np.allclose(jacobian_at(expmap, np.array([0.0])), [[1.0]])


def test_readme_lists_exactly_the_builtin_maps():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Built-in maps", 1)[1].split("\n## ", 1)[0]
    # the first cell of each table row, e.g. `powk(k)`
    named = re.findall(r"^\| `([a-z_0-9]+)", section, flags=re.MULTILINE)
    assert sorted(named) == builtin_names()


def test_unknown_bare_name_lists_builtins():
    with pytest.raises(InputError) as exc:
        resolve_map("nosuchmap")
    assert "unknown map" in str(exc.value)
    assert "shear3" in str(exc.value)


def test_shear_inverse_composes(shear3):
    g = resolve_map("shear3_inv")
    pts = np.array([[1.0, 2.0], [-3.0, 0.5], [10.0, -2.0]])
    back = np.stack([g.eval(shear3.eval(p)) for p in pts])
    assert np.allclose(back, pts, atol=1e-12)


def test_logmap_rejects_nonpositive():
    f = resolve_map("logmap")
    with pytest.raises((DomainError, Exception)):
        f.eval(np.array([-1.0]))


# expression forms of shear3, polar_exp, powk(3) and cubic_implicit
EXPRESSION_FORMS = {
    "shear3": "(x + y^3, y)",
    "polar_exp": "(exp(x)*cos(y), exp(x)*sin(y))",
    "powk(3)": "(x^3 - 3*x*y^2, 3*x^2*y - y^3)",
    "cubic_implicit": "y^3 + y - x",
}


BUILTIN_SPECS = [
    "identity(2)", "identity(3)", "shear3", "shear3_inv", "expmap", "logmap",
    "polar_exp", "powk(2)", "powk(-2)", "powk(3)", "powk(-3)", "powk(5)",
    "arctan", "inclusion", "cubic_implicit",
]


@pytest.mark.parametrize(
    "spec",
    BUILTIN_SPECS + list(EXPRESSION_FORMS.values()),
    ids=BUILTIN_SPECS + ["expr-" + name for name in EXPRESSION_FORMS],
)
def test_jacobians_many_matches_single(spec, rng):
    # the one-point and batched forms of a map may round apart only in
    # the last places, relative to the size of the value or Jacobian
    f = resolve_map(spec)
    box = rng.uniform(-2.2, 2.2, size=(400, f.dim_in))
    pts = box[f.domain.contains_many(box)][:64]
    assert len(pts) == 64
    values, jacs = f.eval_many(pts), f.jacobians_many(pts)
    for p, value, jac in zip(pts, values, jacs):
        for many, one in ((value, f.eval(p)), (jac, jacobian_at(f, p))):
            assert many.shape == one.shape
            assert np.allclose(many, one, rtol=1e-13, atol=1e-13 * np.abs(one).max())


def test_resolve_map_of_a_handle_takes_the_mode(shear3):
    # a handle resolves to itself; its Jacobian is its own, and there is
    # no mode to ask for
    assert resolve_map(shear3) is shear3
    with pytest.raises(TypeError):
        resolve_map(shear3, jacobian_mode="finite_difference")
    with pytest.raises(TypeError):
        expression_map("(x + y^3, y)", jacobian_mode="finite_difference")


def test_jacobians_many_rejects_non_finite_like_jacobian_at(expmap):
    # expmap is exp(x): both raise its expression's fault
    fault = "non-finite value in exp"
    with pytest.raises(EvalDomainError, match=fault):
        jacobian_at(expmap, np.array([800.0]))
    with np.errstate(over="ignore"), pytest.raises(EvalDomainError, match=fault):
        expmap.jacobians_many(np.array([[0.0], [800.0]]))


@given(
    st.sampled_from(sorted(EXPRESSION_FORMS)),
    st.floats(min_value=0.55, max_value=1.95),
    st.floats(min_value=-3.1, max_value=3.1),
)
@settings(max_examples=80, deadline=None)
def test_expression_form_jacobian_equals_builtin(name, r, theta):
    # polar coordinates keep the point inside the annulus powk(3) lives on
    p = np.array([r * np.cos(theta), r * np.sin(theta)])
    want = jacobian_at(resolve_map(name), p)
    got = jacobian_at(resolve_map(EXPRESSION_FORMS[name]), p)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_local_solve_identity():
    f = resolve_map("identity(2)")
    res = local_solve(f, np.array([3.0, -1.0]), np.array([0.0, 0.0]))
    assert np.allclose(res.coords, [3.0, -1.0])
    assert res.residual <= 1e-10


def test_local_solve_cubic_section():
    f = expression_map("y^3 + y", variables=("y",))
    res = local_solve(f, np.array([2.0]), np.array([0.0]))
    assert res.coords[0] == pytest.approx(1.0, abs=1e-9)


def test_local_solve_reports_iterations(shear3):
    res = local_solve(f=shear3, y=np.array([9.0, 2.0]), x_guess=np.array([0.0, 0.0]))
    assert np.allclose(res.coords, [1.0, 2.0], atol=1e-9)
    assert res.iterations >= 1
    assert res.jac_smin > 0
    assert np.array_equal(res.jacobian, jacobian_at(shear3, res.coords))


def test_local_solve_nonconvergence_raises(expmap):
    # e^x = -1 has no solution; iterates run off to -inf until either
    # the budget or the derivative underflow stops them
    from liftkit import SingularJacobianError

    with pytest.raises((NonConvergenceError, SingularJacobianError)):
        local_solve(expmap, np.array([-1.0]), np.array([0.0]), max_iter=20)


# map -> (target, half-width of the box the starts are drawn from)
NEWTON_CASES = {
    "shear3": ([1.0, 2.0], 4.0),
    EXPRESSION_FORMS["shear3"]: ([1.0, 2.0], 4.0),
    "powk(3)": ([0.3, 1.2], 2.5),  # starts off the annulus fail at once
    EXPRESSION_FORMS["powk(3)"]: ([0.3, 1.2], 2.5),
    "(x*x - y*y, 2*x*y)": ([0.0, 0.0], 2.0),  # a double root: singular rows
    "(log(x) + y, y^3 + y)": ([0.3, 2.0], 3.0),  # trials at x <= 0 fault
}


def _counting_block_handle(f, jac_calls):
    """f with one-point evaluation and Jacobian taken from its batched
    functions on a one-row block, each Jacobian counted in jac_calls.

    numpy rounds a row alike in any block, whereas a built-in's scalar
    formulas (Python float and complex arithmetic) and numpy's vector
    loops may differ in the last place; on this handle local_solve and
    newton_block see the same numbers.
    """

    def jac_one(c):
        jac_calls.append(1)
        return f.jac_many_fn(np.array([c]))[0].tolist()

    return dataclasses.replace(
        f, eval_one=lambda c: f.eval_many_fn(np.array([c]))[0].tolist(), jac_one=jac_one
    )


def _local_solve_outcome(f, y, start, max_iter):
    """local_solve's result, or None, and the newton_block status that
    names its outcome."""
    try:
        return CONVERGED, local_solve(f, y, start, max_iter=max_iter)
    except SingularJacobianError:
        return SINGULAR, None
    except NonConvergenceError as exc:
        return (STALLED if "stalled" in str(exc) else BUDGET), None
    except (DomainError, EvalDomainError):
        return DOMAIN, None


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(sorted(NEWTON_CASES)),
    max_iter=st.sampled_from([2, 60]),
    data=st.data(),
)
def test_newton_block_rows_equal_local_solve(spec, max_iter, data):
    target, half = NEWTON_CASES[spec]
    jac_calls = []
    f = _counting_block_handle(resolve_map(spec), jac_calls)
    coord = st.floats(-half, half, allow_nan=False)
    starts = np.array(
        data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=10))
    )
    sol = newton_block(f, target, starts, max_iter=max_iter)
    for i, start in enumerate(starts):
        jac_calls.clear()
        status, res = _local_solve_outcome(f, target, start, max_iter)
        assert sol.status[i] == status
        # local_solve takes one Jacobian per iteration, and one more at
        # the point where it stops unless its budget ran out
        steps = len(jac_calls) if status == BUDGET else max(len(jac_calls) - 1, 0)
        assert sol.iterations[i] == steps
        if res is not None:
            assert res.iterations == steps
            assert np.array_equal(sol.points[i], res.coords)
            assert sol.residuals[i] == res.residual


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(sorted(NEWTON_CASES)), data=st.data())
def test_polish_core_equals_one_row_newton_block(spec, data):
    # lift_path polishes its endpoint with local_solve's loop where it
    # used a one-row newton_block; on this handle both see the same
    # numbers, so the polish moved only by one-point rounding
    target, half = NEWTON_CASES[spec]
    f = _counting_block_handle(resolve_map(spec), [])
    coord = st.floats(-half, half, allow_nan=False)
    start = np.array(data.draw(st.tuples(coord, coord)))
    starts = [start]
    try:
        # the polish starts where the corrector converged
        starts.append(local_solve(f, target, start).coords)
    except (NonConvergenceError, SingularJacobianError, DomainError, EvalDomainError):
        pass
    for x in starts:
        if not f.domain.contains(x):
            continue  # the polish starts inside the domain
        try:
            run = _newton(f, np.array(target), x, POLISH_TOL, POLISH_STEPS)
        except (DomainError, EvalDomainError):
            continue  # a start that faults, which a lifted node is not
        sol = newton_block(f, target, x[None, :], tol=POLISH_TOL, max_iter=POLISH_STEPS)
        assert run.status == sol.status[0]
        assert run.iterations == sol.iterations[0]
        assert np.array_equal(run.x, sol.points[0])
        assert run.residual == sol.residuals[0]
        if run.status == BUDGET:
            assert run.jacobian is None
        else:
            assert np.array_equal(run.jacobian, jacobian_at(f, run.x))


def test_newton_block_statuses():
    f = resolve_map("(log(x) + y, y^3 + y)")
    starts = np.array([[np.exp(-0.7), 1.0], [-1.0, 0.0], [3.0, -2.0]])
    sol = newton_block(f, [0.3, 2.0], starts, max_iter=2)
    assert list(sol.status) == [CONVERGED, DOMAIN, BUDGET]
    assert list(sol.iterations) == [0, 0, 3]
    assert sol.residuals[0] <= 1e-10 and sol.residuals[1] == np.inf
    assert newton_block(f, [0.3, 2.0], np.zeros((0, 2))).status.shape == (0,)
    with pytest.raises(InputError):
        newton_block(f, [0.3, 2.0], [[np.nan, 0.0]])


# a point's coordinate that faults the maps below (log or 1/x at x <= 0,
# exp overflow at 800) or keeps them well inside their domains
_MASK_X = st.one_of(st.sampled_from([-1.0, 0.0, 800.0]), st.floats(0.1, 3.0))
_LOG_MAP = "(log(x) + y, y^3 + y)"
MASK_HANDLES = {
    "builtin": lambda: resolve_map("polar_exp"),
    "expression": lambda: resolve_map(_LOG_MAP),
    "jacobian_source": lambda: expression_map(
        _LOG_MAP, jacobian_source="(1/x, 1, 0, 3*y^2 + 1)"
    ),
    "projection": lambda: ImplicitProblem(
        expression_map("y^3 + y - exp(x)"), 1, [0.0]
    ).projection_map(),
}


def _fault(call):
    """The type and message of the fault call raises, else None."""
    try:
        call()
    except (DomainError, EvalDomainError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(MASK_HANDLES)),
    rows=st.lists(st.tuples(_MASK_X, st.floats(-2.0, 2.0)), min_size=1, max_size=8),
)
def test_masked_kernels_mark_the_rows_a_point_faults_at(kind, rows):
    # each kernel evaluates the whole block once: its mask holds exactly
    # the rows where the one-point call faults, and its other rows equal
    # the raising block call on the clean rows alone, which on the whole
    # block raises the one-point call's fault at the first faulting row
    f = MASK_HANDLES[kind]()
    pts = np.array(rows)
    for kernel, one, many in (
        (f._values_block, f.eval, f.eval_many),
        (f._jacobians_block, lambda p: jacobian_at(f, p), f.jacobians_many),
    ):
        block, faulted = kernel(pts)
        faults = [_fault(lambda: one(p)) for p in pts]
        assert faulted.tolist() == [fault is not None for fault in faults]
        assert np.array_equal(block[~faulted], many(pts[~faulted]))
        if faulted.any():
            assert _fault(lambda: many(pts)) == faults[int(np.argmax(faulted))]


def test_a_raising_block_call_raises_its_first_faulting_rows_fault():
    # row 0 divides by zero, row 1 takes the log of -1: every raising
    # block call reports row 0, as the one-point call there does
    f = resolve_map("(log(x), 1/y)")
    comps = exprlang.parse("(log(x), 1/y)")
    pts = np.array([[1.0, 0.0], [-1.0, 1.0]])
    for call in (
        lambda: f.eval([1.0, 0.0]),
        lambda: f.eval_many(pts),
        lambda: f.jacobians_many(pts),
        lambda: exprlang.eval_ast(exprlang.parse_single("log(x) + 1/y"), pts.T),
        lambda: exprlang.jacobian_ad(comps, pts),
    ):
        with pytest.raises(EvalDomainError, match="division by zero") as err:
            call()
        assert err.value.span == (9, 12)
    # where the one-point form evaluates the row, the error names the row
    shear3 = resolve_map("shear3")
    g = dataclasses.replace(
        shear3, eval_many_fn=lambda P: P * np.where(P[:, 1:] > 1.0, np.nan, 1.0)
    )
    with pytest.raises(DomainError, match=r"map shear3 faults at row 1 of a block"):
        g.eval_many(np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 3.0]]))


def test_newton_block_makes_no_one_point_evaluations():
    # trials at x <= 0 fault; the masks take them, so no block is redone
    # one point at a time
    calls = []
    f = resolve_map(_LOG_MAP)
    counted = dataclasses.replace(
        f,
        eval_one=lambda c: calls.append(c) or f.eval_one(c),
        jac_one=lambda c: calls.append(c) or f.jac_one(c),
    )
    report = fiber_enumerate(counted, [0.3, 2.0])
    assert len(report.preimages) == 1
    assert np.allclose(report.preimages[0].coords, [math.exp(-0.7), 1.0], atol=1e-9)
    starts = np.array([[0.05, 3.0], [-1.0, 0.0], [2.0, -2.0], [0.3, 0.3]])
    sol = newton_block(counted, [0.3, 2.0], starts)
    assert calls == []
    assert list(sol.status) == [CONVERGED, DOMAIN, CONVERGED, CONVERGED]


@pytest.mark.parametrize("spec", ["powk(3)", EXPRESSION_FORMS["powk(3)"]])
def test_jacobians_many_checks_its_block_like_eval_many(spec):
    f = resolve_map(spec)
    for call in (f.eval_many, f.jacobians_many):
        with pytest.raises(InputError):
            call(np.array([0.0, 1.0]))
        with pytest.raises(InputError):
            call(np.zeros((2, 3)))
    if spec == "powk(3)":  # the expression form's domain is the plane
        for call in (f.eval_many, f.jacobians_many):
            with pytest.raises(DomainError, match="outside the domain"):
                call(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_polar_exp_overflow_is_a_domain_fault(polar_exp):
    # the value and the Jacobian both read exp(x), which overflows
    for fn in (polar_exp.eval, lambda c: jacobian_at(polar_exp, c)):
        with pytest.raises(EvalDomainError, match=r"non-finite value in exp\(\)"):
            fn(np.array([800.0, 0.0]))


def test_a_jacobian_exists_where_only_an_unread_value_overflows():
    # y^3 overflows at y = 9e102, and no tangent reads it
    y = 9e102
    want = [[-1.0, 3.0 * y**2 + 1.0]]
    for spec in ("cubic_implicit", "y^3 + y - x"):
        f = resolve_map(spec)
        assert jacobian_at(f, [0.5, y]).tolist() == want
        assert f.jacobians_many(np.array([[0.5, y]])).tolist() == [want]
        with pytest.raises(EvalDomainError, match="non-finite value in power"):
            f.eval([0.5, y])


def test_polar_exp_matches_formula(polar_exp):
    p = np.array([0.5, 1.2])
    got = polar_exp.eval(p)
    want = [np.exp(0.5) * np.cos(1.2), np.exp(0.5) * np.sin(1.2)]
    assert np.allclose(got, want)


def test_annulus_domain_enforced():
    f = resolve_map("powk(2)")
    with pytest.raises(DomainError):
        f.eval(np.array([0.0, 0.0]))


def _counting_domain(f, calls):
    """f on its own OpenSubset domain, each one-point predicate counted."""
    dom = f.domain

    def pred(c):
        calls.append(1)
        return dom.predicate(c)

    counted = OpenSubset(dom.base, pred, dom._predicate_many, source=dom.source)
    return dataclasses.replace(f, domain=counted)


def test_trial_value_tests_the_domain_once():
    calls = []
    f = _counting_domain(resolve_map("powk(3)"), calls)
    val, dist = _trial_value(f, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert np.allclose(val, [1.0, 0.0]) and dist == pytest.approx(0.0, abs=1e-15)
    assert len(calls) == 1


def test_local_solve_tests_its_start_once():
    # one predicate call for the start's check and one for the result
    # Point; the loop's value and Jacobian at the start test nothing
    calls = []
    f = _counting_domain(resolve_map("powk(3)"), calls)
    res = local_solve(f, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert res.iterations == 0 and res.residual == 0.0
    assert len(calls) == 2


@pytest.mark.parametrize("spec", ["powk(3)", "shear3"])
@pytest.mark.parametrize(
    "trial", [[np.nan, 1.0], [np.inf, 0.0], [3.0, 0.0], [0.0, 0.0]]
)
def test_failed_trials_give_none(spec, trial):
    f = resolve_map(spec)
    got = _trial_value(f, np.array([1.0, 0.0]), np.array(trial))
    if spec == "shear3" and np.isfinite(trial).all():
        assert got is not None  # the plane has no boundary to leave
    else:
        assert got is None


def _powk3_forms():
    """powk(3), built in and as an expression on the same annulus."""
    builtin = resolve_map("powk(3)")
    expr = expression_map(EXPRESSION_FORMS["powk(3)"], domain=builtin.domain)
    return builtin, expr


@pytest.mark.parametrize("form", [0, 1], ids=["builtin", "expression"])
@pytest.mark.parametrize("p", [[np.inf, 0.0], [1e200, 0.0], [np.nan, 1.0]])
def test_domain_membership_answers_where_its_predicate_faults(form, p):
    f = _powk3_forms()[form]
    p = np.array(p)
    assert not f.domain.contains(p)
    assert f.domain.contains_many(np.array([p, [1.0, 0.0]])).tolist() == [False, True]
    assert _trial_value(f, np.array([1.0, 0.0]), p) is None
    if np.isfinite(p).all():  # a non-finite start is an InputError
        with pytest.raises(DomainError, match="outside"):
            local_solve(f, [1.0, 0.0], p)


def test_expression_map_with_domain_and_name():
    from liftkit import subset_from_expression, Euclidean

    dom = subset_from_expression(Euclidean(1), "x")
    f = expression_map("log(x)", variables=("x",), domain=dom, name="halflog")
    assert f.name == "halflog"
    assert np.allclose(f.eval(np.array([1.0])), [0.0])
    with pytest.raises(DomainError):
        f.eval(np.array([-2.0]))


def test_cubic_implicit_builtin_shape():
    f = resolve_map("cubic_implicit")
    assert f.dim_in == 2 and f.dim_out == 1
    assert np.allclose(f.eval(np.array([2.0, 1.0])), [0.0])


# -- the small-matrix kernel -------------------------------------------------

EPS = np.finfo(float).eps
# entries 0 or of magnitude 1e-6 to 10: scaled by 2^-500, smaller ones
# would be subnormal, where LAPACK itself is no reference
_unit = st.one_of(st.just(0.0), st.floats(1e-6, 10.0), st.floats(-10.0, -1e-6))


@st.composite
def _small_matrices(draw):
    """A 1x1 or 2x2 matrix: random, conformal (polar_exp's Jacobian),
    or rank one plus a small perturbation, scaled by 2^-500, 1 or 2^500."""
    kind = draw(st.sampled_from(["1x1", "random", "conformal", "near_rank_one"]))
    if kind == "1x1":
        jac = np.array([[draw(_unit)]])
    elif kind == "random":
        jac = np.array(draw(st.lists(_unit, min_size=4, max_size=4))).reshape(2, 2)
    elif kind == "conformal":
        r = math.exp(draw(st.floats(-5.0, 5.0)))
        y = draw(_unit)
        jac = r * np.array([[math.cos(y), -math.sin(y)], [math.sin(y), math.cos(y)]])
    else:
        u, v = (np.array(draw(st.lists(_unit, min_size=2, max_size=2))) for _ in "uv")
        noise = np.array(draw(st.lists(_unit, min_size=4, max_size=4))).reshape(2, 2)
        jac = np.outer(u, v) + 10.0 ** draw(st.integers(-17, -4)) * noise
    return jac * 2.0 ** draw(st.sampled_from([-500, 0, 500]))


@settings(max_examples=300, deadline=None)
@given(
    jac=_small_matrices(),
    rhs=st.lists(st.integers(-10, 10), min_size=2, max_size=2),
)
def test_small_matrix_kernel_agrees_with_lapack(jac, rhs):
    sv = np.linalg.svd(jac, compute_uv=False)
    rhs = np.array(rhs[: jac.shape[0]], dtype=float) * sv[0]  # so x is O(cond)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smin, smax = singular_extremes(jac)
        assert abs(smax - sv[0]) <= 8 * EPS * sv[0]
        assert abs(smin - sv[-1]) <= 8 * EPS * sv[0]
        if sv[-1] > 1e-6 * sv[0]:  # away from det = 0
            assert det_sign(jac) == np.linalg.slogdet(jac)[0]
            x, want = linear_solve(jac, rhs), np.linalg.solve(jac, rhs)
            cond = sv[0] / sv[-1]
            assert np.max(np.abs(x - want)) <= 8 * EPS * cond * np.max(np.abs(want))


@settings(max_examples=100, deadline=None)
@given(
    jacs=st.lists(
        _small_matrices().filter(lambda j: j.shape == (2, 2)), min_size=1, max_size=8
    ),
    rhs=st.lists(st.tuples(_unit, _unit), min_size=8, max_size=8),
)
def test_small_matrix_kernel_stacked_form_is_bitwise_the_one_matrix_form(jacs, rhs):
    # with rows the closed forms leave to LAPACK: all zero, non-finite,
    # beyond the scale range
    fallbacks = [np.zeros((2, 2)), np.full((2, 2), 2.0**1010), np.diag([np.inf, 1.0])]
    stack = np.array(jacs + fallbacks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smin, smax = singular_extremes_many(stack)
        signs = det_sign_many(stack)
        for i, jac in enumerate(stack):  # LAPACK's svd makes inf NaN
            got = [smin[i], smax[i], signs[i]]
            want = [*singular_extremes(jac), det_sign(jac)]
            assert np.array_equal(got, want, equal_nan=True)
        invertible = stack[: len(jacs)][smin[: len(jacs)] > 0]
        r = np.array(rhs[: len(invertible)]).reshape(-1, 2)
        x = linear_solve_many(invertible, r)
        for i, jac in enumerate(invertible):
            assert np.array_equal(x[i], linear_solve(jac, r[i]))
    scalars = np.array([2.0, -0.5, 0.0]).reshape(3, 1, 1)
    smin, smax = singular_extremes_many(scalars)
    assert smin.tolist() == smax.tolist() == [2.0, 0.5, 0.0]
    assert det_sign_many(scalars).tolist() == [1.0, -1.0, 0.0]


@pytest.mark.parametrize(
    "jac", [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 3.0]], [[0.0]]],
    ids=["rank_one", "zero_row", "zero_1x1"],
)
def test_small_matrix_kernel_singular_solve_raises(jac):
    jac = np.array(jac)
    rhs = np.ones(jac.shape[0])
    assert det_sign(jac) == 0.0
    assert singular_extremes(jac)[0] == 0.0
    with pytest.raises(np.linalg.LinAlgError):
        linear_solve(jac, rhs)
    stack = np.stack([np.eye(jac.shape[0]), jac])
    with pytest.raises(np.linalg.LinAlgError):
        linear_solve_many(stack, np.stack([rhs, rhs]))


def test_small_matrix_kernel_extremes_of_shapes():
    # wide matrices have smin 0; larger ones go to LAPACK
    assert singular_extremes(np.array([[3.0, 4.0]])) == (0.0, 5.0)
    assert singular_extremes(np.array([[3.0], [4.0]])) == (5.0, 5.0)
    smin, smax = singular_extremes(np.diag([1.0, 2.0, 3.0]))
    assert (smin, smax) == pytest.approx((1.0, 3.0))
    assert det_sign(np.diag([1.0, -2.0, 3.0])) == -1.0
    x = linear_solve(np.diag([1.0, 2.0, 4.0]), np.ones(3))
    assert np.allclose(x, [1.0, 0.5, 0.25])
    # entries near 1e+-150 square without overflow or underflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e150, 1e-150, 1e300, 1e-300):
            jac = scale * np.array([[1.0, 2.0], [3.0, 4.0]])
            smin, smax = singular_extremes(jac)
            sv = np.linalg.svd(jac, compute_uv=False)
            assert smax == pytest.approx(sv[0], rel=1e-14)
            assert smin == pytest.approx(sv[1], rel=1e-14)
            assert det_sign(jac) == -1.0
            x = linear_solve(jac, np.array([1.0, 1.0]) * scale)
            assert np.allclose(x, [-1.0, 1.0])
