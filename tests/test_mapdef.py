"""Map handles: builtins, expression maps, resolution, local Newton."""

import dataclasses

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
from liftkit.errors import (
    EvalDomainError,
    NonConvergenceError,
    SingularJacobianError,
)
from liftkit.mapdef import BUDGET, CONVERGED, DOMAIN, SINGULAR, STALLED


def test_shear_handle_analytic_jacobian(shear3):
    assert shear3.jacobian_mode == "analytic"
    jac = jacobian_at(shear3, np.array([0.0, 1.0]))
    assert np.allclose(jac, [[1.0, 3.0], [0.0, 1.0]])


def test_shear_eval(shear3):
    assert np.allclose(shear3.eval(np.array([1.0, 2.0])), [9.0, 2.0])


def test_expression_map_ad_jacobian():
    f = resolve_map("(x*x, x+y)")
    assert f.jacobian_mode == "automatic"
    jac = jacobian_at(f, np.array([2.0, 0.5]))
    assert np.allclose(jac, [[4.0, 0.0], [1.0, 1.0]])


def test_powk_zero_rejected():
    with pytest.raises(InputError):
        resolve_map("powk(0)")


def test_identity_jacobian():
    f = resolve_map("identity(3)")
    jac = jacobian_at(f, np.array([5.0, -1.0, 0.5]))
    assert np.allclose(jac, np.eye(3))


def test_expmap_jacobian_at_zero(expmap):
    assert np.allclose(jacobian_at(expmap, np.array([0.0])), [[1.0]])


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


def test_finite_difference_override(shear3):
    fd = resolve_map("shear3", jacobian_mode="finite_difference")
    assert fd.jacobian_mode == "finite_difference"
    a = jacobian_at(fd, np.array([0.3, 0.7]))
    b = jacobian_at(shear3, np.array([0.3, 0.7]))
    assert np.allclose(a, b, atol=1e-6)


# expression forms of shear3, polar_exp, powk(3) and cubic_implicit
EXPRESSION_FORMS = {
    "shear3": "(x + y^3, y)",
    "polar_exp": "(exp(x)*cos(y), exp(x)*sin(y))",
    "powk(3)": "(x^3 - 3*x*y^2, 3*x^2*y - y^3)",
    "cubic_implicit": "y^3 + y - x",
}


@pytest.mark.parametrize(
    "spec",
    ["shear3"] + list(EXPRESSION_FORMS.values()),
    ids=["shear3"] + ["expr-" + name for name in EXPRESSION_FORMS],
)
def test_jacobians_many_matches_single(spec):
    f = resolve_map(spec)
    pts = np.array([[0.0, 1.0], [1.0, -2.0], [0.5, 0.5]])
    many = f.jacobians_many(pts)
    for i, p in enumerate(pts):
        assert np.allclose(many[i], jacobian_at(f, p))


@pytest.mark.parametrize("spec", ["shear3", EXPRESSION_FORMS["shear3"], "polar_exp"])
def test_finite_difference_mode_holds_for_batched_jacobians(spec):
    fd = resolve_map(spec, jacobian_mode="finite_difference")
    pts = np.array([[0.3, 0.7], [1.0, -2.0], [-0.5, 0.25]])
    many = fd.jacobians_many(pts)
    for i, p in enumerate(pts):
        assert np.array_equal(many[i], jacobian_at(fd, p))
    assert fd.jacobians_many(np.empty((0, 2))).shape == (0, 2, 2)


def test_jacobians_many_rejects_non_finite_like_jacobian_at(expmap):
    with pytest.raises(DomainError):
        jacobian_at(expmap, np.array([800.0]))
    with np.errstate(over="ignore"), pytest.raises(DomainError):
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
        return f.jac_many_fn(c[None, :])[0]

    return dataclasses.replace(
        f, eval_one=lambda c: f.eval_many_fn(c[None, :])[0], jac_one=jac_one
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


def test_polar_exp_overflow_is_a_domain_fault(polar_exp):
    for fn in (polar_exp.eval, lambda c: jacobian_at(polar_exp, c)):
        with pytest.raises(DomainError, match="exp overflow"):
            fn(np.array([800.0, 0.0]))


def test_polar_exp_matches_formula(polar_exp):
    p = np.array([0.5, 1.2])
    got = polar_exp.eval(p)
    want = [np.exp(0.5) * np.cos(1.2), np.exp(0.5) * np.sin(1.2)]
    assert np.allclose(got, want)


def test_annulus_domain_enforced():
    f = resolve_map("powk(2)")
    with pytest.raises(DomainError):
        f.eval(np.array([0.0, 0.0]))


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
