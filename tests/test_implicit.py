"""Implicit continuation: lifting through the projection map, folds,
branches, weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftkit import (
    AffineWeight,
    Box,
    ContinuationFailure,
    ImplicitOptions,
    ImplicitProblem,
    InputError,
    Segment,
    branch_probe,
    davidenko_lift,
    expression_map,
    implicit_eval,
    resolve_map,
)
from liftkit.implicit import PROJECT_TOL
from oracles import FOLD_X, FOLD_Y, KEPLER_ROOT


def _cubic():
    return ImplicitProblem(resolve_map("cubic_implicit"), 1, np.array([0.0]))


def _x_segment(prob, a, b):
    return Segment(prob.x_space, np.atleast_1d(float(a)), np.atleast_1d(float(b)))


def test_problem_split_validation():
    with pytest.raises(InputError):
        ImplicitProblem(resolve_map("cubic_implicit"), 2, np.array([0.0]))


def test_cubic_endpoint_oracle():
    prob = _cubic()
    trace = davidenko_lift(prob, _x_segment(prob, 0.0, 2.0), np.array([0.0]))
    assert trace.verdict.kind == "Completed"
    assert trace.final_y[0] == pytest.approx(1.0, abs=1e-8)


def test_identity_section_tracks_path():
    f = expression_map("y - x", variables=("x", "y"))
    prob = ImplicitProblem(f, 1, np.array([0.0]))
    trace = davidenko_lift(prob, _x_segment(prob, 0.0, 5.0), np.array([0.0]))
    assert trace.verdict.kind == "Completed"
    for node in trace.nodes:
        assert node.y[0] == pytest.approx(node.x[0], abs=1e-8)


def test_kepler_endpoint_matches_bisection():
    f = expression_map("y + 0.5*sin(y) - x", variables=("x", "y"))
    prob = ImplicitProblem(f, 1, np.array([0.0]))
    trace = davidenko_lift(prob, _x_segment(prob, 0.0, 1.0), np.array([0.0]))
    assert trace.verdict.kind == "Completed"
    assert trace.final_y[0] == pytest.approx(KEPLER_ROOT, abs=1e-8)


def test_fold_terminates_singular():
    f = expression_map("y^3 - y - x", variables=("x", "y"))
    prob = ImplicitProblem(f, 1, np.array([0.0]))
    trace = davidenko_lift(prob, _x_segment(prob, 0.0, FOLD_X), np.array([1.0]))
    assert trace.verdict.kind == "FailedSingular"
    # last accepted y-block smallest singular value under the threshold
    assert trace.nodes[-1].jy_smin < 1e-6
    # the stop sits near the fold ordinate
    assert trace.final_y[0] == pytest.approx(FOLD_Y, abs=1e-2)


@pytest.mark.parametrize(
    "x0, y0, x1, fold_x, fold_y",
    [
        (0.0, 1.0, -0.5, FOLD_X, FOLD_Y),  # upper branch
        (0.0, 0.0, -0.5, FOLD_X, FOLD_Y),  # middle branch, either way
        (0.0, 0.0, 0.5, -FOLD_X, -FOLD_Y),
        (-0.9, -1.3007369, 1.3, -FOLD_X, -FOLD_Y),  # lower branch
    ],
)
def test_path_past_a_fold_ends_singular_at_the_fold(x0, y0, x1, fold_x, fold_y):
    # past the fold only a root on another branch is left; the trace
    # must stop at the fold, not complete there
    f = expression_map("y^3 - y - x", variables=("x", "y"))
    prob = ImplicitProblem(f, 1, np.array([0.0]))
    y_start = _real_roots([1.0, 0.0, -1.0, -x0])
    y_start = y_start[np.argmin(np.abs(y_start - y0))]
    trace = davidenko_lift(prob, _x_segment(prob, x0, x1), np.array([y_start]))
    assert trace.verdict.kind == "FailedSingular"
    assert trace.verdict.b == pytest.approx((fold_x - x0) / (x1 - x0), abs=1e-6)
    assert trace.final_y[0] == pytest.approx(fold_y, abs=1e-2)


def test_residual_bounded_on_all_traces(rng):
    f = expression_map("y + 0.5*sin(y) - x", variables=("x", "y"))
    prob = ImplicitProblem(f, 1, np.array([0.0]))
    for _ in range(3):
        b = float(rng.uniform(0.5, 3.0))
        trace = davidenko_lift(prob, _x_segment(prob, 0.0, b), np.array([0.0]))
        assert trace.verdict.kind == "Completed"
        assert max(n.residual for n in trace.nodes) <= 1e-8


def test_implicit_eval_forward_and_reverse():
    prob = _cubic()
    y = implicit_eval(prob, np.array([2.0]), (np.array([0.0]), np.array([0.0])))
    assert y.coords[0] == pytest.approx(1.0, abs=1e-8)
    y0 = implicit_eval(prob, np.array([0.0]), (np.array([2.0]), np.array([1.0])))
    assert y0.coords[0] == pytest.approx(0.0, abs=1e-8)


def test_start_consistency_checked():
    prob = _cubic()
    with pytest.raises(InputError):
        davidenko_lift(prob, _x_segment(prob, 0.0, 1.0), np.array([5.0]))


def test_weight_audit_holds_for_dominating_weight():
    prob = _cubic()
    trace = davidenko_lift(
        prob,
        _x_segment(prob, 0.0, 2.0),
        np.array([0.0]),
        weight=AffineWeight(1.0, 1.0),
    )
    assert trace.verdict.kind == "Completed"
    assert trace.weight_check in ("holds", "not applicable")
    assert trace.monitor_ok in (True, False)


def test_weight_audit_absent_without_weight():
    prob = _cubic()
    trace = davidenko_lift(prob, _x_segment(prob, 0.0, 2.0), np.array([0.0]))
    assert trace.weight_check is None
    assert not trace.weight_used


def test_trace_csv_columns():
    prob = _cubic()
    trace = davidenko_lift(prob, _x_segment(prob, 0.0, 2.0), np.array([0.0]))
    lines = trace.to_csv().strip().splitlines()
    assert lines[0].startswith("t,x_1,y_1,residual,monitor")
    assert len(lines) == len(trace.nodes) + 1


def test_branch_probe_cubic_single_group():
    prob = _cubic()
    rep = branch_probe(
        prob,
        Box(np.array([-2.0]), np.array([2.0])),
        Box(np.array([-2.0]), np.array([2.0])),
    )
    assert rep.count == 1


def test_branch_probe_parabola_two_groups():
    f = expression_map("y^2 - x", variables=("x", "y"))
    prob = ImplicitProblem(f, 1, np.array([0.0]))
    rep = branch_probe(
        prob,
        Box(np.array([0.5]), np.array([4.0])),
        Box(np.array([-3.0]), np.array([3.0])),
    )
    assert rep.count == 2
    assert "heuristic" in rep.note


def test_branch_probe_across_the_folds_keeps_the_middle_root_apart():
    # slices x = -0.5, 0, 0.5: the outer roots continue to the next
    # slice, the middle root at x = 0 reaches a fold either way
    f = expression_map("y^3 - y - x", variables=("x", "y"))
    prob = ImplicitProblem(f, 1, np.array([0.0]))
    rep = branch_probe(
        prob,
        Box(np.array([-1.0]), np.array([1.0])),
        Box(np.array([-2.0]), np.array([2.0])),
    )
    assert rep.count == 3
    assert sorted(len(grp) for grp in rep.groups) == [1, 2, 2]
    (single,) = [grp for grp in rep.groups if len(grp) == 1]
    assert single[0][1][0] == pytest.approx(0.0, abs=1e-10)


def test_branch_probe_identity_section_one_group():
    f = expression_map("y - x", variables=("x", "y"))
    prob = ImplicitProblem(f, 1, np.array([0.0]))
    rep = branch_probe(
        prob,
        Box(np.array([-1.0]), np.array([1.0])),
        Box(np.array([-2.0]), np.array([2.0])),
    )
    assert rep.count == 1


def test_projection_map_roundtrip_consistency():
    # augmented lift through (x, y) -> (x, f(x, y)) agrees with the
    # davidenko endpoint
    prob = _cubic()
    g = prob.projection_map()
    p_aug = prob.augmented_path(_x_segment(prob, 0.0, 2.0))
    from liftkit import lift_path

    start = np.array([0.0, 0.0])
    trace = lift_path(g, p_aug, start)
    assert trace.verdict.kind == "Completed"
    dav = davidenko_lift(prob, _x_segment(prob, 0.0, 2.0), np.array([0.0]))
    assert trace.final_coords[-1] == pytest.approx(dav.final_y[0], abs=1e-9)


def test_monitor_positive_on_regular_trace():
    prob = _cubic()
    trace = davidenko_lift(prob, _x_segment(prob, 0.0, 2.0), np.array([0.0]))
    for node in trace.nodes:
        assert node.monitor >= 0.0
        assert node.jy_smin > 0.0


def test_options_respected():
    prob = _cubic()
    opts = ImplicitOptions(max_nodes=2)
    trace = davidenko_lift(
        prob, _x_segment(prob, 0.0, 2.0), np.array([0.0]), opts=opts
    )
    assert not trace.verdict.completed


def _real_roots(coeffs):
    roots = np.roots(coeffs)
    return np.sort(roots[np.abs(roots.imag) <= 1e-9].real)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(min_value=-8.0, max_value=8.0))
def test_implicit_values_match_cubic_root(x):
    # y^3 + y = x has one real root; both forms reach it from (0, 0)
    root = _real_roots([1.0, 0.0, 1.0, -x])[0]
    outcomes = []
    for f in (resolve_map("cubic_implicit"), expression_map("y^3 + y - x", variables=("x", "y"))):
        prob = ImplicitProblem(f, 1, np.array([0.0]))
        try:
            y = implicit_eval(prob, np.array([x]), (np.array([0.0]), np.array([0.0])))
        except ContinuationFailure as err:
            outcomes.append(err.verdict.kind)
            continue
        outcomes.append("Completed")
        assert abs(y.coords[0] - root) <= 1e-12 * (1.0 + abs(root))
    assert outcomes == ["Completed", "Completed"]


def test_branch_probe_members_are_the_three_roots():
    f = expression_map("y^3 - y - x", variables=("x", "y"))
    prob = ImplicitProblem(f, 1, np.array([0.0]))
    rep = branch_probe(
        prob,
        Box(np.array([-0.15]), np.array([0.15])),
        Box(np.array([-2.0]), np.array([2.0])),
    )
    assert rep.count == 3
    for xbar in rep.x_grid:
        ys = sorted(y[0] for grp in rep.groups for x, y in grp if x[0] == xbar[0])
        assert np.allclose(ys, _real_roots([1.0, 0.0, -1.0, -xbar[0]]), rtol=0, atol=1e-10)


def test_start_that_does_not_project_is_an_input_error():
    # y^2 = x has no root at x = -1e-3; the start is within residual_tol
    f = expression_map("y^2 - x", variables=("x", "y"))
    prob = ImplicitProblem(f, 1, np.array([0.0]))
    with pytest.raises(InputError, match="project_tol"):
        davidenko_lift(
            prob,
            _x_segment(prob, -1e-3, 1.0),
            np.array([1e-3]),
            opts=ImplicitOptions(residual_tol=1e-2),
        )


def test_start_within_residual_tol_is_projected():
    # residual 1e-9: over project_tol, under residual_tol
    prob = _cubic()
    trace = davidenko_lift(prob, _x_segment(prob, 0.0, 2.0), np.array([1e-9]))
    assert trace.verdict.kind == "Completed"
    assert trace.nodes[0].residual <= PROJECT_TOL
    assert trace.final_y[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "bad",
    [
        {"residual_tol": 0.0},
        {"max_nodes": 0},
    ],
)
def test_implicit_options_are_checked_like_lift_options(bad):
    with pytest.raises(InputError, match=next(iter(bad))):
        ImplicitOptions(**bad)
