"""Path lifting engine: completion, failure taxonomy, trace analysis."""

import dataclasses
import math

import numpy as np
import pytest

import liftkit.lift
from liftkit import (
    CircleQuotient,
    ContinuationFailure,
    Euclidean,
    InputError,
    LiftOptions,
    Loop,
    OpenSubset,
    ProductSpace,
    Segment,
    Torus,
    analyze_trace,
    expression_map,
    lift_path,
    resolve_map,
)
from liftkit.lift import MAX_CORRECTOR_ITER, POLISH_STEPS, POLISH_TOL, STEP_INIT
from liftkit.mapdef import BUDGET
from oracles import shear_inverse


def _seg2(a, b):
    return Segment(Euclidean(2), np.asarray(a, float), np.asarray(b, float))


def test_identity_lift_tracks_path():
    f = resolve_map("identity(2)")
    p = _seg2([0.0, 0.0], [2.0, -1.0])
    trace = lift_path(f, p, np.array([0.0, 0.0]))
    assert trace.verdict.kind == "Completed"
    for node in trace.nodes:
        assert np.allclose(node.coords, p.eval(node.t), atol=1e-9)


def test_shear_segment_lands_on_inverse(shear3):
    p = _seg2([0.0, 0.0], [9.0, 2.0])
    trace = lift_path(shear3, p, np.array([0.0, 0.0]))
    assert trace.verdict.kind == "Completed"
    assert np.allclose(trace.final_coords, [1.0, 2.0], atol=1e-8)


def _counting(monkeypatch, module, name, calls):
    """Record in calls each call of module.name, with its result."""
    real = getattr(module, name)

    def counting(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, counting)


def test_accepted_nodes_reuse_the_corrector_jacobian(shear3, monkeypatch):
    calls, runs = [], []
    _counting(monkeypatch, liftkit.lift, "jacobian_at", calls)
    _counting(monkeypatch, liftkit.lift, "_newton", runs)
    monkeypatch.setattr(liftkit.lift, "STEP_MAX", 0.02)
    trace = lift_path(shear3, _seg2([0.0, 0.0], [9.0, 2.0]), np.zeros(2))
    assert trace.verdict.kind == "Completed"
    assert len(trace.nodes) > 50
    # one corrector run per accepted node (no step is refused here),
    # then the polish
    *correctors, (polish_args, run) = runs
    assert len(correctors) == len(trace.nodes) - 1
    settings = (LiftOptions().corrector_tol, MAX_CORRECTOR_ITER)
    assert all(args[3:] == settings for args, _ in correctors)
    assert polish_args[3:] == (POLISH_TOL, POLISH_STEPS)
    # the start's Jacobian comes from the checked start, each accepted
    # node's from its corrector, the polished endpoint's from the polish
    # unless the polish's budget ran out on a step not yet differentiated
    assert len(calls) == (run.status == BUDGET)


def test_domain_tests_of_one_lift_step(monkeypatch):
    # one accepted step from (1, 0) on the powk(3) annulus, then the
    # polish; every point stays inside the annulus
    tests, values, mids = [], [], []
    f = resolve_map("powk(3)")
    dom = f.domain

    def predicate(c):
        tests.append(c)
        return dom.predicate(c)

    def eval_one(c):
        values.append(c)
        return f.eval_one(c)

    counted = OpenSubset(dom.base, predicate, dom._predicate_many, source=dom.source)
    g = dataclasses.replace(f, domain=counted, eval_one=eval_one)
    _counting(monkeypatch, liftkit.lift, "jacobian_at", mids)
    target = f.eval(np.array([1.1, 0.1]))
    monkeypatch.setattr(liftkit.lift, "STEP_INIT", 1.0)
    monkeypatch.setattr(liftkit.lift, "STEP_MAX", 1.0)
    trace = lift_path(g, _seg2([1.0, 0.0], target), np.array([1.0, 0.0]))
    assert trace.verdict.completed and len(trace.nodes) == 2
    assert np.allclose(trace.final_coords, [1.1, 0.1])
    # a point is tested once and then evaluated: the start, the
    # predicted point (the corrector's start) and every line-search
    # trial. Besides these, the step tests each point lift_path hands to
    # jacobian_at (an orientation midpoint, or the endpoint of a polish
    # whose budget ran out), and the polish evaluates its start, the
    # corrected point, without a test.
    assert len(tests) == len(values) - 1 + len(mids)
    # the polish takes two Newton steps: its first leaves a residual of
    # one ulp of powk(3)'s product form, its second reaches 0.0
    assert len(tests) == 7


def test_shear_random_targets_hit_explicit_inverse(shear3, rng):
    for _ in range(10):
        target = rng.uniform(-20, 20, size=2)
        p = _seg2([0.0, 0.0], target)
        trace = lift_path(shear3, p, np.array([0.0, 0.0]))
        assert trace.verdict.kind == "Completed"
        want = shear_inverse(*target)
        assert np.allclose(trace.final_coords, want, atol=1e-8)


def test_expmap_lift_toward_zero_fails(expmap):
    p = Segment(Euclidean(1), np.array([1.0]), np.array([0.0]))
    trace = lift_path(expmap, p, np.array([0.0]))
    v = trace.verdict
    assert not v.completed
    assert v.kind in ("FailedSingular", "FailedStall")
    assert v.b >= 0.999
    assert trace.final_coords[0] <= -5.0
    assert v.engine_note


@pytest.mark.parametrize("spec", ["expmap", "exp(x)"])
def test_collapsed_step_names_its_cause(spec):
    # e^x cannot meet a target near 0 to 1e-20: its rounding is larger,
    # so the line search stalls and the steps halve down to step_min
    f = resolve_map(spec)
    p = Segment(Euclidean(1), np.array([1.0]), np.array([0.0]))
    v = lift_path(f, p, np.array([0.0]), LiftOptions(corrector_tol=1e-20)).verdict
    assert v.kind == "FailedStall"
    assert v.message.startswith("NonConvergenceError: newton line search stalled")
    assert v.message in v.summary()


def test_start_residual_checked(shear3):
    p = _seg2([1.0, 1.0], [2.0, 2.0])
    with pytest.raises(InputError):
        lift_path(shear3, p, np.array([0.0, 0.0]))


def test_nonsquare_map_rejected():
    f = resolve_map("inclusion")
    p = Segment(Euclidean(2), np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(InputError):
        lift_path(f, p, np.array([0.0]))


def test_blowup_verdict(monkeypatch):
    # 1-d map with bounded image: lifting past the image boundary sends
    # the preimage to infinity; arctan keeps d_minus ~ 1/(1+x^2) > 0
    # long enough that the radius guard fires first at a tight budget
    f = resolve_map("arctan")
    p = Segment(Euclidean(1), np.array([0.0]), np.array([1.6]))
    monkeypatch.setattr(liftkit.lift, "BLOWUP_RADIUS", 50.0)
    trace = lift_path(f, p, np.array([0.0]))
    assert trace.verdict.kind in ("FailedBlowUp", "FailedSingular", "FailedStall")
    assert trace.verdict.b < 1.0 or not trace.verdict.completed


@pytest.mark.parametrize("form", ["analytic", "expression"])
def test_blowup_names_the_crossed_radius(form):
    # log x = t from x = 1 passes x = 1e6 at t = 13.8
    from liftkit import expression_map

    f = resolve_map("logmap")
    if form == "expression":
        f = expression_map("log(x)", domain=f.domain)
    p = Segment(Euclidean(1), np.array([0.0]), np.array([20.0]))
    v = lift_path(f, p, np.array([1.0])).verdict
    assert v.kind == "FailedBlowUp"
    assert v.message == "norm %.3g > blowup_radius 1e+06" % v.last_norm
    assert v.last_norm > 1e6


def test_domain_exit_verdict():
    from liftkit import subset_from_expression, expression_map

    dom = subset_from_expression(Euclidean(1), "1 - x^2")
    f = expression_map("2*x", variables=("x",), domain=dom)
    p = Segment(Euclidean(1), np.array([0.0]), np.array([4.0]))
    trace = lift_path(f, p, np.array([0.0]))
    assert trace.verdict.kind == "FailedDomainExit"
    assert trace.verdict.b < 1.0


def test_lift_stops_at_a_fold_instead_of_changing_sheet():
    # det J = -1 - 4xy is -1 at the start; the path passes the critical
    # value F(0.5, -0.5) = (0.75, 0.75) at t = 0.375, and (2, 2) also has
    # the preimage (1, -1) on the sheet where det J > 0
    from liftkit import expression_map

    f = expression_map("(x + y^2, x^2 - y)", variables=("x", "y"))
    trace = lift_path(f, _seg2([0.0, 0.0], [2.0, 2.0]), np.zeros(2))
    assert trace.verdict.kind == "FailedSingular"
    assert trace.verdict.b == pytest.approx(0.375, abs=1e-6)
    assert np.allclose(trace.final_coords, [0.5, -0.5], atol=1e-4)


def test_loop_lift_polar_exp_shifts_by_two_pi(polar_exp):
    loop = Loop(Euclidean(2), np.array([0.0, 0.0]), 1.0)
    trace = lift_path(polar_exp, loop, np.array([0.0, 0.0]))
    assert trace.verdict.kind == "Completed"
    assert np.allclose(trace.final_coords, [0.0, 2 * np.pi], atol=1e-6)


def test_trace_interpolate_endpoint(shear3):
    p = _seg2([0.0, 0.0], [9.0, 2.0])
    trace = lift_path(shear3, p, np.array([0.0, 0.0]))
    a, b = trace.path_domain
    assert np.allclose(trace.interpolate(b), trace.final_coords)
    mid = trace.interpolate(0.5 * (a + b))
    assert mid.shape == (2,)


def test_trace_csv_shape(shear3):
    p = _seg2([0.0, 0.0], [9.0, 2.0])
    trace = lift_path(shear3, p, np.array([0.0, 0.0]))
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "t,x_1,x_2,residual,d_minus,step"
    assert len(lines) == len(trace.nodes) + 1


def test_analysis_identity_alpha_one():
    f = resolve_map("identity(2)")
    p = _seg2([0.0, 0.0], [1.0, 1.0])
    trace = lift_path(f, p, np.array([0.0, 0.0]))
    analysis = analyze_trace(trace)
    assert analysis.alpha_hat == pytest.approx(1.0, abs=1e-12)


def test_analysis_expmap_alpha_collapses(expmap):
    p = Segment(Euclidean(1), np.array([1.0]), np.array([0.0]))
    trace = lift_path(expmap, p, np.array([0.0]))
    analysis = analyze_trace(trace)
    assert analysis.alpha_hat <= np.exp(-5.0)


def test_analysis_measures_in_the_maps_domain():
    # the lift of the unit loop through exp on the cylinder R x S^1 goes
    # once round the circle, whose canonical chart coordinate jumps from
    # pi to -pi: chart-flat diameters near 2 pi, the cylinder's at most pi
    cyl = _CIRCLE_LINE
    f = expression_map(
        "(exp(x)*cos(y), exp(x)*sin(y))", ("x", "y"), domain=cyl, codomain=Euclidean(2)
    )
    trace = lift_path(f, Loop(Euclidean(2), [0.0, 0.0], 1.0), np.array([0.0, 0.0]))
    assert trace.verdict.completed
    ts, xs, _, _, _ = trace.node_arrays()
    analysis = analyze_trace(trace)
    for t, diam in analysis.tail_diameters:
        sel = xs[ts >= t]
        want = max((cyl.distance(a, b) for a in sel for b in sel), default=0.0)
        assert diam == pytest.approx(want, rel=1e-12, abs=1e-300)
    assert analysis.tail_diameters[0][1] == pytest.approx(math.pi, rel=1e-6)


def test_analysis_tail_diameters_decay(shear3):
    p = _seg2([0.0, 0.0], [9.0, 2.0])
    trace = lift_path(shear3, p, np.array([0.0, 0.0]))
    analysis = analyze_trace(trace)
    diams = [d for _, d in analysis.tail_diameters]
    assert all(b <= a + 1e-12 for a, b in zip(diams, diams[1:]))
    assert diams[-1] <= max(n.step for n in trace.nodes) * 10


def test_continuation_failure_exception_carries_trace(expmap):
    from liftkit import invert_at

    with pytest.raises(ContinuationFailure) as exc:
        invert_at(expmap, np.array([-1.0]), np.array([0.0]))
    assert exc.value.trace is not None
    assert not exc.value.verdict.completed


def test_options_validation():
    # step_min floors the halving of the first step, so it may not exceed it
    with pytest.raises(InputError, match="step_min"):
        LiftOptions(step_min=1.0)
    with pytest.raises(InputError, match="step_min"):
        LiftOptions(step_min=STEP_INIT * (1.0 + 1e-15))


@pytest.mark.parametrize(
    "bad",
    [
        {"max_nodes": 0},
        {"max_nodes": -1},
        {"max_nodes": math.inf},
        {"corrector_tol": 0.0},
        {"corrector_tol": -1e-10},
        {"corrector_tol": math.inf},
        {"corrector_tol": math.nan},
        {"step_min": 0.0},
        {"step_min": -1e-12},
        {"step_min": math.nan},
        {"step_min": math.inf},
    ],
)
def test_options_that_break_the_engine_are_refused(bad):
    with pytest.raises(InputError, match=next(iter(bad))):
        LiftOptions(**bad)


def test_options_at_their_limits_are_accepted(shear3):
    opts = LiftOptions(step_min=STEP_INIT, max_nodes=1)
    trace = lift_path(shear3, _seg2([0.0, 0.0], [9.0, 2.0]), np.zeros(2), opts)
    assert trace.verdict.kind == "FailedStall" and len(trace.nodes) == 1


def test_max_nodes_guard(shear3):
    p = _seg2([0.0, 0.0], [9.0, 2.0])
    opts = LiftOptions(max_nodes=3)
    trace = lift_path(shear3, p, np.array([0.0, 0.0]), opts)
    assert not trace.verdict.completed


_CIRCLE_LINE = ProductSpace((Euclidean(1), CircleQuotient()))


@pytest.mark.parametrize(
    "f, a, b, end",
    [
        # t -> t/2 lifts the circle's loop through the double cover
        (expression_map("2*x", codomain=CircleQuotient()), [0.0], [2 * math.pi],
         [math.pi]),
        # the lift winds twice in y, once in x, and is not reduced
        (expression_map("(x + 0.1*sin(y), y)", codomain=Torus(2)), [0.0, 0.0],
         [2 * math.pi, 4 * math.pi], [2 * math.pi, 4 * math.pi]),
        # y + x winds the circle factor; the domain's point is reduced
        (expression_map("(x, y + x)", domain=_CIRCLE_LINE, codomain=_CIRCLE_LINE),
         [0.0, 0.0], [1.0, 7.0], [1.0, 6.0 - 2 * math.pi]),
    ],
    ids=["circle", "torus", "product"],
)
def test_serial_lifts_through_quotients_and_products(f, a, b, end):
    # these spaces answer a point with their block forms' one-row blocks
    trace = lift_path(f, Segment(f.codomain, a, b), np.array(a))
    assert trace.verdict.kind == "Completed"
    assert len(trace.nodes) == 15
    assert trace.final_coords.tolist() == end
