"""End-to-end acceptance checks.

One test per shipped guarantee; each prints a single PASS line with the
measured numbers when it holds. Tolerances are stated inline and are
the contract, not aspirations.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from liftkit import (
    AffineWeight,
    Euclidean,
    ExpressionWeight,
    ImplicitProblem,
    Loop,
    Segment,
    ball_infimum_profile,
    classify_divergence,
    davidenko_lift,
    expression_map,
    fiber_enumerate,
    find_tau,
    invert_at,
    length_bounds_report,
    lift_path,
    polyline,
    resolve_map,
    scalar_derivatives,
    sheet_count,
    split_inequality_slack,
    surjection_constant,
    validate_weight,
    weight_certificate,
    weight_from_profile,
)
from liftkit.cli import run as cli_run
from oracles import FOLD_X, FOLD_Y, KEPLER_ROOT, shear_inverse


def _annulus_sector(rng):
    # powk's domain is the open annulus 0.5 < |z| < 2; a sector with
    # |angle| <= pi/6 and 0.7 <= r <= 1.8 keeps every chord inside it
    r = rng.uniform(0.7, 1.8)
    th = rng.uniform(-np.pi / 6, np.pi / 6)
    return np.array([r * np.cos(th), r * np.sin(th)])


def _samplers(rng):
    return [
        ("identity(2)", lambda: rng.uniform(-3, 3, 2)),
        ("shear3", lambda: rng.uniform(-3, 3, 2)),
        ("shear3_inv", lambda: rng.uniform(-3, 3, 2)),
        ("expmap", lambda: rng.uniform(-2, 2, 1)),
        ("logmap", lambda: rng.uniform(0.2, 5.0, 1)),
        ("polar_exp", lambda: rng.uniform(-1, 1, 2)),
        ("arctan", lambda: rng.uniform(-2, 2, 1)),
        ("inclusion", lambda: rng.uniform(-3, 3, 1)),
        ("powk(3)", lambda: _annulus_sector(rng)),
        ("cubic_implicit", lambda: rng.uniform(-2, 2, 2)),
    ]


def test_criterion_01_scalar_derivative_oracle_agreement():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    n_pts = 100
    for name, sample in _samplers(rng):
        f = resolve_map(name)
        for _ in range(n_pts):
            x = sample()
            svd = scalar_derivatives(f, x, method="jacobian_svd")
            shell = scalar_derivatives(f, x, method="shell_sampling")
            assert shell.d_plus == pytest.approx(svd.d_plus, rel=0.02), name
            if svd.d_minus > 0:
                assert shell.d_minus == pytest.approx(svd.d_minus, rel=0.02), name
            else:
                assert shell.d_minus == pytest.approx(0.0, abs=0.02), name
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(
        "ACCEPTANCE 01 PASS: jacobian_svd vs shell_sampling agree within 2%% "
        "on %d points of each of %d builtins (%.1fs)"
        % (n_pts, len(_samplers(rng)), elapsed)
    )


def test_criterion_02_inverse_duality():
    rng = np.random.default_rng(102)
    pairs = [
        ("shear3", "shear3_inv", lambda: rng.uniform(-3, 3, 2)),
        ("expmap", "logmap", lambda: rng.uniform(-2, 2, 1)),
    ]
    for fwd_name, inv_name, sample in pairs:
        f = resolve_map(fwd_name)
        g = resolve_map(inv_name)
        for _ in range(100):
            x = sample()
            y = f.eval(x)
            prod = scalar_derivatives(g, y).d_plus * scalar_derivatives(f, x).d_minus
            assert 0.98 <= prod <= 1.02, (fwd_name, x, prod)
    print(
        "ACCEPTANCE 02 PASS: D+(inverse) * D-(forward) in [0.98, 1.02] at "
        "100 paired points for (shear3, shear3_inv) and (expmap, logmap)"
    )


def test_criterion_03_surjection_constant_equals_d_minus():
    rng = np.random.default_rng(103)
    for name, box in [("shear3", 2.0), ("polar_exp", 1.0)]:
        f = resolve_map(name)
        for _ in range(50):
            x = rng.uniform(-box, box, 2)
            dm = scalar_derivatives(f, x).d_minus
            sur = surjection_constant(f, x).value
            assert sur == pytest.approx(dm, rel=0.05), (name, x)
    incl = resolve_map("inclusion")
    sur0 = surjection_constant(incl, np.array([0.0])).value
    dm0 = scalar_derivatives(incl, np.array([0.0])).d_minus
    assert sur0 < 1e-3
    assert dm0 == pytest.approx(1.0, abs=1e-6)
    print(
        "ACCEPTANCE 03 PASS: sur(f,x) matches D- within 5%% at 50 points of "
        "shear3 and polar_exp; inclusion has sur=%g with D-=%g" % (sur0, dm0)
    )


def _random_polyline(rng, name, f):
    m = int(rng.integers(3, 6))
    if name == "powk(3)":
        knots = np.stack([_annulus_sector(rng) for _ in range(m)])
    elif name == "logmap":
        knots = rng.uniform(0.2, 5.0, (m, 1))
    elif name in ("expmap", "arctan", "inclusion"):
        knots = rng.uniform(-2, 2, (m, 1))
    elif name == "polar_exp":
        knots = rng.uniform(-1, 1, (m, 2))
    else:
        knots = rng.uniform(-3, 3, (m, 2))
    return polyline(f.domain, knots)


def test_criterion_04_mean_value_inequalities():
    rng = np.random.default_rng(104)
    t0 = time.monotonic()
    pool = [(n, s) for n, s in _samplers(rng) if n != "cubic_implicit"]
    names = [n for n, _ in pool]
    n_pairs = 500
    for i in range(n_pairs):
        name = names[int(rng.integers(len(names)))]
        f = resolve_map(name)
        q = _random_polyline(rng, name, f)
        rep = length_bounds_report(f, q, rel_slack=0.05)
        assert rep.upper_pass, (name, i)
        if rep.inf_d_minus > 0:
            assert rep.lower_pass, (name, i)
        cert = find_tau(f, q, direction="upper")
        assert cert.passed, (name, i)
        assert cert.derivative_at_tau * 1.05 >= cert.global_ratio
    n_triples = 0
    worst = np.inf
    for name in ("shear3", "expmap", "polar_exp", "logmap", "arctan"):
        f = resolve_map(name)
        for _ in range(4):
            q = _random_polyline(rng, name, f)
            a, b = q.domain
            for t in np.linspace(a, b, 502)[1:-1]:
                slack = split_inequality_slack(f, q, t=float(t))
                worst = min(worst, slack)
                n_triples += 1
                assert slack >= -1e-9, (name, t)
    assert n_triples == 10000
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        "ACCEPTANCE 04 PASS: both mean-value inequalities hold with 5%% slack "
        "on %d (map, polyline) pairs; split slack >= -1e-9 on %d triples "
        "(worst %.2e, %.1fs)" % (n_pairs, n_triples, worst, elapsed)
    )


def test_criterion_05_lifting_oracle():
    rng = np.random.default_rng(105)
    shear = resolve_map("shear3")
    plane = Euclidean(2)
    worst = 0.0
    for _ in range(50):
        target = rng.uniform(-20, 20, 2)
        p = Segment(plane, np.zeros(2), target)
        trace = lift_path(shear, p, np.zeros(2))
        assert trace.verdict.kind == "Completed"
        err = float(np.linalg.norm(trace.final_coords - shear_inverse(*target)))
        worst = max(worst, err)
        assert err <= 1e-8
    expmap = resolve_map("expmap")
    p = Segment(Euclidean(1), np.array([1.0]), np.array([0.0]))
    trace = lift_path(expmap, p, np.array([0.0]))
    assert not trace.verdict.completed
    assert trace.verdict.b >= 0.999
    assert trace.final_coords[0] <= -5.0
    print(
        "ACCEPTANCE 05 PASS: 50 shear3 lifts hit the explicit inverse "
        "(worst error %.1e <= 1e-8); expmap lift toward 0 fails at b=%.4f "
        "with x=%.1f" % (worst, trace.verdict.b, trace.final_coords[0])
    )


def test_criterion_06_covering_behavior():
    plane = Euclidean(2)
    loop = Loop(plane, np.zeros(2), 1.0)
    for k in (2, 3, 4):
        f = resolve_map("powk(%d)" % k)
        orb = sheet_count(f, np.array([1.0, 0.0]), loop, np.array([1.0, 0.0]))
        fib = fiber_enumerate(f, np.array([1.0, 0.0]))
        assert orb.sheets == k, k
        assert fib.count == k, k
    pe = resolve_map("polar_exp")
    rep = sheet_count(
        pe, np.array([1.0, 0.0]), loop, np.zeros(2), max_orbit=8
    )
    assert rep.sheets is None
    assert rep.monodromy["kind"] == "translation"
    assert np.allclose(rep.monodromy["vector"], [0.0, 2 * np.pi], atol=1e-6)
    assert "no return" in rep.note
    print(
        "ACCEPTANCE 06 PASS: powk sheet counts (orbit and multistart) equal "
        "k for k in {2,3,4}; polar_exp monodromy is translation by "
        "(0, 2pi) within 1e-6 with no return in 8 orbits"
    )


def test_criterion_07_hadamard_classifier():
    ident = resolve_map("identity(2)")
    cls_i = classify_divergence(ball_infimum_profile(ident, np.zeros(2)))
    assert cls_i.klass == "divergent"

    expmap = resolve_map("expmap")
    cls_e = classify_divergence(ball_infimum_profile(expmap, np.zeros(1)))
    assert cls_e.klass == "convergent"

    shear = resolve_map("shear3")
    cls_s = classify_divergence(ball_infimum_profile(shear, np.zeros(2)))
    assert cls_s.klass in ("convergent", "inconclusive")
    # the integral test is sufficient, not necessary: the map still
    # inverts globally, and the report must say so
    rng = np.random.default_rng(107)
    for _ in range(20):
        y = rng.uniform(-20, 20, 2)
        pre = invert_at(shear, y, np.zeros(2))
        assert np.allclose(shear.eval(pre.coords), y, atol=1e-8)
    assert cls_s.caveat
    assert "sufficient" in cls_s.caveat
    print(
        "ACCEPTANCE 07 PASS: identity -> divergent, expmap -> convergent, "
        "shear3 -> %s while invert_at succeeds on 20 random targets; "
        "non-necessity caveat present" % cls_s.klass
    )


def test_criterion_08_weight_machinery():
    ok = validate_weight(AffineWeight(1.0, 1.0))
    assert ok.ok
    bad_sq = validate_weight(ExpressionWeight("1 + t^2"))
    assert not bad_sq.ok
    bad_exp = validate_weight(ExpressionWeight("exp(t)"))
    assert not bad_exp.ok

    ident = resolve_map("identity(2)")
    prof = ball_infimum_profile(ident, np.zeros(2))
    assert classify_divergence(prof).klass == "divergent"
    w = weight_from_profile(prof)
    cert = weight_certificate(ident, np.zeros(2), w, points=prof.sample_coords)
    assert cert.passed
    assert cert.worst_margin >= -1e-9
    print(
        "ACCEPTANCE 08 PASS: Affine(1,1) accepted, 1+t^2 and exp(t) "
        "rejected; divergent-profile weight certificate passes on the "
        "profile's own samples (worst margin %.2e)" % cert.worst_margin
    )


def test_criterion_09_implicit_continuation():
    traces = []

    cubic = ImplicitProblem(resolve_map("cubic_implicit"), 1, np.array([0.0]))
    seg = Segment(cubic.x_space, np.array([0.0]), np.array([2.0]))
    tr = davidenko_lift(cubic, seg, np.array([0.0]))
    traces.append(tr)
    assert tr.verdict.kind == "Completed"
    assert tr.final_y[0] == pytest.approx(1.0, abs=1e-8)

    kepler = ImplicitProblem(
        expression_map("y + 0.5*sin(y) - x", variables=("x", "y")),
        1,
        np.array([0.0]),
    )
    seg = Segment(kepler.x_space, np.array([0.0]), np.array([1.0]))
    tr = davidenko_lift(kepler, seg, np.array([0.0]))
    traces.append(tr)
    assert tr.verdict.kind == "Completed"
    assert tr.final_y[0] == pytest.approx(KEPLER_ROOT, abs=1e-8)

    fold = ImplicitProblem(
        expression_map("y^3 - y - x", variables=("x", "y")), 1, np.array([0.0])
    )
    seg = Segment(fold.x_space, np.array([0.0]), np.array([FOLD_X]))
    tr = davidenko_lift(fold, seg, np.array([1.0]))
    traces.append(tr)
    assert tr.verdict.kind == "FailedSingular"
    assert tr.nodes[-1].jy_smin < 1e-6
    assert tr.final_y[0] == pytest.approx(FOLD_Y, abs=1e-2)

    worst = max(n.residual for t in traces for n in t.nodes)
    assert worst <= 1e-8
    print(
        "ACCEPTANCE 09 PASS: cubic y(2)=1 and Kepler endpoint within 1e-8; "
        "fold stops Singular with smin=%.1e; residual <= 1e-8 at all %d "
        "nodes (worst %.1e)"
        % (traces[-1].nodes[-1].jy_smin, sum(len(t.nodes) for t in traces), worst)
    )


def test_criterion_10_cli_determinism(tmp_path):
    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_run(argv)
        return code, buf.getvalue()

    argv = [
        "lift", "--map", "shear3", "--path", "seg:0,0,9,2",
        "--start", "0,0", "--json",
    ]
    code_a, out_a = capture(list(argv))
    code_b, out_b = capture(list(argv))
    assert code_a == code_b == 0
    assert out_a == out_b

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    capture(argv + ["--out", str(dir_a)])
    capture(argv + ["--out", str(dir_b)])
    for name in ("report.json", "lift_trace.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    json.loads(out_a)
    print(
        "ACCEPTANCE 10 PASS: identical CLI invocations produce byte-identical "
        "stdout, report.json, and CSV artifacts"
    )
