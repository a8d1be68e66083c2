"""Mean value certificates: bisection witnesses, split inequality,
length bounds."""

import numpy as np
import pytest

from liftkit import (
    DegenerateInputError,
    Euclidean,
    Loop,
    Sampled,
    Segment,
    expression_map,
    find_tau,
    length_bounds_report,
    mapped_path,
    path_length,
    polyline,
    resolve_map,
    split_inequality_slack,
)


def _square_map():
    return expression_map("x^2", variables=("x",))


def _unit_segment(a=0.0, b=1.0):
    return Segment(Euclidean(1), np.array([a]), np.array([b]))


def test_split_slack_identity_nonneg():
    f = resolve_map("identity(1)")
    q = _unit_segment()
    s = split_inequality_slack(f, q, t=0.5)
    assert s >= -1e-12


def test_split_slack_square_map_at_half():
    # arc-length segment [0,1], f(x)=x^2: direct arithmetic on the
    # three ratios gives slack >= 0
    f = _square_map()
    q = _unit_segment()
    s = split_inequality_slack(f, q, t=0.5)
    assert s >= 0.0


def test_split_slack_constant_map_zero():
    f = expression_map("x*0", variables=("x",))
    q = _unit_segment()
    s = split_inequality_slack(f, q, t=0.5)
    assert s == pytest.approx(0.0, abs=1e-12)


def test_upper_tau_square_map():
    # global ratio = d(f(1), f(0)) / 1 = 1; D+ at tau is 2 tau, so the
    # certificate needs 2 tau >= 1 - tol
    f = _square_map()
    q = _unit_segment()
    cert = find_tau(f, q, direction="upper")
    assert cert.passed
    assert 2.0 * cert.tau_point[0] >= cert.global_ratio * (1.0 - 0.05)


def test_lower_tau_square_map_on_1_2():
    # ell(p) = 3, d(q(1), q(2)) = 1; D- at tau is 2 tau <= 3 + tol
    f = _square_map()
    q = _unit_segment(1.0, 2.0)
    cert = find_tau(f, q, direction="lower")
    assert cert.passed
    assert 2.0 * cert.tau_point[0] <= cert.global_ratio * (1.0 + 0.05)
    assert cert.global_ratio == pytest.approx(3.0, rel=1e-6)


def test_upper_tau_identity_slack_zero():
    f = resolve_map("identity(1)")
    q = _unit_segment()
    cert = find_tau(f, q, direction="upper")
    assert cert.passed
    assert abs(cert.final_slack) <= 0.05


def test_certificate_monotone_ratio_sequence(shear3):
    q = Segment(Euclidean(2), np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    cert = find_tau(shear3, q, direction="upper")
    assert cert.passed
    assert cert.check_monotone()


def test_lower_rejects_coincident_endpoints():
    f = _square_map()
    loop_knots = np.array([[0.0], [1.0], [0.0]])
    q = polyline(Euclidean(1), loop_knots)
    with pytest.raises(DegenerateInputError):
        find_tau(f, q, direction="lower")


def test_lower_rejects_a_closed_loop(shear3):
    # the loop's ends differ by rounding: (1, 0) and (1, -2.4e-16)
    q = Loop(Euclidean(2), np.zeros(2), 1.0)
    assert np.linalg.norm(q.eval(1.0) - q.eval(0.0)) > 0.0
    with pytest.raises(DegenerateInputError, match="distinct path endpoints"):
        find_tau(shear3, q, direction="lower")
    with pytest.raises(DegenerateInputError, match="endpoints coincide"):
        split_inequality_slack(shear3, q, direction="lower")


def test_split_slack_lower_on_a_segment(shear3):
    q = Segment(Euclidean(2), np.array([0.0, 0.0]), np.array([1.0, 0.5]))
    assert split_inequality_slack(shear3, q, t=0.3, direction="lower") >= 0.0


def test_constant_path_upper_rejected():
    f = _square_map()
    q = Sampled(Euclidean(1), [0.0], [[0.5]], degenerate=True)
    with pytest.raises(DegenerateInputError):
        find_tau(f, q, direction="upper")


def test_nonunit_speed_path_is_reparametrized(shear3):
    q = Segment(Euclidean(2), np.array([0.0, 0.0]), np.array([2.0, 2.0]))
    cert = find_tau(shear3, q, direction="upper")
    assert cert.reparametrized
    assert cert.passed


def test_length_bounds_identity_tight():
    f = resolve_map("identity(2)")
    q = Segment(Euclidean(2), np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    rep = length_bounds_report(f, q)
    assert rep.upper_pass and rep.lower_pass
    assert rep.len_p == pytest.approx(rep.len_q, rel=1e-12)


def test_length_bounds_constant_map_skips_lower():
    f = expression_map("x*0", variables=("x",))
    q = _unit_segment()
    rep = length_bounds_report(f, q)
    assert rep.upper_pass
    assert rep.lower_skipped
    assert rep.len_p == pytest.approx(0.0, abs=1e-12)
    assert "inf D^-" in rep.skip_reason


def test_length_bounds_shear_polyline(shear3, rng):
    knots = rng.uniform(-2, 2, size=(5, 2))
    q = polyline(Euclidean(2), knots)
    rep = length_bounds_report(shear3, q)
    assert rep.upper_pass
    assert rep.lower_skipped or rep.lower_pass


def test_mapped_path_composes(shear3):
    q = Segment(Euclidean(2), np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    p = mapped_path(shear3, q)
    ts = np.linspace(*q.domain, 9)
    want = np.stack([shear3.eval(x) for x in q.eval_many(ts)])
    assert np.allclose(p.eval_many(ts), want)


def test_mapped_length_consistency(shear3):
    q = Segment(Euclidean(2), np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    p = mapped_path(shear3, q)
    lp = path_length(p).require()
    # the image of the diagonal under (x + y^3, y) from (0,0) to (2,1)
    assert lp > path_length(q).require()
