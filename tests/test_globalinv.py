"""Global inversion: pointwise inverse, fibers, monodromy, QI bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftkit import (
    Box,
    ContinuationFailure,
    Euclidean,
    FiberReport,
    LiftkitError,
    LiftOptions,
    Loop,
    Point,
    fiber_enumerate,
    invert_at,
    jacobian_at,
    quasi_isometry_bounds,
    resolve_map,
    sheet_count,
)
from liftkit.globalinv import QIBounds
from oracles import SIG_MAX_SHEAR, SIG_MIN_SHEAR, shear_inverse


def test_invert_identity():
    f = resolve_map("identity(2)")
    pre = invert_at(f, np.array([3.0, -4.0]), np.array([0.0, 0.0]))
    assert np.allclose(pre.coords, [3.0, -4.0], atol=1e-10)


def test_invert_shear_oracle(shear3):
    pre = invert_at(shear3, np.array([9.0, 2.0]), np.array([0.0, 0.0]))
    assert np.allclose(pre.coords, [1.0, 2.0], atol=1e-8)


def test_invert_shear_random_targets(shear3, rng):
    for _ in range(8):
        y = rng.uniform(-15, 15, size=2)
        pre = invert_at(shear3, y, np.array([0.0, 0.0]))
        assert np.allclose(pre.coords, shear_inverse(*y), atol=1e-8)


def test_invert_expmap_outside_image_fails(expmap):
    with pytest.raises(ContinuationFailure) as exc:
        invert_at(expmap, np.array([-1.0]), np.array([0.0]))
    assert not exc.value.verdict.completed


def test_fiber_identity_single():
    f = resolve_map("identity(2)")
    rep = fiber_enumerate(f, np.array([0.5, 0.5]))
    assert rep.count == 1
    assert np.allclose(rep.preimages[0].coords, [0.5, 0.5], atol=1e-9)


def test_fiber_powk2_square_roots():
    f = resolve_map("powk(2)")
    rep = fiber_enumerate(f, np.array([1.0, 0.0]))
    assert rep.count == 2
    got = sorted(tuple(np.round(p.coords, 6)) for p in rep.preimages)
    assert got == [(-1.0, 0.0), (1.0, 0.0)]


def test_fiber_shear_unique(shear3, rng):
    for _ in range(3):
        y = rng.uniform(-5, 5, size=2)
        rep = fiber_enumerate(shear3, y)
        assert rep.count == 1
        assert np.allclose(rep.preimages[0].coords, shear_inverse(*y), atol=1e-8)


def test_fiber_note_is_best_effort(shear3):
    rep = fiber_enumerate(shear3, np.array([1.0, 1.0]))
    assert "best-effort" in rep.note


def test_fiber_check_validates_residuals():
    f = resolve_map("powk(2)")
    rep = fiber_enumerate(f, np.array([1.0, 0.0]))
    rep.check(f.domain, 1e-8)


def test_sheets_identity_orbit_one():
    f = resolve_map("identity(2)")
    loop = Loop(Euclidean(2), np.array([0.0, 0.0]), 1.0)
    rep = sheet_count(f, np.array([1.0, 0.0]), loop, np.array([1.0, 0.0]))
    assert rep.sheets == 1
    assert rep.monodromy["kind"] == "cyclic"
    assert rep.monodromy["order"] == 1


def test_sheets_powk2_two():
    f = resolve_map("powk(2)")
    loop = Loop(Euclidean(2), np.array([0.0, 0.0]), 1.0)
    rep = sheet_count(f, np.array([1.0, 0.0]), loop, np.array([1.0, 0.0]))
    assert rep.sheets == 2
    orbit = sorted(tuple(np.round(p.coords, 6)) for p in rep.preimages)
    assert orbit == [(-1.0, 0.0), (1.0, 0.0)]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sheets_agree_with_fiber(k):
    f = resolve_map("powk(%d)" % k)
    loop = Loop(Euclidean(2), np.array([0.0, 0.0]), 1.0)
    orbit_rep = sheet_count(f, np.array([1.0, 0.0]), loop, np.array([1.0, 0.0]))
    fiber_rep = fiber_enumerate(f, np.array([1.0, 0.0]))
    assert orbit_rep.sheets == k
    assert fiber_rep.count == k


def test_sheets_close_at_point_identity_under_a_loose_corrector():
    # the orbit closes where an endpoint equals a visited point, however
    # loose the corrector; the three endpoints are a corrector step apart
    f = resolve_map("powk(3)")
    loop = Loop(Euclidean(2), np.array([0.0, 0.0]), 1.0)
    y = np.array([1.0, 0.0])
    rep = sheet_count(f, y, loop, y, opts=LiftOptions(corrector_tol=1e-2))
    assert rep.sheets == 3
    with pytest.raises(LiftkitError, match="max_orbit must be at least 1"):
        sheet_count(f, y, loop, y, max_orbit=0)


def test_polar_exp_translation_monodromy(polar_exp):
    loop = Loop(Euclidean(2), np.array([0.0, 0.0]), 1.0)
    rep = sheet_count(
        polar_exp, np.array([1.0, 0.0]), loop, np.array([0.0, 0.0]), max_orbit=8
    )
    assert rep.sheets is None
    assert rep.monodromy["kind"] == "translation"
    vec = np.asarray(rep.monodromy["vector"])
    assert np.allclose(vec, [0.0, 2 * np.pi], atol=1e-6)
    assert len(rep.preimages) == 9  # start plus 8 orbits, no return


def test_sheets_requires_matching_target(shear3):
    loop = Loop(Euclidean(2), np.array([0.0, 0.0]), 1.0)
    from liftkit import InputError

    with pytest.raises(InputError):
        sheet_count(shear3, np.array([5.0, 5.0]), loop, np.array([0.0, 0.0]))


def test_qi_identity_one():
    f = resolve_map("identity(2)")
    region = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    b = quasi_isometry_bounds(f, region)
    assert b.alpha_hat == pytest.approx(1.0, abs=1e-12)
    assert b.beta_hat == pytest.approx(1.0, abs=1e-12)


def test_qi_shear_extremes_at_corners(shear3):
    region = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    b = quasi_isometry_bounds(shear3, region)
    assert b.beta_hat == pytest.approx(SIG_MAX_SHEAR, rel=1e-9)
    assert b.alpha_hat == pytest.approx(SIG_MIN_SHEAR, rel=1e-9)


def test_qi_expmap_compact_restriction(expmap):
    region = Box(np.array([-3.0]), np.array([3.0]))
    K = Box(np.array([np.exp(-1.0)]), np.array([np.exp(1.0)]))
    b = quasi_isometry_bounds(expmap, region, compact_K=K)
    assert b.alpha_K == pytest.approx(np.exp(-1.0), rel=0.05)
    assert b.n_in_K > 0


def test_qi_wide_map_alpha_zero():
    # a map dropping a coordinate cannot be expanding from below
    f = resolve_map("x + y")
    region = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    b = quasi_isometry_bounds(f, region)
    assert b.alpha_hat == 0.0


def test_qi_bounds_reject_nan():
    with pytest.raises(LiftkitError):
        QIBounds(
            alpha_hat=float("nan"), beta_hat=1.0, region=Box([0.0], [1.0]), n_samples=1
        )


def test_qi_bounds_overflow_is_typed_error():
    # exp's Jacobian overflows past 709.78, so no sample of [750, 800] is kept
    for spec in ("expmap", "exp(x)"):
        with pytest.raises(LiftkitError, match="no sample has a Jacobian"):
            quasi_isometry_bounds(resolve_map(spec), Box([750.0], [800.0]))


@pytest.mark.parametrize("spec", ["expmap", "exp(x)"])
def test_qi_bounds_drop_overflowing_samples_in_both_forms(spec):
    b = quasi_isometry_bounds(resolve_map(spec), Box([0.0], [800.0]))
    assert b.alpha_hat == 1.0
    assert b.beta_hat == pytest.approx(1.1958e308, rel=1e-4)
    assert b.n_samples == 457  # of 515 drawn, those below the overflow
    assert b.note == "sampled estimate over deterministic points, not a bound"


@pytest.mark.parametrize("spec", ["cubic_implicit", "y^3 + y - x"])
def test_qi_bounds_compact_set_skips_samples_whose_value_faults(spec):
    # y^3 overflows past y = 5.6e102: those samples' values are not in K
    b = quasi_isometry_bounds(
        resolve_map(spec), Box([0, 1e102], [1, 1e103]), n_samples=64,
        compact_K=Box([-1e308], [1e308]),
    )
    assert b.n_in_K == 28
    assert b.alpha_K == 0.0


@pytest.mark.parametrize("spec", ["cubic_implicit", "y^3 + y - x"])
def test_qi_bounds_keep_samples_whose_unread_value_overflows(spec):
    # where y^3 overflows the Jacobian [[-1, 3y^2 + 1]] is still finite,
    # so both forms keep every sample
    b = quasi_isometry_bounds(resolve_map(spec), Box([0, 1e102], [1, 1e103]), n_samples=64)
    assert b.n_samples == 69
    assert b.beta_hat == 3e206


@settings(max_examples=24, deadline=None)
@given(
    k=st.sampled_from([2, -2, 3, -3]),
    radius=st.floats(0.6, 1.9),  # inside the 0.5 < |x| < 2 annulus powk lives on
    angle=st.floats(-math.pi, math.pi),
)
def test_powk_fiber_count_and_orbit_length_are_the_sheet_count(k, radius, angle):
    # a covering projection's fibers all have the sheet count as their
    # cardinality, and the lifted loop's monodromy orbit visits them all
    f = resolve_map("powk(%d)" % k)
    x0 = np.array([radius * math.cos(angle), radius * math.sin(angle)])
    y = f.eval(x0)
    loop = Loop(Euclidean(2), np.zeros(2), math.hypot(*y), phase=math.atan2(y[1], y[0]))
    assert fiber_enumerate(f, y).count == abs(k)
    assert sheet_count(f, y, loop, x0).sheets == abs(k)


@settings(max_examples=36, deadline=None)
@given(
    k=st.sampled_from([5, -5, 7]),
    radius=st.floats(0.6, 1.9),
    angle=st.floats(-math.pi, math.pi),
)
def test_higher_powk_orbits_do_not_jump_sheets(k, radius, angle):
    # each lift of the image loop turns x by 2*pi/k; a lift step that
    # lands on another sheet changes the orbit and so its length
    f = resolve_map("powk(%d)" % k)
    x0 = np.array([radius * math.cos(angle), radius * math.sin(angle)])
    y = f.eval(x0)
    loop = Loop(Euclidean(2), np.zeros(2), math.hypot(*y), phase=math.atan2(y[1], y[0]))
    assert sheet_count(f, y, loop, x0).sheets == abs(k)


@settings(max_examples=40, deadline=None)
@given(
    target=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    start=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)
def test_lifting_through_shear3_inverts_shear3_inv(shear3, target, start):
    # the lifted preimage leaves a residual within the corrector
    # tolerance; shear3_inv stretches that residual by the norm of its
    # Jacobian at the target, so the preimage is that close to
    # shear3_inv(target)
    tol = LiftOptions().corrector_tol
    inv = resolve_map("shear3_inv")
    y = np.array(target)
    pre = invert_at(shear3, y, np.array(start)).coords
    assert np.linalg.norm(shear3.eval(pre) - y) <= tol
    lipschitz = np.linalg.norm(jacobian_at(inv, y), 2)
    assert np.linalg.norm(pre - inv.eval(y)) <= tol * lipschitz


def test_fiber_check_names_the_first_coinciding_pair():
    plane = Euclidean(2)
    pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1e-12], [1e-12, 0.0]]
    report = FiberReport(
        target=Point(np.zeros(2), plane),
        preimages=[Point(np.array(c), plane) for c in pts],
        residuals=[0.0] * 4,
        method="multistart",
        note="",
    )
    # (0, 3) and (1, 2) coincide; row-major order names (0, 3) first
    with pytest.raises(LiftkitError, match="fiber preimages 0 and 3 coincide"):
        report.check(plane, 1e-10)
    report.preimages = report.preimages[:2]
    report.residuals = report.residuals[:2]
    report.check(plane, 1e-10)
