"""Ball-infimum profiles, divergence classification, weight machinery."""

import dataclasses
import re

import numpy as np
import pytest

from liftkit import (
    AffineWeight,
    ConstantWeight,
    DomainError,
    EvalDomainError,
    ExpressionWeight,
    InputError,
    PowerWeight,
    TableWeight,
    ball_infimum_profile,
    classify_divergence,
    resolve_map,
    validate_weight,
    weight_certificate,
    weight_from_profile,
)
from liftkit.hadamard import default_radii
from liftkit.sampling import sphere_directions, unit_box_points
from liftkit.sderiv import compass_search, d_pm_from_jacobian
from oracles import EXP_AFFINE_AT_M3, shear_ball_infimum


def test_affine_1_1_accepted():
    val = validate_weight(AffineWeight(1.0, 1.0))
    assert val.ok
    assert val.divergence == "divergent"


def test_power_quadratic_rejected():
    # 1 + t^2: positive, monotone, but integral of dt/(1+t^2) converges
    val = validate_weight(PowerWeight(1.0, 1.0, 2.0))
    assert not val.ok
    assert val.divergence == "convergent"


def test_exponential_expression_rejected():
    val = validate_weight(ExpressionWeight("exp(t)"))
    assert not val.ok


def test_constant_weight_accepted():
    val = validate_weight(ConstantWeight(2.0))
    assert val.ok
    assert val.divergence == "divergent"


def test_sqrt_growth_expression_accepted():
    # ~ t growth: divergent like the affine weight
    val = validate_weight(ExpressionWeight("sqrt(1 + t^2)"))
    assert val.ok


def test_decreasing_expression_rejected():
    val = validate_weight(ExpressionWeight("1/(1 + t)"))
    assert not val.ok
    assert any("decreasing" in r for r in val.reasons)


def test_nonpositive_weight_rejected():
    val = validate_weight(ExpressionWeight("t - 1"))
    assert not val.ok


def test_power_gamma_one_divergent():
    val = validate_weight(PowerWeight(1.0, 1.0, 1.0))
    assert val.ok


_FAMILIES = [
    (ConstantWeight(2.5), lambda t: np.full(np.shape(t), 2.5)),
    (AffineWeight(0.3, 1.7), lambda t: 0.3 + 1.7 * t),
    (PowerWeight(0.3, 1.7, 2.0), lambda t: 0.3 + 1.7 * np.power(t, 2.0)),
    (PowerWeight(1.0, 0.1, 0.5), lambda t: 1.0 + 0.1 * np.power(t, 0.5)),
    (PowerWeight(2.0, 3.0, 1.3), lambda t: 2.0 + 3.0 * np.power(t, 1.3)),
]


@pytest.mark.parametrize("w, formula", _FAMILIES, ids=lambda v: getattr(v, "family", ""))
def test_closed_families_are_their_formulas_bitwise(w, formula):
    t = np.concatenate([[0.0, 1.0, 1e-300, 1e150], np.geomspace(1e-6, 1e6, 97)])
    got = w(t)
    assert got.shape == t.shape
    assert got.view(np.int64).tolist() == formula(t).view(np.int64).tolist()
    for s in t[::7].tolist():
        assert type(w(s)) is float
        assert np.float64(w(s)).view(np.int64) == np.float64(formula(s)).view(np.int64)


def test_closed_families_keep_their_repr_equality_and_description():
    assert repr(ConstantWeight(2.0)) == "ConstantWeight(c=2.0)"
    assert repr(AffineWeight(1.0, 0.5)) == "AffineWeight(a=1.0, b=0.5)"
    assert repr(PowerWeight(1.0, 1.0, 2.0)) == "PowerWeight(a=1.0, b=1.0, gamma=2.0)"
    assert AffineWeight(1.0, 1.0) == AffineWeight(1.0, 1.0)
    assert AffineWeight(1.0, 1.0) != AffineWeight(1.0, 2.0)
    assert hash(PowerWeight(1.0, 1.0, 2.0)) == hash(PowerWeight(1.0, 1.0, 2.0))
    assert ConstantWeight(2.0).describe() == "constant 2"
    assert AffineWeight(1.0, 0.5).describe() == "affine 1 + 0.5 t"
    assert PowerWeight(1.0, 1.0, 2.0).describe() == "power 1 + 1 t^2"
    with pytest.raises(dataclasses.FrozenInstanceError):
        AffineWeight(1.0, 1.0).a = 2.0
    rulings = [w.divergence for w, _ in _FAMILIES]
    assert rulings == ["divergent", "divergent", "convergent", "divergent", "convergent"]
    assert ExpressionWeight("1 + t").divergence == "unknown"


def test_table_weight_validation():
    w = TableWeight(np.array([1.0, 2.0, 4.0]), np.array([1.0, 2.0, 8.0]))
    assert w(0.5) == 1.0
    assert w(1.5) == 2.0
    assert w(100.0) == 8.0
    with pytest.raises(InputError):
        TableWeight(np.array([2.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        TableWeight(np.array([1.0, 2.0]), np.array([2.0, 1.0]))


def test_identity_profile_constant_one():
    f = resolve_map("identity(2)")
    prof = ball_infimum_profile(f, np.array([0.0, 0.0]))
    assert prof.regular
    assert np.allclose(prof.infima, 1.0, atol=1e-9)
    cls = classify_divergence(prof)
    assert cls.klass == "divergent"
    assert not cls.caveat


def test_expmap_profile_matches_exponential(expmap):
    prof = ball_infimum_profile(expmap, np.array([0.0]))
    want = np.exp(-prof.radii)
    assert np.all(np.abs(prof.infima - want) <= 0.05 * want)
    cls = classify_divergence(prof)
    assert cls.klass == "convergent"
    assert cls.best_model == "exponential"
    assert "sufficient condition" in cls.caveat


def test_shear_profile_oracle_radii(shear3):
    radii = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 10.0])
    prof = ball_infimum_profile(shear3, np.array([0.0, 0.0]), radii=radii)
    for r, got in zip(radii, prof.infima):
        assert got == pytest.approx(shear_ball_infimum(r), rel=0.05)


def test_shear_profile_never_divergent(shear3):
    prof = ball_infimum_profile(shear3, np.array([0.0, 0.0]))
    cls = classify_divergence(prof)
    assert cls.klass in ("convergent", "inconclusive")
    assert cls.caveat is not None
    assert "sufficient" in cls.caveat


def test_profile_infima_nested(shear3):
    prof = ball_infimum_profile(shear3, np.array([0.0, 0.0]))
    diffs = np.diff(prof.infima)
    assert np.all(diffs <= 1e-12)


def test_profile_partial_integrals_monotone(expmap):
    prof = ball_infimum_profile(expmap, np.array([0.0]))
    parts = prof.partial_integrals
    assert parts[0] == 0.0
    assert np.all(np.diff(parts) >= 0)


def test_profile_csv_header(expmap):
    prof = ball_infimum_profile(expmap, np.array([0.0]))
    lines = prof.to_csv().strip().splitlines()
    assert lines[0] == "t,r,partial_integral"
    assert len(lines) == len(prof.radii) + 1


def test_classify_needs_enough_radii(expmap):
    prof = ball_infimum_profile(expmap, np.array([0.0]), radii=np.array([1.0, 2.0, 4.0]))
    with pytest.raises(InputError):
        classify_divergence(prof)


def test_certificate_identity_constant_weight():
    f = resolve_map("identity(2)")
    cert = weight_certificate(f, np.array([0.0, 0.0]), ConstantWeight(1.0))
    assert cert.passed
    assert cert.worst_margin >= -1e-6


def test_certificate_expmap_affine_fails(expmap):
    cert = weight_certificate(expmap, np.array([0.0]), AffineWeight(1.0, 1.0))
    assert not cert.passed
    # the analytic counterexample at x = -3: e^-3 * (1 + 3) < 1
    assert EXP_AFFINE_AT_M3 < 1.0
    assert cert.worst_margin < EXP_AFFINE_AT_M3 - 1.0 + 0.05


def test_certificate_shear_any_divergent_weight_fails(shear3):
    from liftkit import Box

    region = Box(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
    cert = weight_certificate(
        shear3, np.array([0.0, 0.0]), AffineWeight(1.0, 1.0), sample_region=region
    )
    assert not cert.passed


def test_certificate_rejects_invalid_weight(shear3):
    with pytest.raises(InputError):
        weight_certificate(shear3, np.array([0.0, 0.0]), PowerWeight(1.0, 1.0, 2.0))


def test_round_trip_divergent_profile_certificate():
    f = resolve_map("identity(2)")
    prof = ball_infimum_profile(f, np.array([0.0, 0.0]))
    w = weight_from_profile(prof)
    assert validate_weight(w).ok
    pts = prof.sample_coords
    cert = weight_certificate(f, np.array([0.0, 0.0]), w, points=pts)
    assert cert.passed
    assert cert.worst_margin >= -1e-9


def test_table_weight_is_always_divergence_admissible(expmap):
    # a finite table is bounded, so its reciprocal integral diverges;
    # a convergent profile shows up in the certificate, not here
    prof = ball_infimum_profile(expmap, np.array([0.0]))
    w = weight_from_profile(prof)
    assert validate_weight(w).ok


def test_weight_from_vanishing_profile_rejected():
    # f(x) = x^2 has d_minus = 0 at the center, so every ball infimum
    # vanishes and no reciprocal weight exists
    from liftkit import expression_map

    f = expression_map("x^2", variables=("x",))
    prof = ball_infimum_profile(f, np.array([0.0]))
    assert not prof.regular
    with pytest.raises(InputError):
        weight_from_profile(prof)


def test_certificate_on_wide_map_uses_zero_lower_derivative():
    # a map from R^2 to R^1 has lower scalar derivative 0 everywhere
    cert = weight_certificate(
        resolve_map("cubic_implicit"),
        [0.0, 0.0],
        ConstantWeight(1.0),
        points=[[0.0, 0.0], [1.0, 1.0]],
    )
    assert not cert.passed
    assert cert.worst_margin == -1.0


def _per_radius_profile(f, x0, radii, budget):
    """Reference profile with one compass search per radius: the
    (infima, samples per radius, partial integrals, regular, samples)
    that the single lockstep search over all radii must reproduce."""
    dim = x0.size
    dirs = sphere_directions(min(64 * dim, 256), dim)
    base = unit_box_points(64 * dim, dim) * 2.0 - 1.0
    u = np.linspace(1.0 / base.shape[0], 1.0, base.shape[0])
    norms = np.linalg.norm(base, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    interior = base / norms * (u ** (1.0 / dim))[:, None]
    pts = [x0 + t * block for t in radii for block in (dirs, interior)]

    def in_ball(pts, t):
        pts = f.domain.canonical(pts)
        d = f.domain.distance_many(pts, np.broadcast_to(x0, pts.shape))
        ok = f.domain.contains_many(pts) & (d <= t * (1.0 + 1e-12))
        return pts[ok], ok, d[ok]

    def smin(pts):
        return d_pm_from_jacobian(f.jacobians_many(pts))[0]

    cand, _, dists = in_ball(np.concatenate(pts + [x0[None, :]]), radii[-1])
    smins = smin(cand)
    samples = [(cand, smins, dists)]
    for t in radii:
        sel = dists <= t * (1.0 + 1e-12)
        order = np.flatnonzero(sel)[np.argsort(smins[sel], kind="stable")]

        def objective(pts, _rows, t=t):
            pts, ok, d = in_ball(pts, t)
            vals = np.full(ok.shape, np.inf)
            try:
                vals[ok] = smin(pts)
            except (DomainError, EvalDomainError):
                # a faulting point is infeasible on its own
                vals[ok] = [_smin_or_inf(smin, p) for p in pts]
            feasible = np.isfinite(vals[ok])
            samples.append((pts[feasible], vals[ok][feasible], d[feasible]))
            return vals

        start = order[:budget]
        compass_search(objective, cand[start], smins[start], 0.05 * t, 1e-6 * t, 25)

    xs, ss, ds = (np.concatenate(part) for part in zip(*samples))
    infima, counts = np.empty(radii.shape), np.empty(radii.shape, dtype=int)
    for j, t in enumerate(radii):
        sel = ds <= t * (1.0 + 1e-12)
        counts[j] = sel.sum()
        infima[j] = ss[sel].min()
        if j > 0:
            infima[j] = min(infima[j], infima[j - 1])
    steps = 0.5 * (infima[1:] + infima[:-1]) * np.diff(radii)
    partial = np.concatenate([[0.0], np.cumsum(steps)])
    regular = not np.any(~np.isfinite(ss) | (ss <= 0.0))
    return infima, counts, partial, regular, (xs, ss, ds)


def _sorted_samples(xs, ss, ds):
    rows = np.column_stack([xs, ss, ds])
    return rows[np.lexsort(rows.T[::-1])]


def _assert_profile_is_reference(prof, ref):
    infima, counts, partial, regular, samples = ref
    assert np.array_equal(prof.infima, infima)
    assert np.array_equal(prof.samples_per_radius, counts)
    assert np.array_equal(prof.partial_integrals, partial)
    assert prof.regular == regular
    assert np.array_equal(
        _sorted_samples(prof.sample_coords, prof.sample_d_minus, prof.sample_dists),
        _sorted_samples(*samples),
    )


PROFILE_MAPS = [
    "shear3",
    "(x + y^3, y)",
    "polar_exp",
    "(exp(x)*cos(y), exp(x)*sin(y))",
    "identity(2)",
    "(x, y)",
    "expmap",
    "(exp(x)*cos(y), exp(x)*sin(y), z + x^2)",
]


@pytest.mark.parametrize("spec", PROFILE_MAPS)
@pytest.mark.parametrize(
    "center, radii, budget",
    [(0.0, None, 32), (0.5, np.geomspace(0.1, 100.0, 12), 8)],
    ids=["default-radii", "bench-radii"],
)
def test_profile_equals_one_search_per_radius(spec, center, radii, budget):
    f = resolve_map(spec)
    x0 = np.full(f.domain.dim, center)
    if radii is None:
        radii = default_radii(x0)
    prof = ball_infimum_profile(f, x0, radii=radii, budget=budget)
    _assert_profile_is_reference(prof, _per_radius_profile(f, x0, radii, budget))


@pytest.mark.parametrize("spec", ["expmap", "exp(x)"])
def test_profile_center_fault_is_input_error(spec):
    with pytest.raises(InputError, match=re.escape("the Jacobian of %s faults" % spec)):
        ball_infimum_profile(resolve_map(spec), np.array([800.0]))


@pytest.mark.parametrize("spec", ["shear3", "(x + y^3, y)", "identity(2)"])
def test_profile_evaluates_each_start_once(spec):
    # the polish starts from the samples' own values: no start row is
    # evaluated, and so stored, a second time
    f = resolve_map(spec)
    x0 = np.zeros(f.domain.dim)
    radii = np.geomspace(0.1, 100.0, 12)
    prof = ball_infimum_profile(f, x0, radii=radii, budget=8)
    n = 2 * radii.size * 64 * f.domain.dim + 1  # the first pass's samples
    xs, ss, ds = prof.sample_coords, prof.sample_d_minus, prof.sample_dists
    by_smin = np.argsort(ss[:n], kind="stable")
    starts = np.unique(np.concatenate(
        [by_smin[ds[by_smin] <= t * (1.0 + 1e-12)][:8] for t in radii]))
    for i in starts:
        assert (xs == xs[i]).all(axis=1).sum() == 1


def _smin_or_inf(smin, p):
    try:
        return smin(p[None, :])[0]
    except (DomainError, EvalDomainError):
        return np.inf


def _faulting_in_band(f, x0, lo, hi):
    """f whose batched Jacobian is NaN at the rows at distance in
    [lo, hi] from x0 on any block after the first (the profile's initial
    samples); faults[0] counts the rows so marked."""
    faults = [0]
    calls = [0]

    def jac_many(pts):
        calls[0] += 1
        jac = np.array(f.jac_many_fn(pts))
        d = np.linalg.norm(pts - x0, axis=1)
        if calls[0] > 1:
            band = (d >= lo) & (d <= hi)
            jac[band] = np.nan
            faults[0] += int(band.sum())
        return jac

    return dataclasses.replace(f, jac_many_fn=jac_many), faults


@pytest.mark.parametrize("spec", ["shear3", "(x + y^3, y)"])
def test_profile_fault_leaves_only_its_point_infeasible(spec):
    # a polish candidate whose Jacobian faults is infeasible, and the
    # other candidates of its block, of its radius and of the others,
    # are not: the lockstep profile still ends where one search per
    # radius ends, each skipping exactly the faulting points
    f = resolve_map(spec)
    x0 = np.zeros(2)
    radii = np.geomspace(0.1, 100.0, 12)
    g, faults = _faulting_in_band(f, x0, 1.17, 1.2)
    prof = ball_infimum_profile(g, x0, radii=radii, budget=8)
    assert faults[0] > 0
    g, ref_faults = _faulting_in_band(f, x0, 1.17, 1.2)
    _assert_profile_is_reference(prof, _per_radius_profile(g, x0, radii, 8))
    assert ref_faults[0] > 0
