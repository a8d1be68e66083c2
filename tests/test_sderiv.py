"""Scalar derivative estimates: SVD route, shell sampling, duality,
surjection constant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftkit import (
    d_pm_from_jacobian,
    jacobian_at,
    resolve_map,
    scalar_derivatives,
    surjection_constant,
)
from liftkit.sampling import sphere_directions
from liftkit.sderiv import compass_search
from oracles import SIG_MAX_SHEAR, SIG_MIN_SHEAR


def test_identity_both_one():
    f = resolve_map("identity(2)")
    est = scalar_derivatives(f, np.array([0.7, -0.2]))
    assert est.d_minus == pytest.approx(1.0, abs=1e-12)
    assert est.d_plus == pytest.approx(1.0, abs=1e-12)


def test_expmap_at_zero(expmap):
    est = scalar_derivatives(expmap, np.array([0.0]))
    assert est.d_minus == pytest.approx(1.0, abs=1e-12)
    assert est.d_plus == pytest.approx(1.0, abs=1e-12)


def test_shear_at_0_1_oracle(shear3):
    est = scalar_derivatives(shear3, np.array([0.0, 1.0]))
    assert est.d_plus == pytest.approx(SIG_MAX_SHEAR, rel=1e-10)
    assert est.d_minus == pytest.approx(SIG_MIN_SHEAR, rel=1e-10)


def test_shell_sampling_agrees_with_svd(shear3):
    x = np.array([0.0, 1.0])
    svd = scalar_derivatives(shear3, x, method="jacobian_svd")
    shell = scalar_derivatives(shear3, x, method="shell_sampling")
    assert shell.d_minus == pytest.approx(svd.d_minus, rel=0.02)
    assert shell.d_plus == pytest.approx(svd.d_plus, rel=0.02)
    assert shell.scale_report is not None


def test_d_pm_from_jacobian_matches_svd(shear3):
    jac = jacobian_at(shear3, np.array([0.0, 2.0]))
    lo, hi = d_pm_from_jacobian(jac)
    sv = np.linalg.svd(jac, compute_uv=False)
    assert lo == pytest.approx(sv[-1], rel=1e-12)
    assert hi == pytest.approx(sv[0], rel=1e-12)


def test_wide_jacobian_d_minus_zero():
    f = resolve_map("inclusion")
    # inclusion R -> R^2 has a tall Jacobian with d_minus = 1; transpose
    # logic is covered by d_pm directly
    jac = np.array([[1.0, 0.0]])
    lo, hi = d_pm_from_jacobian(jac)
    assert lo == 0.0
    assert hi == 1.0


def test_duality_shear_pair(shear3, rng):
    g = resolve_map("shear3_inv")
    for _ in range(20):
        x = rng.uniform(-3, 3, size=2)
        y = shear3.eval(x)
        prod = (
            scalar_derivatives(g, y).d_plus
            * scalar_derivatives(shear3, x).d_minus
        )
        assert 0.98 <= prod <= 1.02


def test_duality_exp_log_pair(expmap, rng):
    g = resolve_map("logmap")
    for _ in range(20):
        x = rng.uniform(-2, 2, size=1)
        y = expmap.eval(x)
        prod = scalar_derivatives(g, y).d_plus * scalar_derivatives(expmap, x).d_minus
        assert 0.98 <= prod <= 1.02


def test_surjection_equals_d_minus_shear(shear3, rng):
    for _ in range(5):
        x = rng.uniform(-2, 2, size=2)
        sur = surjection_constant(shear3, x)
        est = scalar_derivatives(shear3, x)
        assert sur.value == pytest.approx(est.d_minus, rel=0.05)


def test_surjection_inclusion_is_zero():
    f = resolve_map("inclusion")
    sur = surjection_constant(f, np.array([0.0]))
    assert sur.value < 1e-3
    est = scalar_derivatives(f, np.array([0.0]))
    assert est.d_minus == pytest.approx(1.0, abs=1e-6)


def test_unknown_method_rejected(shear3):
    from liftkit import InputError

    with pytest.raises(InputError):
        scalar_derivatives(shear3, np.array([0.0, 0.0]), method="astrology")


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_sphere_directions_are_unit_vectors(dim):
    dirs = sphere_directions(64 * dim, dim)
    assert dirs.shape == (64 * dim, dim)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)


def test_shell_and_surjection_in_three_dimensions():
    f = resolve_map("identity(3)")
    est = scalar_derivatives(f, np.zeros(3), method="shell_sampling")
    assert est.d_minus == pytest.approx(1.0, rel=1e-9)
    assert est.d_plus == pytest.approx(1.0, rel=1e-9)
    sur = surjection_constant(f, np.zeros(3))
    assert np.isfinite(sur.value)
    assert sur.value == pytest.approx(1.0, rel=1e-9)
    assert np.all(np.isfinite(sur.ratios))


def _kinked_bowl(center, weights, wall, project):
    """Quadratic plus |.| terms with an infeasible half-space; only
    elementwise arithmetic, so a value does not depend on its batch."""

    def objective(pts, rows=None):
        if project:
            pts = pts / np.linalg.norm(pts, axis=1)[:, None]
        vals = np.zeros(pts.shape[0])
        for j, (c, w) in enumerate(zip(center, weights)):
            d = pts[:, j] - c
            vals = vals + w * d * d + 0.3 * np.abs(d)
        vals[pts[:, 0] > wall] = np.inf
        return vals

    return objective


def _compass_reference(objective, x, step, step_min, max_iter, project):
    """Serial compass search: one point, one candidate at a time."""
    x = np.array(x, dtype=float)
    best = objective(x[None, :])[0]
    for _ in range(max_iter):
        if step < step_min:
            break
        winner = None
        for sign in (1.0, -1.0):
            for i in range(x.size):
                cand = x.copy()
                cand[i] += sign * step
                if project is not None:
                    cand = project(cand[None, :])[0]
                val = objective(cand[None, :])[0]
                if val < best and (winner is None or val < winner[1]):
                    winner = (cand, val)
        if winner is None:
            step *= 0.5
        else:
            x, best = winner
    return x, best


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 3),
    n_starts=st.integers(1, 6),
    project=st.booleans(),
    data=st.data(),
)
def test_lockstep_compass_search_equals_one_row_runs(dim, n_starts, project, data):
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    center = data.draw(st.lists(coord, min_size=dim, max_size=dim))
    weights = data.draw(st.lists(st.floats(0.1, 5.0), min_size=dim, max_size=dim))
    wall = data.draw(st.floats(-1.0, 2.0))
    starts = np.array(
        data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                           min_size=n_starts, max_size=n_starts))
    )
    objective = _kinked_bowl(center, weights, wall, project)
    proj = (lambda p: p / np.linalg.norm(p, axis=1)[:, None]) if project else None
    if project:
        starts[np.linalg.norm(starts, axis=1) == 0.0] = 1.0
        starts = proj(starts)
    x_all, v_all = compass_search(objective, starts, 0.5, 1e-4, 30, project=proj)
    for k in range(n_starts):
        x_one, v_one = compass_search(
            objective, starts[k : k + 1], 0.5, 1e-4, 30, project=proj
        )
        assert np.array_equal(x_all[k], x_one[0])
        assert np.array_equal(v_all[k], v_one[0])
        x_ref, v_ref = _compass_reference(objective, starts[k], 0.5, 1e-4, 30, proj)
        assert np.array_equal(x_one[0], x_ref)
        assert v_one[0] == v_ref
        assert v_all[k] <= objective(starts[k : k + 1])[0]


def test_compass_search_passes_each_candidates_start():
    # each row minimizes its own bowl, chosen by the start index
    centers = np.array([[0.3, -0.7], [-1.0, 0.5], [2.0, 2.0]])
    seen = []

    def objective(pts, rows):
        seen.append(rows)
        d = pts - centers[rows]
        return (d * d).sum(axis=1)

    starts = np.zeros((3, 2))
    x, v = compass_search(objective, starts, 0.5, 1e-9, 400)
    assert np.allclose(x, centers, atol=1e-8)
    assert np.all(v < 1e-15)
    assert list(seen[0]) == [0, 1, 2]
    assert list(seen[1]) == [0] * 4 + [1] * 4 + [2] * 4
    for k in range(3):
        x_one, v_one = compass_search(
            lambda p, rows: objective(p, rows + k), starts[k : k + 1], 0.5, 1e-9, 400
        )
        assert np.array_equal(x[k], x_one[0]) and v[k] == v_one[0]


def test_compass_search_finds_a_bowl_minimum():
    objective = _kinked_bowl([0.3, -0.7], [1.0, 2.0], 5.0, False)
    x, v = compass_search(objective, np.array([[1.5, 1.5], [-2.0, 0.0]]), 0.5, 1e-9, 400)
    assert np.allclose(x, [[0.3, -0.7], [0.3, -0.7]], atol=1e-8)
    assert np.all(v < 1e-8)
