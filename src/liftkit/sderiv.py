"""Lower/upper scalar derivative estimators and the surjection constant.

The lower and upper scalar derivatives of f at x are the liminf and
limsup of d(f(z), f(x)) / d(z, x) as z approaches x. For differentiable
maps they equal the smallest and largest singular values of the
Jacobian, which is the fast estimation route; shell sampling probes the
difference quotients directly and works without derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .geometry import chart_norm
from .mapdef import jacobian_at, singular_extremes, singular_extremes_many
from .sampling import sphere_directions

__all__ = [
    "ScalarDerivEstimate",
    "SurjectionEstimate",
    "scalar_derivatives",
    "surjection_constant",
    "d_pm_from_jacobian",
    "compass_search",
]

# Shell estimator tuning: radii rho0 * 2^-k for k = 0..SHELL_LEVELS,
# SHELL_DIRS_PER_DIM directions per shell, rho0 = 1e-2 * (1 + |x|).
SHELL_LEVELS = 6
SHELL_DIRS_PER_DIM = 64
SHELL_RHO0_SCALE = 1e-2
# step sizes each round of the shell polish polls (compass_search levels)
SHELL_POLISH_LEVELS = 8
# directions per dimension on each sphere of surjection_constant
SURJECTION_DIRS_PER_DIM = 128


@dataclass(frozen=True)
class ScalarDerivEstimate:
    d_minus: float
    d_plus: float
    method: str
    scale_report: tuple = None  # (radius, min_ratio, max_ratio) per shell

    def __post_init__(self):
        if not (0.0 <= self.d_minus <= self.d_plus * (1 + 1e-12) + 1e-300):
            raise InputError(
                "estimate violates 0 <= d_minus <= d_plus: %r" % (self,)
            )


@dataclass(frozen=True)
class SurjectionEstimate:
    value: float
    radii_used: tuple
    ratios: tuple  # Sur(f,x)(t)/t per radius
    note: str = ""


def d_pm_from_jacobian(jac):
    """(d_minus, d_plus) from a Jacobian matrix, or from a stack of them.

    d_plus is the largest singular value. d_minus is the smallest
    singular value when the matrix has at least as many rows as
    columns; a wider-than-tall matrix always has a null direction, so
    d_minus is 0 there. An (m, n) matrix gives two floats, an
    (N, m, n) stack two (N,) arrays. Both come from the small-matrix
    kernel (mapdef.singular_extremes): a closed form for 1x1/2x2,
    LAPACK above.
    """
    jac = np.asarray(jac, dtype=float)
    if jac.ndim == 2:
        return singular_extremes(jac)
    return singular_extremes_many(jac)


def region_d_pm(f, pts, center, radius=np.inf):
    """(canonical pts, mask, distances to center, d_minus, d_plus): the
    mask keeps the points in f's domain and the closed ball of radius (a
    scalar or one per point) whose Jacobian evaluates, so a faulting
    point is dropped as one outside the domain; d_pm at the kept ones."""
    pts = f.domain.canonical(pts)
    d = f.domain.distance_many(pts, center[None, :])
    ok = f.domain.contains_many(pts) & (d <= radius * (1.0 + 1e-12))
    jac, faulted = f._jacobians_block(pts[ok])
    ok[ok] = ~faulted
    return (pts, ok, d) + d_pm_from_jacobian(jac[~faulted])


def _shell_ratios(f, c, fc, rho, dirs):
    """Difference quotients d(f(z), f(c)) / d(z, c) at z = c + rho * u for
    each row u of dirs (rho a scalar or a column, one per row), +inf
    where z leaves the domain or faults, or the quotient is not finite
    (a distance overflows, say)."""
    pts = c + rho * dirs
    vals, faulted = f._values_block(pts)
    bad = faulted | ~f.domain.contains_many(pts)
    with np.errstate(all="ignore"):  # an overflowing distance is inf
        dc = f.codomain.distance_many(vals, fc[None, :])
        r = dc / f.domain.distance_many(pts, c[None, :])
    return np.where(bad | np.isnan(r), np.inf, r)


def _shell_grid(f, c, fc, dirs):
    """(radii, grid): the _shell_ratios of dirs on the shells of radii
    rho0 * 2^-k for k = 0..SHELL_LEVELS around c, one block for all
    shells, one grid row per radius. The radii are all halved until each
    ratio is finite, in at most 60 tries."""
    radii = SHELL_RHO0_SCALE * (1.0 + chart_norm(c)) * 2.0 ** -np.arange(SHELL_LEVELS + 1)
    for k in range(60):
        scaled = radii * 0.5**k
        rho = np.repeat(scaled, dirs.shape[0])[:, None]
        grid = _shell_ratios(f, c, fc, rho, np.tile(dirs, (scaled.size, 1)))
        finite = np.isfinite(grid).reshape(scaled.size, -1).all(axis=1)
        if finite.all():
            return scaled, grid.reshape(scaled.size, -1)
    raise DomainError(
        "no shell around %s evaluates under %s at radius %g"
        % (c.tolist(), f.name, scaled[~finite].min())
    )


def compass_search(
    objective, starts, values, step, step_min, max_iter, project=None, levels=1
):
    """Minimize objective from each row of starts by compass search.

    objective(points, rows) maps an (N, dim) block to N values, +inf
    where a point is infeasible; rows[i] is the index of the start whose
    search proposed points[i]; values are the starts' values, which the
    search never evaluates. All rows run in lockstep: at each
    iteration every row whose step s is still >= step_min polls a
    ladder of step sizes s, s/2, ..., s 2^-(levels-1) in one block: for
    each size, x + size e_i for each axis i, then x - size e_i
    (candidates passed through project, if given). It moves to its best
    strict improvement (the first on ties, larger sizes first) and keeps
    the size it moved at as its step, or else divides its step by
    2^levels (Kolda, Lewis & Torczon 2003); step_min only stops a row,
    so a ladder's smaller sizes may fall below it. levels=1 halves the
    step after each failed poll; a ladder trades a larger block for
    fewer rounds, each of which pays the objective's fixed cost. step
    and step_min are scalars or per-row arrays. Returns the final points
    and values; each row ends where a one-row run from it, with its own
    step and step_min, ends.
    """
    x = np.array(starts, dtype=float)
    dim = x.shape[1]
    best = np.array(values, dtype=float)
    steps = np.full(x.shape[0], step, dtype=float)
    scales = 0.5 ** np.arange(levels)
    # every size's moves, largest size first: (levels * 2 dim, dim)
    moves = np.concatenate([np.eye(dim), -np.eye(dim)])
    moves = (scales[:, None, None] * moves).reshape(-1, dim)
    # a move keeps the size it moved at; a failed poll (index -1) divides
    # the step by 2^levels
    shrink = np.append(np.repeat(scales, 2 * dim), 0.5**levels)
    for _ in range(max_iter):
        rows = np.flatnonzero(steps >= step_min)
        if rows.size == 0:
            break
        cand = (x[rows, None] + steps[rows, None, None] * moves).reshape(-1, dim)
        if project is not None:
            cand = project(cand)
        vals = np.asarray(
            objective(cand, np.repeat(rows, len(moves))), dtype=float
        ).reshape(rows.size, -1)
        i = np.argmin(vals, axis=1)
        v = vals[np.arange(rows.size), i]
        better = v < best[rows]
        x[rows[better]] = cand.reshape(rows.size, -1, dim)[better, i[better]]
        best[rows[better]] = v[better]
        steps[rows] *= shrink[np.where(better, i, -1)]
    return x, best


def _refine_extreme(f, c, fc, dirs, rho, grid, sign):
    """Polish extremal difference-quotient directions, one per shell:
    row i starts at the extreme of grid[i], the ratios of dirs on the
    shell of radius rho[i], and minimizes sign[i] * ratio, so a sign of
    -1 seeks the largest ratio. Returns the extreme ratios; on a line
    the grid's two directions are the whole sphere, and its extremes
    stand.

    The ratio is a Rayleigh-quotient perturbation on the sphere, so its
    interior local extremes are the global ones; a compass search on the
    unit sphere with shrinking angular step started at the coarse grid
    winner therefore converges to the true extreme direction. All rows
    search in lockstep, each round polling SHELL_POLISH_LEVELS step
    sizes at once: the step falls from 0.5 to 1e-7 in a few rounds
    instead of one halving per round. Like a one-size search it stops
    at step 1e-7, and each stops short of the extreme by up to that
    stop's own error, so the two differ by up to about 2e-12 relative
    on 2-D maps and 3e-11 on 3-D ones.
    """
    rho = np.asarray(rho, dtype=float)
    sign = np.asarray(sign, dtype=float)

    def objective(dirs, rows):
        r = _shell_ratios(f, c, fc, rho[rows, None], dirs)
        return np.where(r == np.inf, np.inf, sign[rows] * r)

    i = [int(np.argmin(s * r)) for s, r in zip(sign, grid)]
    ratios = np.array([r[k] for r, k in zip(grid, i)])
    best = np.where(ratios == np.inf, np.inf, sign * ratios)
    if dirs.shape[1] > 1:
        _, best = compass_search(
            objective, dirs[i], best, 0.5, 1e-7, 400,
            project=lambda d: d / np.linalg.norm(d, axis=1)[:, None],
            levels=SHELL_POLISH_LEVELS,
        )
    return sign * best


def scalar_derivatives(f, x, method="jacobian_svd"):
    """Estimate (D^-, D^+) of f at x.

    method "jacobian_svd" reads them off the Jacobian's singular
    values; "shell_sampling" takes difference-quotient extremes over
    the two smallest of seven concentric sampling shells, polishes the
    winning directions by compass search on the sphere (polling
    SHELL_POLISH_LEVELS step sizes per round), and keeps a per-shell
    scale report for diagnostics.
    """
    c = f.domain.check_coords(x)
    if method == "jacobian_svd":
        d_minus, d_plus = d_pm_from_jacobian(jacobian_at(f, c))
        return ScalarDerivEstimate(d_minus, d_plus, method)
    if method != "shell_sampling":
        raise InputError("unknown method %r" % method)

    dim = f.domain.dim
    dirs = sphere_directions(SHELL_DIRS_PER_DIM * dim, dim)
    fc = f.eval(c)
    radii, grid = _shell_grid(f, c, fc, dirs)
    report = [(t, float(r.min()), float(r.max())) for t, r in zip(radii.tolist(), grid)]
    # polish the two smallest shells in one lockstep search: the maximum
    # directions, and the minimum ones unless the Jacobian is wide (its
    # null direction, which the grid may miss, makes d_minus 0)
    smallest = [SHELL_LEVELS - 1, SHELL_LEVELS]
    mins = smallest if f.codomain.dim >= f.domain.dim else []
    shells = mins + smallest
    vals = _refine_extreme(
        f, c, fc, dirs, radii[shells], grid[shells],
        [1.0] * len(mins) + [-1.0] * len(smallest),
    )
    d_minus = min(vals[: len(mins)], default=0.0)
    d_plus = max(vals[len(mins) :])
    return ScalarDerivEstimate(float(d_minus), float(d_plus), method, tuple(report))


def surjection_constant(f, x):
    """Estimate sur(f, x), the liminf of Sur(f,x)(t)/t.

    Sur(f,x)(t) is approximated by the distance from f(x) to the image
    of the sphere of radius t: the inner radius of the ball's image for
    a local homeomorphism, an estimate that may err either way for
    other square maps. The value is the minimum of Sur/t over the two
    smallest shells of scalar_derivatives, each probed along
    SURJECTION_DIRS_PER_DIM directions per dimension. A codomain of
    higher dimension than the domain gets value 0: the image is too thin
    to contain any ball. A codomain of lower dimension is an InputError:
    the sphere meets the fiber through x, so the distance is 0 even
    where f is open.
    """
    c = f.domain.check_coords(x)
    if f.codomain.dim < f.domain.dim:
        raise InputError(
            "the surjection constant is not estimated for a wide map: %s has "
            "codomain dimension %d < domain dimension %d"
            % (f.name, f.codomain.dim, f.domain.dim)
        )
    if f.codomain.dim > f.domain.dim:
        note = "codomain dimension exceeds domain dimension; no ball fits inside the image"
        return SurjectionEstimate(0.0, (), (), note=note)
    dim = f.domain.dim
    dirs = sphere_directions(SURJECTION_DIRS_PER_DIM * dim, dim)
    fc = f.eval(c)
    radii, grid = _shell_grid(f, c, fc, dirs)
    radii, grid = radii[::-1], grid[::-1]  # the shells, smallest first
    # the grid only brackets the closest image point; polish it
    ratios = _refine_extreme(f, c, fc, dirs, radii, grid, np.ones(radii.size)).tolist()
    # radii ascend; the liminf estimate wants the two smallest
    value = min(ratios[:2])
    return SurjectionEstimate(value, tuple(radii.tolist()), tuple(ratios))
