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
from .geometry import OpenSubset, chart_norm
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


def _admissible_radius(f, c, rho0):
    """Shrink rho0 until all shells stay in the domain; largest shell
    is the binding one, but every level is checked."""
    if not isinstance(f.domain, OpenSubset):
        return rho0
    dim = f.domain.dim
    dirs = sphere_directions(SHELL_DIRS_PER_DIM * dim, dim)
    rho = rho0
    for _ in range(60):
        ok = True
        for k in range(SHELL_LEVELS + 1):
            pts = c + (rho * 2.0**-k) * dirs
            if not np.all(f.domain.contains_many(pts)):
                ok = False
                break
        if ok:
            return rho
        rho *= 0.5
    raise DomainError(
        "no admissible shell radius at %s inside %r" % (c.tolist(), f.domain)
    )


def _shell_ratios(f, c, fc, rho, dirs):
    """Difference quotients d(f(z), f(c)) / d(z, c) at z = c + rho * u for
    each row u of dirs, +inf where z leaves the domain."""
    pts = c + rho * dirs
    ok = f.domain.contains_many(pts)
    out = np.full(pts.shape[0], np.inf)
    if np.any(ok):
        vals = f._values(pts[ok])
        dd = f.domain.distance_many(pts[ok], np.broadcast_to(c, pts[ok].shape))
        dc = f.codomain.distance_many(vals, np.broadcast_to(fc, vals.shape))
        out[ok] = dc / dd
    return out


def compass_search(objective, starts, step, step_min, max_iter, project=None):
    """Minimize objective from each row of starts by compass search.

    objective(points, rows) maps an (N, dim) block to N values, +inf
    where a point is infeasible; rows[i] is the index of the start whose
    search proposed points[i]. All rows run in lockstep: at each
    iteration every row whose step is still >= step_min tries
    x + step e_i for each axis i, then x - step e_i (candidates passed
    through project, if given), moves to its best strict improvement
    (the first on ties), or else halves its step (Kolda, Lewis & Torczon
    2003). step and step_min are scalars or per-row arrays. Returns the
    final points and values; each row ends where a one-row run from it,
    with its own step and step_min, ends.
    """
    x = np.array(starts, dtype=float)
    dim = x.shape[1]
    best = np.asarray(objective(x, np.arange(x.shape[0])), dtype=float)
    steps = np.full(x.shape[0], step, dtype=float)
    moves = np.concatenate([np.eye(dim), -np.eye(dim)])
    for _ in range(max_iter):
        rows = np.flatnonzero(steps >= step_min)
        if rows.size == 0:
            break
        cand = (x[rows, None] + steps[rows, None, None] * moves).reshape(-1, dim)
        if project is not None:
            cand = project(cand)
        vals = np.asarray(
            objective(cand, np.repeat(rows, 2 * dim)), dtype=float
        ).reshape(rows.size, -1)
        i = np.argmin(vals, axis=1)
        v = vals[np.arange(rows.size), i]
        better = v < best[rows]
        x[rows[better]] = cand.reshape(rows.size, -1, dim)[better, i[better]]
        best[rows[better]] = v[better]
        steps[rows[~better]] *= 0.5
    return x, best


def _refine_extreme(f, c, fc, rho, u, sign):
    """Polish extremal difference-quotient directions, one per row of u:
    row i minimizes sign[i] * ratio on the shell of radius rho[i], so a
    sign of -1 seeks the largest ratio. Returns the extreme ratios.

    The ratio is a Rayleigh-quotient perturbation on the sphere, so its
    interior local extremes are the global ones; a compass search on the
    unit sphere with shrinking angular step started at the coarse grid
    winner therefore converges to the true extreme direction. All rows
    search in lockstep.
    """
    rho = np.asarray(rho, dtype=float)
    sign = np.asarray(sign, dtype=float)

    def objective(dirs, rows):
        r = _shell_ratios(f, c, fc, rho[rows, None], dirs)
        return np.where(r == np.inf, np.inf, sign[rows] * r)

    rows = np.arange(u.shape[0])
    if u.shape[1] < 2:
        return sign * objective(u, rows)
    _, best = compass_search(
        objective, u, 0.5, 1e-7, 400,
        project=lambda d: d / np.linalg.norm(d, axis=1)[:, None],
    )
    return sign * best


def scalar_derivatives(f, x, method="jacobian_svd"):
    """Estimate (D^-, D^+) of f at x.

    method "jacobian_svd" reads them off the Jacobian's singular
    values; "shell_sampling" takes difference-quotient extremes over
    the two smallest of seven concentric sampling shells, polishes the
    winning directions by compass search on the sphere, and keeps a
    per-shell scale report for diagnostics.
    """
    c = f.domain.check_coords(x)
    if method == "jacobian_svd":
        d_minus, d_plus = d_pm_from_jacobian(jacobian_at(f, c))
        return ScalarDerivEstimate(d_minus, d_plus, method)
    if method != "shell_sampling":
        raise InputError("unknown method %r" % method)

    dim = f.domain.dim
    rho0 = SHELL_RHO0_SCALE * (1.0 + chart_norm(c))
    rho0 = _admissible_radius(f, c, rho0)
    dirs = sphere_directions(SHELL_DIRS_PER_DIM * dim, dim)
    fc = f.eval(c)
    report = []
    extremes = []
    for k in range(SHELL_LEVELS + 1):
        rho = rho0 * 2.0**-k
        ratios = _shell_ratios(f, c, fc, rho, dirs)
        extremes.append((dirs[int(np.argmin(ratios))], dirs[int(np.argmax(ratios))]))
        report.append((rho, float(ratios.min()), float(ratios.max())))
    # polish the two smallest shells in one lockstep search: the maximum
    # directions, and the minimum ones unless the Jacobian is wide (its
    # null direction, which the grid may miss, makes d_minus 0)
    smallest = [SHELL_LEVELS - 1, SHELL_LEVELS]
    mins = smallest if f.codomain.dim >= f.domain.dim else []
    vals = _refine_extreme(
        f,
        c,
        fc,
        [rho0 * 2.0**-k for k in mins + smallest],
        np.stack([extremes[k][0] for k in mins] + [extremes[k][1] for k in smallest]),
        [1.0] * len(mins) + [-1.0] * len(smallest),
    )
    d_minus = min(vals[: len(mins)], default=0.0)
    d_plus = max(vals[len(mins) :])
    return ScalarDerivEstimate(float(d_minus), float(d_plus), method, tuple(report))


def surjection_constant(f, x, radii=None, dirs_per_dim=SURJECTION_DIRS_PER_DIM):
    """Estimate sur(f, x), the liminf of Sur(f,x)(t)/t.

    Sur(f,x)(t) is approximated by the distance from f(x) to the image
    of the sphere of radius t (a valid inner-radius bound for local
    homeomorphisms; a documented overestimate otherwise). The value is
    the minimum of Sur/t over the two smallest radii. A codomain of
    higher dimension than the domain gets value 0: the image is too
    thin to contain any ball.
    """
    c = f.domain.check_coords(x)
    if f.codomain.dim > f.domain.dim:
        rr = tuple(float(r) for r in (radii if radii is not None else ()))
        return SurjectionEstimate(
            0.0,
            rr,
            tuple(0.0 for _ in rr),
            note="codomain dimension exceeds domain dimension; no ball "
            "fits inside the image",
        )
    dim = f.domain.dim
    if radii is None:
        rho0 = SHELL_RHO0_SCALE * (1.0 + chart_norm(c))
        rho0 = _admissible_radius(f, c, rho0)
        radii = [rho0 * 2.0**-k for k in range(SHELL_LEVELS + 1)]
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0:
        raise InputError("radii must be positive")
    dirs = sphere_directions(dirs_per_dim * dim, dim)
    fc = f.eval(c)
    starts = []
    for t in radii:
        pts = c + t * dirs
        if not np.all(f.domain.contains_many(pts)):
            raise DomainError(
                "sphere of radius %g leaves the domain; pass smaller radii" % t
            )
        vals = f._values(pts)
        dc = f.codomain.distance_many(vals, np.broadcast_to(fc, vals.shape))
        starts.append(dirs[int(np.argmin(dc))])
    # the grid only brackets the closest image point; polish it
    ratios = _refine_extreme(
        f, c, fc, radii, np.stack(starts), np.ones(len(radii))
    ).tolist()
    # radii ascend; the liminf estimate wants the two smallest
    value = min(ratios[:2])
    return SurjectionEstimate(value, tuple(radii), tuple(ratios))
