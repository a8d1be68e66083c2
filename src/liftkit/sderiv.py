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
from .geometry import OpenSubset, Point
from .mapdef import jacobian_at
from .sampling import sphere_directions

__all__ = [
    "ScalarDerivEstimate",
    "SurjectionEstimate",
    "scalar_derivatives",
    "surjection_constant",
    "d_pm_from_jacobian",
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
    (N, m, n) stack two (N,) arrays.
    """
    jac = np.asarray(jac, dtype=float)
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv.shape[-1] == 0:
        sv = np.zeros(sv.shape[:-1] + (1,))
    d_plus = sv[..., 0]
    d_minus = sv[..., -1] if jac.shape[-1] <= jac.shape[-2] else np.zeros_like(d_plus)
    if jac.ndim == 2:
        return float(d_minus), float(d_plus)
    return d_minus, d_plus


def _coords(space, x):
    return space.check_coords(x.coords if isinstance(x, Point) else x)


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
    pts = c + rho * dirs
    ok = f.domain.contains_many(pts)
    if not np.any(ok):
        return ok, np.empty(0)
    vals = f.eval_many(pts[ok])
    dd = f.domain.distance_many(pts[ok], np.broadcast_to(c, pts[ok].shape))
    dc = f.codomain.distance_many(vals, np.broadcast_to(fc, vals.shape))
    return ok, dc / dd


def _refine_extreme(f, c, fc, rho, u, want_max):
    """Polish an extremal difference-quotient direction on one shell.

    The ratio is a Rayleigh-quotient perturbation on the sphere, so its
    interior local extremes are the global ones; a deterministic
    pattern search with shrinking angular step started at the coarse
    grid winner therefore converges to the true extreme direction.
    """
    dim = u.size
    if dim < 2:
        ok, r = _shell_ratios(f, c, fc, rho, u[None, :])
        return float(r[0]) if r.size else (-np.inf if want_max else np.inf)
    sign = 1.0 if want_max else -1.0
    ok, r = _shell_ratios(f, c, fc, rho, u[None, :])
    best = sign * float(r[0]) if r.size else -np.inf
    step = 0.5
    for _ in range(400):
        if step < 1e-7:
            break
        cand = np.concatenate([u + step * np.eye(dim), u - step * np.eye(dim)])
        cand /= np.linalg.norm(cand, axis=1)[:, None]
        ok, r = _shell_ratios(f, c, fc, rho, cand)
        if r.size == 0:
            step *= 0.5
            continue
        vals = sign * r
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = vals[i]
            u = cand[np.flatnonzero(ok)[i]]
        else:
            step *= 0.5
    return sign * best


def scalar_derivatives(f, x, method="jacobian_svd"):
    """Estimate (D^-, D^+) of f at x.

    method "jacobian_svd" reads them off the Jacobian's singular
    values; "shell_sampling" takes difference-quotient extremes over
    the two smallest of seven concentric sampling shells, polishes the
    winning directions by spherical pattern search, and keeps a
    per-shell scale report for diagnostics.
    """
    c = _coords(f.domain, x)
    if method == "jacobian_svd":
        d_minus, d_plus = d_pm_from_jacobian(jacobian_at(f, c))
        return ScalarDerivEstimate(d_minus, d_plus, method)
    if method != "shell_sampling":
        raise InputError("unknown method %r" % method)

    dim = f.domain.dim
    rho0 = SHELL_RHO0_SCALE * (1.0 + f.domain.chart_norm(c))
    rho0 = _admissible_radius(f, c, rho0)
    dirs = sphere_directions(SHELL_DIRS_PER_DIM * dim, dim)
    fc = f.eval(c)
    report = []
    extremes = []
    for k in range(SHELL_LEVELS + 1):
        rho = rho0 * 2.0**-k
        pts = c + rho * dirs
        vals = f.eval_many(pts)
        dd = f.domain.distance_many(pts, np.broadcast_to(c, pts.shape))
        dc = f.codomain.distance_many(vals, np.broadcast_to(fc, vals.shape))
        ratios = dc / dd
        extremes.append((dirs[int(np.argmin(ratios))], dirs[int(np.argmax(ratios))]))
        report.append((rho, float(ratios.min()), float(ratios.max())))
    # a wide Jacobian always has a null direction the grid may miss
    if f.codomain.dim < f.domain.dim:
        d_minus = 0.0
    else:
        d_minus = np.inf
    d_plus = -np.inf
    for k in (SHELL_LEVELS - 1, SHELL_LEVELS):
        rho = rho0 * 2.0**-k
        u_min, u_max = extremes[k]
        if f.codomain.dim >= f.domain.dim:
            d_minus = min(d_minus, _refine_extreme(f, c, fc, rho, u_min, False))
        d_plus = max(d_plus, _refine_extreme(f, c, fc, rho, u_max, True))
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
    c = _coords(f.domain, x)
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
        rho0 = SHELL_RHO0_SCALE * (1.0 + f.domain.chart_norm(c))
        rho0 = _admissible_radius(f, c, rho0)
        radii = [rho0 * 2.0**-k for k in range(SHELL_LEVELS + 1)]
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0:
        raise InputError("radii must be positive")
    dirs = sphere_directions(dirs_per_dim * dim, dim)
    fc = f.eval(c)
    ratios = []
    for t in radii:
        pts = c + t * dirs
        if not np.all(f.domain.contains_many(pts)):
            raise DomainError(
                "sphere of radius %g leaves the domain; pass smaller radii" % t
            )
        vals = f.eval_many(pts)
        dc = f.codomain.distance_many(vals, np.broadcast_to(fc, vals.shape))
        u0 = dirs[int(np.argmin(dc))]
        # the grid only brackets the closest image point; polish it
        ratios.append(_refine_extreme(f, c, fc, t, u0, False))
    # radii ascend; the liminf estimate wants the two smallest
    value = min(ratios[:2])
    return SurjectionEstimate(value, tuple(radii), tuple(ratios))
