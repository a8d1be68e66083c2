"""Map definitions: built-in test maps, expression maps, Jacobians,
and a damped Newton local solver.

A MapHandle bundles a map between two spaces with whichever Jacobian
source is available: closed-form (analytic), forward-mode automatic
differentiation for expression maps, or central finite differences on
request.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .errors import (
    DomainError,
    EvalDomainError,
    InputError,
    NonConvergenceError,
    SingularJacobianError,
)
from .geometry import (
    Euclidean,
    OpenSubset,
    Point,
    Space,
    subset_from_expression,
)

__all__ = [
    "MapHandle",
    "resolve_map",
    "jacobian_at",
    "local_solve",
    "LocalSolveResult",
    "newton_block",
    "NewtonBlockResult",
    "builtin_names",
    "expression_map",
    "ANNULUS_INNER",
    "ANNULUS_OUTER",
]

# Annulus bounds for the complex power maps.
ANNULUS_INNER = 0.5
ANNULUS_OUTER = 2.0


@dataclass(frozen=True)
class MapHandle:
    """A map with evaluation and Jacobian access.

    jacobian_mode is one of "analytic", "automatic", "finite_difference".
    """

    name: str
    domain: Space
    codomain: Space
    jacobian_mode: str
    eval_one: object = field(repr=False)
    eval_many_fn: object = field(default=None, repr=False)
    jac_one: object = field(default=None, repr=False)
    jac_many_fn: object = field(default=None, repr=False)
    asts: tuple = field(default=None, repr=False)
    fd_step: float = 1e-6
    params: dict = field(default_factory=dict)

    @property
    def dim_in(self):
        return self.domain.dim

    @property
    def dim_out(self):
        return self.codomain.dim

    def eval(self, coords):
        c = self.domain.check_coords(coords)
        out = np.asarray(self.eval_one(c), dtype=float).reshape(-1)
        if out.shape[0] != self.codomain.dim:
            raise InputError(
                "map %s returned %d components, codomain has dimension %d"
                % (self.name, out.shape[0], self.codomain.dim)
            )
        if not np.all(np.isfinite(out)):
            raise DomainError("map %s produced non-finite values" % self.name)
        return out

    def eval_point(self, point_or_coords):
        coords = (
            point_or_coords.coords
            if isinstance(point_or_coords, Point)
            else point_or_coords
        )
        return Point(self.eval(coords), self.codomain)

    def __call__(self, coords):
        return self.eval(coords)

    def eval_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.domain.dim:
            raise InputError("expected an (N, %d) block" % self.domain.dim)
        ok = self.domain.contains_many(pts)
        if not np.all(ok):
            bad = np.flatnonzero(~ok)[0]
            raise DomainError(
                "point %s is outside the domain of %s"
                % (pts[bad].tolist(), self.name)
            )
        # overflow shows up as a non-finite value, reported just below
        with np.errstate(all="ignore"):
            if self.eval_many_fn is not None:
                out = np.asarray(self.eval_many_fn(pts), dtype=float)
            else:
                out = np.stack([self.eval_one(p) for p in pts]).astype(float)
        if not np.all(np.isfinite(out)):
            raise DomainError("map %s produced non-finite values" % self.name)
        return out

    def jacobians_many(self, pts):
        """Stack of Jacobians, shape (N, dim_out, dim_in)."""
        pts = np.asarray(pts, dtype=float)
        shape = (pts.shape[0], self.dim_out, self.dim_in)
        if self.jac_many_fn is None or self.jacobian_mode == "finite_difference":
            return np.array([jacobian_at(self, p) for p in pts]).reshape(shape)
        # overflow shows up as a non-finite entry, which is refused
        with np.errstate(all="ignore"):
            jac = self.jac_many_fn(pts)
        return _checked_jacobians(self, jac, shape)


def jacobian_at(f, x):
    """Jacobian of f at chart coordinates x, by the handle's mode."""
    coords = x.coords if isinstance(x, Point) else x
    c = f.domain.check_coords(coords)
    if f.jacobian_mode == "finite_difference":
        jac = _fd_jacobian(f, c)
    else:
        jac = f.jac_one(c)
    return _checked_jacobians(f, jac, (f.codomain.dim, f.domain.dim))


def _checked_jacobians(f, jac, shape):
    jac = np.asarray(jac, dtype=float)
    if jac.shape != shape:
        raise InputError(
            "jacobian of %s has shape %s, expected %s" % (f.name, jac.shape, shape)
        )
    if not np.isfinite(jac).all():
        raise DomainError("jacobian of %s is non-finite" % f.name)
    return jac


def _fd_jacobian(f, c):
    n = f.domain.dim
    jac = np.empty((f.codomain.dim, n))
    for i in range(n):
        h = f.fd_step * max(1.0, abs(c[i]))
        e = np.zeros(n)
        e[i] = h
        try:
            jac[:, i] = (f.eval(c + e) - f.eval(c - e)) / (2.0 * h)
        except DomainError:
            # one-sided difference at domain edges
            f0 = f.eval(c)
            try:
                jac[:, i] = (f.eval(c + e) - f0) / h
            except DomainError:
                jac[:, i] = (f0 - f.eval(c - e)) / h
    return jac


# ---------------------------------------------------------------------------
# Built-in maps


def _annulus(base_dim=2):
    return subset_from_expression(
        Euclidean(base_dim),
        "min(x*x + y*y - %r, %r - x*x - y*y)" % (ANNULUS_INNER**2, ANNULUS_OUTER**2),
    )


def _make_identity(n=2):
    n = int(n)
    space = Euclidean(n)
    eye = np.eye(n)
    return MapHandle(
        name="identity(%d)" % n,
        domain=space,
        codomain=space,
        jacobian_mode="analytic",
        eval_one=lambda c: c.copy(),
        eval_many_fn=lambda P: P.copy(),
        jac_one=lambda c: eye,
        jac_many_fn=lambda P: np.broadcast_to(eye, (P.shape[0], n, n)).copy(),
        params={"n": n},
    )


def _make_shear3():
    def ev(c):
        return np.array([c[0] + c[1] ** 3, c[1]])

    def ev_many(P):
        return np.stack([P[:, 0] + P[:, 1] ** 3, P[:, 1]], axis=1)

    def jac(c):
        return np.array([[1.0, 3.0 * c[1] ** 2], [0.0, 1.0]])

    def jac_many(P):
        n = P.shape[0]
        out = np.zeros((n, 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0
        out[:, 0, 1] = 3.0 * P[:, 1] ** 2
        return out

    return MapHandle(
        "shear3", Euclidean(2), Euclidean(2), "analytic",
        ev, ev_many, jac, jac_many,
    )


def _make_shear3_inv():
    def ev(c):
        return np.array([c[0] - c[1] ** 3, c[1]])

    def ev_many(P):
        return np.stack([P[:, 0] - P[:, 1] ** 3, P[:, 1]], axis=1)

    def jac(c):
        return np.array([[1.0, -3.0 * c[1] ** 2], [0.0, 1.0]])

    def jac_many(P):
        n = P.shape[0]
        out = np.zeros((n, 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0
        out[:, 0, 1] = -3.0 * P[:, 1] ** 2
        return out

    return MapHandle(
        "shear3_inv", Euclidean(2), Euclidean(2), "analytic",
        ev, ev_many, jac, jac_many,
    )


def _exp(v):
    """math.exp with overflow reported as a DomainError."""
    try:
        return math.exp(v)
    except OverflowError:
        raise DomainError("exp overflow") from None


def _make_expmap():
    def ev(c):
        return np.array([_exp(c[0])])

    return MapHandle(
        "expmap",
        Euclidean(1),
        Euclidean(1),
        "analytic",
        ev,
        lambda P: np.exp(P),
        lambda c: ev(c)[:, None],
        lambda P: np.exp(P)[:, :, None],
    )


def _make_logmap():
    dom = subset_from_expression(Euclidean(1), "x")

    return MapHandle(
        "logmap",
        dom,
        Euclidean(1),
        "analytic",
        lambda c: np.array([math.log(c[0])]),
        lambda P: np.log(P),
        lambda c: np.array([[1.0 / c[0]]]),
        lambda P: (1.0 / P)[:, :, None],
    )


def _make_polar_exp():
    def ev(c):
        r = _exp(c[0])
        return np.array([r * math.cos(c[1]), r * math.sin(c[1])])

    def ev_many(P):
        r = np.exp(P[:, 0])
        return np.stack([r * np.cos(P[:, 1]), r * np.sin(P[:, 1])], axis=1)

    def jac(c):
        r = _exp(c[0])
        cs, sn = math.cos(c[1]), math.sin(c[1])
        return np.array([[r * cs, -r * sn], [r * sn, r * cs]])

    def jac_many(P):
        r = np.exp(P[:, 0])
        cs, sn = np.cos(P[:, 1]), np.sin(P[:, 1])
        out = np.empty((P.shape[0], 2, 2))
        out[:, 0, 0] = r * cs
        out[:, 0, 1] = -r * sn
        out[:, 1, 0] = r * sn
        out[:, 1, 1] = r * cs
        return out

    return MapHandle(
        "polar_exp", Euclidean(2), Euclidean(2), "analytic",
        ev, ev_many, jac, jac_many,
    )


def _make_powk(k):
    k = int(k)
    if k == 0:
        raise InputError("powk needs a nonzero integer exponent")
    dom = _annulus()
    lo, hi = ANNULUS_INNER ** abs(k), ANNULUS_OUTER ** abs(k)
    if k < 0:
        lo, hi = 1.0 / hi, 1.0 / lo
    cod = subset_from_expression(
        Euclidean(2), "min(x*x + y*y - %r, %r - x*x - y*y)" % (lo**2, hi**2)
    )

    def ev(c):
        z = complex(c[0], c[1]) ** k
        return np.array([z.real, z.imag])

    def ev_many(P):
        z = (P[:, 0] + 1j * P[:, 1]) ** k
        return np.stack([z.real, z.imag], axis=1)

    def jac(c):
        w = k * complex(c[0], c[1]) ** (k - 1)
        return np.array([[w.real, -w.imag], [w.imag, w.real]])

    def jac_many(P):
        w = k * (P[:, 0] + 1j * P[:, 1]) ** (k - 1)
        out = np.empty((P.shape[0], 2, 2))
        out[:, 0, 0] = w.real
        out[:, 0, 1] = -w.imag
        out[:, 1, 0] = w.imag
        out[:, 1, 1] = w.real
        return out

    return MapHandle(
        "powk(%d)" % k, dom, cod, "analytic",
        ev, ev_many, jac, jac_many, params={"k": k},
    )


def _make_arctan():
    return MapHandle(
        "arctan",
        Euclidean(1),
        Euclidean(1),
        "analytic",
        lambda c: np.array([math.atan(c[0])]),
        lambda P: np.arctan(P),
        lambda c: np.array([[1.0 / (1.0 + c[0] ** 2)]]),
        lambda P: (1.0 / (1.0 + P**2))[:, :, None],
    )


def _make_inclusion():
    def jac_many(P):
        out = np.zeros((P.shape[0], 2, 1))
        out[:, 0, 0] = 1.0
        return out

    return MapHandle(
        "inclusion",
        Euclidean(1),
        Euclidean(2),
        "analytic",
        lambda c: np.array([c[0], 0.0]),
        lambda P: np.stack([P[:, 0], np.zeros(P.shape[0])], axis=1),
        lambda c: np.array([[1.0], [0.0]]),
        jac_many,
    )


def _make_cubic_implicit():
    def ev(c):
        return np.array([c[1] ** 3 + c[1] - c[0]])

    def ev_many(P):
        return (P[:, 1] ** 3 + P[:, 1] - P[:, 0])[:, None]

    def jac(c):
        return np.array([[-1.0, 3.0 * c[1] ** 2 + 1.0]])

    def jac_many(P):
        out = np.empty((P.shape[0], 1, 2))
        out[:, 0, 0] = -1.0
        out[:, 0, 1] = 3.0 * P[:, 1] ** 2 + 1.0
        return out

    return MapHandle(
        "cubic_implicit", Euclidean(2), Euclidean(1), "analytic",
        ev, ev_many, jac, jac_many,
    )


_BUILTIN_FACTORIES = {
    "identity": _make_identity,
    "shear3": _make_shear3,
    "shear3_inv": _make_shear3_inv,
    "expmap": _make_expmap,
    "logmap": _make_logmap,
    "polar_exp": _make_polar_exp,
    "powk": _make_powk,
    "arctan": _make_arctan,
    "inclusion": _make_inclusion,
    "cubic_implicit": _make_cubic_implicit,
}

# which factories require an argument
_NEEDS_ARG = {"powk"}
_OPTIONAL_ARG = {"identity"}


def builtin_names():
    return sorted(_BUILTIN_FACTORIES)


_CALL_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\s*\(\s*(-?\d+)\s*\)$")


def _component_evaluators(asts, n):
    """Single-point and batched evaluation of a tuple of components."""

    def one(c):
        pt = c.tolist()
        return np.array([exprlang.eval_ast(a, pt) for a in asts])

    def many(P):
        cols = [P[:, i] for i in range(n)]
        return np.stack([exprlang.eval_ast(a, cols) for a in asts], axis=1)

    return one, many


def expression_map(
    source,
    variables=None,
    domain=None,
    codomain=None,
    jacobian_source=None,
    jacobian_mode=None,
    name=None,
):
    """Build a MapHandle from component expressions.

    jacobian_source, when given, holds dim_out*dim_in expressions in
    row-major order and switches the handle to analytic mode.
    """
    asts = exprlang.parse(source, variables)
    varnames = asts[0].variables
    n = len(varnames)
    m = len(asts)
    if domain is None:
        domain = Euclidean(n)
    if codomain is None:
        codomain = Euclidean(m)
    if domain.dim != n:
        raise InputError(
            "map uses %d variables but its domain has dimension %d" % (n, domain.dim)
        )
    if codomain.dim != m:
        raise InputError(
            "map has %d components but its codomain has dimension %d"
            % (m, codomain.dim)
        )

    ev, ev_many = _component_evaluators(asts, n)
    if jacobian_source is None:
        mode = "automatic"

        def jac_one(c):
            # one point (n,) or a block (N, n) alike
            return exprlang.jacobian_ad(asts, c)

        jac_many = jac_one
    else:
        jasts = exprlang.parse(jacobian_source, varnames)
        if len(jasts) != m * n:
            raise InputError(
                "jacobian needs %d expressions (rows x columns), got %d"
                % (m * n, len(jasts))
            )
        entries, entries_many = _component_evaluators(jasts, n)

        def jac_one(c):
            return entries(c).reshape(m, n)

        def jac_many(P):
            return entries_many(P).reshape(-1, m, n)

        mode = "analytic"
    if jacobian_mode == "finite_difference":
        mode = "finite_difference"
    elif jacobian_mode not in (None, mode):
        raise InputError(
            "jacobian mode %r not available for this map" % jacobian_mode
        )

    return MapHandle(
        name=name or source,
        domain=domain,
        codomain=codomain,
        jacobian_mode=mode,
        eval_one=ev,
        eval_many_fn=ev_many,
        jac_one=jac_one,
        jac_many_fn=jac_many,
        asts=asts,
    )


def resolve_map(spec, registry=None, jacobian_mode=None):
    """Resolve a map from a name or expression text.

    Lookup order: built-in names (with optional integer argument, e.g.
    powk(3)), then the registry, then expression parsing.
    """
    if isinstance(spec, MapHandle):
        return spec
    if not isinstance(spec, str):
        raise InputError("map spec must be a string or MapHandle")
    text = spec.strip()
    if text in _BUILTIN_FACTORIES:
        if text in _NEEDS_ARG:
            raise InputError("%s needs an argument, e.g. %s(2)" % (text, text))
        h = _BUILTIN_FACTORIES[text]()
        return _with_fd(h, jacobian_mode)
    m = _CALL_RE.match(text)
    if m and m.group(1) in _BUILTIN_FACTORIES:
        name, arg = m.group(1), int(m.group(2))
        if name in _NEEDS_ARG or name in _OPTIONAL_ARG:
            h = _BUILTIN_FACTORIES[name](arg)
            return _with_fd(h, jacobian_mode)
        raise InputError("built-in %s takes no argument" % name)
    if registry is not None and registry.has_map(text):
        h = registry.get_map(text)
        return _with_fd(h, jacobian_mode)
    if re.match(r"^[A-Za-z_][A-Za-z_0-9]*$", text) and text not in ("x", "y", "z", "w", "t"):
        # a bare identifier that is not a variable is a failed lookup,
        # not an expression
        raise InputError(
            "unknown map %r; built-ins: %s"
            % (text, ", ".join(sorted(_BUILTIN_FACTORIES)))
        )
    return expression_map(text, jacobian_mode=jacobian_mode)


def _with_fd(handle, jacobian_mode):
    if jacobian_mode in (None, handle.jacobian_mode):
        return handle
    if jacobian_mode == "finite_difference":
        return dataclasses.replace(handle, jacobian_mode="finite_difference")
    raise InputError(
        "jacobian mode %r not available for %s" % (jacobian_mode, handle.name)
    )


# ---------------------------------------------------------------------------
# Damped Newton: local_solve for one point, newton_block for a block of
# starts. Both apply the rules below.

# a Jacobian is singular when smin <= SINGULAR_RTOL * max(smax, 1)
SINGULAR_RTOL = 1e-14
# the line search tries lam = 1, 1/2, ..., 2^-(LINE_SEARCH_TRIALS - 1)
LINE_SEARCH_TRIALS = 30
_LAMBDAS = np.ldexp(1.0, -np.arange(LINE_SEARCH_TRIALS))

# newton_block row statuses; for the failures local_solve raises
# SingularJacobianError, NonConvergenceError (stalled, budget) or
# DomainError
CONVERGED = "converged"
SINGULAR = "singular"
STALLED = "stalled"
BUDGET = "budget"
DOMAIN = "domain"
_FAULTS = (DomainError, EvalDomainError)


@dataclass
class LocalSolveResult:
    point: Point
    iterations: int
    residual: float
    jac_smin: float
    jacobian: np.ndarray  # at the returned point

    @property
    def coords(self):
        return self.point.coords


def _solve_target(f, y, tol):
    if tol <= 0:
        raise InputError("tolerance must be positive")
    y = np.asarray(y.coords if isinstance(y, Point) else y, dtype=float).reshape(-1)
    if y.shape[0] != f.codomain.dim:
        raise InputError("target has wrong dimension")
    if f.domain.dim != f.codomain.dim:
        raise InputError("newton needs equal domain and codomain dimensions")
    return y


def local_solve(f, y, x_guess, tol=1e-10, max_iter=50):
    """Solve f(x) = y near x_guess by damped Newton iteration.

    Steps are halved until the residual norm strictly decreases; trial
    points outside the domain or hitting evaluation faults count as
    failed trials, and an overflowing residual is +inf. Raises
    SingularJacobianError when the Jacobian is rank-deficient at
    working precision, NonConvergenceError when the budget ends above
    tolerance.
    """
    y = _solve_target(f, y, tol)
    x = f.domain.check_coords(
        x_guess.coords if isinstance(x_guess, Point) else x_guess
    ).copy()

    with np.errstate(over="ignore"):
        fx = f.eval(x)
        r = float(_distances(f, y, fx[None, :])[0])
        for iters in range(max_iter + 1):
            jac = jacobian_at(f, x)
            sv = np.linalg.svd(jac, compute_uv=False)
            smin, smax = float(sv[-1]), float(sv[0])
            if r <= tol:
                return LocalSolveResult(Point(x, f.domain), iters, r, smin, jac)
            if smin <= SINGULAR_RTOL * max(smax, 1.0):
                raise SingularJacobianError(
                    "jacobian of %s singular at %s (smin=%.3g)"
                    % (f.name, x.tolist(), smin)
                )
            residual_vec = f.codomain.canonical(fx - y)
            step = np.linalg.solve(jac, -residual_vec)
            faults = 0
            for lam in _LAMBDAS:
                trial = f.domain.canonical(x + lam * step)
                got = _trial_value(f, y, trial)
                if got is None:
                    faults += 1
                elif got[1] < r:
                    x = np.asarray(trial, dtype=float)
                    fx, r = got
                    break
            else:  # no trial improved
                if faults == LINE_SEARCH_TRIALS:
                    raise DomainError(
                        "every newton trial from %s leaves the domain" % x.tolist()
                    )
                raise NonConvergenceError(
                    "newton line search stalled at residual %.3g (tol %.3g)"
                    % (r, tol)
                )
    raise NonConvergenceError(
        "newton did not reach tolerance %.3g in %d iterations (residual %.3g)"
        % (tol, max_iter, r)
    )


@dataclass
class NewtonBlockResult:
    """Per-row outcome of newton_block, rows in the order of the starts."""

    points: np.ndarray  # (N, n) last iterates
    residuals: np.ndarray  # (N,) distances f(x) to y, +inf at a faulting start
    iterations: np.ndarray  # (N,) Newton steps taken
    status: np.ndarray  # (N,) CONVERGED, SINGULAR, STALLED, BUDGET or DOMAIN


def newton_block(f, y, starts, tol=1e-10, max_iter=50):
    """Solve f(x) = y from every row of an (N, n) block of starts by
    damped Newton iteration, all rows in lockstep.

    Each row follows the rules of local_solve and ends where local_solve
    from its start ends, after as many steps; where local_solve would
    raise, the row records the status naming the failure (a start
    outside the domain or faulting is DOMAIN after 0 steps). The line
    search takes two block rounds per iteration: every active row tries
    the full step, then the rows it did not improve try all remaining
    halvings at once and each takes its largest improving one, the step
    the sequential search accepts (Allgower & Georg, Introduction to
    Numerical Continuation Methods). A block that eval_many or
    jacobians_many refuses is redone row by row.
    """
    y = _solve_target(f, y, tol)
    n = f.domain.dim
    x = np.array(starts, dtype=float).reshape(-1, n)
    if not np.isfinite(x).all():
        raise InputError("starts have non-finite coordinates")
    status = np.full(x.shape[0], BUDGET, dtype=object)
    iterations = np.full(x.shape[0], max_iter + 1)
    active = np.ones(x.shape[0], dtype=bool)

    def stop(rows, why, it):
        status[rows] = why
        iterations[rows] = it
        active[rows] = False

    with np.errstate(over="ignore"):
        fx, r, faulted = _trial_values(f, y, x)
        stop(np.flatnonzero(faulted), DOMAIN, 0)
        for it in range(max_iter + 1):
            rows = np.flatnonzero(active)
            if rows.size == 0:
                break
            jac, faulted = _jacobians(f, x[rows])
            stop(rows[faulted], DOMAIN, it)
            rows, jac = rows[~faulted], jac[~faulted]
            sv = np.linalg.svd(jac, compute_uv=False)
            done = r[rows] <= tol
            singular = ~done & (
                sv[:, -1] <= SINGULAR_RTOL * np.maximum(sv[:, 0], 1.0)
            )
            stop(rows[done], CONVERGED, it)
            stop(rows[singular], SINGULAR, it)
            move = ~(done | singular)
            rows, jac = rows[move], jac[move]
            residual_vec = f.codomain.canonical(fx[rows] - y)
            step = np.linalg.solve(jac, -residual_vec[:, :, None])[:, :, 0]
            trials = x[rows, None] + _LAMBDAS[:, None] * step[:, None]
            trials = f.domain.canonical(trials.reshape(-1, n)).reshape(trials.shape)
            k, fx_k, r_k, all_faulted = _line_search(f, y, trials, r[rows])
            ok = k >= 0
            x[rows[ok]] = trials[ok, k[ok]]
            fx[rows[ok]], r[rows[ok]] = fx_k[ok], r_k[ok]
            stop(rows[~ok & all_faulted], DOMAIN, it)
            stop(rows[~ok & ~all_faulted], STALLED, it)
    return NewtonBlockResult(x, r, iterations, status)


def _distances(f, y, vals):
    return f.codomain.distance_many(vals, y[None, :])


def _trial_value(f, y, p):
    """(f(p), distance to y), or None where p is outside the domain or
    its evaluation faults."""
    try:
        if not f.domain.contains(p):
            return None
        val = f.eval(p)
    except _FAULTS:
        return None
    return val, float(_distances(f, y, val[None, :])[0])


def _block_values(f, y, pts):
    """Values of f at the rows of pts, their distances to y, and the
    mask of rows outside the domain (NaN values, distance +inf). Raises
    when eval_many refuses the block."""
    vals = np.full((pts.shape[0], f.codomain.dim), np.nan)
    dist = np.full(pts.shape[0], np.inf)
    ok = f.domain.contains_many(pts)
    if ok.any():
        vals[ok] = f.eval_many(pts[ok])
        dist[ok] = _distances(f, y, vals[ok])
    return vals, dist, ~ok


def _trial_values(f, y, pts):
    """_block_values, with a refused block redone row by row: the
    mask then also holds the rows whose evaluation faults."""
    try:
        return _block_values(f, y, pts)
    except _FAULTS:
        pass
    vals = np.full((pts.shape[0], f.codomain.dim), np.nan)
    dist = np.full(pts.shape[0], np.inf)
    faulted = np.ones(pts.shape[0], dtype=bool)
    for i, p in enumerate(pts):
        got = _trial_value(f, y, p)
        if got is not None:
            vals[i], dist[i] = got
            faulted[i] = False
    return vals, dist, faulted


def _jacobians(f, pts):
    """Jacobians at the rows of pts and the mask of rows whose Jacobian
    faults (left zero). A refused block is redone row by row."""
    faulted = np.zeros(pts.shape[0], dtype=bool)
    try:
        return f.jacobians_many(pts), faulted
    except _FAULTS:
        pass
    jac = np.zeros((pts.shape[0], f.codomain.dim, f.domain.dim))
    for i, p in enumerate(pts):
        try:
            jac[i] = jacobian_at(f, p)
        except _FAULTS:
            faulted[i] = True
    return jac, faulted


def _line_search(f, y, trials, r):
    """Backtracking over an (R, LINE_SEARCH_TRIALS, n) block of trial
    points, trial j at lam = 2^-j. Returns per row the index of the
    first trial closer to y than r (-1 if none), its value and distance,
    and whether every trial faulted."""
    n_rows, n_trials, n = trials.shape
    k = np.full(n_rows, -1)
    fx, dist, all_faulted = _trial_values(f, y, trials[:, 0])
    k[dist < r] = 0
    rest = np.flatnonzero(k < 0)
    if rest.size == 0:
        return k, fx, dist, all_faulted
    try:
        vals, d, faulted = _block_values(f, y, trials[rest, 1:].reshape(-1, n))
    except _FAULTS:
        # search each waiting row one trial at a time
        for i in rest:
            for j in range(1, n_trials):
                got = _trial_value(f, y, trials[i, j])
                if got is None:
                    continue
                all_faulted[i] = False
                if got[1] < r[i]:
                    k[i] = j
                    fx[i], dist[i] = got
                    break
        return k, fx, dist, all_faulted
    better = d.reshape(rest.size, -1) < r[rest, None]
    all_faulted[rest] &= faulted.reshape(rest.size, -1).all(axis=1)
    hit = np.flatnonzero(better.any(axis=1))
    j = better[hit].argmax(axis=1)
    k[rest[hit]] = j + 1
    flat = hit * (n_trials - 1) + j
    fx[rest[hit]], dist[rest[hit]] = vals[flat], d[flat]
    return k, fx, dist, all_faulted
