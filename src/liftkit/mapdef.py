"""Map definitions: built-in test maps, expression maps, Jacobians,
the small-matrix kernel, and a damped Newton local solver.

A MapHandle bundles a map between two spaces with its exact Jacobian:
hand-written Jacobian expressions (jacobian_source), or forward-mode
automatic differentiation of an expression map's components.

A built-in map is an expression map: one row of _BUILTINS, its
expression source and domain. Every expression map calls the functions
exprlang generates from its components (exprlang.compile_map), so a
built-in and the same source typed as an expression are one map.

Blocks are masked, not refused: a block callable returns every row, a
row it cannot evaluate non-finite (see MapHandle), and batched callers
such as newton_block read the mask of faulting rows, so one bad point
never sinks a batch and no block is redone row by row. A call that
raises on a block raises what the one-point form raises at its first
faulting row.
"""

from __future__ import annotations

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
    Point,
    Space,
    _floats,
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
    "singular_extremes",
    "singular_extremes_many",
    "det_sign",
    "det_sign_many",
    "linear_solve",
    "linear_solve_many",
]

# Annulus bounds for the complex power maps, and their largest |k|.
ANNULUS_INNER = 0.5
ANNULUS_OUTER = 2.0
POWK_MAX = 12


@dataclass(frozen=True)
class MapHandle:
    """A map with evaluation and Jacobian access.

    eval_one and jac_one are the point protocol: they take one point as
    a sequence of dim_in Python floats and return dim_out floats, or
    dim_out rows of dim_in floats, and may raise at a fault; they agree
    with a row of the block callables wherever both are finite, up to
    the last places where math's and numpy's functions round apart, and
    _value, _jacobian and _newton keep their points as floats.
    eval_many_fn and jac_many_fn are block callables: on an (N, dim_in)
    block they return all N values or Jacobians, a row they cannot
    evaluate holding a non-finite entry, without raising or warning (each
    sets numpy's error state for its own operations). The kernels
    _values_block and _jacobians_block return (block, faulting rows) in
    one pass. eval_many and jacobians_many check the block's shape and
    domain, and they, like _values and _jacobians at points the caller
    has tested, raise what _value or _jacobian raises at the block's
    first faulting row.
    """

    name: str
    domain: Space
    codomain: Space
    eval_one: object = field(repr=False)
    eval_many_fn: object = field(repr=False)
    jac_one: object = field(repr=False)
    jac_many_fn: object = field(repr=False)

    @property
    def dim_in(self):
        return self.domain.dim

    @property
    def dim_out(self):
        return self.codomain.dim

    def eval(self, coords):
        return np.array(self._value(self.domain.check_coords(coords).tolist()))

    def _value(self, c):
        """f at coordinates c, Python floats the caller has checked
        (shape, finiteness, domain), as floats; their number and
        finiteness are checked here."""
        out = self.eval_one(c)
        if len(out) != self.codomain.dim:
            raise InputError(
                "map %s returned %d components, codomain has dimension %d"
                % (self.name, len(out), self.codomain.dim)
            )
        if not all(map(math.isfinite, out)):
            raise DomainError("map %s produced non-finite values" % self.name)
        return out

    def _jacobian(self, c):
        """The Jacobian at checked coordinates c (Python floats), as
        rows of floats; its shape and finiteness are checked here."""
        jac = self.jac_one(c)
        lengths = list(map(len, jac))
        if lengths != [self.dim_in] * self.dim_out:
            raise InputError(
                "jacobian of %s has rows of lengths %s, expected %d rows of %d"
                % (self.name, lengths, self.dim_out, self.dim_in)
            )
        for row in jac:
            if not all(map(math.isfinite, row)):
                raise DomainError("jacobian of %s is non-finite" % self.name)
        return jac

    def __call__(self, coords):
        return self.eval(coords)

    def eval_many(self, pts):
        return self._values(self._checked_block(pts))

    def jacobians_many(self, pts):
        """Stack of Jacobians, shape (N, dim_out, dim_in)."""
        return self._jacobians(self._checked_block(pts))

    def _checked_block(self, pts):
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
        return pts

    def _values(self, pts):
        return self._unmasked(self._values_block(pts), pts, self._value)

    def _jacobians(self, pts):
        return self._unmasked(self._jacobians_block(pts), pts, self._jacobian)

    def _values_block(self, pts):
        return _masked(self.eval_many_fn, pts)

    def _jacobians_block(self, pts):
        jac, faulted = _masked(self.jac_many_fn, pts)
        shape = (pts.shape[0], self.dim_out, self.dim_in)
        if jac.shape != shape:
            raise InputError(
                "jacobian of %s has shape %s, expected %s" % (self.name, jac.shape, shape)
            )
        return jac, faulted

    def _unmasked(self, got, pts, one):
        """A kernel's block; where a row faults, what the one-point form
        one raises at the first faulting row."""
        block, faulted = got
        if faulted.any():
            exprlang._raise_first(one, pts, faulted, "map " + self.name)
        return block


def _masked(fn, pts):
    """(block, faulting rows) of the block callable fn."""
    out = np.asarray(fn(pts), dtype=float)
    finite = np.isfinite(out)
    if finite.all():  # a clean block pays one test, as a raising check would
        return out, np.zeros(out.shape[0], dtype=bool)
    return out, ~finite.all(axis=tuple(range(1, out.ndim)))


def jacobian_at(f, x):
    """Jacobian of f at chart coordinates x."""
    return np.array(f._jacobian(f.domain.check_coords(x).tolist()), dtype=float)


# ---------------------------------------------------------------------------
# Built-in maps


def _annulus(inner, outer):
    """The plane's open annulus inner < |z| < outer."""
    return subset_from_expression(
        Euclidean(2), "min(x*x + y*y - %r, %r - x*x - y*y)" % (inner**2, outer**2)
    )


def _identity(n=2):
    space = Euclidean(n)
    names = ["x%d" % i for i in range(space.dim)]
    source = "(%s)" % ", ".join(names)
    return expression_map(source, names, space, space, name="identity(%d)" % space.dim)


def _power(v, e):
    """v^e as a product, which numpy computes without calling pow."""
    return v if e == 1 else "(%s)" % "*".join([v] * e)


def _powk_source(k):
    """The components of z^k, z = x + iy, for an integer k != 0: the real
    and imaginary parts of the binomial expansion of z^|k|, written as
    products; for k < 0 conjugated and over (x*x + y*y)^|k|."""
    n = abs(k)
    parts = ["", ""]
    for j in range(n + 1):
        # C(n, j) x^(n-j) (iy)^j, whose i^j is 1, i, -1, -i
        factors = [str(math.comb(n, j))] if 0 < j < n else []
        factors += [_power("x", n - j)] if j < n else []
        factors += [_power("y", j)] if j else []
        negative = (j % 4 >= 2) != (k < 0 and j % 2 == 1)
        if parts[j % 2]:
            parts[j % 2] += " - " if negative else " + "
        elif negative:
            parts[j % 2] = "-"
        parts[j % 2] += "*".join(factors)
    if k > 0:
        return "(%s, %s)" % tuple(parts)
    modulus = "*".join(["(x*x + y*y)"] * n)
    return "((%s) / (%s), (%s) / (%s))" % (parts[0], modulus, parts[1], modulus)


def _powk(k):
    # the expansion's terms sum to at most 2^(|k|/2) |z|^|k|, so its
    # rounding error relative to |z^k| grows like |k| 2^(|k|/2) ulps
    if not 1 <= abs(k) <= POWK_MAX:
        raise InputError("powk takes an integer k with 1 <= |k| <= %d" % POWK_MAX)
    domain = _annulus(ANNULUS_INNER, ANNULUS_OUTER)
    image = _annulus(*sorted((ANNULUS_INNER**k, ANNULUS_OUTER**k)))
    return expression_map(_powk_source(k), None, domain, image, name="powk(%d)" % k)


# The built-in maps: name -> (expression source, domain), the domain None
# for the Euclidean space of the source's variables; identity(n) and
# powk(k) make their maps from their argument.
_BUILTINS = {
    "identity": _identity,
    "shear3": ("(x + y^3, y)", None),
    "shear3_inv": ("(x - y^3, y)", None),
    "expmap": ("exp(x)", None),
    "logmap": ("log(x)", subset_from_expression(Euclidean(1), "x")),
    "polar_exp": ("(exp(x)*cos(y), exp(x)*sin(y))", None),
    "powk": _powk,
    "arctan": ("atan(x)", None),
    "inclusion": ("(x, 0)", None),
    "cubic_implicit": ("y^3 + y - x", None),
}


def _builtin(name, *arg):
    """The built-in map name, of its argument if it takes one."""
    row = _BUILTINS[name]
    if callable(row):
        return row(*arg)
    if arg:
        raise InputError("built-in %s takes no argument" % name)
    source, domain = row
    return expression_map(source, domain=domain, name=name)


# the built-ins that require an argument
_NEEDS_ARG = {"powk"}


def builtin_names():
    return sorted(_BUILTINS)


_CALL_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\s*\(\s*(-?\d+)\s*\)$")


def expression_map(
    source,
    variables=None,
    domain=None,
    codomain=None,
    jacobian_source=None,
    name=None,
):
    """Build a MapHandle from component expressions.

    Its Jacobian is forward-mode automatic differentiation of the
    components, unless jacobian_source holds dim_out*dim_in expressions
    in row-major order, which are then the Jacobian's entries.
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

    compiled = exprlang.compile_map(asts)
    if jacobian_source is None:
        jac_one, jac_many = compiled.jacobian, compiled.jacobian_many
    else:
        jasts = exprlang.parse(jacobian_source, varnames)
        if len(jasts) != m * n:
            raise InputError(
                "jacobian needs %d expressions (rows x columns), got %d"
                % (m * n, len(jasts))
            )
        entries = exprlang.compile_map(jasts)

        def jac_one(c):
            vals = entries.values(c)
            return [vals[i * n : (i + 1) * n] for i in range(m)]

        def jac_many(pts):
            return entries.values_many(pts).reshape(pts.shape[0], m, n)

    return MapHandle(
        name=name or source,
        domain=domain,
        codomain=codomain,
        eval_one=compiled.values,
        eval_many_fn=compiled.values_many,
        jac_one=jac_one,
        jac_many_fn=jac_many,
    )


def resolve_map(spec, registry=None):
    """Resolve a map from a name or expression text.

    Lookup order: built-in names (with optional integer argument, e.g.
    powk(3)), then the registry, then expression parsing. A handle
    resolves to itself.
    """
    if isinstance(spec, MapHandle):
        return spec
    if not isinstance(spec, str):
        raise InputError("map spec must be a string or MapHandle")
    text = spec.strip()
    if text in _BUILTINS:
        if text in _NEEDS_ARG:
            raise InputError("%s needs an argument, e.g. %s(2)" % (text, text))
        return _builtin(text)
    m = _CALL_RE.match(text)
    if m and m.group(1) in _BUILTINS:
        return _builtin(m.group(1), int(m.group(2)))
    if registry is not None and registry.has_map(text):
        return registry.get_map(text)
    if re.match(r"^[A-Za-z_][A-Za-z_0-9]*$", text) and text not in ("x", "y", "z", "w", "t"):
        # a bare identifier that is not a variable is a failed lookup,
        # not an expression
        raise InputError(
            "unknown map %r; built-ins: %s"
            % (text, ", ".join(sorted(_BUILTINS)))
        )
    return expression_map(text)


# ---------------------------------------------------------------------------
# The small-matrix kernel: the extreme singular values, the determinant
# sign and the linear solve of one matrix and of a stack of them. Square
# 1x1 and 2x2 matrices take closed forms: for [[a, b], [c, d]],
# smax = (hypot(a + d, c - b) + hypot(a - d, b + c)) / 2,
# smin = |ad - bc| / smax, the sign of ad - bc, and Cramer's rule. Other
# shapes go to LAPACK, and so do matrices whose entries are non-finite,
# all zero, or so large or small that |a| + |b| + |c| + |d| lies outside
# _SCALE_RANGE.

_SCALE_RANGE = (2.0**-1000, 2.0**1000)


def _det(a, b, c, d):
    return a * d - b * c


def _scaled(m, s, a, b, c, d):
    """2^e and the entries over 2^e, for 2^(e-1) <= s < 2^e, s the sum of
    the absolute entries; dividing by a power of two is exact, and the
    scaled entries square without overflow or underflow.

    m is math for Python floats and numpy for the columns of a stack.
    _scaled, _det and _smax make the same correctly rounded operations
    in the same order for both, so the one-matrix and the stacked forms
    of the kernel agree bitwise (math.hypot and numpy.hypot do not)."""
    e = m.frexp(s)[1]
    k = m.ldexp(1.0, -e)
    return m.ldexp(1.0, e), a * k, b * k, c * k, d * k


def _smax(m, a, b, c, d):
    """The largest singular value of scaled entries (not the naive
    sqrt(s1^2 - det^2) form, which cancels on conformal matrices)."""
    p, q = a + d, c - b
    u, v = a - d, b + c
    return 0.5 * (m.sqrt(p * p + q * q) + m.sqrt(u * u + v * v))


def _closed_form(jac):
    """What the closed forms take of one square matrix, an array or rows
    of Python floats, as Python floats: (s, a) for [[a]], s = |a|;
    (2^e, a, b, c, d) for [[a, b], [c, d]], the entries over 2^e
    (_scaled); None for LAPACK. One matrix's singular values and solve
    can share it."""
    if isinstance(jac, np.ndarray):
        jac = jac.tolist()
    if len(jac) == 2 and len(jac[0]) == len(jac[1]) == 2:
        (a, b), (c, d) = jac
        s = abs(a) + abs(b) + abs(c) + abs(d)
    elif len(jac) == 1 and len(jac[0]) == 1:
        ((a,),) = jac
        s = abs(a)
    else:
        return None
    lo, hi = _SCALE_RANGE
    if not lo < s < hi:
        return None
    return (s, a) if len(jac) == 1 else _scaled(math, s, a, b, c, d)


def _closed_forms(jacs):
    """_closed_form of each matrix of a stack of square 1x1 or 2x2
    matrices, as columns after a mask ok of the rows the closed forms
    take: (ok, s, a) or (ok, 2^e, a, b, c, d); None for another shape.
    One stack's singular values and solve can share it, and a subset of
    its rows can take the same rows of each column."""
    if jacs.shape[1:] == (2, 2):
        cols = (jacs[:, 0, 0], jacs[:, 0, 1], jacs[:, 1, 0], jacs[:, 1, 1])
        s = abs(cols[0]) + abs(cols[1]) + abs(cols[2]) + abs(cols[3])
    elif jacs.shape[1:] == (1, 1):
        cols = (jacs[:, 0, 0],)
        s = abs(cols[0])
    else:
        return None
    lo, hi = _SCALE_RANGE
    ok = (lo < s) & (s < hi)
    if len(cols) == 1:
        return ok, s, cols[0]
    with np.errstate(all="ignore"):  # rows outside the range are redone
        return (ok,) + _scaled(np, s, *cols)


def _lapack_extremes(jac):
    jac = np.asarray(jac, dtype=float)
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv.shape[-1] == 0:
        sv = np.zeros(sv.shape[:-1] + (1,))
    smax = sv[..., 0]
    smin = sv[..., -1] if jac.shape[-1] <= jac.shape[-2] else np.zeros_like(smax)
    if jac.ndim == 2:
        return float(smin), float(smax)
    return smin, smax


def singular_extremes(jac):
    """(smin, smax) of one matrix: its largest singular value and its
    smallest, which is 0 for a wider-than-tall matrix (it has a null
    direction)."""
    return _extremes(jac, _closed_form(jac))


def _extremes(jac, closed):
    """singular_extremes of jac, given its _closed_form."""
    if closed is None:
        return _lapack_extremes(jac)
    if len(closed) == 2:
        return closed[0], closed[0]
    scale, a, b, c, d = closed
    smax = _smax(math, a, b, c, d)
    return abs(_det(a, b, c, d)) / smax * scale, smax * scale


def singular_extremes_many(jacs, closed=None):
    """singular_extremes of each matrix of an (N, m, n) stack, as two
    (N,) arrays; row i equals singular_extremes(jacs[i]) bitwise. A
    caller that also solves with the stack passes its _closed_forms."""
    jacs = np.asarray(jacs, dtype=float)
    if closed is None:
        closed = _closed_forms(jacs)
    if closed is None:
        return _lapack_extremes(jacs)
    ok = closed[0]
    if len(closed) == 3:
        smin, smax = closed[1].copy(), closed[1].copy()
    else:
        scale, a, b, c, d = closed[1:]
        with np.errstate(all="ignore"):  # rows outside the range are redone
            smax = _smax(np, a, b, c, d)
            smin = abs(_det(a, b, c, d)) / smax * scale
            smax = smax * scale
    if not ok.all():
        smin[~ok], smax[~ok] = _lapack_extremes(jacs[~ok])
    return smin, smax


def det_sign(jac):
    """The sign of a square matrix's determinant: 1.0, -1.0 or 0.0."""
    closed = _closed_form(jac)
    if closed is None:
        return float(np.linalg.slogdet(np.asarray(jac, dtype=float))[0])
    det = closed[1] if len(closed) == 2 else _det(*closed[1:])
    return float((det > 0) - (det < 0))


def det_sign_many(jacs):
    """det_sign of each matrix of an (N, n, n) stack, as an (N,) array."""
    jacs = np.asarray(jacs, dtype=float)
    closed = _closed_forms(jacs)
    if closed is None:
        return np.linalg.slogdet(jacs)[0]
    ok = closed[0]
    with np.errstate(all="ignore"):
        det = closed[2] if len(closed) == 3 else _det(*closed[2:])
    sign = np.sign(det)
    if not ok.all():
        sign[~ok] = np.linalg.slogdet(jacs[~ok])[0]
    return sign


def linear_solve(jac, rhs):
    """The solution x of jac x = rhs for one square matrix and an (n,)
    right-hand side. Raises numpy.linalg.LinAlgError when the matrix is
    singular (for 2x2, when its scaled determinant is 0)."""
    return np.array(_solve(jac, _closed_form(jac), np.asarray(rhs, dtype=float).tolist()))


def _solve(jac, closed, r):
    """linear_solve of jac, given its _closed_form, for a right-hand side
    r of Python floats, as Python floats."""
    if closed is None:
        return np.linalg.solve(np.asarray(jac, dtype=float), r).tolist()
    if len(closed) == 2:
        return [r[0] / closed[1]]
    scale, a, b, c, d = closed
    det = _det(a, b, c, d)
    if det == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    # the scaled matrix maps x to rhs / scale, of about the size of x
    r0, r1 = r[0] / scale, r[1] / scale
    return [(d * r0 - b * r1) / det, (a * r1 - c * r0) / det]


def linear_solve_many(jacs, rhs, closed=None):
    """linear_solve for each matrix of an (N, n, n) stack and row of an
    (N, n) block of right-hand sides, as an (N, n) block; row i equals
    linear_solve(jacs[i], rhs[i]) bitwise. Raises
    numpy.linalg.LinAlgError when any matrix is singular. A caller that
    also took the stack's singular values passes its _closed_forms."""
    jacs = np.asarray(jacs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if closed is None:
        closed = _closed_forms(jacs)
    if closed is None:
        return np.linalg.solve(jacs, rhs[:, :, None])[:, :, 0]
    ok = closed[0]
    with np.errstate(all="ignore"):
        if len(closed) == 3:
            x = rhs / closed[2][:, None]
        else:
            scale, a, b, c, d = closed[1:]
            det = _det(a, b, c, d)
            if (det[ok] == 0.0).any():
                raise np.linalg.LinAlgError("Singular matrix")
            r0, r1 = rhs[:, 0] / scale, rhs[:, 1] / scale
            x = np.stack([(d * r0 - b * r1) / det, (a * r1 - c * r0) / det], axis=1)
    if not ok.all():
        x[~ok] = np.linalg.solve(jacs[~ok], rhs[~ok][:, :, None])[:, :, 0]
    return x


# ---------------------------------------------------------------------------
# Damped Newton: local_solve for one point, newton_block for a block of
# starts. Both apply the rules below.

# a Jacobian is singular when smin <= SINGULAR_RTOL * max(smax, 1)
SINGULAR_RTOL = 1e-14
# the line search tries lam = 1, 1/2, ..., 2^-(LINE_SEARCH_TRIALS - 1)
LINE_SEARCH_TRIALS = 30
_LAMBDAS = np.ldexp(1.0, -np.arange(LINE_SEARCH_TRIALS))
_LAMBDA_FLOATS = _LAMBDAS.tolist()

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
    failed trials, and an overflowing residual is +inf. The start is
    checked once (shape, finiteness, domain); each trial point is
    tested once, and the loop evaluates values and Jacobians without
    checking its points again. Raises SingularJacobianError when the
    Jacobian is rank-deficient at working precision,
    NonConvergenceError when the line search stalls or the budget ends
    above tolerance, and DomainError when every trial of a line search
    leaves the domain or faults.
    """
    y = _solve_target(f, y, tol)
    x = f.domain.check_coords(x_guess)
    run = _converged(f, _newton(f, y, x, tol, max_iter), tol, max_iter)
    return LocalSolveResult(
        Point(run.x, f.domain),
        run.iterations,
        run.residual,
        run.smin,
        np.array(run.jacobian, dtype=float),
    )


def _converged(f, run, tol, max_iter):
    """run, a _newton run with that tol and max_iter, when it converged;
    otherwise the typed error local_solve raises for its status."""
    if run.status == CONVERGED:
        return run
    if run.status == SINGULAR:
        raise SingularJacobianError(
            "jacobian of %s singular at %s (smin=%.3g)"
            % (f.name, list(run.x), run.smin)
        )
    if run.status == DOMAIN:
        raise DomainError(
            "every newton trial from %s leaves the domain" % list(run.x)
        )
    if run.status == STALLED:
        raise NonConvergenceError(
            "newton line search stalled at residual %.3g (tol %.3g)"
            % (run.residual, tol)
        )
    raise NonConvergenceError(
        "newton did not reach tolerance %.3g in %d iterations (residual %.3g)"
        % (tol, max_iter, run.residual)
    )


@dataclass
class _NewtonRun:
    """How _newton ended: a newton_block status, the last iterate (Python
    floats), its residual, and the Jacobian at it (rows of floats) with
    its smallest singular value (None after BUDGET, whose last step
    lands on a point not yet differentiated)."""

    status: str
    x: list
    iterations: int
    residual: float
    jacobian: list = None
    smin: float = None


def _newton(f, y, x, tol, max_iter):
    """local_solve's loop, also lift_path's corrector and polish, from
    checked coordinates x toward the checked target y (arrays or
    sequences of Python floats). The iterate, residual vector, step and
    trial points are Python floats, each the row newton_block holds.
    Failures are statuses, not errors; a fault in the start's value or
    in a Jacobian raises."""
    dom, cod = f.domain, f.codomain
    y, x = _floats(y), _floats(x)
    fx = f._value(x)
    r = cod.distance_one(fx, y)
    for iters in range(max_iter + 1):
        jac = f._jacobian(x)
        closed = _closed_form(jac)
        smin, smax = _extremes(jac, closed)
        if r <= tol:
            return _NewtonRun(CONVERGED, x, iters, r, jac, smin)
        if smin <= SINGULAR_RTOL * max(smax, 1.0):
            return _NewtonRun(SINGULAR, x, iters, r, jac, smin)
        residual_vec = cod.canonical_one([u - v for u, v in zip(fx, y)])
        step = _solve(jac, closed, [-v for v in residual_vec])
        faults = 0
        for lam in _LAMBDA_FLOATS:
            trial = dom.canonical_one([u + lam * v for u, v in zip(x, step)])
            got = _trial_value(f, y, trial)
            if got is None:
                faults += 1
            elif got[1] < r:
                x = trial
                fx, r = got
                break
        else:  # no trial improved
            why = DOMAIN if faults == LINE_SEARCH_TRIALS else STALLED
            return _NewtonRun(why, x, iters, r, jac, smin)
    return _NewtonRun(BUDGET, x, max_iter + 1, r)


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
    Numerical Continuation Methods). Each block's faulting rows are
    read off the map's masked kernels.
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
        fx, r, faulted = _block_values(f, y, x)
        stop(np.flatnonzero(faulted), DOMAIN, 0)
        for it in range(max_iter + 1):
            rows = np.flatnonzero(active)
            if rows.size == 0:
                break
            jac, faulted = f._jacobians_block(x[rows])
            stop(rows[faulted], DOMAIN, it)
            rows, jac = rows[~faulted], jac[~faulted]
            closed = _closed_forms(jac)
            smin, smax = singular_extremes_many(jac, closed)
            done = r[rows] <= tol
            singular = ~done & (smin <= SINGULAR_RTOL * np.maximum(smax, 1.0))
            stop(rows[done], CONVERGED, it)
            stop(rows[singular], SINGULAR, it)
            move = ~(done | singular)
            rows, jac = rows[move], jac[move]
            if closed is not None:
                closed = tuple(col[move] for col in closed)
            residual_vec = f.codomain.canonical(fx[rows] - y)
            step = linear_solve_many(jac, -residual_vec, closed)
            trials = x[rows, None] + _LAMBDAS[:, None] * step[:, None]
            trials = f.domain.canonical(trials.reshape(-1, n)).reshape(trials.shape)
            k, fx_k, r_k, all_faulted = _line_search(f, y, trials, r[rows])
            ok = k >= 0
            x[rows[ok]] = trials[ok, k[ok]]
            fx[rows[ok]], r[rows[ok]] = fx_k[ok], r_k[ok]
            stop(rows[~ok & all_faulted], DOMAIN, it)
            stop(rows[~ok & ~all_faulted], STALLED, it)
    return NewtonBlockResult(x, r, iterations, status)


def _trial_value(f, y, p):
    """(f(p), distance to y) for Python floats p and y, or None where p is
    non-finite, outside the domain or its evaluation faults; p is tested
    once."""
    if not all(map(math.isfinite, p)) or not f.domain.contains(p):
        return None
    try:
        val = f._value(p)
    except _FAULTS:
        return None
    return val, f.codomain.distance_one(val, y)


def _block_values(f, y, pts):
    """Values of f at the rows of pts, their distances to y, and the
    mask of rows outside the domain or faulting (distance +inf, value
    not to be read). The whole block is evaluated, then masked once."""
    vals, faulted = f._values_block(pts)
    bad = faulted | ~f.domain.contains_many(pts)
    # a masked row measures y to y, which cannot warn, then reads +inf
    dist = f.codomain.distance_many(np.where(bad[:, None], y, vals), y[None, :])
    dist[bad] = np.inf
    return vals, dist, bad


def _line_search(f, y, trials, r):
    """Backtracking over an (R, LINE_SEARCH_TRIALS, n) block of trial
    points, trial j at lam = 2^-j. Returns per row the index of the
    first trial closer to y than r (-1 if none), its value and distance,
    and whether every trial faulted."""
    n_rows, n_trials, n = trials.shape
    k = np.full(n_rows, -1)
    fx, dist, all_faulted = _block_values(f, y, trials[:, 0])
    k[dist < r] = 0
    rest = np.flatnonzero(k < 0)
    if rest.size == 0:
        return k, fx, dist, all_faulted
    vals, d, faulted = _block_values(f, y, trials[rest, 1:].reshape(-1, n))
    better = d.reshape(rest.size, -1) < r[rest, None]
    all_faulted[rest] &= faulted.reshape(rest.size, -1).all(axis=1)
    hit = np.flatnonzero(better.any(axis=1))
    j = better[hit].argmax(axis=1)
    k[rest[hit]] = j + 1
    flat = hit * (n_trials - 1) + j
    fx[rest[hit]], dist[rest[hit]] = vals[flat], d[flat]
    return k, fx, dist, all_faulted
