"""Metric spaces, points, and parametrized paths.

Spaces are charts on R^n with a distance: Euclidean p-norm spaces,
circle and torus quotients, finite products, and open subsets cut out
by a membership predicate. Paths are maps from a parameter interval
into a space; lengths are computed by adaptive dyadic chord sums.

Quotient-space paths are parametrized in the covering chart (their
coordinates are not reduced); evaluation returns points reduced to the
canonical representative range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exprlang
from .errors import DegenerateInputError, DomainError, EvalDomainError, InputError

__all__ = [
    "Space",
    "Euclidean",
    "CircleQuotient",
    "Torus",
    "ProductSpace",
    "OpenSubset",
    "Box",
    "Point",
    "points_equal",
    "distinct_rows",
    "distance",
    "chart_norm",
    "Path",
    "Segment",
    "Sampled",
    "polyline",
    "Loop",
    "ExpressionPath",
    "FunctionPath",
    "PathLengthResult",
    "path_length",
    "reparam_arclength",
    "reverse_path",
]

TWO_PI = 2.0 * math.pi

# Relative tolerance under which two points count as the same point.
POINT_IDENTITY_RTOL = 1e-9


def _pnorm(diff, p, axis=-1):
    diff = np.abs(diff)
    if p == math.inf:
        return diff.max(axis=axis)
    if p == 2.0:
        # no square of a difference up to 1e150 overflows, nor a sum of
        # fewer than 1e8 of them; past that (or at a NaN) a row whose
        # squares overflow though its entries are finite is taken again
        # divided by its largest entry, and every other row stays as is
        if diff.size == 0 or np.maximum.reduce(diff, None) <= 1e150:
            return np.sqrt(np.add.reduce(diff * diff, axis))
        with np.errstate(all="ignore"):
            norms = np.sqrt(np.add.reduce(diff * diff, axis))
            top = diff.max(axis=axis, keepdims=True)
            scaled = diff / top
            top = top.squeeze(axis)
            rescaled = top * np.sqrt(np.add.reduce(scaled * scaled, axis))
        return np.where(np.isinf(norms) & np.isfinite(top), rescaled, norms)[()]
    if p == 1.0:
        return diff.sum(axis=axis)
    return (diff**p).sum(axis=axis) ** (1.0 / p)


def _wrap_angle(a):
    """Reduce to the canonical representative range [-pi, pi)."""
    return (np.asarray(a, dtype=float) + math.pi) % TWO_PI - math.pi


def _float_sum(terms):
    """The sum of a list of Python floats in order: numpy's sum of a
    block's row of fewer than 8 terms (from 8 on it sums pairwise)."""
    total = 0.0
    for t in terms:
        total += t
    return total


def _root_sum(diffs):
    """The 2-norm of a list of Python floats, as _pnorm takes a block's
    row: its squares summed in order under 8 terms, by numpy from 8 on,
    and divided by the largest |entry| where they overflow though the
    entries are finite."""
    norm = _sqrt_sum([d * d for d in diffs])
    if norm == math.inf and all(map(math.isfinite, diffs)):
        top = max(map(abs, diffs))
        norm = top * _sqrt_sum([(d / top) * (d / top) for d in diffs])
    return norm


def _sqrt_sum(squares):
    """The square root of the sum of a list of squares, as above."""
    if len(squares) < 8:
        return math.sqrt(_float_sum(squares))
    with np.errstate(over="ignore"):  # a huge sum is inf, as on floats
        return float(np.sqrt(np.array([squares]).sum(axis=-1))[0])


def chart_norm(coords):
    """The 2-norm of one point's chart coordinates (an array or a
    sequence of numbers), as a float: the row norm of points_equal, bit
    for bit."""
    return _root_sum(_floats(coords))


def _floats(c):
    """The coordinates c, an array or a sequence of numbers, as a
    sequence of Python floats (an array's list; c itself otherwise)."""
    return c.tolist() if isinstance(c, np.ndarray) else c


class Space:
    """Base class; concrete spaces define dim, distance, and membership.

    A space has block forms, on arrays whose rows are points
    (canonical, contains_many, distance_many, chart_lengths), and
    one-point forms on one point's coordinates given as a sequence of
    Python floats (canonical_one, contains, distance_one,
    chart_length_one), which answer in Python floats (canonical_one may
    hand back its argument). The base one-point forms run the block
    form on a one-row block, so each is its block form's row bitwise;
    an overflowing difference gives +inf (NaN after a quotient's wrap).
    Only Euclidean spaces of fewer than 8 coordinates with p = 1, 2 or
    inf keep hand-written float forms, and open subsets of them reach
    those: the serial lifts of the benchmark (perfbench's lift and
    certify workloads) run on Euclidean(2) and an annulus in it, where
    a one-row block's numpy overhead would dominate a lift step.
    """

    dim = 0

    def canonical(self, coords):
        return np.asarray(coords, dtype=float)

    def canonical_one(self, c):
        with np.errstate(all="ignore"):  # a wrap of an overflow is NaN
            return self.canonical(np.array([c], float))[0].tolist()

    def contains(self, coords):
        return len(coords) == self.dim

    def contains_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.ones(pts.shape[0], dtype=bool)

    def distance_many(self, a, b):
        raise NotImplementedError

    def distance_one(self, a, b):
        """distance_many of the one-row blocks a and b, as a float."""
        return _one_row(self.distance_many, a, b)

    def distance(self, a, b):
        return self.distance_one(self.check_coords(a).tolist(), self.check_coords(b).tolist())

    def chart_lengths(self, a, b):
        """Length of the chart-straight piece from a to b (rowwise).

        Equals the distance except on quotient spaces, where a chart
        chord may wind and so be longer than the quotient distance.
        """
        return self.distance_many(a, b)

    def chart_length_one(self, a, b):
        return _one_row(self.chart_lengths, a, b)

    def check_coords(self, coords):
        """Coordinates as a checked 1-d float array; a Point gives its
        coordinates, checked against this space."""
        if isinstance(coords, Point):
            coords = coords.coords
        c = np.asarray(coords, dtype=float).reshape(-1)
        if c.shape[0] != self.dim:
            raise InputError(
                "point has %d coordinates, expected %d in %r"
                % (c.shape[0], self.dim, self)
            )
        if not np.all(np.isfinite(c)):
            raise InputError("point has non-finite coordinates")
        if not self.contains(c.tolist()):
            raise DomainError("point %s is outside %r" % (c.tolist(), self))
        return c


def _one_row(form, a, b):
    """The block form form on the one-row blocks a and b, as a float."""
    with np.errstate(all="ignore"):  # overflowing differences give inf
        return float(form(np.array([a], float), np.array([b], float))[0])


class Euclidean(Space):
    def __init__(self, dim, p=2.0):
        dim = int(dim)
        if dim < 1:
            raise InputError("dimension must be at least 1")
        p = float(p)
        if not (p >= 1.0):
            raise InputError("p-norm exponent must satisfy p >= 1")
        self.dim = dim
        self.p = p

    def __repr__(self):
        if self.p == 2.0:
            return "Euclidean(%d)" % self.dim
        return "Euclidean(%d, p=%g)" % (self.dim, self.p)

    def canonical_one(self, c):
        return c

    def distance_many(self, a, b):
        return _pnorm(np.asarray(a, float) - np.asarray(b, float), self.p)

    def distance_one(self, a, b):
        if self.p == 2.0:
            norm = _sqrt_sum([(u - v) * (u - v) for u, v in zip(a, b)])
            if norm == math.inf:  # _root_sum's rescaled form, past the fast one
                norm = _root_sum([u - v for u, v in zip(a, b)])
            return norm
        # float forms where numpy sums in order; other p take the block
        # form (numpy's power may round unlike libm's)
        if self.dim < 8:
            if self.p == 1.0:
                return _float_sum([abs(u - v) for u, v in zip(a, b)])
            if self.p == math.inf:
                return max([abs(u - v) for u, v in zip(a, b)])
        return super().distance_one(a, b)

    def chart_length_one(self, a, b):
        return self.distance_one(a, b)


class CircleQuotient(Space):
    """R modulo 2*pi with the quotient (arc) distance."""

    dim = 1

    def __repr__(self):
        return "CircleQuotient()"

    def canonical(self, coords):
        return _wrap_angle(coords)

    def distance_many(self, a, b):
        d = _wrap_angle(np.asarray(a, float) - np.asarray(b, float))
        return np.abs(d)[..., 0]

    def chart_lengths(self, a, b):
        d = np.asarray(a, float) - np.asarray(b, float)
        return np.abs(d)[..., 0]


class Torus(Space):
    """Product of circles, 2-norm of per-coordinate arc distances."""

    def __init__(self, dim):
        dim = int(dim)
        if dim < 1:
            raise InputError("dimension must be at least 1")
        self.dim = dim

    def __repr__(self):
        return "Torus(%d)" % self.dim

    def canonical(self, coords):
        return _wrap_angle(coords)

    def distance_many(self, a, b):
        d = _wrap_angle(np.asarray(a, float) - np.asarray(b, float))
        return np.sqrt((d * d).sum(axis=-1))

    def chart_lengths(self, a, b):
        d = np.asarray(a, float) - np.asarray(b, float)
        return np.sqrt((d * d).sum(axis=-1))


class ProductSpace(Space):
    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise InputError("product of zero spaces")
        self.parts = parts
        self.dim = sum(s.dim for s in parts)
        self._slices = []
        off = 0
        for s in parts:
            self._slices.append(slice(off, off + s.dim))
            off += s.dim

    def __repr__(self):
        return "ProductSpace(%s)" % ", ".join(repr(s) for s in self.parts)

    def canonical(self, coords):
        c = np.array(coords, dtype=float)
        for s, sl in zip(self.parts, self._slices):
            c[..., sl] = s.canonical(c[..., sl])
        return c

    def contains(self, coords):
        return all(s.contains(coords[sl]) for s, sl in zip(self.parts, self._slices))

    def contains_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        ok = np.ones(pts.shape[0], dtype=bool)
        for s, sl in zip(self.parts, self._slices):
            ok &= s.contains_many(pts[:, sl])
        return ok

    def distance_many(self, a, b):
        a = np.asarray(a, float)
        b = np.asarray(b, float)
        acc = None
        for s, sl in zip(self.parts, self._slices):
            d = s.distance_many(a[:, sl], b[:, sl])
            acc = d * d if acc is None else acc + d * d
        return np.sqrt(acc)

    def chart_lengths(self, a, b):
        a = np.asarray(a, float)
        b = np.asarray(b, float)
        acc = None
        for s, sl in zip(self.parts, self._slices):
            d = s.chart_lengths(a[:, sl], b[:, sl])
            acc = d * d if acc is None else acc + d * d
        return np.sqrt(acc)


class OpenSubset(Space):
    """An open subset of a base space, cut out by predicate(coords) > 0
    truthiness. The predicate receives one point's coordinates as a
    sequence of Python floats; its vectorized form predicate_many
    receives an (N, dim) block. Both answer where they cannot evaluate,
    not raise (subset_from_expression's say False), so a block holding
    overflowing or non-finite points gets its mask."""

    def __init__(self, base, predicate, predicate_many, source=None):
        self.base = base
        self.dim = base.dim
        self.predicate = predicate
        self._predicate_many = predicate_many
        self.source = source

    def __repr__(self):
        tag = self.source if self.source else "<predicate>"
        return "OpenSubset(%r, %s)" % (self.base, tag)

    def canonical(self, coords):
        return self.base.canonical(coords)

    def canonical_one(self, c):
        return self.base.canonical_one(c)

    def contains(self, coords):
        return self.base.contains(coords) and bool(self.predicate(coords))

    def contains_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        ok = self.base.contains_many(pts)
        return ok & np.asarray(self._predicate_many(pts), dtype=bool)

    def distance_many(self, a, b):
        return self.base.distance_many(a, b)

    def distance_one(self, a, b):
        return self.base.distance_one(a, b)

    def chart_lengths(self, a, b):
        return self.base.chart_lengths(a, b)

    def chart_length_one(self, a, b):
        return self.base.chart_length_one(a, b)


def subset_from_expression(base, source, variables=None):
    """OpenSubset whose membership is expression > 0. A point where the
    expression faults or is non-finite is outside."""
    ast = exprlang.parse_single(source, variables)
    if ast.arity != base.dim:
        raise InputError(
            "predicate has %d variables, space has dimension %d"
            % (ast.arity, base.dim)
        )
    compiled = exprlang.compile_map((ast,))
    one, block = compiled.values, compiled.values_many

    def pred(c):
        try:
            value = one(_floats(c))[0]
        except EvalDomainError:
            return False
        return 0.0 < value < math.inf

    def pred_many(pts):
        value = block(pts)[:, 0]  # NaN where the expression faults
        return (value > 0.0) & (value < math.inf)

    return OpenSubset(base, pred, pred_many, source=source)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, used as a sampling region."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(-1)
        hi = np.asarray(self.hi, dtype=float).reshape(-1)
        if lo.shape != hi.shape or np.any(hi < lo):
            raise InputError("box needs lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.shape[0]

    def contains(self, coords):
        c = np.asarray(coords, dtype=float)
        return bool(np.all(c >= self.lo) and np.all(c <= self.hi))

    def contains_many(self, pts):
        p = np.asarray(pts, dtype=float)
        return np.all((p >= self.lo) & (p <= self.hi), axis=-1)

    def scale(self, unit_pts):
        """Map points in [0,1]^dim into the box."""
        u = np.asarray(unit_pts, dtype=float)
        return self.lo + u * (self.hi - self.lo)

    def corners(self):
        """All 2^dim vertices (dim capped at 16 to bound the blowup)."""
        if self.dim > 16:
            raise InputError("corner enumeration limited to dim <= 16")
        grids = np.meshgrid(*[(self.lo[i], self.hi[i]) for i in range(self.dim)])
        return np.stack([g.ravel() for g in grids], axis=1)


@dataclass(frozen=True)
class Point:
    coords: np.ndarray
    space: Space

    def __post_init__(self):
        c = self.space.check_coords(self.coords)
        c = np.asarray(self.space.canonical(c), dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def __repr__(self):
        return "Point(%s)" % np.array2string(self.coords, separator=", ")


def distance(space, a, b):
    """Distance between two points (Point or coordinate vectors)."""
    return space.distance(a, b)


def points_equal(space, a, b, rtol=POINT_IDENTITY_RTOL, atol=0.0):
    """Point identity between every row of a and every row of b.

    a is an (N, n) block and b an (M, n) block of chart coordinates;
    the (N, M) mask holds d(a_i, b_j) <= max(rtol * (1 + max(|a_i|,
    |b_j|)), atol), with d the space's distance (so quotient spaces
    wrap) and |.| the 2-norm of the chart coordinates. The default is
    point identity at relative tolerance 1e-9; atol is a floor for
    callers whose points carry an absolute error.
    """
    a = np.asarray(a, dtype=float).reshape(-1, space.dim)
    b = np.asarray(b, dtype=float).reshape(-1, space.dim)
    n, m = a.shape[0], b.shape[0]
    d = space.distance_many(np.repeat(a, m, axis=0), np.tile(b, (n, 1)))
    norms = np.maximum(_pnorm(a, 2.0)[:, None], _pnorm(b, 2.0)[None, :])
    return d.reshape(n, m) <= np.maximum(rtol * (1.0 + norms), atol)


def distinct_rows(space, pts, rtol=POINT_IDENTITY_RTOL):
    """The first row of each group of coinciding rows of an (N, n)
    block: the indices of the rows that equal (points_equal at rtol) no
    earlier row kept, in lexicographic order of their coordinates."""
    same = points_equal(space, pts, pts, rtol=rtol)
    found = []
    for i in range(same.shape[0]):
        if not same[i, found].any():
            found.append(i)
    return sorted(found, key=lambda i: tuple(pts[i]))


# ---------------------------------------------------------------------------
# Paths


class Path:
    """A parametrized path on a space.

    Concrete kinds implement eval_many on chart coordinates; domain is
    the path's closed parameter interval.
    """

    kind = "path"

    def __init__(self, space, domain):
        t0, t1 = float(domain[0]), float(domain[1])
        if not (math.isfinite(t0) and math.isfinite(t1)) or t1 < t0:
            raise InputError("bad parameter interval %r" % (domain,))
        self.space = space
        self.domain = (t0, t1)

    def eval_many(self, ts):
        raise NotImplementedError

    def eval(self, t):
        return self.eval_many(np.array([float(t)]))[0]

    def breakpoints(self):
        """Interior parameters where the path may lose smoothness."""
        return np.empty(0)

    def reverse(self):
        raise NotImplementedError

    def velocity(self, t):
        """Chart-coordinate derivative; central difference fallback."""
        t0, t1 = self.domain
        h = 1e-6 * (1.0 + abs(t)) if t1 > t0 else 1e-6
        lo = max(t0, t - h)
        hi = min(t1, t + h)
        if hi <= lo:
            return np.zeros(self.space.dim)
        pts = self.eval_many(np.array([lo, hi]))
        return (pts[1] - pts[0]) / (hi - lo)

    def _check_param(self, t):
        t0, t1 = self.domain
        slack = 1e-12 * (1.0 + abs(t0) + abs(t1))
        if t < t0 - slack or t > t1 + slack:
            raise InputError(
                "parameter %g outside path domain [%g, %g]" % (t, t0, t1)
            )
        return min(max(t, t0), t1)

    def _restricted_domain(self, u, v):
        u = self._check_param(float(u))
        v = self._check_param(float(v))
        if v < u:
            raise InputError("restriction needs u <= v")
        return u, v


class Segment(Path):
    """Straight chord from a to b, affinely parametrized over interval."""

    kind = "segment"

    def __init__(self, space, a, b, interval=(0.0, 1.0)):
        self.a = space.check_coords(a).copy()
        self.b = space.check_coords(b).copy()
        s0, s1 = float(interval[0]), float(interval[1])
        if s1 <= s0:
            raise InputError("segment interval must have positive width")
        self.interval = (s0, s1)
        super().__init__(space, (s0, s1))

    def eval_many(self, ts):
        s0, s1 = self.interval
        lam = (np.asarray(ts, float)[:, None] - s0) / (s1 - s0)
        return self.a + lam * (self.b - self.a)

    def reverse(self):
        return Segment(self.space, self.b, self.a, self.interval)

    def velocity(self, t):
        s0, s1 = self.interval
        return (self.b - self.a) / (s1 - s0)

    def exact_length(self, u=None, v=None):
        """Closed-form length over [u, v] (defaults to the domain)."""
        t0, t1 = self.domain
        u = t0 if u is None else self._check_param(float(u))
        v = t1 if v is None else self._check_param(float(v))
        if v <= u:
            return 0.0
        return self.space.chart_length_one(*self.eval_many(np.array([u, v])).tolist())


class Sampled(Path):
    """Piecewise-linear interpolation of knots at strictly increasing
    parameters. The polyline family; uniform parameters give polylines."""

    kind = "sampled"

    def __init__(self, space, params, knots, kind=None, degenerate=False):
        params = np.asarray(params, dtype=float).reshape(-1)
        knots = np.asarray(knots, dtype=float)
        if knots.ndim != 2 or knots.shape[0] != params.shape[0]:
            raise InputError("need one knot per parameter")
        if knots.shape[1] != space.dim:
            raise InputError("knot dimension mismatch")
        if degenerate:
            if params.shape[0] != 1:
                raise InputError("degenerate sampled path holds one knot")
        else:
            if params.shape[0] < 2:
                raise InputError("need at least 2 knots")
            if not np.all(np.diff(params) > 0):
                raise InputError("knot parameters must be strictly increasing")
        for k in knots:
            space.check_coords(k)
        self.params = params
        self.knots = knots
        self.degenerate = degenerate
        if kind is not None:
            self.kind = kind
        super().__init__(space, (params[0], params[-1]))

    def eval_many(self, ts):
        ts = np.asarray(ts, dtype=float)
        if self.degenerate:
            return np.broadcast_to(self.knots[0], (ts.shape[0], self.space.dim)).copy()
        out = np.empty((ts.shape[0], self.space.dim))
        for i in range(self.space.dim):
            out[:, i] = np.interp(ts, self.params, self.knots[:, i])
        return out

    def breakpoints(self):
        return self.params[1:-1].copy()

    def reverse(self):
        if self.degenerate:
            return self
        u, v = self.domain
        new_params = (u + v) - self.params[::-1]
        return Sampled(self.space, new_params, self.knots[::-1].copy(), kind=self.kind)

    def velocity(self, t):
        if self.degenerate:
            return np.zeros(self.space.dim)
        t = self._check_param(float(t))
        j = int(np.searchsorted(self.params, t, side="right")) - 1
        j = min(max(j, 0), self.params.shape[0] - 2)
        dt = self.params[j + 1] - self.params[j]
        return (self.knots[j + 1] - self.knots[j]) / dt

    def exact_length(self, u=None, v=None):
        """Closed-form length over [u, v] (defaults to the domain)."""
        if self.degenerate:
            return 0.0
        t0, t1 = self.domain
        u = t0 if u is None else self._check_param(float(u))
        v = t1 if v is None else self._check_param(float(v))
        if v <= u:
            return 0.0
        cut = np.union1d(
            self.params[(self.params > u) & (self.params < v)], [u, v]
        )
        pts = self.eval_many(cut)
        return float(self.space.chart_lengths(pts[:-1], pts[1:]).sum())


def polyline(space, knots, domain=(0.0, 1.0)):
    """Uniformly parametrized piecewise-linear path through knots."""
    knots = np.asarray(knots, dtype=float)
    if knots.ndim != 2 or knots.shape[0] < 2:
        raise InputError("polyline needs at least 2 knots")
    t0, t1 = float(domain[0]), float(domain[1])
    if t1 <= t0:
        raise InputError("polyline domain must have positive width")
    params = np.linspace(t0, t1, knots.shape[0])
    return Sampled(space, params, knots, kind="polyline")


class Loop(Path):
    """Circle of given center and radius in a 2-d chart, traversed
    winding times (integer, sign = orientation)."""

    kind = "loop"

    def __init__(
        self,
        space,
        center,
        radius,
        winding=1,
        phase=0.0,
        interval=(0.0, 1.0),
    ):
        if space.dim != 2:
            raise InputError("loops need a 2-d space")
        self.center = np.asarray(center, dtype=float).reshape(2)
        finite = np.isfinite(self.center).all() and math.isfinite(phase)
        if not (finite and 0 < float(radius) < math.inf):
            raise InputError("loop center, radius and phase must be finite, radius > 0")
        if not float(winding).is_integer() or winding == 0:
            raise InputError("winding must be a nonzero integer")
        self.radius = float(radius)
        self.winding = int(winding)
        self.phase = float(phase)
        s0, s1 = float(interval[0]), float(interval[1])
        if s1 <= s0:
            raise InputError("loop interval must have positive width")
        self.interval = (s0, s1)
        super().__init__(space, (s0, s1))

    def _angles(self, ts):
        s0, s1 = self.interval
        lam = (np.asarray(ts, float) - s0) / (s1 - s0)
        return self.phase + TWO_PI * self.winding * lam

    def eval_many(self, ts):
        ang = self._angles(ts)
        return self.center + self.radius * np.stack(
            [np.cos(ang), np.sin(ang)], axis=-1
        )

    def breakpoints(self):
        """The quarter turns, so that no partition lands on one point."""
        s0, s1 = self.interval
        return s0 + (s1 - s0) * np.arange(1, 4 * abs(self.winding)) / (4 * abs(self.winding))

    def reverse(self):
        new_phase = self.phase + TWO_PI * self.winding
        return Loop(
            self.space,
            self.center,
            self.radius,
            -self.winding,
            new_phase,
            self.interval,
        )

    def velocity(self, t):
        s0, s1 = self.interval
        ang = self._angles(np.array([float(t)]))[0]
        rate = TWO_PI * self.winding / (s1 - s0)
        return self.radius * rate * np.array([-math.sin(ang), math.cos(ang)])


class ExpressionPath(Path):
    """Path whose chart coordinates are expressions in one variable t."""

    kind = "expression"

    def __init__(self, space, components, domain):
        if isinstance(components, str):
            components = exprlang.parse(components, ("t",))
        comps = tuple(components)
        if len(comps) != space.dim:
            raise InputError(
                "path has %d components, space has dimension %d"
                % (len(comps), space.dim)
            )
        for c in comps:
            if c.variables != ("t",):
                raise InputError("path expressions must use the single variable t")
        self.components = comps
        super().__init__(space, domain)

    def eval_many(self, ts):
        ts = np.asarray(ts, dtype=float)
        out = np.empty((ts.shape[0], self.space.dim))
        for i, c in enumerate(self.components):
            out[:, i] = exprlang.eval_ast(c, [ts])
        return out

    def reverse(self):
        u, v = self.domain
        flip = exprlang.BinOp(
            "-", exprlang.Num(u + v), exprlang.Var("t", 0)
        )
        comps = tuple(exprlang.substitute(c, "t", flip) for c in self.components)
        return ExpressionPath(self.space, comps, (u, v))

    def velocity(self, t):
        t = self._check_param(float(t))
        return exprlang.jacobian_ad(self.components, [t])[:, 0]


class FunctionPath(Path):
    """Path defined by a callable on parameter arrays; used to compose
    a map with a path without materializing samples."""

    kind = "function"

    def __init__(self, space, fn_many, domain, breakpoints=None):
        self._fn_many = fn_many
        self._breaks = (
            np.asarray(breakpoints, dtype=float) if breakpoints is not None else np.empty(0)
        )
        super().__init__(space, domain)

    def eval_many(self, ts):
        return np.asarray(self._fn_many(np.asarray(ts, dtype=float)), dtype=float)

    def breakpoints(self):
        t0, t1 = self.domain
        b = self._breaks
        return b[(b > t0) & (b < t1)].copy()

    def reverse(self):
        t0, t1 = self.domain

        def rev(ts):
            return self._fn_many((t0 + t1) - np.asarray(ts, dtype=float))

        return FunctionPath(self.space, rev, (t0, t1), (t0 + t1) - self._breaks[::-1])


# ---------------------------------------------------------------------------
# Length


@dataclass
class PathLengthResult:
    value: float
    partitions_used: int
    certificate: list
    converged: bool
    message: str = ""

    def require(self):
        if not self.converged:
            raise DegenerateInputError(
                "path length did not converge: %s" % (self.message or "budget exhausted")
            )
        return self.value


def path_length(p, sub=None, rel_tol=1e-9, k_max=22):
    """Adaptive chord-sum length of p over sub (default: whole domain).

    Doubles the dyadic partition until two successive chord sums agree
    to rel_tol relatively, where the finer partition has points the
    coarser lacks; partitions always include the path's own
    breakpoints, so the certificate column is nondecreasing.
    """
    t0, t1 = p.domain
    if sub is not None:
        u, v = p._restricted_domain(sub[0], sub[1])
    else:
        u, v = t0, t1
    if v <= u:
        return PathLengthResult(0.0, 0, [0.0], True, "zero-width interval")
    breaks = p.breakpoints()
    breaks = breaks[(breaks > u) & (breaks < v)]
    prev, size = None, 0
    cert = []
    for k in range(k_max + 1):
        ts = np.linspace(u, v, 2**k + 1)
        if breaks.size:
            ts = np.union1d(ts, breaks)
        pts = p.eval_many(ts)
        s = float(p.space.distance_many(pts[:-1], pts[1:]).sum())
        cert.append(s)
        if prev is not None and ts.size > size:  # a partition adding no point agrees
            if abs(s - prev) <= rel_tol * max(abs(s), 1e-300):
                return PathLengthResult(s, k, cert, True)
        prev, size = s, ts.size
    return PathLengthResult(
        prev,
        k_max,
        cert,
        False,
        "chord sums still moving after %d doublings" % k_max,
    )


def reparam_arclength(p, n_knots=1025, rel_tol=1e-9):
    """Resample p by arc length into an exactly unit-speed Sampled path.

    The output's knot parameters are its own cumulative chord lengths,
    so its length up to parameter s equals s exactly. Piecewise-linear
    inputs convert exactly; smooth inputs are sampled at n_knots points
    spaced uniformly in arc length (resolved on a finer internal grid).
    A constant path yields a degenerate output on [0, 0].
    """
    u, v = p.domain
    if isinstance(p, Segment) or (isinstance(p, Sampled) and not p.degenerate):
        cut = np.union1d(p.breakpoints(), [u, v])
        cut = cut[(cut >= u) & (cut <= v)]
        knots = p.eval_many(cut)
    elif isinstance(p, Sampled) and p.degenerate:
        knots = p.eval_many(np.array([u]))
    else:
        length = path_length(p, rel_tol=rel_tol)
        length.require()
        m = max(4096, 8 * int(n_knots)) + 1
        ts = np.linspace(u, v, m)
        pts = p.eval_many(ts)
        seg = p.space.distance_many(pts[:-1], pts[1:])
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        total = cum[-1]
        if total == 0.0:
            knots = pts[:1]
        else:
            targets = np.linspace(0.0, total, int(n_knots))
            t_sel = np.interp(targets, cum, ts)
            knots = p.eval_many(t_sel)

    if knots.shape[0] > 1:
        seg = p.space.chart_lengths(knots[:-1], knots[1:])
        keep = np.concatenate([[True], seg > 0])
        knots = knots[keep]
    if knots.shape[0] < 2:
        return Sampled(p.space, np.array([0.0]), knots[:1], degenerate=True)
    seg = p.space.chart_lengths(knots[:-1], knots[1:])
    params = np.concatenate([[0.0], np.cumsum(seg)])
    return Sampled(p.space, params, knots)


def reverse_path(p):
    """Orientation reversal within the same path kind; exact, and an
    involution up to floating point."""
    return p.reverse()
