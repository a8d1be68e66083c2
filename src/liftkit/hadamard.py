"""Weight functions, ball-infimum profiles, and divergence diagnostics.

A weight is a positive nondecreasing function on [0, infinity) whose
reciprocal has a divergent integral. Profiles estimate, radius by
radius, the infimum of the lower scalar derivative over closed balls
around a base point; their reciprocals are themselves weights, and the
classifier decides whether the profile's integral looks divergent.

A convergent or inconclusive profile never refutes anything: the
integral condition is sufficient, not necessary, and every report
produced here says so.
"""

from __future__ import annotations

import io
import math
import weakref
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, EvalDomainError, InputError, LiftkitError
from .exprlang import Ast, Num, eval_ast, parse_single, substitute
from .geometry import Box, chart_norm
from .sampling import sphere_directions, unit_box_points
from .sderiv import compass_search, region_d_pm

__all__ = [
    "Weight",
    "ConstantWeight",
    "AffineWeight",
    "PowerWeight",
    "ExpressionWeight",
    "TableWeight",
    "WeightValidation",
    "validate_weight",
    "HadamardProfile",
    "ball_infimum_profile",
    "DivergenceReport",
    "classify_divergence",
    "CertificateReport",
    "weight_certificate",
    "weight_from_profile",
    "NON_NECESSITY_CAVEAT",
    "CERT_TOL",
]

CERT_TOL = 1e-6
FIT_RMS_THRESHOLD = 0.15
POWER_GAMMA_BUFFER = 1.05
# compass-search polish of a profile radius t: first step POLISH_STEP * t,
# stop below POLISH_MIN_STEP * t or after POLISH_ITERS iterations
POLISH_STEP = 0.05
POLISH_MIN_STEP = 1e-6
POLISH_ITERS = 25
# validate_weight's grid is [0, WEIGHT_GRID_MAX]; its tail test starts there
WEIGHT_GRID_MAX = 100.0
NON_NECESSITY_CAVEAT = (
    "sufficient condition only: a convergent or inconclusive integral "
    "never refutes the covering property"
)


class Weight:
    """Base class; subclasses are concrete weight families."""

    family = "abstract"
    divergence = "unknown"

    def __call__(self, delta):
        raise NotImplementedError

    def describe(self):
        raise NotImplementedError


class ExpressionWeight(Weight):
    """Weight given by a formula in the single variable t, evaluated by
    exprlang. From source text its divergence is "unknown", and
    validate_weight decides it numerically; each closed family below
    binds its formula and carries its analytic ruling."""

    family = "expression"

    def __init__(self, source):
        ast = parse_single(source)
        bad = [v for v in ast.variables if v != "t"]
        if bad:
            raise InputError(
                "weight expressions use the single variable t, got %s"
                % ", ".join(bad)
            )
        self.source = source
        self.ast = ast

    def __post_init__(self):
        # a closed family: its formula in t, each parameter a number
        names = [f.name for f in fields(self)]
        ast = parse_single(self.formula, ["t"] + names)
        for name in names:
            ast = substitute(ast, name, Num(getattr(self, name)))
        object.__setattr__(self, "ast", Ast(ast.root, ("t",), self.formula))

    def __call__(self, delta):
        delta = np.asarray(delta, dtype=float)
        scalar = delta.ndim == 0
        if self.ast.arity == 0:
            vals = np.full(np.atleast_1d(delta).shape, eval_ast(self.ast, []))
        else:
            vals = np.atleast_1d(eval_ast(self.ast, [np.atleast_1d(delta)]))
        return float(vals[0]) if scalar else vals

    def describe(self):
        return "expression %s" % self.source

    def __repr__(self):
        return "ExpressionWeight(%r)" % self.source


@dataclass(frozen=True)
class ConstantWeight(ExpressionWeight):
    c: float
    family = "constant"
    formula = "c"
    divergence = "divergent"

    def describe(self):
        return "constant %g" % self.c


@dataclass(frozen=True)
class AffineWeight(ExpressionWeight):
    a: float
    b: float
    family = "affine"
    formula = "a + b*t"
    divergence = "divergent"

    def describe(self):
        return "affine %g + %g t" % (self.a, self.b)


@dataclass(frozen=True)
class PowerWeight(ExpressionWeight):
    a: float
    b: float
    gamma: float
    family = "power"
    formula = "a + b*t^gamma"

    @property
    def divergence(self):
        if self.b == 0 or self.gamma <= 1.0:
            return "divergent"
        return "convergent"

    def describe(self):
        return "power %g + %g t^%g" % (self.a, self.b, self.gamma)


class TableWeight(Weight):
    """Right-continuous step weight from threshold/value tables. Used
    for weights built out of profile reciprocals: below the first
    threshold the first value applies; past the last, the last."""

    family = "table"
    divergence = "divergent"

    def __init__(self, thresholds, values):
        thresholds = np.array(thresholds, dtype=float)
        values = np.array(values, dtype=float)
        if thresholds.ndim != 1 or thresholds.shape != values.shape:
            raise InputError("thresholds and values must be matching 1-d arrays")
        if thresholds.size == 0:
            raise InputError("empty weight table")
        if np.any(np.diff(thresholds) <= 0):
            raise InputError("table thresholds must be strictly increasing")
        if np.any(~np.isfinite(values)) or np.any(values <= 0):
            raise InputError("table values must be positive and finite")
        # a weight is nondecreasing; a valid profile reciprocal already is
        if np.any(np.diff(values) < -1e-12 * np.abs(values[:-1])):
            raise InputError("table values must be nondecreasing")
        # read-only: validate_weight keeps its ruling per weight object
        thresholds.flags.writeable = values.flags.writeable = False
        self.thresholds = thresholds
        self.values = values

    def __call__(self, delta):
        delta = np.asarray(delta, dtype=float)
        scalar = delta.ndim == 0
        d = np.atleast_1d(delta)
        # first threshold >= delta; past the end, clamp to the last bin
        idx = np.searchsorted(self.thresholds, d, side="left")
        idx = np.minimum(idx, self.thresholds.size - 1)
        out = self.values[idx]
        return float(out[0]) if scalar else out

    def describe(self):
        return "table weight on %d thresholds (max %g)" % (
            self.thresholds.size,
            self.thresholds[-1],
        )


@dataclass(frozen=True)
class WeightValidation:
    ok: bool
    divergence: str
    reasons: tuple = ()


def _positivity_monotonicity(w, reasons):
    t_max = WEIGHT_GRID_MAX
    grid = np.concatenate(
        [np.linspace(0.0, t_max, 257), np.geomspace(t_max * 1e-6, t_max, 128)]
    )
    grid = np.unique(grid)
    try:
        vals = np.asarray(w(grid), dtype=float)
    except (EvalDomainError, DomainError) as err:
        reasons.append("evaluation failed on [0, %g]: %s" % (t_max, err))
        return False
    if np.any(~np.isfinite(vals)):
        reasons.append("non-finite values on [0, %g]" % t_max)
        return False
    if np.any(vals <= 0):
        t_bad = grid[np.argmax(vals <= 0)]
        reasons.append("not positive at t = %g" % t_bad)
        return False
    order = np.argsort(grid)
    v = vals[order]
    if np.any(np.diff(v) < -1e-9 * np.maximum(np.abs(v[:-1]), 1.0)):
        i = int(np.argmax(np.diff(v) < -1e-9 * np.maximum(np.abs(v[:-1]), 1.0)))
        reasons.append("decreasing near t = %g" % grid[order][i])
        return False
    return True


def _tail_divergence(w, reasons):
    """Numeric tail heuristic: the reciprocal integral diverges when
    the weight is dominated by an affine comparison on the tail grid."""
    tail = np.geomspace(WEIGHT_GRID_MAX, WEIGHT_GRID_MAX * 1e6, 64)
    try:
        vals = np.asarray(w(tail), dtype=float)
    except (EvalDomainError, DomainError, OverflowError):
        reasons.append("tail evaluation overflows; treating integral as finite")
        return "convergent"
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        reasons.append("tail values leave (0, inf); treating integral as finite")
        return "convergent"
    ratio = vals / (1.0 + tail)
    # affine domination: the ratio to 1 + t must stop growing. Compare
    # the last grid point against the start of the final decade.
    k = int(np.argmax(tail >= tail[-1] / 10.0))
    growth = ratio[-1] / ratio[k] if ratio[k] > 0 else np.inf
    if growth <= 1.0 + 1e-2:
        return "divergent"
    # ratio still climbing; estimate the tail growth order
    half = tail.size // 2
    slope = np.polyfit(np.log(tail[half:]), np.log(vals[half:]), 1)[0]
    if slope > POWER_GAMMA_BUFFER:
        reasons.append(
            "tail grows like t^%.3g; reciprocal integral converges" % slope
        )
        return "convergent"
    reasons.append("tail not dominated by an affine weight; divergence unproven")
    return "unknown"


# one WeightValidation per live weight object (equal frozen families share it)
_VALIDATIONS = weakref.WeakKeyDictionary()


def validate_weight(w):
    """Positivity and monotonicity on a dense grid, and a divergence
    ruling: the weight's own, or a tail-grid comparison where that is
    "unknown". ok means "usable as a weight": positive, nondecreasing,
    and with a certified divergent reciprocal integral. A weight is
    validated once; later calls return the same frozen WeightValidation,
    so a weight must not be changed after its first validation (a
    TableWeight's arrays are read-only)."""
    if not isinstance(w, Weight):
        raise InputError("expected a Weight instance")
    val = _VALIDATIONS.get(w)
    if val is None:
        val = _VALIDATIONS[w] = _validate(w)
    return val


def _validate(w):
    reasons = []
    shape_ok = _positivity_monotonicity(w, reasons)
    divergence = w.divergence
    if divergence == "unknown" and shape_ok:
        divergence = _tail_divergence(w, reasons)
    if divergence == "convergent":
        reasons.append("reciprocal integral is finite; not admissible as a weight")
    elif divergence == "unknown":
        reasons.append("could not certify a divergent reciprocal integral")
    ok = shape_ok and divergence == "divergent"
    return WeightValidation(ok=ok, divergence=divergence, reasons=tuple(reasons))


# ---------------------------------------------------------------------------
# ball-infimum profiles


@dataclass
class HadamardProfile:
    radii: np.ndarray
    infima: np.ndarray
    partial_integrals: np.ndarray
    samples_per_radius: np.ndarray
    regular: bool
    regularity_note: str
    sample_coords: np.ndarray
    sample_d_minus: np.ndarray
    sample_dists: np.ndarray
    budget: int

    def check(self):
        if not np.all(np.diff(self.radii) > 0):
            raise LiftkitError("profile radii are not increasing")
        if not np.all(np.diff(self.infima) <= 1e-15 + 1e-12 * self.infima[:-1]):
            raise LiftkitError("profile infima are not non-increasing")
        if not np.all(np.diff(self.partial_integrals) >= -1e-15):
            raise LiftkitError("profile partial integrals are not non-decreasing")

    def to_csv(self):
        buf = io.StringIO()
        buf.write("t,r,partial_integral\n")
        for t, r, i in zip(self.radii, self.infima, self.partial_integrals):
            buf.write("%.17g,%.17g,%.17g\n" % (t, r, i))
        return buf.getvalue()


def default_radii(x0_coords):
    t_max = 1e2 * (1.0 + chart_norm(x0_coords))
    return np.geomspace(t_max * 10.0**-3.0, t_max, 24)


def ball_infimum_profile(f, x0, radii=None, budget=32):
    """Estimate inf over closed balls around x0 of the lower scalar
    derivative, at each radius, by dense sampling plus a compass-search
    polish from the budget best samples in the ball, all radii in one
    lockstep search (deterministic). The result is a best-effort upper
    estimate of each infimum; the sample budget is recorded so callers
    can tighten it. A sample or polish candidate whose Jacobian faults is
    dropped (infeasible), and only it; a fault at x0 is an InputError.
    """
    if f.domain.dim != f.codomain.dim:
        raise InputError("profiles need a square Jacobian")
    dim = f.domain.dim
    x0c = f.domain.check_coords(x0)
    if radii is None:
        radii = default_radii(x0c)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2 or np.any(np.diff(radii) <= 0):
        raise InputError("radii must be an increasing 1-d array")
    if np.any(radii <= 0):
        raise InputError("radii must be positive")
    if budget < 1:
        raise InputError("budget must be at least 1")

    t_last = radii[-1]
    all_pts = []

    n_boundary = min(64 * dim, 256)
    dirs = sphere_directions(n_boundary, dim)
    base_ball = unit_box_points(64 * dim, dim) * 2.0 - 1.0
    u = np.linspace(1.0 / base_ball.shape[0], 1.0, base_ball.shape[0])
    norms = np.linalg.norm(base_ball, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    ball_dirs = base_ball / norms
    interior_unit = ball_dirs * (u ** (1.0 / dim))[:, None]
    for t in radii:
        all_pts.append(x0c + t * dirs)
        all_pts.append(x0c + t * interior_unit)
    all_pts.append(x0c[None, :])

    cand, ok, dists, smins, _ = region_d_pm(f, np.concatenate(all_pts), x0c, t_last)
    if not ok[-1]:
        raise InputError("the Jacobian of %s faults at the center" % f.name)
    cand, dists = cand[ok], dists[ok]
    samples = [(cand, smins, dists)]

    # one lockstep search whose rows are each radius's budget best samples
    # in its ball (ties to the earlier sample; x0 is one, so no ball is
    # empty), started from their values; row_t[k] is row k's radius
    by_smin = np.argsort(smins, kind="stable")
    picks = [by_smin[dists[by_smin] <= t * (1.0 + 1e-12)][:budget] for t in radii]
    row_t = np.repeat(radii, [p.size for p in picks])
    picks = np.concatenate(picks)

    def objective(pts, rows):
        # a faulting point is infeasible, as a point outside the ball is
        pts, ok, d, vals, _ = region_d_pm(f, pts, x0c, row_t[rows])
        # every radius is <= t_last, so every feasible point is a sample
        samples.append((pts[ok], vals, d[ok]))
        out = np.full(ok.shape, np.inf)
        out[ok] = vals
        return out

    # one step size per round (levels=1): every point polled becomes a
    # sample, so a ladder of sizes would change the samples and infima
    compass_search(
        objective,
        cand[picks],
        smins[picks],
        POLISH_STEP * row_t,
        POLISH_MIN_STEP * row_t,
        POLISH_ITERS,
    )

    xs, ss, ds = (np.concatenate(part) for part in zip(*samples))

    regular = True
    note = ""
    bad = ~np.isfinite(ss) | (ss <= 0.0)
    if np.any(bad):
        regular = False
        note = (
            "not regular: %d sample(s) with vanishing lower derivative"
            % int(bad.sum())
        )

    infima = np.empty(radii.shape)
    counts = np.empty(radii.shape, dtype=int)
    for j, t in enumerate(radii):
        sel = ds <= t * (1.0 + 1e-12)
        counts[j] = int(sel.sum())
        infima[j] = float(ss[sel].min()) if counts[j] else np.inf
        if j > 0:
            infima[j] = min(infima[j], infima[j - 1])

    partial = np.zeros(radii.shape)
    if radii.size > 1:
        steps = 0.5 * (infima[1:] + infima[:-1]) * np.diff(radii)
        partial[1:] = np.cumsum(steps)

    prof = HadamardProfile(
        radii=radii,
        infima=infima,
        partial_integrals=partial,
        samples_per_radius=counts,
        regular=regular,
        regularity_note=note,
        sample_coords=xs,
        sample_d_minus=ss,
        sample_dists=ds,
        budget=int(budget),
    )
    prof.check()
    return prof


def weight_from_profile(profile):
    """The reciprocal-infimum step weight of a profile. On the
    profile's own samples the domination product is >= 1 by
    construction, which is the constructive half of the lemma linking
    weights and ball infima."""
    if np.any(profile.infima <= 0) or np.any(~np.isfinite(profile.infima)):
        raise InputError(
            "profile has vanishing or non-finite infima; no weight exists"
        )
    return TableWeight(profile.radii, 1.0 / profile.infima)


# ---------------------------------------------------------------------------
# divergence classification


@dataclass
class DivergenceReport:
    klass: str  # divergent | convergent | inconclusive
    best_model: str
    fit_report: dict
    caveat: str
    window: tuple


def _fit_models(t, r):
    logt, logr = np.log(t), np.log(r)
    fits = {}

    c = float(np.exp(logr.mean()))
    rms = float(np.sqrt(np.mean((logr - math.log(c)) ** 2)))
    fits["constant"] = {"rms": rms, "params": {"c": c}, "divergent": True}

    resid = logr + logt
    c = float(np.exp(resid.mean()))
    rms = float(np.sqrt(np.mean((resid - math.log(c)) ** 2)))
    fits["c_over_t"] = {"rms": rms, "params": {"c": c}, "divergent": True}

    slope, intercept = np.polyfit(logt, logr, 1)
    gamma = -float(slope)
    pred = slope * logt + intercept
    rms = float(np.sqrt(np.mean((logr - pred) ** 2)))
    fits["power"] = {
        "rms": rms,
        "params": {"c": float(np.exp(intercept)), "gamma": gamma},
        # a fitted exponent near 1 is treated as the divergent c/t shape
        "divergent": gamma <= POWER_GAMMA_BUFFER,
    }

    slope, intercept = np.polyfit(t, logr, 1)
    beta = -float(slope)
    if beta > 0:
        pred = slope * t + intercept
        rms = float(np.sqrt(np.mean((logr - pred) ** 2)))
        fits["exponential"] = {
            "rms": rms,
            "params": {"c": float(np.exp(intercept)), "beta": beta},
            "divergent": False,
        }
    return fits


def classify_divergence(profile):
    """Fit the profile tail against the model zoo and rule on the
    integral. Divergent only with a good divergent fit; never a
    refutation when convergent (the condition is not necessary)."""
    t, r = profile.radii, profile.infima
    if t.size < 8:
        raise InputError("classification needs at least 8 radii")
    if math.log10(t[-1] / t[0]) < 1.5:
        raise InputError("classification needs radii spanning >= 1.5 decades")
    if np.any(r <= 0):
        return DivergenceReport(
            klass="inconclusive",
            best_model="none",
            fit_report={"note": "profile not regular; no fit attempted"},
            caveat=NON_NECESSITY_CAVEAT,
            window=(float(t[0]), float(t[-1])),
        )

    sel = t >= t[-1] / 10.0
    if sel.sum() < 4:
        sel = t >= t[-1] / 10.0**1.5
    tw, rw = t[sel], r[sel]
    fits = _fit_models(tw, rw)
    best = min(fits, key=lambda k: fits[k]["rms"])
    best_rms = fits[best]["rms"]
    if best_rms >= FIT_RMS_THRESHOLD:
        klass = "inconclusive"
    elif fits[best]["divergent"]:
        klass = "divergent"
    else:
        klass = "convergent"
    caveat = "" if klass == "divergent" else NON_NECESSITY_CAVEAT
    return DivergenceReport(
        klass=klass,
        best_model=best,
        fit_report=fits,
        caveat=caveat,
        window=(float(tw[0]), float(tw[-1])),
    )


# ---------------------------------------------------------------------------
# domination certificate


@dataclass
class CertificateReport:
    passed: bool
    worst_margin: float
    worst_point: np.ndarray
    n_samples: int
    note: str


def weight_certificate(f, x0, w, sample_region=None, n_samples=512, points=None):
    """Sampled check of the domination inequality: the lower scalar
    derivative times the weight of the distance to x0 must be >= 1 at
    every sample. worst_margin is min(product) - 1; pass needs
    worst_margin >= -1e-6. A sample whose Jacobian faults is dropped, as
    one outside the domain is; n_samples counts the rest.
    """
    x0c = f.domain.check_coords(x0)
    val = validate_weight(w)
    if not val.ok:
        raise InputError(
            "not a valid weight: " + "; ".join(val.reasons or ["unspecified"])
        )
    if points is not None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != f.domain.dim:
            raise InputError("points must have shape (n, dim)")
    else:
        region = sample_region
        if region is None:
            half = 1e1 * (1.0 + chart_norm(x0c))
            region = Box(x0c - half, x0c + half)
        pts = region.scale(unit_box_points(n_samples, f.domain.dim))
    pts, ok, dists, smins, _ = region_d_pm(f, pts, x0c)
    if not ok.any():
        raise InputError("no certificate sample has a Jacobian inside the domain")
    pts, dists = pts[ok], dists[ok]
    products = smins * np.asarray(w(dists), dtype=float)
    i = int(np.argmin(products))
    worst = float(products[i] - 1.0)
    passed = worst >= -CERT_TOL
    note = (
        "Hadamard condition holds on sampled region"
        if passed
        else "domination fails at a sample; weight does not certify this region"
    )
    return CertificateReport(
        passed=passed,
        worst_margin=worst,
        worst_point=pts[i].copy(),
        n_samples=int(pts.shape[0]),
        note=note,
    )
