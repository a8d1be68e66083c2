"""Global inversion, fibers, monodromy, and quasi-isometry estimates.

invert_at turns the lifting engine into an inverse-function evaluator:
lift the straight segment from f(x0) to the target and read off the
endpoint. Fibers are enumerated by deterministic multistart (with the
mandatory caveat that multistart cannot prove completeness), sheets
are counted by lifting a loop around the target until the orbit
closes, and quasi-isometry constants are sampled over regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, LiftkitError
from .geometry import (
    Box,
    Point,
    Segment,
    chart_norm,
    distinct_rows,
    points_equal,
    polyline,
)
from .lift import ContinuationFailure, LiftOptions, lift_path
from .mapdef import CONVERGED, newton_block
from .sampling import unit_box_points
from .sderiv import region_d_pm

__all__ = [
    "invert_at",
    "FiberReport",
    "fiber_enumerate",
    "sheet_count",
    "QIBounds",
    "quasi_isometry_bounds",
    "path_battery",
    "COMPLETENESS_NOTE",
    "TRANSLATION_TOL",
    "FIBER_TOL",
]

COMPLETENESS_NOTE = (
    "best-effort multistart enumeration; completeness is not guaranteed"
)
TRANSLATION_TOL = 1e-6
FIBER_TOL = 1e-10  # fiber_enumerate's default Newton residual tolerance


def invert_at(f, y, x0, opts=None):
    """Evaluate the global inverse of f at y by lifting the segment
    from f(x0) to y starting at x0. Returns the preimage Point when the
    lift completes; raises ContinuationFailure carrying the verdict and
    the partial trace otherwise."""
    yc = f.codomain.check_coords(y)
    x0c = f.domain.check_coords(x0)
    y_start = f.eval(x0c)
    seg = Segment(f.codomain, y_start, yc)
    trace = lift_path(f, seg, x0c, opts)
    if trace.verdict.completed:
        return Point(trace.final_coords, f.domain)
    raise ContinuationFailure(trace.verdict, trace)


@dataclass
class FiberReport:
    target: Point
    preimages: list
    residuals: list
    method: str  # multistart | loop_orbit
    note: str
    monodromy: dict = None
    sheets: int = None
    verdict: object = None  # lift verdict when an orbit aborted early
    n_starts: int = 0

    @property
    def count(self):
        return len(self.preimages)

    def check(self, space, tol):
        if not all(r <= tol for r in self.residuals):
            raise LiftkitError("fiber residual above tolerance %g" % tol)
        pts = [p.coords for p in self.preimages]
        same = np.triu(points_equal(space, pts, pts), 1)
        if same.any():
            i, j = np.argwhere(same)[0]
            raise LiftkitError("fiber preimages %d and %d coincide" % (i, j))


def fiber_enumerate(f, y, seed_region=None, n_starts=64, tol=FIBER_TOL):
    """Enumerate preimages of y by deterministic multistart Newton, all
    starts solved as one newton_block.

    Solutions are deduplicated at point-identity tolerance and sorted
    lexicographically. The report's note states the best-effort
    semantics: an empty or short list never proves the fiber small.
    """
    if f.domain.dim != f.codomain.dim:
        raise InputError("fiber enumeration needs a square system")
    yc = f.codomain.check_coords(y)
    if seed_region is None:
        half = 4.0 * (1.0 + chart_norm(yc))
        seed_region = Box(np.full(f.domain.dim, -half), np.full(f.domain.dim, half))
    # rejection-sample the region so restrictive domains (thin annuli,
    # small open subsets) still get the full multistart budget
    for oversample in (1, 4, 16, 64):
        cand = f.domain.canonical(
            seed_region.scale(unit_box_points(oversample * n_starts, f.domain.dim))
        )
        starts = cand[f.domain.contains_many(cand)]
        if starts.shape[0] >= n_starts:
            starts = starts[:n_starts]
            break

    sol = newton_block(f, yc, starts, tol=tol, max_iter=60)
    done = sol.status == CONVERGED
    points, residuals = sol.points[done], sol.residuals[done]
    order = distinct_rows(f.domain, points)
    report = FiberReport(
        target=Point(yc, f.codomain),
        preimages=[Point(points[i], f.domain) for i in order],
        residuals=[float(residuals[i]) for i in order],
        method="multistart",
        note=COMPLETENESS_NOTE,
        n_starts=int(starts.shape[0]),
    )
    report.check(f.domain, tol * (1.0 + 1e-12))
    return report


def sheet_count(f, y, loop, x_start, max_orbit=8, opts=None):
    """Count sheets over y by repeatedly lifting the loop.

    Starting at x_start, lift the loop, collect the endpoint, and lift
    again from it; the orbit closing at the k-th step witnesses k
    sheets (a cyclic deck action on the visited points). If the orbit
    stays open for max_orbit rounds, a constant difference between
    successive endpoints is reported as a deck translation.
    """
    opts = opts or LiftOptions()
    if max_orbit < 1:
        raise InputError("max_orbit must be at least 1, got %r" % max_orbit)
    yc = f.codomain.check_coords(y)
    xc = f.domain.check_coords(x_start)
    t0, t1 = loop.domain
    scale = 1.0 + chart_norm(yc)
    for t_end in (t0, t1):
        gap = f.codomain.distance_one(loop.eval(t_end).tolist(), yc.tolist())
        if gap > 1e-9 * scale:
            raise InputError(
                "loop endpoint at t=%g misses the target by %g" % (t_end, gap)
            )
    gap = f.codomain.distance_one(f.eval(xc).tolist(), yc.tolist())
    if gap > opts.corrector_tol:
        raise InputError("f(x_start) misses the target by %g" % gap)

    orbit = [xc.copy()]
    residuals = [gap]
    monodromy = None
    sheets = None
    verdict = None
    note = ""
    for _ in range(max_orbit):
        trace = lift_path(f, loop, orbit[-1], opts)
        if not trace.verdict.completed:
            verdict = trace.verdict
            monodromy = {"kind": "aborted"}
            note = "lift failed mid-orbit: " + trace.verdict.summary()
            break
        end = trace.final_coords
        # lift_path polishes its endpoint to the rounding floor, so the
        # orbit closes at plain point identity
        closes = points_equal(f.domain, end, orbit)[0]
        if closes.any():
            sheets = len(orbit) - int(closes.argmax())
            perm = [(i + 1) % sheets for i in range(sheets)]
            monodromy = {"kind": "cyclic", "order": sheets, "permutation": perm}
            note = "orbit closed after %d lift(s)" % len(orbit)
            break
        orbit.append(end)
        residuals.append(trace.nodes[-1].residual)

    if monodromy is None:
        note = "no return within %d orbits" % max_orbit
        diffs = np.diff(np.stack(orbit), axis=0)
        if diffs.shape[0] >= 2 and np.all(
            np.abs(diffs - diffs[0]) <= TRANSLATION_TOL
        ):
            monodromy = {
                "kind": "translation",
                "vector": diffs.mean(axis=0),
            }
        else:
            monodromy = {"kind": "open"}

    return FiberReport(
        target=Point(yc, f.codomain),
        preimages=[Point(c, f.domain) for c in orbit],
        residuals=residuals,
        method="loop_orbit",
        note=note,
        monodromy=monodromy,
        sheets=sheets,
        verdict=verdict,
    )


@dataclass
class QIBounds:
    alpha_hat: float
    beta_hat: float
    region: Box
    n_samples: int
    alpha_K: float = None
    n_in_K: int = None
    note: str = "sampled estimate over deterministic points, not a bound"

    def __post_init__(self):
        if not 0.0 <= self.alpha_hat <= self.beta_hat:
            raise LiftkitError(
                "quasi-isometry estimate violates 0 <= alpha <= beta: %r, %r"
                % (self.alpha_hat, self.beta_hat)
            )


def quasi_isometry_bounds(f, region, n_samples=512, compact_K=None):
    """Sampled quasi-isometry constants over a bounded region: the
    smallest lower and largest upper scalar derivative across samples
    (box corners and center always included). With compact_K, also the
    restricted lower constant over samples whose image lands in K. A
    sample whose Jacobian faults is dropped, as one outside the domain
    is; n_samples counts the rest. A kept sample whose value faults is
    not in K."""
    if not isinstance(region, Box):
        raise InputError("region must be a Box")
    if region.dim != f.domain.dim:
        raise InputError("region dimension mismatch")
    mid = 0.5 * (region.lo + region.hi)
    pts = [region.scale(unit_box_points(n_samples, f.dim_in)), region.corners(), mid[None]]
    pts, ok, _, smin, smax = region_d_pm(f, np.concatenate(pts), mid)
    pts = pts[ok]
    if pts.shape[0] == 0:
        raise InputError("no sample has a Jacobian inside the domain")
    alpha = float(smin.min())
    beta = float(smax.max())
    alpha_K = None
    n_in_K = None
    if compact_K is not None:
        mask = compact_K.contains_many(f._values_block(pts)[0])  # NaN where it faults
        n_in_K = int(mask.sum())
        if n_in_K:
            alpha_K = float(smin[mask].min())
    return QIBounds(
        alpha_hat=alpha,
        beta_hat=beta,
        region=region,
        n_samples=int(pts.shape[0]),
        alpha_K=alpha_K,
        n_in_K=n_in_K,
    )


def path_battery(space, anchor, scale, n=20):
    """Deterministic battery of rectifiable paths near an anchor point:
    a rotating mix of segments, open polylines, and closed polylines,
    all inside the cube anchor + scale*[-1/2, 1/2]^dim."""
    anchor = space.check_coords(anchor)
    u = unit_box_points(4 * n, space.dim).reshape(n, 4, space.dim)
    pts = anchor + scale * (u - 0.5)
    out = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            out.append(Segment(space, pts[i, 0], pts[i, 1]))
        elif kind == 1:
            out.append(polyline(space, pts[i]))
        else:
            knots = np.concatenate([pts[i, :3], pts[i, :1]], axis=0)
            out.append(polyline(space, knots))
    return out
