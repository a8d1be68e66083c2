"""Global implicit-function continuation by path lifting.

An implicit problem fixes a map f on a product of x- and y-variables
and a level w; the solution set {f(x, y) = w} projects onto x.
Continuation transports y along a prescribed x-path by lifting the
path t -> (x(t), w) through the augmented map (x, y) -> (x, f(x, y)),
whose projection onto x is a local homeomorphism exactly where the
y-block d_y f is invertible: the covering criterion applied to the
augmented map gives the global implicit function theorem. The lift
engine of the lift module does the stepping; this module reads each
lifted node as a pair (x, y) and records the level-set residual, the
weight-bound monitor and the y-block's smallest singular value. The
augmented map's Jacobian determinant is det d_y f, so the lift refuses
any step across a fold, where d_y f degenerates, and halves its steps
toward it; the fold ends the trace with a singular verdict instead of
a jump to another branch. Branch switching is out of scope.
"""

from __future__ import annotations

import dataclasses
import io
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import (
    Euclidean,
    FunctionPath,
    Point,
    ProductSpace,
    Segment,
    chart_norm,
    distinct_rows,
    points_equal,
)
from .lift import (
    FAILED_SINGULAR,
    ContinuationFailure,
    LiftOptions,
    Verdict,
    _check_options,
    lift_path,
)
from .mapdef import CONVERGED, MapHandle, newton_block, singular_extremes_many
from .sampling import unit_box_points

__all__ = [
    "ImplicitProblem",
    "ImplicitOptions",
    "ImplicitNode",
    "ImplicitTrace",
    "davidenko_lift",
    "implicit_eval",
    "branch_probe",
    "BranchReport",
]

# the lift halves its steps toward a fold down to this floor, where a
# quadratic fold's y-block is near 1e-7, under SINGULAR_THRESHOLD
STEP_MIN = 1e-14
# the tolerance of the start's projection, of the lift's corrector and of
# branch_probe's solves
PROJECT_TOL = 1e-10
# a fold: the y-block's smallest singular value is under this
SINGULAR_THRESHOLD = 1e-6

WEIGHT_DISCREPANCY_NOTE = (
    "weight continuity: the a priori bound assumes a continuous weight; "
    "step weights are accepted elsewhere but the monitor here treats "
    "them pointwise"
)


@dataclass(frozen=True)
class ImplicitOptions:
    residual_tol: float = 1e-8  # start tolerance
    max_nodes: int = 200000

    def __post_init__(self):
        _check_options(self)


class ImplicitProblem:
    """f(x, y) = w with x the first x_dim coordinates of f's domain.

    The y-block must be square against the codomain: dim(codomain) =
    dim(domain) - x_dim.
    """

    def __init__(self, f, x_dim, w):
        x_dim = int(x_dim)
        if not (1 <= x_dim < f.domain.dim):
            raise InputError("x_dim must split the domain nontrivially")
        if f.codomain.dim != f.domain.dim - x_dim:
            raise InputError(
                "y-block is %d by %d, needs to be square"
                % (f.codomain.dim, f.domain.dim - x_dim)
            )
        self.f = f
        self.m = x_dim
        self.n = f.domain.dim - x_dim
        self.w = f.codomain.check_coords(w).copy()
        self.x_space = Euclidean(self.m)
        self.y_space = Euclidean(self.n)

    def join(self, x, y):
        return np.concatenate([np.asarray(x, float), np.asarray(y, float)])

    def node_values(self, coords):
        """Level-set residual |f(x, y) - w|, weight-bound monitor and
        the y-block's smallest singular value at each row (x, y) of an
        (N, m + n) block. The monitor is the operator-norm product of
        the inverse y-block and the x-block, the hypothesis quantity of
        the weight bound; the blocks are columns of one Jacobian."""
        vals = self.f.eval_many(coords)
        residual = self.f.codomain.distance_many(vals, self.w[None, :])
        jac = self.f._jacobians(coords)  # eval_many tested the points
        _, jx_norm = singular_extremes_many(jac[:, :, : self.m])
        jy_smin, _ = singular_extremes_many(jac[:, :, self.m :])
        with np.errstate(divide="ignore", invalid="ignore"):
            monitor = np.where(jy_smin > 0, jx_norm / jy_smin, np.inf)
        return residual, monitor, jy_smin

    def projection_map(self):
        """The augmented square map (x, y) -> (x, f(x, y)). Lifting the
        x-path paired with the constant w through it is the implicit
        continuation; the projection onto x is a local homeomorphism
        exactly where the y-block is invertible. Its callables call the
        inner map's unchecked kernels, since the augmented handle has the
        inner map's domain and has checked or tested its points; its
        block callables keep the inner map's faulting rows."""
        prob = self
        top = np.eye(prob.m, prob.m + prob.n)
        top_rows = top.tolist()

        def eval_one(c):
            return [*c[: prob.m], *prob.f._value(c)]

        def eval_many(cs):
            return np.concatenate([cs[:, : prob.m], prob.f._values_block(cs)[0]], axis=1)

        def jac_one(c):
            return [*top_rows, *prob.f._jacobian(c)]

        def jac_many(cs):
            tops = np.broadcast_to(top, (cs.shape[0],) + top.shape)
            return np.concatenate([tops, prob.f._jacobians_block(cs)[0]], axis=1)

        if isinstance(prob.f.codomain, Euclidean) and prob.f.codomain.p == 2.0:
            codomain = Euclidean(prob.m + prob.n)
        else:
            codomain = ProductSpace((prob.x_space, prob.f.codomain))
        return MapHandle(
            name="augmented(%s)" % prob.f.name,
            domain=prob.f.domain,
            codomain=codomain,
            eval_one=eval_one,
            eval_many_fn=eval_many,
            jac_one=jac_one,
            jac_many_fn=jac_many,
        )

    def augmented_path(self, p):
        """The x-path paired with the constant level w, as a path in
        the augmented codomain."""
        prob = self
        aug = self.projection_map().codomain

        def fn_many(ts):
            xs = p.eval_many(ts)
            ws = np.broadcast_to(prob.w, (xs.shape[0], prob.n))
            return np.concatenate([xs, ws], axis=1)

        return FunctionPath(aug, fn_many, p.domain, p.breakpoints())


@dataclass(frozen=True)
class ImplicitNode:
    t: float
    x: np.ndarray
    y: np.ndarray
    residual: float
    monitor: float
    jy_smin: float
    weight_integral: float = None


@dataclass
class ImplicitTrace:
    problem: ImplicitProblem
    path_domain: tuple
    nodes: list
    verdict: Verdict
    weight_used: bool
    monitor_ok: bool = None
    weight_check: str = None  # holds | violated | not applicable
    weight_note: str = ""

    @property
    def final_y(self):
        return self.nodes[-1].y

    def node_arrays(self):
        ts = np.array([n.t for n in self.nodes])
        xs = np.stack([n.x for n in self.nodes])
        ys = np.stack([n.y for n in self.nodes])
        res = np.array([n.residual for n in self.nodes])
        mon = np.array([n.monitor for n in self.nodes])
        return ts, xs, ys, res, mon

    def to_csv(self):
        buf = io.StringIO()
        m, n = self.problem.m, self.problem.n
        cols = (
            ["t"]
            + ["x_%d" % (i + 1) for i in range(m)]
            + ["y_%d" % (i + 1) for i in range(n)]
            + ["residual", "monitor", "weight_integral"]
        )
        buf.write(",".join(cols) + "\n")
        for nd in self.nodes:
            w = nd.weight_integral if nd.weight_integral is not None else float("nan")
            row = (
                [nd.t]
                + list(nd.x)
                + list(nd.y)
                + [nd.residual, nd.monitor, w]
            )
            buf.write(",".join("%.17g" % v for v in row) + "\n")
        return buf.getvalue()


def _weight_increment(weight, a, b):
    """Signed integral of 1/weight over [a, b] (trapezoid on 9 points)."""
    if a == b:
        return 0.0
    ts = np.linspace(a, b, 9)
    vals = 1.0 / np.asarray(weight(np.abs(ts)), dtype=float)
    return float((0.5 * (vals[1:] + vals[:-1]) * np.diff(ts)).sum())


def _level_solve(g, prob, xbar, ys, tol):
    """newton_block on the projection map g from the rows (xbar, y_i),
    y_i the rows of ys, toward the level point (xbar, w)."""
    xs = np.broadcast_to(xbar, (ys.shape[0], prob.m))
    starts = np.concatenate([xs, ys], axis=1)
    return newton_block(g, prob.join(xbar, prob.w), starts, tol=tol, max_iter=60)


def davidenko_lift(prob, p, y0, weight=None, opts=None):
    """Continue y along the x-path p from y0 by lifting the path
    t -> (p(t), w) through the projection map (x, y) -> (x, f(x, y)).

    A start within residual_tol of the level set is first projected
    onto it (Newton in y at fixed x) to PROJECT_TOL, the tolerance of
    the lift's corrector; a start that does not project is an
    InputError. The verdict is the lift's, which is FailedSingular
    where the steps collapse at a fold, with one more rule: the first
    node whose y-block smallest singular value is under
    SINGULAR_THRESHOLD ends the trace as FailedSingular at that node's
    parameter, since there the projection onto x stops being a local
    homeomorphism. When a weight is supplied, the trace logs the
    running integral of 1/weight over ||y|| and checks the a priori
    bound wherever the monitor hypothesis holds.
    """
    opts = opts or ImplicitOptions()
    if p.space.dim != prob.m:
        raise InputError(
            "x-path lives in dimension %d, problem has x-dimension %d"
            % (p.space.dim, prob.m)
        )
    t0, t1 = p.domain
    span = t1 - t0
    y = prob.y_space.check_coords(y0)
    x = p.eval(t0)
    start = prob.join(x, y)
    (r0,), _, (smin0,) = prob.node_values(start[None, :])
    if r0 > opts.residual_tol:
        raise InputError(
            "start residual %g exceeds tolerance %g" % (r0, opts.residual_tol)
        )
    if smin0 < SINGULAR_THRESHOLD:
        raise InputError("y-block is singular at the start (smin %g)" % smin0)

    g = prob.projection_map()
    if r0 > PROJECT_TOL:
        sol = _level_solve(g, prob, x, y[None, :], PROJECT_TOL)
        if sol.status[0] != CONVERGED:
            raise InputError(
                "start within residual_tol %g does not project to project_tol %g"
                % (opts.residual_tol, PROJECT_TOL)
            )
        start = sol.points[0]
    lift = lift_path(
        g,
        prob.augmented_path(p),
        start,
        LiftOptions(
            step_min=STEP_MIN,
            corrector_tol=PROJECT_TOL,
            blowup_radius=1e6,
            max_nodes=opts.max_nodes,
        ),
    )
    ts, coords, _, _, _ = lift.node_arrays()
    residual, monitor, jy_smin = prob.node_values(coords)
    verdict = lift.verdict
    fold = np.flatnonzero(jy_smin < SINGULAR_THRESHOLD)
    if fold.size:
        keep = fold[0] + 1
        b = min(float((ts[keep - 1] - t0) / span), 1.0)
        smin = float(jy_smin[keep - 1])
        verdict = Verdict(
            kind=FAILED_SINGULAR,
            b=b,
            d_minus=smin,
            message="y-block smin %.3g < singular_threshold %.3g"
            % (smin, SINGULAR_THRESHOLD),
        )
    else:
        keep = len(ts)
        if verdict.d_minus is not None:
            # the y-block's smallest singular value, not the augmented map's
            verdict = dataclasses.replace(verdict, d_minus=float(jy_smin[-1]))

    w_int = [None] * keep
    if weight is not None:
        norms = np.linalg.norm(coords[:keep, prob.m :], axis=1)
        w_int = np.cumsum(
            [0.0] + [_weight_increment(weight, u, v) for u, v in zip(norms, norms[1:])]
        )
    nodes = [
        ImplicitNode(
            float(ts[i]),
            coords[i, : prob.m].copy(),
            coords[i, prob.m :].copy(),
            float(residual[i]),
            float(monitor[i]),
            float(jy_smin[i]),
            None if w_int[i] is None else float(w_int[i]),
        )
        for i in range(keep)
    ]
    trace = ImplicitTrace(
        problem=prob,
        path_domain=(t0, t1),
        nodes=nodes,
        verdict=verdict,
        weight_used=weight is not None,
    )
    return _finish(trace, p, weight)


def _finish(trace, p, weight):
    """Attach the weight-bound audit to a finished trace."""
    if weight is None:
        trace.weight_check = None
        trace.weight_note = ""
        return trace
    ts, xs, ys, _, mons = trace.node_arrays()
    norms = np.linalg.norm(ys, axis=1)
    w_at = np.asarray(weight(norms), dtype=float)
    monitor_ok = bool(np.all(mons <= w_at * (1.0 + 1e-9)))
    trace.monitor_ok = monitor_ok
    if not monitor_ok:
        trace.weight_check = "not applicable"
        trace.weight_note = (
            "monitor exceeds the weight at some node; the a priori bound's "
            "hypothesis fails, so no bound is asserted. " + WEIGHT_DISCREPANCY_NOTE
        )
        return trace
    t0, t1 = trace.path_domain
    span = t1 - t0
    # sup of the x-speed over the nodes, in normalized parameter
    speeds = [chart_norm(p.velocity(float(t)) * span) for t in ts]
    v_sup = max(speeds)
    ok = True
    for nd in trace.nodes:
        s_norm = (nd.t - t0) / span
        if nd.weight_integral > v_sup * s_norm + 1e-6:
            ok = False
            break
    trace.weight_check = "holds" if ok else "violated"
    trace.weight_note = WEIGHT_DISCREPANCY_NOTE
    return trace


def implicit_eval(prob, x_target, start):
    """Value of the implicit function at x_target, continued along the
    segment from the start pair (x0, y0). Returns the y-endpoint as a
    Point; raises ContinuationFailure on any failure verdict."""
    x0, y0 = start
    x0c = prob.x_space.check_coords(x0)
    xt = prob.x_space.check_coords(x_target)
    seg = Segment(prob.x_space, x0c, xt)
    trace = davidenko_lift(prob, seg, y0)
    if trace.verdict.completed:
        return Point(trace.final_y, prob.y_space)
    raise ContinuationFailure(trace.verdict, trace)


@dataclass
class BranchReport:
    x_grid: np.ndarray
    groups: list  # each group: list of (x, y) coordinate pairs
    count: int
    note: str = (
        "heuristic connectivity probe: group count is a best-effort reading "
        "of the level set's components over the probed slab; connections "
        "outside it are invisible"
    )


def branch_probe(prob, x_box, y_box, n_starts=32):
    """Solve f(x, y) = w in y over the x values at 1/4, 1/2 and 3/4 of
    x_box's diagonal, then group solutions that continue into one
    another along x-segments.
    """
    if not (x_box.dim == prob.m and y_box.dim == prob.n):
        raise InputError("probe boxes must match the x/y split")
    lam = np.linspace(0.25, 0.75, 3)
    x_grid = x_box.lo + lam[:, None] * (x_box.hi - x_box.lo)
    y_starts = y_box.scale(unit_box_points(n_starts, prob.n))

    g = prob.projection_map()
    sols = []  # (grid_index, y-coords)
    for gi, xbar in enumerate(x_grid):
        sol = _level_solve(g, prob, xbar, y_starts, PROJECT_TOL)
        ys = sol.points[sol.status == CONVERGED][:, prob.m :]
        for i in distinct_rows(prob.y_space, ys, rtol=1e-8):
            sols.append((gi, ys[i]))

    parent = list(range(len(sols)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    by_grid = {}
    for idx, (gi, _) in enumerate(sols):
        by_grid.setdefault(gi, []).append(idx)

    for gi in range(len(x_grid) - 1):
        for i in by_grid.get(gi, []):
            _, y_i = sols[i]
            seg = Segment(prob.x_space, x_grid[gi], x_grid[gi + 1])
            try:
                trace = davidenko_lift(prob, seg, y_i)
            except InputError:
                continue
            if not trace.verdict.completed:
                continue
            nxt = by_grid.get(gi + 1, [])
            meets = points_equal(
                prob.y_space, trace.final_y, [sols[j][1] for j in nxt], rtol=1e-6
            )[0]
            if meets.any():
                union(i, nxt[int(meets.argmax())])

    groups = {}
    for idx, (gi, y_sol) in enumerate(sols):
        groups.setdefault(find(idx), []).append((x_grid[gi].copy(), y_sol.copy()))
    group_list = [groups[k] for k in sorted(groups)]
    return BranchReport(x_grid=x_grid, groups=group_list, count=len(group_list))
