"""Path lifting by predictor-corrector continuation.

Given f with equal domain and codomain dimensions, a path p in the
codomain, and a starting preimage x0 of p(start), the engine extends
the lift node by node: a Jacobian predictor step followed by a damped
Newton corrector onto the next path point. A corrected point where the
Jacobian determinant has changed sign lies on another sheet, so the
step is refused and halved like a failed corrector; a path that runs
into a fold ends there instead of jumping sheets. Failure is
classified, not hidden: blow-up, near-singular Jacobian, step-size
collapse, or domain exit, each with the furthest parameter reached.

The step schedule is fixed: the first step covers STEP_INIT of the
path's parameter range, each accepted step grows the next by GROWTH up
to STEP_MAX, each refused one halves it, and the corrector makes at
most MAX_CORRECTOR_ITER Newton steps. A caller sets only the floor of
the halving, the corrector's tolerance and the node budget
(LiftOptions).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EvalDomainError,
    InputError,
    LiftkitError,
    NonConvergenceError,
    SingularJacobianError,
)
from .geometry import OpenSubset, Space, chart_norm
from .mapdef import (
    BUDGET,
    _closed_form,
    _converged,
    _newton,
    _solve,
    det_sign,
    jacobian_at,
    singular_extremes,
)

__all__ = [
    "LiftOptions",
    "LiftNode",
    "LiftTrace",
    "Verdict",
    "ContinuationFailure",
    "lift_path",
    "analyze_trace",
    "TraceAnalysis",
    "COMPLETED",
    "FAILED_BLOWUP",
    "FAILED_SINGULAR",
    "FAILED_STALL",
    "FAILED_DOMAIN_EXIT",
]

COMPLETED = "Completed"
FAILED_BLOWUP = "FailedBlowUp"
FAILED_SINGULAR = "FailedSingular"
FAILED_STALL = "FailedStall"
FAILED_DOMAIN_EXIT = "FailedDomainExit"

# the endpoint polish, a _newton run: at most POLISH_STEPS damped Newton
# steps, each taken only if it strictly lowers the residual, down to the
# rounding floor (POLISH_TOL stops only an exact zero)
POLISH_STEPS = 8
POLISH_TOL = np.finfo(float).tiny

_ENGINE_NOTE = (
    "engine-conservative: the abstract continuation criterion needs only "
    "a convergent subsequence of lifted values; this engine demands a "
    "converging trace and may fail on oscillating lifts"
)


# the step schedule, in fractions of the path's parameter range, and the
# corrector's Newton budget per step
STEP_INIT = 1e-2
STEP_MAX = 0.1
GROWTH = 1.5
MAX_CORRECTOR_ITER = 25
# an accepted node whose Jacobian's smallest singular value is under
# SINGULAR_THRESHOLD ends the lift as FailedSingular; one whose chart
# norm is over BLOWUP_RADIUS ends it as FailedBlowUp
SINGULAR_THRESHOLD = 1e-10
BLOWUP_RADIUS = 1e6


@dataclass(frozen=True)
class LiftOptions:
    step_min: float = 1e-12  # the floor of the halving steps
    corrector_tol: float = 1e-10
    max_nodes: int = 100000

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise InputError("%s must be finite, got %r" % (f.name, value))
        if self.corrector_tol <= 0:
            raise InputError("corrector_tol must be positive, got %r" % self.corrector_tol)
        if not 0.0 < self.step_min <= STEP_INIT:
            raise InputError(
                "need 0 < step_min <= the first step %g, got %r"
                % (STEP_INIT, self.step_min)
            )
        if self.max_nodes < 1:
            raise InputError("max_nodes must be at least 1")


@dataclass(frozen=True)
class LiftNode:
    t: float
    coords: np.ndarray
    residual: float
    d_minus: float
    step: float


@dataclass(frozen=True)
class Verdict:
    kind: str
    b: float = 1.0
    last_norm: float = None
    d_minus: float = None
    message: str = ""
    engine_note: str = None

    @property
    def completed(self):
        return self.kind == COMPLETED

    def summary(self):
        parts = [self.kind]
        if not self.completed:
            parts.append("b=%.12g" % self.b)
        if self.last_norm is not None:
            parts.append("last_norm=%.6g" % self.last_norm)
        if self.d_minus is not None:
            parts.append("d_minus=%.6g" % self.d_minus)
        if self.message:
            parts.append(self.message)
        return " ".join(parts)


@dataclass
class LiftTrace:
    path_domain: tuple
    nodes: list
    verdict: Verdict
    lift_length: float
    domain: Space  # the map's domain, where the nodes lie

    def node_arrays(self):
        ts = np.array([n.t for n in self.nodes])
        xs = np.stack([n.coords for n in self.nodes])
        res = np.array([n.residual for n in self.nodes])
        dm = np.array([n.d_minus for n in self.nodes])
        st = np.array([n.step for n in self.nodes])
        return ts, xs, res, dm, st

    @property
    def final_coords(self):
        return self.nodes[-1].coords

    def interpolate(self, t):
        """Piecewise-linear interpolation of the lift at parameter t."""
        ts, xs, _, _, _ = self.node_arrays()
        t = float(t)
        if t < ts[0] - 1e-12 or t > ts[-1] + 1e-12:
            raise InputError(
                "parameter %g outside lifted range [%g, %g]" % (t, ts[0], ts[-1])
            )
        return np.array(
            [np.interp(t, ts, xs[:, i]) for i in range(xs.shape[1])]
        )

    def to_csv(self):
        cols = (
            ["t"]
            + ["x_%d" % (i + 1) for i in range(self.domain.dim)]
            + ["residual", "d_minus", "step"]
        )
        lines = [",".join(cols)]
        for n in self.nodes:
            row = [n.t] + list(n.coords) + [n.residual, n.d_minus, n.step]
            lines.append(",".join("%.17g" % v for v in row))
        return "\n".join(lines) + "\n"


class ContinuationFailure(LiftkitError):
    """A continuation run ended with a failure verdict."""

    def __init__(self, verdict, trace):
        super().__init__(verdict.summary())
        self.verdict = verdict
        self.trace = trace


def _keeps_orientation(f, x, xhat, run, orient):
    """Whether a converged corrector run, from the predicted point xhat
    of a step from x (both Python floats), keeps the Jacobian
    determinant's sign orient.

    A lift through a local homeomorphism keeps its orientation, so a
    sign change means the corrector crossed the critical set, where the
    determinant vanishes, and landed on another sheet: past a fold or
    onto a fold's middle branch. The sign is read at the corrected
    point, and also at the chord's midpoint when the corrector moved
    farther than the predictor did, as it does when it jumps between
    sheets of one sign across a fold. A midpoint outside the domain or
    faulting tests nothing.
    """
    if orient == 0:
        return True
    if det_sign(run.jacobian) != orient:
        return False
    dom, x_new = f.domain, run.x
    if dom.distance_one(x_new, xhat) <= dom.distance_one(xhat, x):
        return True
    chord = dom.canonical_one([u - v for u, v in zip(x_new, x)])
    mid = dom.canonical_one([u + 0.5 * v for u, v in zip(x, chord)])
    try:
        jac_mid = jacobian_at(f, mid)
    except (DomainError, EvalDomainError):
        return True
    return det_sign(jac_mid) == orient


def lift_path(f, p, x0, opts=None):
    """Lift the path p through f starting at the preimage x0.

    Requires f(x0) = p(start) within corrector_tol and a square
    Jacobian. Returns a LiftTrace whose verdict is Completed or one of
    the failure kinds, with b the furthest parameter reached (last
    accepted parameter plus the final failed step, for stalls). A step
    that collapses on a singular corrector or on a change of the
    Jacobian determinant's sign is FailedSingular. The verdict of a
    collapsed step names its cause in its message: the class and text
    of the last error that halved the step; a FailedSingular or
    FailedBlowUp verdict that ends on an accepted node names the
    threshold and the value that crossed it. The start x0 and each
    predicted point are checked once; the corrector evaluates without
    checking its points again. Between the checked start and the
    nodes' coordinates, every point is a list of Python floats.
    """
    opts = opts or LiftOptions()
    if f.domain.dim != f.codomain.dim:
        raise InputError("path lifting needs equal domain and codomain dimensions")
    if p.space.dim != f.codomain.dim:
        raise InputError(
            "path lives in dimension %d, codomain has dimension %d"
            % (p.space.dim, f.codomain.dim)
        )
    t0, t1 = p.domain
    if t1 <= t0:
        raise InputError("path domain has zero width")
    span = t1 - t0

    dom, cod = f.domain, f.codomain
    x = dom.check_coords(x0).tolist()
    p_start = p.eval(t0).tolist()
    r0 = cod.distance_one(f._value(x), p_start)
    if r0 > opts.corrector_tol:
        raise InputError(
            "f(x0) misses p(start) by %.3g (corrector_tol %.3g)"
            % (r0, opts.corrector_tol)
        )

    jac = f._jacobian(x)
    smin = singular_extremes(jac)[0]
    orient = det_sign(jac)
    nodes = [LiftNode(t0, np.array(x), r0, smin, 0.0)]
    lift_length = 0.0

    def make_trace(verdict):
        return LiftTrace(
            path_domain=(t0, t1),
            nodes=nodes,
            verdict=verdict,
            lift_length=lift_length,
            domain=dom,
        )

    def fail(kind, b, **kw):
        return make_trace(
            Verdict(kind=kind, b=min(b, 1.0), engine_note=_ENGINE_NOTE, **kw)
        )

    s = 0.0
    dt = STEP_INIT
    p_cur = p_start
    while True:
        if len(nodes) >= opts.max_nodes:
            return fail(
                FAILED_STALL, s, message="node budget exhausted", d_minus=smin
            )
        dt = min(dt, 1.0 - s)
        target_t = t0 + (s + dt) * span
        target = p.eval(target_t).tolist()
        move = cod.canonical_one([u - v for u, v in zip(target, p_cur)])
        try:
            try:
                xhat = [u + v for u, v in zip(x, _solve(jac, _closed_form(jac), move))]
            except np.linalg.LinAlgError:
                xhat = x
            xhat = dom.canonical_one(xhat)
            if not (all(map(math.isfinite, xhat)) and dom.contains(xhat)):
                xhat = x
            # xhat is checked, so the corrector evaluates without tests
            tol, budget = opts.corrector_tol, MAX_CORRECTOR_ITER
            run = _converged(f, _newton(f, target, xhat, tol, budget), tol, budget)
            if not _keeps_orientation(f, x, xhat, run, orient):
                raise SingularJacobianError("step crosses the critical set")
        except (
            NonConvergenceError,
            SingularJacobianError,
            DomainError,
            EvalDomainError,
        ) as err:
            dt *= 0.5
            if dt < opts.step_min:
                b = s + 2.0 * dt  # the step that just failed
                cause = "%s: %s" % (type(err).__name__, err)
                if isinstance(err, DomainError):
                    return fail(
                        FAILED_DOMAIN_EXIT,
                        b,
                        message="corrector exits domain (%s)" % cause,
                    )
                if isinstance(dom, OpenSubset):
                    # a stall pressed against the boundary is an exit:
                    # probe whether the undamped newton direction leaves
                    try:
                        step = _solve(jac, _closed_form(jac), move)
                        probe = dom.canonical_one([u + v for u, v in zip(x, step)])
                        if not dom.contains(probe):
                            return fail(
                                FAILED_DOMAIN_EXIT,
                                b,
                                message="newton direction leaves the domain (%s)"
                                % cause,
                            )
                    except np.linalg.LinAlgError:
                        pass
                if isinstance(err, SingularJacobianError):
                    return fail(FAILED_SINGULAR, b, d_minus=smin, message=cause)
                return fail(FAILED_STALL, b, d_minus=smin, message=cause)
            continue

        x_new = run.x
        lift_length += dom.chart_length_one(x_new, x)
        s += dt
        t_here = t0 + s * span
        smin = run.smin
        nodes.append(LiftNode(t_here, np.array(x_new), run.residual, smin, dt * span))
        x = x_new
        p_cur = target
        jac = run.jacobian

        if smin < SINGULAR_THRESHOLD:
            return fail(
                FAILED_SINGULAR,
                s,
                d_minus=smin,
                message="smin %.3g < singular_threshold %.3g"
                % (smin, SINGULAR_THRESHOLD),
            )
        # math.hypot, within an ulp of chart_norm and faster, only rules
        # out a blow-up far inside the radius
        if math.hypot(*x) > 0.5 * BLOWUP_RADIUS:
            norm = chart_norm(x)
            if norm > BLOWUP_RADIUS:
                return fail(
                    FAILED_BLOWUP,
                    s,
                    last_norm=norm,
                    message="norm %.3g > blowup_radius %.3g"
                    % (norm, BLOWUP_RADIUS),
                )
        if s >= 1.0:
            pol = _newton(f, target, x, POLISH_TOL, POLISH_STEPS)
            if pol.iterations > 0:  # each step lowered the residual
                lift_length += dom.chart_length_one(pol.x, x)
                smin = pol.smin
                if pol.status == BUDGET:  # its last step has no Jacobian yet
                    smin = singular_extremes(jacobian_at(f, pol.x))[0]
                nodes[-1] = LiftNode(t_here, np.array(pol.x), pol.residual, smin, 0.0)
            return make_trace(Verdict(kind=COMPLETED, b=1.0))
        dt = min(dt * GROWTH, STEP_MAX)


@dataclass
class TraceAnalysis:
    alpha_hat: float
    tail_diameters: list  # (t, diameter of nodes with parameter >= t)


def _suffix_diameters(space, ts, xs):
    t_first, t_last = ts[0], ts[-1]
    if ts.shape[0] > 1500:
        # diameter scan is quadratic; thin long traces but keep the ends
        stride = int(np.ceil(ts.shape[0] / 1500.0))
        keep = np.unique(np.r_[np.arange(0, ts.shape[0], stride), ts.shape[0] - 1])
        ts, xs = ts[keep], xs[keep]
    out = []
    for j in range(13):  # the last 2^-j of the range, j = 0..12
        t_cut = t_last - (t_last - t_first) * 2.0**-j
        sel = xs[ts >= t_cut]
        if sel.shape[0] <= 1:
            out.append((float(t_cut), 0.0))
            continue
        diam = 0.0
        # pairwise in blocks to bound memory on long traces
        block = 512
        for i in range(0, sel.shape[0], block):
            a = sel[i : i + block]
            for k in range(0, sel.shape[0], block):
                bpts = sel[k : k + block]
                d = space.distance_many(
                    np.repeat(a, bpts.shape[0], axis=0),
                    np.tile(bpts, (a.shape[0], 1)),
                )
                diam = max(diam, float(d.max()))
        out.append((float(t_cut), diam))
    return out


def analyze_trace(trace):
    """Monitors over a finished trace: the infimum of the smallest
    singular value along the lift (alpha_hat) and the suffix diameters,
    measured in the map's domain, on a dyadic parameter grid (a Cauchy
    check: on convergent lifts they decay to node spacing)."""
    ts, xs, _, dm, _ = trace.node_arrays()
    return TraceAnalysis(
        alpha_hat=float(dm.min()),
        tail_diameters=_suffix_diameters(trace.domain, ts, xs),
    )
