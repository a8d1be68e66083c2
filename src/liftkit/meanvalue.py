"""Mean-value certificates by nested bisection.

Two inequality families are certified for p = f o q on [a, b]:

  upper:  d(p(a), p(b)) <= D^+ at q(tau) times ell(q)
  lower:  ell(p)        >= D^- at q(tau) times d(q(a), q(b))

The witness tau is found by bisection: the split inequality says the
parent interval's ratio is no worse than the better child's, so
repeatedly keeping that child drives the interval onto a point where
the scalar derivative dominates the global ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InputError
from .geometry import (
    FunctionPath,
    Sampled,
    Segment,
    path_length,
    points_equal,
    reparam_arclength,
)
from .sderiv import d_pm_from_jacobian, scalar_derivatives

__all__ = [
    "BisectionCertificate",
    "LengthBoundsReport",
    "split_inequality_slack",
    "find_tau",
    "length_bounds_report",
    "mapped_path",
]

MAX_BISECTION_DEPTH = 60
# relative slack allowed when comparing a certificate against the
# sampled scalar derivative
CERT_REL_SLACK = 0.05


def mapped_path(f, q):
    """The composite path f o q as a lazily evaluated path object."""
    if f.domain.dim != q.space.dim:
        raise InputError(
            "path lives in dimension %d, map domain has dimension %d"
            % (q.space.dim, f.domain.dim)
        )

    def fn(ts):
        return f.eval_many(q.eval_many(ts))

    return FunctionPath(f.codomain, fn, q.domain, q.breakpoints())


def _sub_length(path, u, v):
    """The length of path over [u, v], exact for piecewise-linear kinds
    and adaptive otherwise."""
    if v <= u:
        return 0.0
    if isinstance(path, (Segment, Sampled)):
        return path.exact_length(u, v)
    return path_length(path, (u, v)).require()


def _ratio_upper(f, q, u, v):
    """d(p(u), p(v)) / ell(q over [u, v]); p = f o q."""
    length = _sub_length(q, u, v)
    if length <= 0.0:
        raise DegenerateInputError(
            "zero-length subpath on [%g, %g]; reparametrize by arc length" % (u, v)
        )
    pu, pv = (f.eval(p).tolist() for p in q.eval_many(np.array([u, v])))
    return f.codomain.distance_one(pu, pv) / length


def _ratio_lower(q, p, u, v):
    """ell(p over [u, v]) / d(q(u), q(v)); p = f o q, infinite when
    q(u) = q(v) (points_equal: a closed loop's ends differ by
    rounding)."""
    ends = q.eval_many(np.array([u, v]))
    if points_equal(q.space, ends[:1], ends[1:])[0, 0]:
        return math.inf
    return _sub_length(p, u, v) / q.space.distance_one(*ends.tolist())


def split_inequality_slack(f, q, t=None, direction="upper"):
    """Slack of the split inequality at an interior parameter t.

    Upper direction: max of the two child ratios minus the parent
    ratio, where ratio(u, v) = d(p(u), p(v)) / ell(q over [u, v]).
    Lower direction: parent minus min of children, with ratio(u, v) =
    ell(p over [u, v]) / d(q(u), q(v)) and the 0-denominator convention
    ratio := infinity. Both slacks are nonnegative in exact arithmetic.
    """
    a, b = q.domain
    if t is None:
        t = 0.5 * (a + b)
    t = float(t)
    if not (a < t < b):
        raise InputError("t must be interior to the path domain")
    p = mapped_path(f, q)
    if direction == "upper":
        parent = _ratio_upper(f, q, a, b)
        left = _ratio_upper(f, q, a, t)
        right = _ratio_upper(f, q, t, b)
        return max(left, right) - parent
    if direction == "lower":
        parent = _ratio_lower(q, p, a, b)
        if parent == math.inf:
            raise DegenerateInputError(
                "path endpoints coincide; the lower ratio is undefined"
            )
        left = _ratio_lower(q, p, a, t)
        right = _ratio_lower(q, p, t, b)
        return parent - min(left, right)
    raise InputError("direction must be 'upper' or 'lower'")


@dataclass
class BisectionCertificate:
    direction: str
    tau: float
    tau_point: np.ndarray
    global_ratio: float
    derivative_at_tau: float
    final_slack: float
    ratio_sequence: list
    passed: bool
    reparametrized: bool = False
    depth: int = 0

    def check_monotone(self):
        """Ratio sequence nondecreasing (upper) / nonincreasing (lower)."""
        r = self.ratio_sequence
        if self.direction == "upper":
            return all(r[i + 1] >= r[i] - 1e-9 for i in range(len(r) - 1))
        return all(r[i + 1] <= r[i] + 1e-9 for i in range(len(r) - 1))


def _is_unit_speed(q):
    if not isinstance(q, Sampled) or q.degenerate:
        return False
    seg = q.space.chart_lengths(q.knots[:-1], q.knots[1:])
    gaps = np.diff(q.params)
    return bool(np.all(np.abs(seg - gaps) <= 1e-12 * (1.0 + gaps)))


def find_tau(f, q, direction="upper"):
    """Bisection witness for the mean-value inequalities.

    Upper: returns tau with D^+ at q(tau) >= d(p(a), p(b)) / ell(q), up
    to 5% sampling slack; q is arc-length reparametrized internally
    when it is not already unit speed (the certificate then refers to
    the resampled path). Lower: returns tau with D^- at q(tau) <=
    ell(p) / d(q(a), q(b)); requires distinct endpoints.

    Tie-break: equal child ratios keep the left half; an infinite lower
    ratio is never selected.
    """
    if direction not in ("upper", "lower"):
        raise InputError("direction must be 'upper' or 'lower'")
    reparametrized = False
    if direction == "upper" and not _is_unit_speed(q):
        q = reparam_arclength(q)
        if q.degenerate:
            raise DegenerateInputError("constant path has no upper certificate")
        reparametrized = True

    a, b = q.domain
    if b <= a:
        raise DegenerateInputError("path domain has zero width")
    tol_t = 1e-6 * (b - a)

    p = mapped_path(f, q)
    if direction == "upper":
        ratio = lambda u, v: _ratio_upper(f, q, u, v)
        better = lambda left, right: left >= right  # keep larger; tie -> left
    else:
        ratio = lambda u, v: _ratio_lower(q, p, u, v)
        better = lambda left, right: left <= right  # keep smaller; tie -> left

    lo, hi = a, b
    global_ratio = ratio(a, b)
    if direction == "lower" and global_ratio == math.inf:
        raise DegenerateInputError("lower certificate needs distinct path endpoints")
    ratios = [global_ratio]
    depth = 0
    while depth < MAX_BISECTION_DEPTH and (hi - lo) > tol_t:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        left = ratio(lo, mid)
        right = ratio(mid, hi)
        if better(left, right):
            hi = mid
            chosen = left
        else:
            lo = mid
            chosen = right
        ratios.append(chosen)
        depth += 1

    tau = 0.5 * (lo + hi)
    tau_coords = q.eval(tau)
    est = scalar_derivatives(f, tau_coords, method="jacobian_svd")
    if direction == "upper":
        deriv = est.d_plus
        final_slack = deriv - global_ratio
        passed = global_ratio <= (1.0 + CERT_REL_SLACK) * deriv
    else:
        deriv = est.d_minus
        final_slack = global_ratio - deriv
        passed = deriv <= (1.0 + CERT_REL_SLACK) * global_ratio
    return BisectionCertificate(
        direction=direction,
        tau=tau,
        tau_point=tau_coords,
        global_ratio=global_ratio,
        derivative_at_tau=deriv,
        final_slack=final_slack,
        ratio_sequence=ratios,
        passed=passed,
        reparametrized=reparametrized,
        depth=depth,
    )


@dataclass
class LengthBoundsReport:
    len_q: float
    len_p: float
    sup_d_plus: float
    inf_d_minus: float
    n_samples: int
    upper_rhs: float
    upper_pass: bool
    lower_rhs: float = None
    lower_pass: bool = None
    lower_skipped: bool = False
    skip_reason: str = ""


def length_bounds_report(f, q, n_samples=256):
    """Check ell(p) against the sampled extreme scalar derivatives.

    Upper: ell(p) <= (1 + slack) * sup D^+ * ell(q). Lower: ell(p) >=
    (1 - slack) * inf D^- * ell(q), skipped with a reason when the
    sampled infimum is 0 or the supremum is not finite (the theorem
    needs 0 < inf <= sup < infinity). The slack is CERT_REL_SLACK.
    """
    if n_samples < 2:
        raise InputError("need at least 2 samples")
    a, b = q.domain
    ts = np.linspace(a, b, int(n_samples))
    pts = q.eval_many(ts)
    d_minus, d_plus = d_pm_from_jacobian(f.jacobians_many(pts))
    sup_plus = float(d_plus.max())
    inf_minus = float(d_minus.min())

    len_q = path_length(q).require()
    p = mapped_path(f, q)
    len_p = path_length(p).require()

    upper_rhs = (1.0 + CERT_REL_SLACK) * sup_plus * len_q
    upper_pass = len_p <= upper_rhs
    report = LengthBoundsReport(
        len_q=len_q,
        len_p=len_p,
        sup_d_plus=sup_plus,
        inf_d_minus=inf_minus,
        n_samples=int(n_samples),
        upper_rhs=upper_rhs,
        upper_pass=upper_pass,
    )
    if inf_minus <= 0.0:
        report.lower_skipped = True
        report.skip_reason = "sampled inf D^- is 0; theorem hypothesis fails"
    elif not math.isfinite(sup_plus):
        report.lower_skipped = True
        report.skip_reason = "sampled sup D^+ is not finite"
    else:
        report.lower_rhs = (1.0 - CERT_REL_SLACK) * inf_minus * len_q
        report.lower_pass = len_p >= report.lower_rhs
    return report
