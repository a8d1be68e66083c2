"""Independent answers the benchmark checks liftkit against.

Every reference value here is a closed form or a numpy computation made
without liftkit: explicit inverses, Cardano's formula, numpy.roots and
closed-form singular values. A checker takes the plain answer an
operation extracted from liftkit's result and raises CheckFailed when
it is wrong.
"""

from __future__ import annotations

import math

import numpy as np

INVERSE_TOL = 1e-8  # preimages, fibers, implicit values
QI_RTOL = 1e-9  # sampled quasi-isometry constants
PROFILE_SLACK = 0.05  # a profile infimum may exceed the true one by 5%
SHELL_RTOL = 0.02  # shell-sampling estimator against singular values
MARGIN_TOL = 1e-9  # certificate margin against the closed-form margin
CERT_TOL = 1e-6  # pass threshold of a domination certificate
NON_NECESSITY_WORDS = "sufficient condition only"


class CheckFailed(Exception):
    """An answer disagrees with the independent computation."""


def require(cond, msg, *args):
    if not cond:
        raise CheckFailed(msg % args if args else msg)


def close(a, b, tol, what):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    require(a.shape == b.shape, "%s: shape %s, expected %s", what, a.shape, b.shape)
    err = float(np.max(np.abs(a - b))) if a.size else 0.0
    require(np.all(np.isfinite(a)) and err <= tol,
            "%s: %r differs from %r by %.3g (tol %.3g)", what,
            a.tolist(), b.tolist(), err, tol)


# ---------------------------------------------------------------------------
# closed forms


def shear_inverse(u, v):
    """Explicit inverse of (x + y^3, y)."""
    return [u - v ** 3, v]


def polar_inverse(u, v):
    """Preimage of (u, v) under (e^x cos y, e^x sin y) on the sheet
    reached from the origin by a segment that avoids the negative real
    axis: (log|w|, Arg w)."""
    return [0.5 * math.log(u * u + v * v), math.atan2(v, u)]


def cube_roots(u, v):
    """The three complex cube roots of u + iv as (re, im) pairs."""
    r = np.roots([1.0, 0.0, 0.0, -complex(u, v)])
    return np.stack([r.real, r.imag], axis=1)


def cardano(x):
    """Real root of y^3 + y = x."""
    s = math.sqrt(x * x / 4.0 + 1.0 / 27.0)
    return float(np.cbrt(x / 2.0 + s) + np.cbrt(x / 2.0 - s))


def fold_cubic_roots(x):
    """Real roots of y^3 - y - x, ascending."""
    r = np.roots([1.0, 0.0, -1.0, -x])
    return np.sort(r[np.abs(r.imag) <= 1e-9].real)


def shear_sv(y):
    """(smin, smax) of [[1, 3y^2], [0, 1]]; det 1, so smin = 1/smax."""
    a = 3.0 * y * y
    smax = math.sqrt((a * a + 2.0 + a * math.sqrt(a * a + 4.0)) / 2.0)
    return 1.0 / smax, smax


def singular_values(map_key, x, y):
    """Closed-form (smin, smax) of the Jacobian at (x, y)."""
    if map_key == "shear3":
        return shear_sv(y)
    if map_key == "polar_exp":
        return math.exp(x), math.exp(x)
    if map_key == "identity":
        return 1.0, 1.0
    raise KeyError(map_key)


def ball_infimum(map_key, t):
    """Infimum of the smallest singular value over the closed ball of
    radius t at the origin."""
    if map_key == "shear3":
        return shear_sv(t)[0]  # smin falls as |y| grows; |y| <= t
    if map_key == "polar_exp":
        return math.exp(-t)  # smin = e^x, smallest at x = -t
    if map_key == "identity":
        return 1.0
    raise KeyError(map_key)


def qi_closed(map_key, h):
    """Extreme singular values over the square [-h, h]^2."""
    if map_key == "shear3":
        return shear_sv(h)
    if map_key == "polar_exp":
        return math.exp(-h), math.exp(h)
    return 1.0, 1.0


EXPECTED_CLASS = {
    "identity": ("divergent",),
    "polar_exp": ("convergent",),
    "shear3": ("convergent", "inconclusive"),
}


# ---------------------------------------------------------------------------
# checkers for the in-process workloads


def check_invert(map_key, target, ans):
    ref = shear_inverse(*target) if map_key == "shear3" else polar_inverse(*target)
    close(ans["x"], ref, INVERSE_TOL, "preimage of %s" % (list(target),))


def check_sheets(target, ans):
    require(ans["sheets"] == 3, "sheet count %r, expected 3", ans["sheets"])
    orbit = np.asarray(ans["orbit"], dtype=float)
    roots = cube_roots(*target)
    require(orbit.shape == (3, 2), "orbit has shape %s, expected (3, 2)", orbit.shape)
    matched = sorted(int(np.argmin(np.linalg.norm(roots - p, axis=1))) for p in orbit)
    require(matched == [0, 1, 2], "orbit %s does not visit each cube root", orbit.tolist())
    for p in orbit:
        close(p, roots[np.argmin(np.linalg.norm(roots - p, axis=1))],
              INVERSE_TOL, "orbit point")


def check_implicit(x, ans):
    close(ans["y"], cardano(x), INVERSE_TOL, "implicit value at x=%r" % x)


def check_fiber(target, ans):
    pre = np.asarray(ans["preimages"], dtype=float)
    require(pre.shape == (3, 2), "fiber has shape %s, expected (3, 2)", pre.shape)
    roots = cube_roots(*target)
    roots = roots[np.lexsort((roots[:, 1], roots[:, 0]))]
    close(pre, roots, INVERSE_TOL, "fiber over %s" % (list(target),))


def check_branches(x_box, ans):
    require(ans["count"] == 3, "branch count %r, expected 3", ans["count"])
    members = np.asarray(ans["members"], dtype=float)
    require(members.ndim == 2 and members.shape[1] == 2,
            "branch members have shape %s", members.shape)
    xs = np.unique(members[:, 0])
    require(len(xs) >= 2 and x_box[0] <= xs[0] and xs[-1] <= x_box[1],
            "branch grid %s is not inside %s", xs.tolist(), list(x_box))
    for x in xs:
        ys = np.sort(members[members[:, 0] == x, 1])
        close(ys, fold_cubic_roots(x), INVERSE_TOL, "branch roots at x=%r" % x)


def check_profile_infima(radii, infima, key):
    require(len(infima) == len(radii), "%d infima for %d radii", len(infima), len(radii))
    for t, r in zip(radii, infima):
        ref = ball_infimum(key, t)
        require(np.isfinite(r) and ref * (1.0 - 1e-9) <= r <= ref * (1.0 + PROFILE_SLACK),
                "%s ball infimum at t=%.4g is %r, closed form %r", key, t, r, ref)


def check_certification(key, plan, ans):
    check_profile_infima(plan["radii"], ans["infima"], key)
    require(ans["class"] in EXPECTED_CLASS[key],
            "%s classified %r, expected %s", key, ans["class"], EXPECTED_CLASS[key])
    if ans["class"] == "divergent":
        require(ans["caveat"] == "", "divergent verdict carries a caveat")
    else:
        require(NON_NECESSITY_WORDS in ans["caveat"],
                "%s verdict lacks the non-necessity caveat", ans["class"])
    pts = plan["cert_points"]
    smin = np.array([singular_values(key, p[0], p[1])[0] for p in pts])
    a, b = plan["affine_weight"]
    margin = float(np.min(smin * (a + b * np.linalg.norm(pts, axis=1)))) - 1.0
    require(abs(ans["cert_margin"] - margin) <= MARGIN_TOL * (1.0 + abs(margin)),
            "certificate margin %r, closed form %r", ans["cert_margin"], margin)
    require(ans["cert_passed"] == (margin >= -CERT_TOL),
            "certificate verdict %r with closed-form margin %r",
            ans["cert_passed"], margin)
    lo, hi = qi_closed(key, plan["qi_half_width"])
    require(abs(ans["qi_alpha"] - lo) <= QI_RTOL * lo and abs(ans["qi_beta"] - hi) <= QI_RTOL * hi,
            "qi bounds (%r, %r), closed form (%r, %r)",
            ans["qi_alpha"], ans["qi_beta"], lo, hi)
    require(len(ans["shell"]) == len(plan["shell_points"]), "shell estimates missing")
    for p, (dm, dp) in zip(plan["shell_points"], ans["shell"]):
        smin_p, smax_p = singular_values(key, p[0], p[1])
        require(abs(dm - smin_p) <= SHELL_RTOL * smin_p and abs(dp - smax_p) <= SHELL_RTOL * smax_p,
                "shell estimate (%r, %r) at %s, singular values (%r, %r)",
                dm, dp, list(p), smin_p, smax_p)


def check_agree(a, b, what):
    """Analytic and expression forms must give the same answer."""
    require(a.keys() == b.keys(), "%s: answers have different fields", what)
    for key in a:
        close(a[key], b[key], INVERSE_TOL * (1.0 + float(np.max(np.abs(a[key])))),
              "%s: %s" % (what, key))
