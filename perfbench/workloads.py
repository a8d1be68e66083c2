"""The benchmark's workloads (lift, certify), the cli argument lists its
traced runs use, and the inputs each draws from its seed.

A workload is a fixed list of operations, one pass. The pass is
repeated whole, one operation at a time, by a single client. Where a
query has an analytic built-in and an expression form, both forms
answer it back to back, and which goes first alternates from query to
query, so that drift on the machine hits both forms alike.

Inputs are drawn stratified: each quantity is split into equal strata
and the seed only places a value inside its stratum. Every seed thus
gives a different list with the same make-up, and the same seed gives
the same list.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import checks
from checks import CheckFailed, require

ANALYTIC, EXPR, SINGLE = "analytic", "expr", "single"

# expression forms of the built-ins, written out by hand
SHEAR3 = "(x + y^3, y)"
POLAR_EXP = "(exp(x)*cos(y), exp(x)*sin(y))"
POWK3 = "(x^3 - 3*x*y^2, 3*x^2*y - y^3)"
CUBIC = "y^3 + y - x"
IDENTITY2 = "(x, y)"
FOLD_CUBIC = "y^3 - y - x"
EXPMAP = "exp(x)"
FAILURE_VERDICTS = ("FailedBlowUp", "FailedSingular", "FailedStall", "FailedDomainExit")

PROFILE_RADII = np.geomspace(0.1, 100.0, 12)
PROFILE_BUDGET = 8
AFFINE_WEIGHT = (1.0, 1.0)  # omega(t) = 1 + t
QI_HALF_WIDTH = 2.0


@dataclass
class Op:
    """One operation of a pass. run() returns a plain answer; check()
    raises CheckFailed when the answer is wrong. Ops sharing a pair id
    answer one query through the analytic and the expression form."""

    kind: str
    form: str
    run: object
    check: object
    pair: int = None


def strata(rng, n, lo, hi):
    """One value in each of n equal strata of [lo, hi], in order."""
    return lo + (np.arange(n) + rng.random(n)) / n * (hi - lo)


def latin(rng, n, box):
    """n points, one in each stratum of every coordinate."""
    cols = [strata(rng, n, lo, hi)[rng.permutation(n)] for lo, hi in box]
    return np.stack(cols, axis=1)


def both_forms(ops, q, kind, forms, make_run, check, agree=True):
    """Append the analytic and expression answers to query q; with
    agree, the second answer must also match the first."""
    order = forms if q % 2 == 0 else forms[::-1]
    pair = len(ops) if agree else None
    for form, f in order:
        ops.append(Op(kind, form, make_run(f), check, pair))


def on_circles(rp):
    """Points r e^{i phi} of the plane from rows (r, phi)."""
    return np.stack([rp[:, 0] * np.cos(rp[:, 1]), rp[:, 0] * np.sin(rp[:, 1])], axis=1)


def cube_root(u, v):
    z = complex(u, v) ** (1.0 / 3.0)
    return np.array([z.real, z.imag])


# ---------------------------------------------------------------------------
# lift: serial predictor-corrector continuation


def build_lift(lk, seed):
    rng = np.random.default_rng(seed)
    powk = lk.resolve_map("powk(3)")
    maps = {
        "shear3": ((ANALYTIC, lk.resolve_map("shear3")), (EXPR, lk.resolve_map(SHEAR3))),
        "polar_exp": ((ANALYTIC, lk.resolve_map("polar_exp")), (EXPR, lk.resolve_map(POLAR_EXP))),
        "powk3": ((ANALYTIC, powk), (EXPR, lk.expression_map(
            POWK3, domain=powk.domain, codomain=powk.codomain))),
        "cubic": ((ANALYTIC, lk.ImplicitProblem(lk.resolve_map("cubic_implicit"), 1, [0.0])),
                  (EXPR, lk.ImplicitProblem(lk.resolve_map(CUBIC), 1, [0.0]))),
    }
    origin = np.zeros(2)
    shear_t = latin(rng, 12, [(-10.0, 10.0), (-2.5, 2.5)])
    # polar targets r e^{i theta} stay off the negative real axis
    polar_rt = latin(rng, 12, [(math.log(0.2), math.log(5.0)), (-2.5, 2.5)])
    polar_t = on_circles(np.column_stack([np.exp(polar_rt[:, 0]), polar_rt[:, 1]]))
    sheet_t = on_circles(latin(rng, 3, [(0.5, 4.0), (-math.pi, math.pi)]))
    implicit_x = strata(rng, 6, -8.0, 8.0)[rng.permutation(6)]

    def invert(key, tgt):
        def make_run(f):
            return lambda: {"x": lk.invert_at(f, tgt, origin).coords.tolist()}
        return make_run, lambda ans: checks.check_invert(key, tgt, ans)

    def sheets(tgt):
        loop = lk.Loop(lk.Euclidean(2), np.zeros(2), float(np.linalg.norm(tgt)),
                       winding=1, phase=math.atan2(tgt[1], tgt[0]))
        x0 = cube_root(*tgt)

        def make_run(f):
            def run():
                rep = lk.sheet_count(f, tgt, loop, x0)
                return {"sheets": rep.sheets,
                        "orbit": [p.coords.tolist() for p in rep.preimages]}
            return run
        return make_run, lambda ans: checks.check_sheets(tgt, ans)

    def implicit(x):
        start = (np.zeros(1), np.zeros(1))

        def make_run(prob):
            return lambda: {"y": float(lk.implicit_eval(prob, np.array([x]), start).coords[0])}
        return make_run, lambda ans: checks.check_implicit(x, ans)

    ops = []
    q = 0
    for i in range(12):
        queries = [("invert_shear3", maps["shear3"], invert("shear3", shear_t[i])),
                   ("invert_polar_exp", maps["polar_exp"], invert("polar_exp", polar_t[i]))]
        if i % 2 == 0:
            queries.append(("implicit_cubic", maps["cubic"], implicit(float(implicit_x[i // 2]))))
        if i % 4 == 1:
            queries.append(("sheets_powk3", maps["powk3"], sheets(sheet_t[i // 4])))
        for kind, forms, (make_run, check) in queries:
            both_forms(ops, q, kind, forms, make_run, check)
            q += 1
    return ops


# ---------------------------------------------------------------------------
# certify: whole-map certification, fibers and branches


def build_certify(lk, seed):
    rng = np.random.default_rng(seed)
    powk = lk.resolve_map("powk(3)")
    maps = {
        "shear3": ((ANALYTIC, lk.resolve_map("shear3")), (EXPR, lk.resolve_map(SHEAR3))),
        "polar_exp": ((ANALYTIC, lk.resolve_map("polar_exp")), (EXPR, lk.resolve_map(POLAR_EXP))),
        "identity": ((ANALYTIC, lk.resolve_map("identity(2)")), (EXPR, lk.resolve_map(IDENTITY2))),
    }
    powk_forms = ((ANALYTIC, powk), (EXPR, lk.expression_map(
        POWK3, domain=powk.domain, codomain=powk.codomain)))
    plan = {
        "radii": PROFILE_RADII,
        "affine_weight": AFFINE_WEIGHT,
        "qi_half_width": QI_HALF_WIDTH,
        "cert_points": latin(rng, 64, [(-3.0, 3.0), (-3.0, 3.0)]),
        "shell_points": latin(rng, 2, [(-1.0, 1.0), (-1.0, 1.0)]),
    }
    weight = lk.AffineWeight(*AFFINE_WEIGHT)
    h = QI_HALF_WIDTH
    region = lk.Box([-h, -h], [h, h])
    origin = np.zeros(2)
    fiber_t = on_circles(latin(rng, 4, [(0.5, 4.0), (-math.pi, math.pi)]))
    # the annulus' bounding square: the same multistart for every target
    fiber_box = lk.Box([-2.0, -2.0], [2.0, 2.0])
    x_box = (float(strata(rng, 1, -0.2, -0.1)[0]), float(strata(rng, 1, 0.1, 0.2)[0]))
    fold = lk.ImplicitProblem(lk.resolve_map(FOLD_CUBIC), 1, [0.0])

    def certify(key):
        def make_run(f):
            def run():
                prof = lk.ball_infimum_profile(f, origin, radii=PROFILE_RADII,
                                               budget=PROFILE_BUDGET)
                cls = lk.classify_divergence(prof)
                cert = lk.weight_certificate(f, origin, weight, points=plan["cert_points"])
                qi = lk.quasi_isometry_bounds(f, region)
                shell = [lk.scalar_derivatives(f, p, method="shell_sampling")
                         for p in plan["shell_points"]]
                return {"infima": prof.infima.tolist(), "class": cls.klass,
                        "caveat": cls.caveat, "cert_margin": cert.worst_margin,
                        "cert_passed": bool(cert.passed), "qi_alpha": qi.alpha_hat,
                        "qi_beta": qi.beta_hat,
                        "shell": [[e.d_minus, e.d_plus] for e in shell]}
            return run
        return make_run, lambda ans: checks.check_certification(key, plan, ans)

    def fiber(tgt):
        def make_run(f):
            return lambda: {"preimages": [p.coords.tolist() for p in lk.fiber_enumerate(
                f, tgt, seed_region=fiber_box).preimages]}
        return make_run, lambda ans: checks.check_fiber(tgt, ans)

    def branches():
        rep = lk.branch_probe(fold, lk.Box([x_box[0]], [x_box[1]]), lk.Box([-2.0], [2.0]))
        return {"count": rep.count,
                "members": [[float(x[0]), float(y[0])] for g in rep.groups for x, y in g]}

    ops = []
    both_forms(ops, 0, "certify_shear3", maps["shear3"], *certify("shear3"), agree=False)
    both_forms(ops, 1, "fiber_powk3", powk_forms, *fiber(fiber_t[0]), agree=False)
    both_forms(ops, 0, "certify_polar_exp", maps["polar_exp"], *certify("polar_exp"), agree=False)
    both_forms(ops, 1, "fiber_powk3", powk_forms, *fiber(fiber_t[1]), agree=False)
    ops.append(Op("branch_probe", SINGLE, branches,
                  lambda ans: checks.check_branches(x_box, ans)))
    both_forms(ops, 0, "certify_identity", maps["identity"], *certify("identity"), agree=False)
    both_forms(ops, 1, "fiber_powk3", powk_forms, *fiber(fiber_t[2]), agree=False)
    both_forms(ops, 0, "fiber_powk3", powk_forms, *fiber(fiber_t[3]), agree=False)
    return ops


# ---------------------------------------------------------------------------
# cli: the command line's argument lists, run in process by traced runs


def _no_constant(name):
    raise CheckFailed("report contains %s" % name)


class CliChecker:
    """Checks one invocation's exit code and JSON report; remembers the
    first stdout of each invocation to demand byte-identical repeats."""

    def __init__(self, root):
        import jsonschema

        with open(os.path.join(root, "src", "liftkit", "report_schema.json"),
                  encoding="utf-8") as fh:
            self.validator = jsonschema.Draft7Validator(json.load(fh))
        self.first = {}

    def __call__(self, key, code, check_results, ans):
        require(ans["code"] == code, "%s exited %r, expected %r", key, ans["code"], code)
        doc = json.loads(ans["stdout"], parse_constant=_no_constant)
        errors = [e.message for e in self.validator.iter_errors(doc)]
        require(not errors, "%s report breaks the schema: %s", key, errors[:1])
        check_results(doc["results"])
        first = self.first.setdefault(key, ans["stdout"])
        require(first == ans["stdout"], "%s stdout differs between passes", key)


def cli_invocations(seed):
    """(kind, form, argv, exit code, results checker) for one pass."""
    rng = np.random.default_rng(seed)
    fiber_t, sheet_t = on_circles(latin(rng, 2, [(0.5, 4.0), (-math.pi, math.pi)]))
    deriv_p = latin(rng, 1, [(-1.0, 1.0), (-1.0, 1.0)])[0]
    implicit_x = float(strata(rng, 1, -8.0, 8.0)[0])
    x_box = (float(strata(rng, 1, -0.2, -0.1)[0]), float(strata(rng, 1, 0.1, 0.2)[0]))

    def vec(v):
        return ",".join(repr(float(c)) for c in v)

    def invert_ok(res):
        checks.close(res["preimage"], [1.0, 2.0], checks.INVERSE_TOL, "preimage of (9, 2)")

    def lift_ok(res):
        require(res["verdict"] in FAILURE_VERDICTS,
                "lift toward 0 through exp gave %r", res["verdict"])

    def hadamard_ok(res):
        cls = res["classification"]
        require(cls["class"] == "convergent", "exp profile classified %r", cls["class"])
        require(checks.NON_NECESSITY_WORDS in cls["caveat"], "caveat missing")
        checks.check_profile_infima(res["profile"]["radii"], res["profile"]["infima"],
                                    "polar_exp")  # e^x has the ball infimum e^{-t}

    def fiber_ok(res):
        require(res["count"] == 3, "fiber count %r", res["count"])
        checks.check_fiber(fiber_t, {"preimages": res["preimages"]})

    def sheets_ok(res):
        checks.check_sheets(sheet_t, {"sheets": res["sheets"], "orbit": res["orbit"]})

    def deriv_ok(res):
        smin, smax = checks.shear_sv(deriv_p[1])
        checks.close([res["jacobian_svd"]["d_minus"], res["jacobian_svd"]["d_plus"]],
                     [smin, smax], checks.QI_RTOL * smax, "jacobian singular values")
        est = res["shell_sampling"]
        require(abs(est["d_minus"] - smin) <= checks.SHELL_RTOL * smin
                and abs(est["d_plus"] - smax) <= checks.SHELL_RTOL * smax,
                "shell estimate %r, singular values (%r, %r)", est, smin, smax)

    def implicit_ok(res):
        require(res["verdict"] == "Completed", "implicit verdict %r", res["verdict"])
        checks.check_implicit(implicit_x, {"y": res["y_end"][0]})

    def branches_ok(res):
        members = [[m[0][0], m[1][0]] for g in res["members"] for m in g]
        checks.check_branches(x_box, {"count": res["groups"], "members": members})

    implicit_args = ["--x-dim", "1", "--w", "0", "--x-target=%r" % implicit_x,
                     "--start-x", "0", "--start-y", "0"]
    table = [
        # the three worked examples of the README, then one call per subcommand
        ("invert", ["invert", "--target", "9,2", "--start", "0,0"],
         "shear3", SHEAR3, 0, invert_ok),
        ("lift", ["lift", "--path", "seg:1,0", "--start", "0"],
         "expmap", EXPMAP, 1, lift_ok),
        ("hadamard", ["hadamard", "--center", "0"], "expmap", EXPMAP, 0, hadamard_ok),
        ("fiber", ["fiber", "--target=" + vec(fiber_t)], "powk(3)", POWK3, 0, fiber_ok),
        ("sheets", ["sheets", "--target=" + vec(sheet_t), "--start=" + vec(cube_root(*sheet_t))],
         "powk(3)", POWK3, 0, sheets_ok),
        ("deriv", ["deriv", "--point=" + vec(deriv_p)], "shear3", SHEAR3, 0, deriv_ok),
        ("implicit", ["implicit"] + implicit_args, "cubic_implicit", CUBIC, 0, implicit_ok),
    ]
    out = []
    for q, (kind, argv, builtin, expr, code, ok) in enumerate(table):
        forms = [(ANALYTIC, builtin), (EXPR, expr)]
        for form, spec in forms if q % 2 == 0 else forms[::-1]:
            out.append((kind, form, argv + ["--map", spec, "--json"], code, ok))
    out.append(("branches", SINGLE,
                ["implicit", "--branches", "--map", FOLD_CUBIC, "--x-dim", "1", "--w", "0",
                 "--x-box=%r:%r" % x_box, "--y-box=-2:2", "--json"], 0, branches_ok))
    return out


def cli_in_process(argv):
    def run():
        import liftkit.cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = liftkit.cli.run(argv)
        return {"code": code, "stdout": out.getvalue()}
    return run


def build_cli_ops(seed, checker):
    ops = []
    for kind, form, argv, code, ok in cli_invocations(seed):
        key = " ".join(argv)
        check = (lambda ans, key=key, code=code, ok=ok: checker(key, code, ok, ans))
        ops.append(Op(kind, form, cli_in_process(argv), check))
    return ops
