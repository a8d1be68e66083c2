"""Command line interface.

Subcommands map one-to-one onto the library's operations; every run
emits a report with a fixed JSON shape (see report_schema.json) and
optional CSV artifacts. Exit codes: 0 success, 1 the tool ran but the
method failed or refuted (failed lift, rejected weight, failed
certificate), 2 bad input.

Path specs: seg:ax,ay,bx,by (flat halves), loop:cx,cy,r[,winding[,phase]],
poly:x1,y1;x2,y2;..., expr:(c1, c2):t0:t1, or a registry path name.
Region specs: lo1,lo2:hi1,hi2. Weight specs: constant:c, affine:a,b,
power:a,b,gamma, expr:<formula in t>.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from .errors import InputError, LiftkitError
from .geometry import (
    LENGTH_RTOL,
    Box,
    Euclidean,
    ExpressionPath,
    Loop,
    Segment,
    chart_norm,
    path_length,
    polyline,
)
from .globalinv import (
    FIBER_TOL,
    TRANSLATION_TOL,
    fiber_enumerate,
    invert_at,
    sheet_count,
)
from .hadamard import (
    CERT_TOL,
    FIT_RMS_THRESHOLD,
    ball_infimum_profile,
    classify_divergence,
    validate_weight,
    weight_certificate,
)
from .implicit import (
    PROJECT_TOL,
    RESIDUAL_TOL,
    SINGULAR_THRESHOLD,
    ImplicitProblem,
    branch_probe,
    davidenko_lift,
)
from .lift import ContinuationFailure, LiftOptions, analyze_trace, lift_path
from .mapdef import resolve_map
from .meanvalue import CERT_REL_SLACK, find_tau, length_bounds_report, mapped_path
from .registry import Registry, _parse_knots, parse_vector, parse_weight_spec
from .report import Report, validate_report
from .sderiv import (
    SHELL_DIRS_PER_DIM,
    SHELL_LEVELS,
    SURJECTION_DIRS_PER_DIM,
    scalar_derivatives,
    surjection_constant,
)

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2


def _vec(text):
    return parse_vector(text)


def _box(text, dim):
    parts = str(text).split(":")
    if len(parts) != 2:
        raise LiftkitError("region spec needs lo:hi, got %r" % text)
    lo, hi = _vec(parts[0]), _vec(parts[1])
    if lo.size == 1 and dim > 1:
        lo = np.full(dim, lo[0])
    if hi.size == 1 and dim > 1:
        hi = np.full(dim, hi[0])
    if lo.size != dim or hi.size != dim:
        raise LiftkitError("region spec has dimension %d, need %d" % (lo.size, dim))
    return Box(lo, hi)


def _path(spec, space, reg):
    spec = str(spec).strip()
    if spec.startswith("seg:"):
        flat = _vec(spec[4:])
        if flat.size != 2 * space.dim:
            raise LiftkitError(
                "segment spec needs %d numbers (start then end), got %d"
                % (2 * space.dim, flat.size)
            )
        return Segment(space, flat[: space.dim], flat[space.dim :])
    if spec.startswith("loop:"):
        flat = _vec(spec[5:])
        if space.dim != 2:
            raise LiftkitError("loops need a 2-d space")
        if flat.size < 3 or flat.size > 5:
            raise LiftkitError("loop spec is cx,cy,r[,winding[,phase]]")
        winding = flat[3] if flat.size >= 4 else 1  # Loop refuses a non-integer
        phase = float(flat[4]) if flat.size == 5 else 0.0
        return Loop(space, flat[:2], float(flat[2]), winding=winding, phase=phase)
    if spec.startswith("poly:"):
        try:
            return polyline(space, _parse_knots(spec[5:]))
        except ValueError:
            raise InputError("poly knots need one length, got %r" % spec) from None
    if spec.startswith("expr:"):
        try:
            comps, t0, t1 = spec[5:].rsplit(":", 2)
            interval = (float(t0), float(t1))
        except ValueError:
            raise InputError("expression path spec is expr:(c1, c2):t0:t1") from None
        return ExpressionPath(space, comps, interval)
    if reg is not None and reg.has_path(spec):
        return reg.get_path(spec, space)
    raise LiftkitError(
        "unknown path spec %r (seg:/loop:/poly:/expr: or a registry name)" % spec
    )


def _map(args, reg):
    return resolve_map(args.map, registry=reg)


def _weight(spec, reg):
    """The registry's weight named spec, else the weight spec parsed."""
    if reg is not None and reg.has_weight(spec):
        return reg.get_weight(spec)
    return parse_weight_spec(spec)


def _tol(text):
    """--tol's reader: a finite positive number, else an InputError."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise InputError("--tol must be a finite positive number, got %r" % text)
    return tol


def _count(flag):
    """The reader of the count option flag: an integer >= 1, else an
    InputError that names flag."""

    def read(text):
        try:
            n = int(text)
        except ValueError:
            n = 0
        if n < 1:
            raise InputError("%s must be an integer >= 1, got %r" % (flag, text))
        return n

    return read


def _add_tol(p, default, what):
    """--tol on a subcommand that reads it, setting its what."""
    p.add_argument(
        "--tol",
        type=_tol,
        default=default,
        help="%s, a finite positive number (default %g)" % (what, default),
    )


def _verdict_entries(key, v):
    """A continuation verdict as report verdicts: its kind under key,
    with the engine's note and the failure's cause when it has them."""
    out = {key: v.kind}
    if v.engine_note:
        out["note"] = v.engine_note
    if v.message:
        out["cause"] = v.message
    return out


def _point_list(points):
    return [[float(v) for v in p.coords] for p in points]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report, files, exit_code)


def cmd_deriv(args, reg):
    f = _map(args, reg)
    x = _vec(args.point)
    methods = (
        ["jacobian_svd", "shell_sampling"]
        if args.method == "both"
        else [args.method]
    )
    results = {}
    for m in methods:
        est = scalar_derivatives(f, x, method=m)
        results[m] = {"d_minus": est.d_minus, "d_plus": est.d_plus}
    if args.surjection:
        s = surjection_constant(f, x)
        results["surjection"] = {"value": s.value, "note": s.note}
    rep = Report(
        command="deriv",
        inputs={"map": args.map, "point": list(x), "method": args.method},
        results=results,
        verdicts={"status": "estimated"},
        tolerances={
            "shell_levels": SHELL_LEVELS + 1,
            "shell_dirs_per_dim": SHELL_DIRS_PER_DIM,
            "surjection_dirs_per_dim": SURJECTION_DIRS_PER_DIM,
        },
        seed=args.seed,
    )
    return rep, {}, EXIT_OK


def cmd_length(args, reg):
    if args.map:
        f = _map(args, reg)
        space = f.domain
    else:
        if not args.dim:
            raise LiftkitError("length needs --map or --dim")
        f = None
        space = Euclidean(int(args.dim))
    p = _path(args.path, space, reg)
    res = path_length(p)
    results = {
        "length": res.value,
        "partitions": res.partitions_used,
        "converged": res.converged,
    }
    code = EXIT_OK if res.converged else EXIT_VERDICT
    if f is not None:
        mp = mapped_path(f, p)
        mres = path_length(mp)
        results["mapped_length"] = mres.value
        results["mapped_converged"] = mres.converged
        if not mres.converged:
            code = EXIT_VERDICT
    rep = Report(
        command="length",
        inputs={"path": args.path, "map": args.map, "dim": args.dim},
        results=results,
        verdicts={"converged": results["converged"]},
        tolerances={"rel_tol": LENGTH_RTOL},
        seed=args.seed,
    )
    return rep, {}, code


def cmd_meanvalue(args, reg):
    f = _map(args, reg)
    q = _path(args.path, f.domain, reg)
    directions = (
        ["upper", "lower"] if args.direction == "both" else [args.direction]
    )
    results = {}
    verdicts = {}
    code = EXIT_OK
    for d in directions:
        try:
            cert = find_tau(f, q, direction=d)
        except LiftkitError as err:
            results[d] = {"error": str(err)}
            verdicts[d] = "not applicable"
            continue
        results[d] = {
            "tau": cert.tau,
            "tau_point": list(cert.tau_point),
            "global_ratio": cert.global_ratio,
            "derivative_at_tau": cert.derivative_at_tau,
            "final_slack": cert.final_slack,
            "depth": cert.depth,
        }
        verdicts[d] = "passed" if cert.passed else "failed"
        if not cert.passed:
            code = EXIT_VERDICT
    bounds = length_bounds_report(f, q, n_samples=args.samples)
    results["length_bounds"] = {
        "len_q": bounds.len_q,
        "len_p": bounds.len_p,
        "sup_d_plus": bounds.sup_d_plus,
        "inf_d_minus": bounds.inf_d_minus,
        "upper_pass": bounds.upper_pass,
        "lower_pass": bounds.lower_pass,
        "lower_skipped": bounds.lower_skipped,
        "skip_reason": bounds.skip_reason,
    }
    ok_bounds = bounds.upper_pass and (bounds.lower_skipped or bounds.lower_pass)
    verdicts["length_bounds"] = "passed" if ok_bounds else "failed"
    if not ok_bounds:
        code = EXIT_VERDICT
    rep = Report(
        command="meanvalue",
        inputs={"map": args.map, "path": args.path, "direction": args.direction},
        results=results,
        verdicts=verdicts,
        tolerances={"certificate_rel_slack": CERT_REL_SLACK, "samples": args.samples},
        seed=args.seed,
    )
    return rep, {}, code


def cmd_lift(args, reg):
    f = _map(args, reg)
    p = _path(args.path, f.codomain, reg)
    x0 = _vec(args.start)
    opts = LiftOptions(corrector_tol=args.tol)
    trace = lift_path(f, p, x0, opts)
    analysis = analyze_trace(trace)
    v = trace.verdict
    results = {
        "verdict": v.kind,
        "b": v.b,
        "final_point": list(trace.final_coords),
        "final_residual": trace.nodes[-1].residual,
        "lift_length": trace.lift_length,
        "nodes": len(trace.nodes),
        "alpha_hat": analysis.alpha_hat,
        "tail_diameters": [[t, d] for t, d in analysis.tail_diameters],
    }
    rep = Report(
        command="lift",
        inputs={"map": args.map, "path": args.path, "start": list(x0)},
        results=results,
        verdicts=_verdict_entries("lift", v),
        tolerances={"corrector_tol": opts.corrector_tol},
        seed=args.seed,
        artifacts=["lift_trace.csv"] if args.out else [],
    )
    files = {"lift_trace.csv": trace.to_csv()}
    return rep, files, EXIT_OK if v.completed else EXIT_VERDICT


def cmd_invert(args, reg):
    f = _map(args, reg)
    y = _vec(args.target)
    x0 = _vec(args.start)
    opts = LiftOptions(corrector_tol=args.tol)
    try:
        pre = invert_at(f, y, x0, opts)
    except ContinuationFailure as fail:
        v = fail.verdict
        rep = Report(
            command="invert",
            inputs={"map": args.map, "target": list(y), "start": list(x0)},
            results={"verdict": v.kind, "b": v.b},
            verdicts=_verdict_entries("invert", v),
            tolerances={"corrector_tol": opts.corrector_tol},
            seed=args.seed,
        )
        return rep, {}, EXIT_VERDICT
    resid = f.codomain.distance_one(f.eval(pre.coords).tolist(), y.tolist())
    rep = Report(
        command="invert",
        inputs={"map": args.map, "target": list(y), "start": list(x0)},
        results={"preimage": list(pre.coords), "forward_residual": resid},
        verdicts={"invert": "Completed"},
        tolerances={"corrector_tol": opts.corrector_tol},
        seed=args.seed,
    )
    return rep, {}, EXIT_OK


def cmd_fiber(args, reg):
    f = _map(args, reg)
    y = _vec(args.target)
    region = _box(args.region, f.domain.dim) if args.region else None
    report = fiber_enumerate(
        f, y, seed_region=region, n_starts=args.n_starts, tol=args.tol
    )
    rows = ["x_%d" % (i + 1) for i in range(f.domain.dim)] + ["residual"]
    lines = [",".join(rows)]
    for pt, r in zip(report.preimages, report.residuals):
        lines.append(",".join("%.17g" % v for v in list(pt.coords) + [r]))
    rep = Report(
        command="fiber",
        inputs={"map": args.map, "target": list(y), "n_starts": args.n_starts},
        results={
            "count": report.count,
            "preimages": _point_list(report.preimages),
            "residuals": list(report.residuals),
            "note": report.note,
        },
        verdicts={"fiber": "enumerated", "completeness": "best-effort"},
        tolerances={"residual_tol": args.tol, "n_starts": args.n_starts},
        seed=args.seed,
        artifacts=["fiber.csv"] if args.out else [],
    )
    return rep, {"fiber.csv": "\n".join(lines) + "\n"}, EXIT_OK


def cmd_sheets(args, reg):
    f = _map(args, reg)
    y = _vec(args.target)
    x0 = _vec(args.start)
    if args.loop:
        loop = _path(args.loop, f.codomain, reg)
    else:
        if f.codomain.dim != 2:
            raise LiftkitError("default loop needs a 2-d codomain; pass --loop")
        r = chart_norm(y)
        if r == 0:
            raise LiftkitError("target at the origin; pass --loop explicitly")
        loop = Loop(
            f.codomain, np.zeros(2), r, winding=1, phase=math.atan2(y[1], y[0])
        )
    report = sheet_count(f, y, loop, x0, max_orbit=args.max_orbit)
    mono = dict(report.monodromy or {})
    if "vector" in mono:
        mono["vector"] = [float(v) for v in mono["vector"]]
    results = {
        "sheets": report.sheets,
        "orbit": _point_list(report.preimages),
        "monodromy": mono,
        "note": report.note,
    }
    verdicts = {"orbit": "closed" if report.sheets else "open"}
    code = EXIT_OK
    if report.verdict is not None:
        verdicts.update(_verdict_entries("lift", report.verdict))
        verdicts["orbit"] = "aborted"
        code = EXIT_VERDICT
    rep = Report(
        command="sheets",
        inputs={
            "map": args.map,
            "target": list(y),
            "start": list(x0),
            "max_orbit": args.max_orbit,
            "loop": args.loop,
        },
        results=results,
        verdicts=verdicts,
        tolerances={"translation_tol": TRANSLATION_TOL, "max_orbit": args.max_orbit},
        seed=args.seed,
    )
    return rep, {}, code


def cmd_hadamard(args, reg):
    results = {}
    verdicts = {}
    files = {}
    artifacts = []
    code = EXIT_OK
    tolerances = {
        "fit_rms_threshold": FIT_RMS_THRESHOLD,
        "certificate_tol": CERT_TOL,
        "multistarts": args.budget,
    }

    weight = None
    if args.weight:
        weight = _weight(args.weight, reg)
        val = validate_weight(weight)
        results["weight"] = {
            "description": weight.describe(),
            "ok": val.ok,
            "divergence": val.divergence,
            "reasons": list(val.reasons),
        }
        verdicts["weight"] = "accepted" if val.ok else "rejected"
        if not val.ok:
            code = EXIT_VERDICT

    if args.map and args.center is not None:
        f = _map(args, reg)
        x0 = _vec(args.center)
        profile = ball_infimum_profile(f, x0, budget=args.budget)
        cls = classify_divergence(profile)
        results["profile"] = {
            "radii": list(profile.radii),
            "infima": list(profile.infima),
            "partial_integrals": list(profile.partial_integrals),
            "samples_per_radius": [int(c) for c in profile.samples_per_radius],
            "regular": profile.regular,
            "budget": profile.budget,
        }
        results["classification"] = {
            "class": cls.klass,
            "best_model": cls.best_model,
            "fit_report": cls.fit_report,
            "caveat": cls.caveat,
            "window": list(cls.window),
        }
        verdicts["classification"] = cls.klass
        if args.out:
            artifacts.append("profile.csv")
        files["profile.csv"] = profile.to_csv()

        if weight is not None and results["weight"]["ok"]:
            region = (
                _box(args.certify_region, f.domain.dim)
                if args.certify_region
                else None
            )
            cert = weight_certificate(
                f, x0, weight, sample_region=region, n_samples=args.samples
            )
            results["certificate"] = {
                "passed": cert.passed,
                "worst_margin": cert.worst_margin,
                "worst_point": list(cert.worst_point),
                "n_samples": cert.n_samples,
                "note": cert.note,
            }
            verdicts["certificate"] = "passed" if cert.passed else "failed"
            if not cert.passed:
                code = EXIT_VERDICT
    elif not args.weight:
        raise LiftkitError("hadamard needs --map with --center, or --weight")

    rep = Report(
        command="hadamard",
        inputs={
            "map": args.map,
            "center": args.center,
            "weight": args.weight,
            "budget": args.budget,
        },
        results=results,
        verdicts=verdicts,
        tolerances=tolerances,
        seed=args.seed,
        artifacts=artifacts,
    )
    return rep, files, code


def cmd_implicit(args, reg):
    if args.problem:
        if reg is None:
            raise LiftkitError("--problem needs --registry")
        prob = reg.get_implicit(args.problem)
    else:
        if not (args.map and args.x_dim and args.w is not None):
            raise LiftkitError(
                "implicit needs --problem, or --map with --x-dim and --w"
            )
        f = _map(args, reg)
        prob = ImplicitProblem(f, int(args.x_dim), _vec(args.w))

    tolerances = {
        "residual_tol": args.tol,
        "project_tol": PROJECT_TOL,
        "singular_threshold": SINGULAR_THRESHOLD,
    }
    inputs = {
        "problem": args.problem,
        "map": args.map,
        "x_dim": args.x_dim,
        "w": args.w,
    }

    if args.branches:
        if not (args.x_box and args.y_box):
            raise LiftkitError("--branches needs --x-box and --y-box")
        repb = branch_probe(
            prob,
            _box(args.x_box, prob.m),
            _box(args.y_box, prob.n),
            n_starts=args.n_starts,
        )
        rep = Report(
            command="implicit",
            inputs=dict(inputs, mode="branches"),
            results={
                "groups": repb.count,
                "x_grid": [list(x) for x in repb.x_grid],
                "members": [
                    [[list(x), list(yv)] for x, yv in grp] for grp in repb.groups
                ],
                "note": repb.note,
            },
            verdicts={"branches": "probed"},
            tolerances=tolerances,
            seed=args.seed,
        )
        return rep, {}, EXIT_OK

    weight = _weight(args.weight, reg) if args.weight else None

    if args.x_path:
        p = _path(args.x_path, prob.x_space, reg)
        if args.y0 is None:
            raise LiftkitError("davidenko mode needs --y0")
        y0 = _vec(args.y0)
    elif args.x_target:
        if args.start_x is None or args.start_y is None:
            raise LiftkitError("eval mode needs --start-x and --start-y")
        p = Segment(prob.x_space, _vec(args.start_x), _vec(args.x_target))
        y0 = _vec(args.start_y)
    else:
        raise LiftkitError("implicit needs --x-path/--y0, --x-target, or --branches")

    trace = davidenko_lift(prob, p, y0, weight=weight, residual_tol=args.tol)
    v = trace.verdict
    results = {
        "verdict": v.kind,
        "b": v.b,
        "y_end": list(trace.final_y),
        "x_end": list(trace.nodes[-1].x),
        "final_residual": trace.nodes[-1].residual,
        "max_residual": max(n.residual for n in trace.nodes),
        "nodes": len(trace.nodes),
    }
    verdicts = _verdict_entries("continuation", v)
    if weight is not None:
        results["weight_check"] = trace.weight_check
        results["monitor_ok"] = trace.monitor_ok
        results["weight_note"] = trace.weight_note
        verdicts["weight_bound"] = trace.weight_check
    rep = Report(
        command="implicit",
        inputs=dict(
            inputs,
            x_path=args.x_path,
            x_target=args.x_target,
            weight=args.weight,
        ),
        results=results,
        verdicts=verdicts,
        tolerances=tolerances,
        seed=args.seed,
        artifacts=["implicit_trace.csv"] if args.out else [],
    )
    files = {"implicit_trace.csv": trace.to_csv()}
    return rep, files, EXIT_OK if v.completed else EXIT_VERDICT


def cmd_registry(args, reg):
    if reg is None:
        raise LiftkitError("registry command needs --registry FILE")
    names = reg.names()
    if args.action == "list":
        rep = Report(
            command="registry",
            inputs={"registry": args.registry, "action": "list"},
            results=names,
            verdicts={"registry": "listed"},
            tolerances={},
            seed=args.seed,
        )
        return rep, {}, EXIT_OK
    problems = reg.validate()
    rep = Report(
        command="registry",
        inputs={"registry": args.registry, "action": "validate"},
        results={
            "sections": names,
            "problems": [{"section": s, "error": e} for s, e in problems],
        },
        verdicts={"registry": "valid" if not problems else "invalid"},
        tolerances={},
        seed=args.seed,
    )
    return rep, {}, EXIT_OK if not problems else EXIT_INPUT


# ---------------------------------------------------------------------------
# wiring


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--registry", help="registry file with named objects")
    common.add_argument("--seed", type=int, default=0, help="recorded RNG seed")
    common.add_argument("--out", help="directory for the report and CSV artifacts")
    common.add_argument(
        "--json", action="store_true", help="print the JSON report to stdout"
    )

    ap = argparse.ArgumentParser(
        prog="liftkit",
        description="path lifting, global inversion, and implicit continuation",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("deriv", parents=[common], help="scalar derivative estimates")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)
    p.add_argument(
        "--method",
        default="both",
        choices=["both", "jacobian_svd", "shell_sampling"],
    )
    p.add_argument("--surjection", action="store_true")
    p.set_defaults(func=cmd_deriv)

    p = sub.add_parser("length", parents=[common], help="path length")
    p.add_argument("--path", required=True)
    p.add_argument("--map")
    p.add_argument("--dim", type=int)
    p.set_defaults(func=cmd_length)

    p = sub.add_parser(
        "meanvalue", parents=[common], help="mean value certificates and bounds"
    )
    p.add_argument("--map", required=True)
    p.add_argument("--path", required=True)
    p.add_argument(
        "--direction", default="both", choices=["both", "upper", "lower"]
    )
    p.add_argument("--samples", type=int, default=256)
    p.set_defaults(func=cmd_meanvalue)

    p = sub.add_parser("lift", parents=[common], help="lift a path through a map")
    p.add_argument("--map", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--start", required=True)
    _add_tol(p, LiftOptions.corrector_tol, "corrector tolerance")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("invert", parents=[common], help="global inverse at a point")
    p.add_argument("--map", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--start", required=True)
    _add_tol(p, LiftOptions.corrector_tol, "corrector tolerance")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("fiber", parents=[common], help="enumerate a fiber")
    p.add_argument("--map", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--n-starts", type=_count("--n-starts"), default=64)
    p.add_argument("--region", help="seed region lo:hi")
    _add_tol(p, FIBER_TOL, "Newton residual tolerance")
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("sheets", parents=[common], help="sheet count by loop orbit")
    p.add_argument("--map", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--loop", help="loop spec; default circles the origin")
    p.add_argument("--max-orbit", type=int, default=8)
    p.set_defaults(func=cmd_sheets)

    p = sub.add_parser(
        "hadamard", parents=[common], help="ball-infimum profile and weights"
    )
    p.add_argument("--map")
    p.add_argument("--center")
    p.add_argument("--budget", type=int, default=32)
    p.add_argument("--weight", help="weight spec or registry weight name")
    p.add_argument("--certify-region", help="certificate sampling region lo:hi")
    p.add_argument("--samples", type=_count("--samples"), default=512)
    p.set_defaults(func=cmd_hadamard)

    p = sub.add_parser(
        "implicit", parents=[common], help="implicit-function continuation"
    )
    p.add_argument("--problem", help="registry implicit problem name")
    p.add_argument("--map")
    p.add_argument("--x-dim", type=int)
    p.add_argument("--w")
    p.add_argument("--x-path")
    p.add_argument("--y0")
    p.add_argument("--x-target")
    p.add_argument("--start-x")
    p.add_argument("--start-y")
    p.add_argument("--weight")
    p.add_argument("--branches", action="store_true")
    p.add_argument("--x-box")
    p.add_argument("--y-box")
    p.add_argument("--n-starts", type=_count("--n-starts"), default=32)
    _add_tol(p, RESIDUAL_TOL, "start residual tolerance")
    p.set_defaults(func=cmd_implicit)

    p = sub.add_parser("registry", parents=[common], help="inspect a registry file")
    p.add_argument(
        "action", nargs="?", default="list", choices=["list", "validate"]
    )
    p.set_defaults(func=cmd_registry)

    return ap


def _emit(report, files, args):
    validate_report(report)
    text = report.to_json()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        report.write(os.path.join(args.out, "report.json"))
        for name, content in files.items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
                fh.write(content)
    if args.json:
        sys.stdout.write(text)
    else:
        doc = report.to_dict()
        print("command: %s" % doc["command"])
        for key, value in sorted(doc["verdicts"].items()):
            print("%s: %s" % (key, value))
        for key, value in sorted(doc["results"].items()):
            line = repr(value)
            if len(line) > 120:
                line = line[:117] + "..."
            print("%s: %s" % (key, line))
        if args.out:
            print("report written to %s" % os.path.join(args.out, "report.json"))


def run(argv):
    """Entry point; returns the process exit code. A value that starts
    with a minus sign (--point -1,2) is joined to its option as
    --point=-1,2, so that it is not taken for an option."""
    parser = build_parser()
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if re.fullmatch(r"--[\w-]+", argv[i - 1]) and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [argv[i - 1] + "=" + argv[i]]
    try:
        args = parser.parse_args(argv)  # the --tol and count readers raise InputError
        reg = Registry.from_file(args.registry) if args.registry else None
        report, files, code = args.func(args, reg)
        _emit(report, files, args)
        return code
    except SystemExit as exc:
        return int(exc.code or 0)
    except LiftkitError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
