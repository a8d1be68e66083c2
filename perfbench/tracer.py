"""Span tracer for the traced benchmark run.

The tracer wraps liftkit's public functions from outside: it replaces
each function object wherever a liftkit module (or numpy/scipy) holds a
reference to it, and restores the originals on exit. liftkit's own code
is not edited. Spans (name, start, end, parent span, operation id) stay
in memory and are written out once, when the run ends.

A span's self time is its duration minus the time covered by its child
spans. Counts (calls, points, iterations, nodes, ...) come from the
arguments and results of the wrapped calls, so they depend only on the
inputs and not on the machine.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _n_rows(block):
    shape = np.shape(block)
    return int(shape[0]) if len(shape) >= 1 else 1


def _eval_ast_points(args, kwargs, out):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"points": int(np.size(x[0])) if len(x) else 1}


def _svd_matrices(args, kwargs, out):
    shape = np.shape(args[0])
    return {"matrices": int(np.prod(shape[:-2])) if len(shape) > 2 else 1}


# (layer name, module, attribute, class or None, stats hook). The stats
# hook maps (args, kwargs, result) to counts added to the layer's totals.
TARGETS = [
    ("exprlang.eval_ast", "liftkit.exprlang", "eval_ast", None, _eval_ast_points),
    ("exprlang.jacobian_ad", "liftkit.exprlang", "jacobian_ad", None, None),
    ("mapdef.MapHandle.eval", "liftkit.mapdef", "eval", "MapHandle", None),
    ("mapdef.MapHandle.eval_many", "liftkit.mapdef", "eval_many", "MapHandle",
     lambda a, k, out: {"points": _n_rows(out)}),
    ("mapdef.MapHandle.jacobians_many", "liftkit.mapdef", "jacobians_many",
     "MapHandle", lambda a, k, out: {"points": _n_rows(out)}),
    ("mapdef.jacobian_at", "liftkit.mapdef", "jacobian_at", None, None),
    ("mapdef.local_solve", "liftkit.mapdef", "local_solve", None,
     lambda a, k, out: {"iterations": int(out.iterations)}),
    ("numpy.linalg.svd", "numpy.linalg", "svd", None, _svd_matrices),
    ("scipy.optimize.minimize", "scipy.optimize", "minimize", None,
     lambda a, k, out: {"nfev": int(out.nfev)}),
    ("sampling.unit_box_points", "liftkit.sampling", "unit_box_points", None,
     lambda a, k, out: {"points": _n_rows(out)}),
    ("sampling.sphere_directions", "liftkit.sampling", "sphere_directions", None,
     lambda a, k, out: {"points": _n_rows(out)}),
    ("sderiv.scalar_derivatives", "liftkit.sderiv", "scalar_derivatives", None, None),
    ("lift.lift_path", "liftkit.lift", "lift_path", None,
     lambda a, k, out: {"nodes": len(out.nodes), "accepted": len(out.nodes) - 1}),
    ("hadamard.ball_infimum_profile", "liftkit.hadamard", "ball_infimum_profile",
     None, None),
    ("hadamard.classify_divergence", "liftkit.hadamard", "classify_divergence",
     None, None),
    ("hadamard.weight_certificate", "liftkit.hadamard", "weight_certificate",
     None, None),
    ("globalinv.invert_at", "liftkit.globalinv", "invert_at", None, None),
    ("globalinv.sheet_count", "liftkit.globalinv", "sheet_count", None, None),
    ("globalinv.fiber_enumerate", "liftkit.globalinv", "fiber_enumerate", None,
     lambda a, k, out: {"preimages": out.count, "starts": out.n_starts}),
    ("globalinv.quasi_isometry_bounds", "liftkit.globalinv",
     "quasi_isometry_bounds", None, None),
    ("implicit.davidenko_lift", "liftkit.implicit", "davidenko_lift", None,
     lambda a, k, out: {"nodes": len(out.nodes)}),
    ("implicit.implicit_eval", "liftkit.implicit", "implicit_eval", None, None),
    ("implicit.branch_probe", "liftkit.implicit", "branch_probe", None, None),
    ("cli.run", "liftkit.cli", "run", None, None),
]


class Tracer:
    """Records spans and per-layer totals while installed."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        # one entry per closed span; ids are handed out in start order
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self._next_span = 0
        self._stack = []  # [span id, name id, start, child time]
        self.op_id = -1
        self.totals = defaultdict(lambda: defaultdict(float))
        self.child_calls = defaultdict(int)  # (parent name, child name)
        self._patched = []
        self._t0 = time.perf_counter()

    def _id(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _wrap(self, name, fn, stats):
        nid = self._id(name)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_span
            tracer._next_span += 1
            frame = [sid, nid, time.perf_counter(), 0.0]
            stack.append(frame)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[2]
                tot = tracer.totals[name]
                tot["calls"] += 1
                tot["self_s"] += dur - frame[3]
                if not ok:
                    tot["failures"] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += dur
                    tracer.child_calls[(tracer.names[parent[1]], name)] += 1
                tracer.span_id.append(sid)
                tracer.span_name.append(nid)
                tracer.span_start.append(frame[2] - tracer._t0)
                tracer.span_end.append(end - tracer._t0)
                tracer.span_parent.append(parent[0] if parent is not None else -1)
                tracer.span_op.append(tracer.op_id)
            if stats is not None:
                for key, val in stats(args, kwargs, out).items():
                    tot[key] += val
            return out

        return traced

    def install(self):
        """Replace every reference to each target with its wrapper."""
        for modname in {t[1] for t in TARGETS}:
            importlib.import_module(modname)
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "liftkit" or n.startswith("liftkit."))]
        for name, modname, attr, cls, stats in TARGETS:
            owner = sys.modules[modname]
            if cls is not None:
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, stats)
            holders = [owner] + [m for m in mods if m is not owner]
            for holder in holders:
                if holder.__dict__.get(attr) is orig:
                    setattr(holder, attr, wrapper)
                    self._patched.append((holder, attr, orig))

    def uninstall(self):
        for holder, attr, orig in reversed(self._patched):
            setattr(holder, attr, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_metrics(self):
        """Per-layer totals as flat metric names <layer>.<stat>."""
        out = {}
        for name in (t[0] for t in TARGETS):
            tot = self.totals.get(name, {})
            out[name + ".calls"] = int(tot.get("calls", 0))
            out[name + ".self_s"] = float(tot.get("self_s", 0.0))
            for key, val in tot.items():
                if key not in ("calls", "self_s"):
                    out["%s.%s" % (name, key)] = int(val)
        attempts = self.child_calls.get(("lift.lift_path", "mapdef.local_solve"), 0)
        lp = self.totals.get("lift.lift_path", {})
        out["lift.lift_path.accept_ratio"] = (
            lp.get("accepted", 0) / attempts if attempts else 0.0
        )
        fe = self.totals.get("globalinv.fiber_enumerate", {})
        out["globalinv.fiber_enumerate.yield"] = (
            fe.get("preimages", 0) / fe["starts"] if fe.get("starts") else 0.0
        )
        out["mapdef.local_solve.failures"] = int(
            self.totals.get("mapdef.local_solve", {}).get("failures", 0)
        )
        return out

    def write_spans(self, path):
        """Write every span as one CSV line (gzip): id, name, start,
        end, parent id, operation id; times in seconds from the tracer's
        creation."""
        order = sorted(range(len(self.span_id)), key=self.span_id.__getitem__)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i in order:
                fh.write("%d,%s,%.9f,%.9f,%d,%d\n" % (
                    self.span_id[i], self.names[self.span_name[i]],
                    self.span_start[i], self.span_end[i], self.span_parent[i],
                    self.span_op[i]))
