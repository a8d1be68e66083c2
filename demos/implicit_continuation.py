"""Tracking implicit solutions y(x) of f(x, y) = w.

Continuation lifts the driving path t -> (x(t), w) through the
projection map (x, y) -> (x, f(x, y)) with the path-lifting engine,
whose Newton corrector keeps the residual at solver tolerance at every
node. Folds, where the y-block of the Jacobian loses rank, stop the
trace with a Singular verdict instead of jumping branches.
"""

import numpy as np

from liftkit import (
    ImplicitProblem,
    Segment,
    branch_probe,
    davidenko_lift,
    expression_map,
    implicit_eval,
    resolve_map,
)
from liftkit.geometry import Box

print("== a cubic section ==")
cubic = ImplicitProblem(resolve_map("cubic_implicit"), 1, np.array([0.0]))
seg = Segment(cubic.x_space, np.array([0.0]), np.array([2.0]))
trace = davidenko_lift(cubic, seg, np.array([0.0]))
print("y^3 + y = x from (0, 0) to x = 2")
print("verdict %s after %d nodes, y(2) = %.12f" % (trace.verdict.kind, len(trace.nodes), trace.final_y[0]))
print("worst residual along the trace: %.1e" % max(n.residual for n in trace.nodes))

print()
print("== a Kepler-style equation ==")
kepler = ImplicitProblem(
    expression_map("y + 0.5*sin(y) - x", variables=("x", "y")), 1, np.array([0.0])
)
trace = davidenko_lift(kepler, Segment(kepler.x_space, np.array([0.0]), np.array([1.0])), np.array([0.0]))
print("y + 0.5 sin(y) = x, driven from x = 0 to 1")
print("y(1) = %.12f" % trace.final_y[0])

print()
print("== a fold ends the branch ==")
fold = ImplicitProblem(
    expression_map("y^3 - y - x", variables=("x", "y")), 1, np.array([0.0])
)
x_fold = -2.0 / (3.0 * np.sqrt(3.0))
trace = davidenko_lift(fold, Segment(fold.x_space, np.array([0.0]), np.array([x_fold])), np.array([1.0]))
print("y^3 - y = x from (0, 1) toward the fold at x = %.6f" % x_fold)
print("verdict: %s" % trace.verdict.kind)
print("smallest singular value of the y-block at the stop: %.1e" % trace.nodes[-1].jy_smin)
print("y stalled at %.6f (fold ordinate 1/sqrt(3) = %.6f)" % (trace.final_y[0], 1 / np.sqrt(3)))

print()
print("== shortcut evaluation and branch counting ==")
y2 = implicit_eval(cubic, np.array([2.0]), (np.array([0.0]), np.array([0.0])))
print("implicit_eval reaches y(2) = %.12f in one call" % y2.coords[0])

parabola = ImplicitProblem(
    expression_map("y^2 - x", variables=("x", "y")), 1, np.array([0.0])
)
rep = branch_probe(
    parabola, Box(np.array([1.0]), np.array([1.0])), Box(np.array([-2.0]), np.array([2.0]))
)
print("y^2 = x probed at x = 1: %d branches (the two square roots)" % len(rep.groups))
