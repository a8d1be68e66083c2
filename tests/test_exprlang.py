"""Expression language: parsing, evaluation, forward-mode derivatives."""

import math
import os
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liftkit.errors import EvalDomainError, ParseError
from liftkit.exprlang import (
    FUNCTION_NAMES,
    Num,
    _generate,
    compile_map,
    eval_ast,
    jacobian_ad,
    parse,
    parse_single,
    pretty,
    substitute,
)
from liftkit.hadamard import ExpressionWeight
from liftkit.mapdef import resolve_map


def test_tuple_source_yields_two_components():
    asts = parse("(x + y^3, y)", ("x", "y"))
    assert len(asts) == 2
    assert asts[0].variables == ("x", "y")


def test_incomplete_expression_reports_offset():
    with pytest.raises(ParseError) as exc:
        parse("x + ", ("x",))
    assert exc.value.offset == 4


def test_power_is_right_associative():
    a = parse_single("2^3^2")
    assert eval_ast(a, []) == 512.0


def test_shear_evaluation():
    asts = parse("(x + y^3, y)", ("x", "y"))
    vals = [eval_ast(a, [1.0, 2.0]) for a in asts]
    assert vals == [9.0, 2.0]


def _fault(call):
    with pytest.raises(EvalDomainError) as exc:
        call()
    return str(exc.value), exc.value.span


def _same_fault_everywhere(source, bad, good):
    """One fault, one message and one span: single point, a batch
    holding one bad point, and jacobian_ad on the point and the block."""
    a = parse_single(source, ("x",))
    batch = np.array([good, bad, good])
    faults = {
        _fault(lambda: eval_ast(a, [bad])),
        _fault(lambda: eval_ast(a, [batch])),
        _fault(lambda: jacobian_ad([a], [bad])),
        _fault(lambda: jacobian_ad([a], batch[:, None])),
    }
    assert len(faults) == 1
    return faults.pop()


def test_log_negative_is_domain_fault():
    message, span = _same_fault_everywhere("1 + log(x)", -1.0, 2.0)
    assert "log" in message
    assert span == (4, 10)


def test_atan_quarter_pi():
    a = parse_single("atan(x)", ("x",))
    assert eval_ast(a, [1.0]) == pytest.approx(math.pi / 4, abs=1e-15)


def test_division_by_zero_is_domain_fault():
    message, span = _same_fault_everywhere("x + 1/x", 0.0, 2.0)
    assert message == "division by zero"
    assert span == (4, 7)


def test_shear_jacobian_by_dual_numbers():
    asts = parse("(x + y^3, y)", ("x", "y"))
    jac = jacobian_ad(asts, [0.0, 1.0])
    assert np.allclose(jac, [[1.0, 3.0], [0.0, 1.0]])


def test_exp_jacobian_at_zero():
    asts = parse("exp(x)", ("x",))
    jac = jacobian_ad(asts, [0.0])
    assert np.allclose(jac, [[1.0]])


@pytest.mark.parametrize(
    "source",
    [
        "sin(x)*x + cos(x)^2",
        "(x + y^3, y)",
        "(exp(x)*cos(y), exp(x)*sin(y))",
        "(x^3 - 3*x*y^2, 3*x^2*y - y^3)",
        "y^3 + y - x",
    ],
    ids=["sin-cos", "shear3", "polar_exp", "powk(3)", "cubic_implicit"],
)
def test_vectorized_evaluation_matches_scalar(source):
    asts = parse(source)
    n = asts[0].arity
    pts = np.linspace(-2.0, 2.0, 17 * n).reshape(n, 17).T
    for a in asts:
        vec = eval_ast(a, [pts[:, i] for i in range(n)])
        scalars = [eval_ast(a, [float(v) for v in p]) for p in pts]
        assert np.allclose(vec, scalars)
    block = jacobian_ad(asts, pts)
    assert block.shape == (17, len(asts), n)
    for p, jac in zip(pts, block):
        assert np.allclose(jac, jacobian_ad(asts, p))


def test_variable_inference_prefix_order():
    asts = parse("(y, x)")
    assert asts[0].variables == ("x", "y")
    a = parse_single("t + 1")
    assert a.variables == ("t",)


def test_readme_lists_exactly_the_parsed_functions():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Expression language", 1)[1].split("\n## ", 1)[0]
    paragraph = section.strip().split("\n\n", 1)[0]
    named = set()
    for quoted in re.findall(r"`([^`]*)`", paragraph):
        named.update(re.findall(r"[a-z]+", quoted))
    for name in sorted(named):
        parse_single("%s(x, y)" % name if name in ("min", "max") else "%s(x)" % name)
    assert named == set(FUNCTION_NAMES)


def test_unknown_function_rejected():
    with pytest.raises(ParseError):
        parse_single("frobnicate(x)", ("x",))


def test_substitute_then_eval():
    a = parse_single("x^2 + 1", ("x",))
    b = substitute(a, "x", parse_single("2*x", ("x",)).root)
    assert eval_ast(b, [3.0]) == pytest.approx(37.0)


_SIMPLE = st.one_of(
    st.integers(min_value=0, max_value=9).map(str),
    st.sampled_from(["x", "y", "x + y", "x*y", "sin(x)", "exp(y)", "x^2"]),
)


@st.composite
def _expr_text(draw, depth=2):
    if depth == 0:
        return draw(_SIMPLE)
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(_expr_text(depth=depth - 1))
    right = draw(_expr_text(depth=depth - 1))
    return "(%s) %s (%s)" % (left, op, right)


@given(_expr_text())
@settings(max_examples=60, deadline=None)
def test_pretty_print_round_trip(source):
    a = parse_single(source, ("x", "y"))
    again = parse_single(pretty(a), ("x", "y"))
    for px, py in [(0.3, -0.7), (1.5, 2.0), (-2.0, 0.1)]:
        assert eval_ast(again, [px, py]) == pytest.approx(
            eval_ast(a, [px, py]), rel=1e-12, abs=1e-12
        )


@given(
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_dual_derivative_matches_finite_difference(px, py):
    asts = parse("(x*y + sin(x), exp(y) - x^2)", ("x", "y"))
    jac = jacobian_ad(asts, [px, py])
    h = 1e-6
    fd = np.empty((2, 2))
    for col in range(2):
        hi = [px, py]
        lo = [px, py]
        hi[col] += h
        lo[col] -= h
        for row, a in enumerate(asts):
            fd[row, col] = (eval_ast(a, hi) - eval_ast(a, lo)) / (2 * h)
    assert np.allclose(jac, fd, rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------------------
# Random trees over the whole grammar: point and block forms, derivatives

# 710 and 1e300 reach overflow: exp(710), 1e300 * 1e300, 10^710
_LEAVES = ("x", "y", "0", "1", "2", "0.5", "3", "10", "0.001", "710", "1e300")
_UNARY_FUNCTIONS = sorted(FUNCTION_NAMES - {"min", "max"})
_COORD = st.floats(min_value=-3.0, max_value=3.0)
# every function and operation, each at the root of its own random trees;
# the tests below draw a fixed sequence (derandomize), since the filters
# for rounding-decided and non-smooth cases are heuristics a fresh draw
# could slip past
_ROOTS = sorted(FUNCTION_NAMES) + ["neg", "+", "-", "*", "/", "^"]


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map("(%s %s %s)".__mod__),
        inner.map("(-%s)".__mod__),
        st.tuples(st.sampled_from(_UNARY_FUNCTIONS), inner).map("%s(%s)".__mod__),
        st.tuples(
            st.sampled_from(["min", "max"]), st.lists(inner, min_size=2, max_size=3)
        ).map(lambda t: "%s(%s)" % (t[0], ", ".join(t[1]))),
    )


_TREES = st.recursive(st.sampled_from(_LEAVES), _grow, max_leaves=8)


def _rooted(root, left, right):
    """The source of root applied to left (and right) subtrees."""
    if root == "neg":
        return "-(%s)" % left
    if root in ("min", "max"):
        return "%s(%s, %s)" % (root, left, right)
    if root in FUNCTION_NAMES:
        return "%s(%s)" % (root, left)
    return "(%s) %s (%s)" % (left, root, right)


def _arguments(root, left, right):
    """The sources of the subtrees root is applied to in _rooted."""
    if root == "neg" or (root in FUNCTION_NAMES and root not in ("min", "max")):
        return [left]
    return [left, right]


def _outcome(call):
    try:
        return ("value", float(call()))
    except EvalDomainError as err:
        return ("fault", str(err), err.span)


def _nudged(p, step=2.0**-48):
    """p with one coordinate moved by step relative (a few ulps by
    default), every way."""
    for i in range(len(p)):
        for sign in (-1.0, 1.0):
            q = list(p)
            q[i] += sign * step * max(1.0, abs(q[i]))
            yield q


def _steady(a, p):
    """Whether a's outcome at p survives nudging p by a few ulps: the same
    fault, or values within 1e-13 relative. Where it does not, rounding
    decides the result, and math's and numpy's functions, which differ in
    the last place, may decide it differently."""
    base = _outcome(lambda: eval_ast(a, p))
    for q in _nudged(p):
        got = _outcome(lambda: eval_ast(a, q))
        if got[0] != base[0] or (got[0] == "fault" and got != base):
            return False
        if got[0] == "value" and not (
            got[1] == base[1] or abs(got[1] - base[1]) <= 1e-13 * abs(base[1])
        ):
            return False
    return True


@pytest.mark.parametrize("root", _ROOTS)
@given(left=_TREES, right=_TREES, px=_COORD, py=_COORD)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_point_and_one_row_block_fault_together(root, left, right, px, py):
    """The point form (math) and the block form (numpy) of one tree give
    one fault, with one message and span, or values within 1e-12
    relative, except where rounding decides the outcome."""
    a = parse_single(_rooted(root, left, right), ("x", "y"))
    point = _outcome(lambda: eval_ast(a, [px, py]))
    block = _outcome(lambda: eval_ast(a, [np.array([px]), np.array([py])])[0])
    if point[0] == block[0] == "value":
        agree = block[1] == pytest.approx(point[1], rel=1e-12, abs=0.0)
    else:
        agree = point == block
    assert agree or not _steady(a, [px, py])


def _one_sided(a, p, h):
    """Forward and backward difference quotients of a at p, one column
    per variable; None where an evaluation faults."""
    f0 = eval_ast(a, p)
    fwd, bwd = np.empty(len(p)), np.empty(len(p))
    for i in range(len(p)):
        step = h * max(1.0, abs(p[i]))
        hi, lo = list(p), list(p)
        hi[i] += step
        lo[i] -= step
        try:
            fwd[i] = (eval_ast(a, hi) - f0) / step
            bwd[i] = (f0 - eval_ast(a, lo)) / step
        except EvalDomainError:
            return None
    return fwd, bwd


def _absorbs_the_stencil(a, p, h):
    """Whether _one_sided's stencil leaves a unmoved along a variable in
    which a's derivative is not 0: a step lost in rounding (x + 1e300
    absorbs it), where the differences see a constant."""
    sides = _one_sided(a, p, h)
    try:
        jac = jacobian_ad([a], p)[0]
    except EvalDomainError:
        return False
    if sides is None:
        return False
    fwd, bwd = sides
    return bool(np.any((fwd == 0) & (bwd == 0) & (jac != 0)))


@pytest.mark.parametrize("root", _ROOTS)
@given(left=_TREES, right=_TREES, px=_COORD, py=_COORD)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_jacobians_match_central_differences_where_smooth(root, left, right, px, py):
    """Where the tree is smooth around the point (its forward and backward
    differences agree: no kink, tie switch or pole within the stencil),
    the stencil moves the root's arguments (a step lost in rounding, as
    in x + 1e300, reads as a constant) and the tangent is smooth too (a
    1e-9 nudge moves it by less than the tolerance asserted below, so no
    kink of a subtree lies at the point, such as min(abs(x), x) at 0,
    whose tie keeps the one-sided tangent of abs), the point Jacobian and
    the 1-row block Jacobian match central differences."""
    a = parse_single(_rooted(root, left, right), ("x", "y"))
    p = [px, py]
    try:
        value = eval_ast(a, p)
        jac = jacobian_ad([a], p)[0]
        near = [jacobian_ad([a], q)[0] for q in _nudged(p, 1e-9)]
    except EvalDomainError:
        assume(False)
    sides = _one_sided(a, p, 1e-6)
    assume(sides is not None)
    fwd, bwd = sides
    central = (fwd + bwd) / 2.0
    scale = 1.0 + abs(value) + np.abs(central).max()
    assume(np.abs(fwd - bwd).max() <= 1e-3 * scale)
    assume(all(np.abs(j - jac).max() <= 1e-5 * scale for j in near))
    args = [parse_single(source, ("x", "y")) for source in _arguments(root, left, right)]
    assume(not any(_absorbs_the_stencil(b, p, 1e-6) for b in args))
    assert np.abs(jac - central).max() <= 1e-5 * scale
    block = jacobian_ad([a], np.array([p]))[0, 0]
    assert np.abs(block - central).max() <= 1e-5 * scale


# ---------------------------------------------------------------------------
# Edge cases, pinned to the values and faults of the tree walker the
# generated code replaced


def _bits(values):
    return np.asarray(values, dtype=float).tolist(), np.signbit(values).tolist()


def test_infinite_and_negative_zero_literals():
    assert eval_ast(parse_single("1e999"), []) == math.inf
    assert _fault(lambda: eval_ast(parse_single("1e999 + x"), [1.0])) == (
        "non-finite value in addition", (0, 9)
    )
    zero = eval_ast(parse_single("-0.0"), [])
    assert zero == 0.0 and math.copysign(1.0, zero) == -1.0
    a = parse_single("-0.0 * x")
    assert _bits(jacobian_ad([a], [1.0])) == ([[-0.0]], [[True]])
    assert _bits(jacobian_ad([a], [[1.0], [-2.0]])) == (
        [[[-0.0]], [[-0.0]]], [[[True]], [[True]]]
    )


@pytest.mark.parametrize(
    "source, fault",
    [
        ("-1e999", ("non-finite value in negation", (0, 6))),
        ("abs(1e999)", ("non-finite value in abs()", (0, 10))),
        ("exp(1e999)", ("non-finite value in exp()", (0, 10))),
        ("sin(1e999)", ("non-finite value in sin()", (0, 10))),
        ("max(1e999, x) * 0", ("non-finite value in multiplication", (0, 17))),
    ],
)
def test_an_infinite_literal_faults_where_it_is_first_used(source, fault):
    a = parse_single(source, ("x",))
    assert _fault(lambda: eval_ast(a, [1.0])) == fault
    assert _fault(lambda: eval_ast(a, [np.array([1.0, 2.0])])) == fault
    # no tangent rule reads the literal or a value it feeds, so a Jacobian
    # form computes neither, and the constant map's Jacobian exists
    assert _both_forms(a, [1.0]) == ([0.0], [False])


def test_min_and_max_pass_an_infinite_literal_by():
    a = parse_single("x + min(1e999, x)", ("x",))
    assert eval_ast(a, [1.0]) == 2.0
    assert eval_ast(a, [np.array([1.0, 2.0])]).tolist() == [2.0, 4.0]
    assert jacobian_ad([a], [1.0]).tolist() == [[2.0]]


def test_complex_power_of_constants_is_a_power_fault():
    a = parse_single("(-8)^(1/3) + x", ("x",))
    expected = ("non-finite value in power", (0, 10))
    assert _fault(lambda: eval_ast(a, [1.0])) == expected
    assert _fault(lambda: eval_ast(a, [np.array([1.0, 2.0])])) == expected
    assert _fault(lambda: jacobian_ad([a], [1.0])) == expected
    assert _fault(lambda: jacobian_ad([a], [[1.0]])) == expected


def test_zero_arity_power_as_a_weight():
    assert eval_ast(parse_single("2^3"), []) == 8.0
    weight = ExpressionWeight("2^3")
    assert weight(1.0) == 8.0
    assert weight(np.array([0.5, 2.0])).tolist() == [8.0, 8.0]


@pytest.mark.parametrize(
    "source, at, row",
    [
        ("min(x, y)", [1.0, 1.0], [1.0, 0.0]),
        ("max(y, x)", [1.0, 1.0], [0.0, 1.0]),
        ("min(x, 1) * y", [1.0, -2.0], [-2.0, 1.0]),
        ("min(1, x) * y", [1.0, -2.0], [0.0, 1.0]),
    ],
)
def test_min_max_ties_keep_the_earlier_argument(source, at, row):
    a = parse_single(source, ("x", "y"))
    assert jacobian_ad([a], at).tolist() == [row]
    assert jacobian_ad([a], [at]).tolist() == [[row]]


def _both_forms(a, at):
    """jacobian_ad of a at one point and on a 1-row block: one fault, or
    the same row, to the sign of every zero."""
    point = _outcome_row(lambda: jacobian_ad([a], at)[0])
    block = _outcome_row(lambda: jacobian_ad([a], [at])[0, 0])
    assert point == block
    return point


def _outcome_row(call):
    try:
        return _bits(call())
    except EvalDomainError as err:
        return str(err), err.span


def test_a_min_or_max_picking_a_constant_has_a_zero_tangent():
    # the partial in x is y * 0.0: its sign is y's, in both forms
    a = parse_single("min(1, x) * y", ("x", "y"))
    assert _both_forms(a, [2.0, -3.0]) == ([-0.0, 1.0], [True, False])
    assert _both_forms(a, [0.5, -3.0]) == ([-3.0, 0.5], [True, False])
    # so an exponent holding one is variable, and refuses a negative base
    power = parse_single("x^min(2, y)", ("x", "y"))
    fault = ("power not differentiable at non-positive base", (0, 11))
    assert _both_forms(power, [-2.0, 3.0]) == fault
    assert _both_forms(power, [-2.0, 1.0]) == fault
    assert _both_forms(power, [2.0, 3.0]) == ([4.0, 0.0], [False, False])


def test_a_power_by_a_constant_subtree():
    # an exponent that is 0 at run time gives zero parts, at any base
    zero = parse_single("x^(1-1)", ("x",))
    for x in (0.0, -2.0, 3.0):
        assert _both_forms(zero, [x]) == ([0.0], [False])
    # a non-integer one refuses a zero base whose tangent moves in any
    # variable
    a = parse_single("(x*y)^sin(2)", ("x", "y"))
    fault = ("power not differentiable at non-positive base", (0, 12))
    assert _both_forms(a, [0.0, 1.0]) == fault
    assert _both_forms(a, [1.0, 0.0]) == fault
    assert _both_forms(parse_single("(x*0)^sin(2)", ("x", "y")), [1.0, 2.0])[0] == [0.0, 0.0]
    # an exponent without a tangent need not be one number on a block
    b = parse_single("x^(y^0 - y^0 - 1)", ("x", "y"))
    block = [[2.0, 1.0], [-4.0, 3.0]]
    assert jacobian_ad([b], block).tolist() == [[[-0.25, 0.0]], [[-0.0625, 0.0]]]
    assert [jacobian_ad([b], p).tolist() for p in block] == [[[-0.25, 0.0]], [[-0.0625, 0.0]]]


def test_an_overflowing_tangent_of_a_constant_power_is_a_derivative_fault():
    # the value 1e-300^0.54 is finite, the factor 1e-300^-0.46 overflows:
    # a Python float ** raises there, numpy's gives inf, and both forms
    # report the component's non-finite derivative
    a = parse_single("sin(x)^sin(10)", ("x",))
    assert math.isfinite(eval_ast(a, [1e-300]))
    assert _both_forms(a, [1e-300]) == ("non-finite derivative", (0, 14))
    b = parse_single("x^-0.5 + y", ("x", "y"))
    assert _both_forms(b, [1e-310, 1.0]) == ("non-finite derivative", (0, 10))


def test_sqrt_and_abs_tangents_at_zero():
    sqrt = parse_single("sqrt(x)", ("x",))
    fault = ("sqrt not differentiable at zero", (0, 7))
    assert _fault(lambda: jacobian_ad([sqrt], [0.0])) == fault
    assert _fault(lambda: jacobian_ad([sqrt], [[4.0], [0.0]])) == fault
    # a zero tangent at a zero root is no fault
    assert _bits(jacobian_ad([parse_single("sqrt(x*x)")], [0.0])) == ([[0.0]], [[False]])
    a = parse_single("abs(x)")
    assert _bits(jacobian_ad([a], [0.0])) == ([[0.0]], [[False]])
    assert _bits(jacobian_ad([a], [-0.0])) == ([[-0.0]], [[True]])
    assert _bits(jacobian_ad([a], [[0.0], [-0.0], [-3.0]])) == (
        [[[0.0]], [[-0.0]], [[-1.0]]], [[[False]], [[True]], [[True]]]
    )


def test_variable_exponent_at_a_non_positive_base():
    a = parse_single("x^y", ("x", "y"))
    assert eval_ast(a, [0.0, 2.0]) == 0.0
    fault = ("power not differentiable at non-positive base", (0, 3))
    assert _fault(lambda: jacobian_ad([a], [0.0, 2.0])) == fault
    assert _fault(lambda: jacobian_ad([a], [-1.0, 2.0])) == fault
    assert _fault(lambda: jacobian_ad([a], [[2.0, 2.0], [-1.0, 2.0]])) == fault
    b = parse_single("(0-1)^x", ("x",))
    assert _fault(lambda: jacobian_ad([b], [2.0])) == (fault[0], (0, 7))


# ---------------------------------------------------------------------------
# What the generator writes: each value once, a block's finiteness tests
# only where a fault could hide


def _written(source, block, derivatives):
    """The source of the generated function of source's components."""
    return _generate(parse(source, ("x", "y")), block, derivatives).source


@pytest.mark.parametrize("derivatives", [False, True], ids=["values", "jacobian"])
def test_polar_exp_block_forms_call_each_function_once(derivatives):
    # exp(x) is one subtree of both components, and the tangents of
    # cos(y) and sin(y) read the sin(y) and cos(y) the values compute
    text = _written("(exp(x)*cos(y), exp(x)*sin(y))", True, derivatives)
    assert [text.count(fn + "(") for fn in ("_exp", "_sin", "_cos")] == [1, 1, 1]


@pytest.mark.parametrize("block", [False, True], ids=["point", "block"])
def test_the_annulus_predicate_squares_each_coordinate_once(block):
    text = _written(resolve_map("powk(3)").domain.source, block, False)
    assert (text.count("x0 * x0"), text.count("x1 * x1")) == (1, 1)


def test_a_block_tests_finiteness_only_where_a_fault_could_hide():
    # 7 values, each tested at a point; on a block a non-finite value
    # stays non-finite through -, *, + and sin up to the first root, the
    # one value tested (y, the second root, is a variable), and the power
    # keeps its test for a complex value of Python floats
    source = "(x*x - 3*x*y^2 + sin(x), y)"
    point = _written(source, False, False).splitlines()
    block = _written(source, True, False).splitlines()
    assert sum("raise _E" in line for line in point) == 7
    assert sum("_isfinite" in line for line in block) == 1
    assert sum("is complex" in line for line in block) == 1


def test_a_jacobian_form_computes_only_what_a_derivative_reads():
    # no tangent reads the root x + y^3 or the y^3 under it (its tangent
    # reads y): neither is computed, and no value is tested, though the
    # point form still tests the derivative it returns
    for block in (False, True):
        text = _written("(x + y^3, y)", block, True)
        assert "x0 + " not in text
        assert "raise _E" not in text and "_isfinite" not in text
    # powk(3)'s roots are the only differences of two values
    difference = r"v\d+ = v\d+ - v\d+"
    powk3 = "(x^3 - 3*x*y^2, 3*x^2*y - y^3)"
    assert len(re.findall(difference, _written(powk3, True, False))) == 2
    assert not re.search(difference, _written(powk3, True, True))


@pytest.mark.parametrize("block", [False, True], ids=["point", "block"])
def test_a_jacobian_form_copies_no_name_into_another(block):
    # 3y^2 is computed from y itself and returned as its own name, and
    # exp's, log's and sin's factors are the names they already have;
    # only a select's rewrite needs a copy
    copy = re.compile(r"^\s+(\w+) = (\w+)$", re.M)
    text = _written("(x + y^3, y)", block, True)
    assert not [c for c in copy.findall(text) if c[0] != "_m"]
    assert "k2 = _c1 * " in text and text.count(" = ") == (2 if block else 1)
    text = _written("(exp(x)*log(y), sin(x))", block, True)
    assert not [c for c in copy.findall(text) if c[0] != "_m"]
    assert _written("x^0.5 + y", block, True).count("k2 = x0") == 1


def test_a_jacobian_form_keeps_values_that_fault_on_finite_arguments():
    # log, sqrt, a division and a power that may turn complex fault
    # without overflow, so their values are computed and tested though
    # no tangent reads them; an overflow no tangent reads faults nothing
    for source, at in (
        ("x + 0*log(y)", [1.0, -1.0]),
        ("x + 0*sqrt(y)", [1.0, -1.0]),
        ("x + 0*(1/(y - y))", [1.0, 2.0]),
        ("x + 0*(y^0.5)", [1.0, -1.0]),
        ("x + 0*(y^-1)", [1.0, 0.0]),
    ):
        a = parse_single(source, ("x", "y"))
        point, block = _both_forms(a, at), _fault(lambda: eval_ast(a, at))
        assert point == block
    assert _both_forms(parse_single("x + 0*y^3", ("x", "y")), [1.0, 1e103]) == (
        [1.0, 0.0], [False, False]
    )


def test_components_differing_in_a_zero_literals_sign_keep_their_sign_bits():
    # Num(0.0) == Num(-0.0), yet x * 0.0 and x * -0.0 are two subtrees
    a = parse_single("x * z", ("x", "z"))
    comps = [substitute(a, "z", Num(0.0)), substitute(a, "z", Num(-0.0))]
    row = [[0.0, 0.0], [-0.0, 0.0]], [[False, False], [True, False]]
    assert _bits(jacobian_ad(comps, [1.0, 2.0])) == row
    assert _bits(jacobian_ad(comps, [[1.0, 2.0], [3.0, 4.0]])) == (
        [row[0], row[0]], [row[1], row[1]]
    )
    assert _bits([eval_ast(c, [1.0, 2.0]) for c in comps]) == ([0.0, -0.0], [False, True])


def test_a_repeated_subexpression_faults_where_it_first_occurs():
    a = parse_single("log(x) + log(x)", ("x",))
    fault = ("log of a non-positive number", (0, 6))
    assert _fault(lambda: eval_ast(a, [-1.0])) == fault
    assert _fault(lambda: eval_ast(a, [np.array([1.0, -1.0])])) == fault
    assert _fault(lambda: jacobian_ad([a], [-1.0])) == fault
    assert _fault(lambda: jacobian_ad([a], [[1.0], [-1.0]])) == fault
    # across components too: the first component's log
    comps = parse("(1 + log(x), log(x))", ("x",))
    assert _fault(lambda: jacobian_ad(comps, [-1.0])) == (fault[0], (5, 11))


@pytest.mark.parametrize("root", _ROOTS)
@given(
    left=_TREES,
    right=_TREES,
    rows=st.lists(st.tuples(_COORD, _COORD), min_size=2, max_size=6),
)
# an overflow to +-inf at some rows that exp, atan, tanh, max, a power's
# base (-inf^0) or its exponent (0.5^inf) or a divisor turns finite
@example(left="(x * 1e300 * 1e300)", right="y", rows=[(1.0, 1.0), (-1.0, 0.0), (0.0, 2.0)])
@example(left="0.5", right="(x * 1e300 * 1e300)", rows=[(1.0, 1.0), (-1.0, 0.0), (0.0, 2.0)])
@settings(max_examples=40, deadline=None, derandomize=True)
def test_block_masks_mark_the_rows_the_point_form_faults_at(root, left, right, rows):
    """On blocks of several rows, the mask of the block values form and
    the faulting rows of the block Jacobian form are the rows where the
    point forms fault, except where rounding decides the outcome. A block
    form tests finiteness only where a fault could hide; this guards
    that."""
    a = parse_single(_rooted(root, left, right), ("x", "y"))
    pts = np.array(rows)
    with np.errstate(all="ignore"):
        _, bad = _generate((a,), True, False)(*pts.T)
    values = np.broadcast_to(bad, (len(rows),))
    jacobian = ~np.isfinite(compile_map([a]).jacobian_many(pts)).all(axis=(1, 2))
    for p, value_fault, jacobian_fault in zip(rows, values, jacobian):
        p = list(p)
        point_faults = (
            _outcome(lambda: eval_ast(a, p))[0] == "fault",
            isinstance(_outcome_row(lambda: jacobian_ad([a], p))[0], str),
        )
        assert point_faults == (value_fault, jacobian_fault) or not _steady(a, p)
