"""Expression language: parsing, evaluation, forward-mode derivatives."""

import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftkit.errors import EvalDomainError, ParseError
from liftkit.exprlang import (
    FUNCTION_NAMES,
    eval_ast,
    jacobian_ad,
    parse,
    parse_single,
    pretty,
    substitute,
)


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
