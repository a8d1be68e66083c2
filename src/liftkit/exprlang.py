"""Arithmetic expression language with forward-mode differentiation.

Grammar (EBNF):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" factor)?            right-associative
    atom   := NUMBER | NAME | NAME "(" expr ("," expr)* ")"
            | "(" expr ")" | "-" atom

A source string may also be a top-level parenthesized tuple
"(e1, e2, ...)", which parses to one component per entry.

Evaluation is strict about domains: log or sqrt of a negative number,
division by zero, and non-finite intermediates raise EvalDomainError
instead of propagating NaN or infinity.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalDomainError, InputError, ParseError

__all__ = [
    "Ast",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse",
    "parse_single",
    "eval_ast",
    "jacobian_ad",
    "pretty",
    "substitute",
    "FUNCTION_NAMES",
]

# Default variable pools for inference when the caller gives none.
_COORD_ORDER = ("x", "y", "z", "w")


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Num:
    value: float
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    index: int
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Neg:
    arg: object
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Ast:
    """One expression component plus its variable binding."""

    root: object
    variables: tuple
    source: str = field(default="", compare=False)
    walk: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "walk", _compile(self.root))

    @property
    def arity(self):
        return len(self.variables)


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[+\-*/^(),−])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num, name, +, -, *, /, ^, (, ), ',', eof
    text: str
    pos: int


def _tokenize(source):
    toks = []
    i = 0
    n = len(source)
    while i < n:
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise ParseError("unexpected character %r" % source[i], i)
        if m.lastgroup == "ws":
            i = m.end()
            continue
        text = m.group()
        if m.lastgroup == "num":
            toks.append(_Token("num", text, i))
        elif m.lastgroup == "name":
            toks.append(_Token("name", text, i))
        else:
            op = "-" if text == "−" else text
            toks.append(_Token(op, op, i))
        i = m.end()
    toks.append(_Token("eof", "", n))
    return toks


# ---------------------------------------------------------------------------
# Parser

_ATOM_EXPECTED = ("number", "name", "'('", "'-'")


class _Parser:
    def __init__(self, tokens, variables):
        self.toks = tokens
        self.i = 0
        self.variables = variables  # tuple of names or None (collect mode)
        self.seen_names = []

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind, expected_desc):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                "expected %s, found %r" % (expected_desc, tok.text or "end of input"),
                tok.pos,
                (expected_desc,),
            )
        return self.advance()

    def parse_list(self):
        items = [self.parse_expr()]
        while self.peek().kind == ",":
            self.advance()
            items.append(self.parse_expr())
        return items

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term()
            node = BinOp(op.kind, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.parse_factor()
            node = BinOp(op.kind, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def parse_factor(self):
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            expo = self.parse_factor()  # right-associative
            return BinOp("^", base, expo, (base.span[0], expo.span[1]))
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text), (tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "-":
            self.advance()
            arg = self.parse_atom()
            return Neg(arg, (tok.pos, arg.span[1]))
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            close = self.expect(")", "')'")
            return dataclasses.replace(node, span=(tok.pos, close.pos + 1))
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                return self.parse_call(tok)
            return self.make_var(tok)
        raise ParseError(
            "expected a value, found %r" % (tok.text or "end of input"),
            tok.pos,
            _ATOM_EXPECTED,
        )

    def parse_call(self, name_tok):
        name = name_tok.text
        if name not in FUNCTION_NAMES:
            raise ParseError(
                "unknown function %r (known: %s)"
                % (name, ", ".join(sorted(FUNCTION_NAMES))),
                name_tok.pos,
            )
        self.advance()  # consume '('
        args = self.parse_list()
        close = self.expect(")", "')'")
        want = None if name in _EXTREMES else 1
        if want is not None and len(args) != want:
            raise ParseError(
                "%s takes %d argument%s, got %d"
                % (name, want, "" if want == 1 else "s", len(args)),
                name_tok.pos,
            )
        if want is None and len(args) < 2:
            raise ParseError("%s takes at least 2 arguments" % name, name_tok.pos)
        return Call(name, tuple(args), (name_tok.pos, close.pos + 1))

    def make_var(self, tok):
        name = tok.text
        if self.variables is not None:
            try:
                idx = self.variables.index(name)
            except ValueError:
                raise ParseError(
                    "unknown identifier %r (variables: %s)"
                    % (name, ", ".join(self.variables) or "none"),
                    tok.pos,
                ) from None
            return Var(name, idx, (tok.pos, tok.pos + len(name)))
        if name not in self.seen_names:
            self.seen_names.append(name)
        return Var(name, -1, (tok.pos, tok.pos + len(name)))


def _infer_variables(seen):
    """Pick a variable tuple for sources parsed without explicit bindings."""
    if not seen:
        return ()
    if set(seen) == {"t"}:
        return ("t",)
    if all(n in _COORD_ORDER for n in seen):
        last = max(_COORD_ORDER.index(n) for n in seen)
        return _COORD_ORDER[: last + 1]
    raise InputError(
        "cannot infer variables for names %s; pass variables= explicitly"
        % ", ".join(sorted(seen))
    )


def _map_vars(node, fn):
    """Copy of a tree with every Var node v replaced by fn(v)."""
    if isinstance(node, Var):
        return fn(node)
    if isinstance(node, Neg):
        return Neg(_map_vars(node.arg, fn), node.span)
    if isinstance(node, BinOp):
        return BinOp(
            node.op, _map_vars(node.left, fn), _map_vars(node.right, fn), node.span
        )
    if isinstance(node, Call):
        return Call(node.fn, tuple(_map_vars(a, fn) for a in node.args), node.span)
    return node


def parse(source, variables=None):
    """Parse source text into a tuple of Ast components.

    A top-level "(e1, e2, ...)" form yields one component per entry;
    anything else yields a single component. variables may be a sequence
    of names; when omitted they are inferred (t alone, or a prefix of
    x, y, z, w).
    """
    if not isinstance(source, str):
        raise InputError("expression source must be a string")
    vars_tuple = tuple(variables) if variables is not None else None
    if vars_tuple is not None and len(set(vars_tuple)) != len(vars_tuple):
        raise InputError("duplicate variable names: %s" % (vars_tuple,))
    toks = _tokenize(source)

    roots = None
    if toks[0].kind == "(":
        p = _Parser(toks, vars_tuple)
        try:
            p.advance()
            roots = p.parse_list()
            p.expect(")", "')'")
            p.expect("eof", "end of input")
        except ParseError:
            roots = None
    if roots is None:
        p = _Parser(toks, vars_tuple)
        roots = [p.parse_expr()]
        p.expect("eof", "end of input")

    if variables is None:
        vars_tuple = _infer_variables(p.seen_names)
        roots = [
            _map_vars(r, lambda v: Var(v.name, vars_tuple.index(v.name), v.span))
            for r in roots
        ]
    return tuple(Ast(root, vars_tuple, source) for root in roots)


def parse_single(source, variables=None):
    """Parse a source expected to hold exactly one component."""
    comps = parse(source, variables)
    if len(comps) != 1:
        raise InputError(
            "expected a single expression, got %d components" % len(comps)
        )
    return comps[0]


# ---------------------------------------------------------------------------
# Forward-mode evaluation
#
# Every Ast is compiled once, when it is built, into a closure
# walk(x, dx, k) -> (value, tangent). x holds the variable values and dx
# their tangents; k is 0 for a single point (Python floats, math) and 1
# for a batch (numpy arrays). A tangent holds the partial derivatives in
# all n variables: shape (n,) for a point, broadcastable to (N, n) for a
# batch whose values are (N, 1) columns. None stands for a zero tangent,
# so constants cost no derivative work and seeding every variable with
# None evaluates values only.

# (constant subtrees of a batch compute on floats, so may be complex)
_FINITE = (math.isfinite, lambda v: type(v) is not complex and np.isfinite(v).all())
_LIBS = (math, np)
# raised by failing float operations (math.isfinite rejects complex)
_FAULTS = (ArithmeticError, ValueError, TypeError)


def _plus(da, db):
    return db if da is None else da if db is None else da + db


def _minus(da, db):
    return _times(-1.0, db) if da is None else da if db is None else da - db


def _times(p, d):
    return None if d is None else p * d


def _sqrt_tangent(m, a, v, da):
    zero = v == 0
    if np.any(zero & (da != 0)):
        raise EvalDomainError("sqrt not differentiable at zero")
    return np.where(zero, 0.0, da / (2.0 * np.where(zero, 1.0, v)))


def _pow_tangent(a, b, v, da, db):
    if db is not None:
        if not np.all(a > 0):
            raise EvalDomainError("power not differentiable at non-positive base")
        return v * _plus(db * np.log(a), _times(b / a, da))
    # constant exponent: direct rule, no log and no division
    # (v * b / a overflows on subnormal bases)
    if b == 0:
        return None
    zero = a == 0  # a < 0 has already failed unless b is an integer
    if not float(b).is_integer() and np.any(zero):
        if np.any(zero & (da != 0)):
            raise EvalDomainError("power not differentiable at non-positive base")
        a = np.where(zero, 1.0, a)
    return b * a ** (b - 1.0) * da


# name -> (float implementation, array implementation, tangent rule
# (m, a, v, da) -> tangent of v = f(a) with m math or numpy, fault message)
_FUNCTIONS = {
    "sin": (math.sin, np.sin, lambda m, a, v, da: m.cos(a) * da, ""),
    "cos": (math.cos, np.cos, lambda m, a, v, da: -m.sin(a) * da, ""),
    "tan": (math.tan, np.tan, lambda m, a, v, da: (1.0 + v * v) * da, ""),
    "exp": (math.exp, np.exp, lambda m, a, v, da: v * da, ""),
    "log": (
        math.log, np.log, lambda m, a, v, da: da / a, "log of a non-positive number"
    ),
    "sqrt": (math.sqrt, np.sqrt, _sqrt_tangent, "sqrt of a negative number"),
    "abs": (abs, np.abs, lambda m, a, v, da: m.copysign(1.0, a) * (a != 0) * da, ""),
    "atan": (math.atan, np.arctan, lambda m, a, v, da: da / (1.0 + a * a), ""),
    "tanh": (math.tanh, np.tanh, lambda m, a, v, da: (1.0 - v * v) * da, ""),
}
_NEGATION = (operator.neg, operator.neg, lambda m, a, v, da: -da, "")
# variadic, 2 or more arguments: name -> "first argument beats second"
_EXTREMES = {"min": operator.lt, "max": operator.gt}
FUNCTION_NAMES = frozenset(_FUNCTIONS) | frozenset(_EXTREMES)
# op -> (name, value, tangent rule (a, b, v, da, db) with da or db not None)
_BINARY = {
    "+": ("addition", operator.add, lambda a, b, v, da, db: _plus(da, db)),
    "-": ("subtraction", operator.sub, lambda a, b, v, da, db: _minus(da, db)),
    "*": ("multiplication", operator.mul,
          lambda a, b, v, da, db: _plus(_times(b, da), _times(a, db))),
    "/": ("division", operator.truediv,
          lambda a, b, v, da, db: _minus(da, _times(v, db)) / b),
    "^": ("power", operator.pow, _pow_tangent),
}


def _compile(node):
    """Closure walk(x, dx, k) -> (value, tangent) for one tree."""
    if isinstance(node, Num):
        value = node.value
        return lambda x, dx, k: (value, None)
    if isinstance(node, Var):
        i = node.index
        return lambda x, dx, k: (x[i], dx[i])
    if isinstance(node, Neg):
        return _call(_NEGATION, "negation", _compile(node.arg), node.span)
    if isinstance(node, BinOp):
        return _binary(node.op, _compile(node.left), _compile(node.right), node.span)
    if node.fn in _EXTREMES:
        return _extreme(_EXTREMES[node.fn], [_compile(a) for a in node.args])
    return _call(_FUNCTIONS[node.fn], node.fn + "()", _compile(node.args[0]), node.span)


def _binary(op, left, right, span):
    what, value, tangent = _BINARY[op]

    def binary(x, dx, k):
        a, da = left(x, dx, k)
        b, db = right(x, dx, k)
        try:
            v = value(a, b)
            if _FINITE[k](v):
                if da is None and db is None:
                    return v, None
                return v, tangent(a, b, v, da, db)
        except _FAULTS:
            pass
        except EvalDomainError as err:
            raise EvalDomainError(str(err), span) from None
        if op == "/" and np.any(b == 0):
            raise EvalDomainError("division by zero", span)
        raise EvalDomainError("non-finite value in " + what, span)

    return binary


def _call(row, what, arg, span):
    scalar, array, tangent, fault = row
    impls = (scalar, array)
    fault = fault or "non-finite value in " + what

    def call(x, dx, k):
        a, da = arg(x, dx, k)
        try:
            v = impls[k](a)
            if _FINITE[k](v):
                return v, None if da is None else tangent(_LIBS[k], a, v, da)
        except _FAULTS:
            pass
        except EvalDomainError as err:
            raise EvalDomainError(str(err), span) from None
        raise EvalDomainError(fault, span)

    return call


def _extreme(beats, args):
    # ties keep the earlier argument, for the value and the tangent alike
    def extreme(x, dx, k):
        best, bd = args[0](x, dx, k)
        for arg in args[1:]:
            a, da = arg(x, dx, k)
            take = beats(a, best)
            if k == 0:
                best, bd = (a, da) if take else (best, bd)
                continue
            best = np.where(take, a, best)
            if da is not None or bd is not None:
                bd = np.where(
                    take, 0.0 if da is None else da, 0.0 if bd is None else bd
                )
        return best, bd

    return extreme


@functools.lru_cache(maxsize=None)
def _seeds(n):
    """Unit tangents of the n variables: read-only rows of the identity."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return tuple(eye)


def eval_ast(a, x):
    """Evaluate one component at x.

    x is a sequence of length a.arity whose entries are scalars or
    equally shaped arrays; array inputs are evaluated elementwise.
    Returns a float for scalar inputs, an ndarray otherwise.
    """
    if len(x) != a.arity:
        raise InputError(
            "expression takes %d variable(s) %s, got %d values"
            % (a.arity, a.variables, len(x))
        )
    nothing = (None,) * len(x)
    if all(type(v) is float or np.ndim(v) == 0 for v in x):
        return float(a.walk([float(v) for v in x], nothing, 0)[0])
    env = [np.asarray(v, dtype=float) for v in x]
    with np.errstate(all="ignore"):
        out = np.asarray(a.walk(env, nothing, 1)[0], dtype=float)
    if out.ndim == 0 and env and env[0].ndim > 0:
        out = np.broadcast_to(out, env[0].shape).copy()
    return out


def jacobian_ad(components, x):
    """Jacobian of the map whose rows are components, at x.

    components: sequence of Ast sharing one variable tuple. For a point
    x of length n = arity the result is an (m, n) array with
    m = len(components); for an (N, n) block of points it is an
    (N, m, n) stack. A fault at any point of a block raises.
    """
    comps = list(components)
    if not comps:
        raise InputError("no components given")
    if len({c.variables for c in comps}) > 1:
        raise InputError("components disagree on variables")
    n = comps[0].arity
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1 and pts.shape[0] == n:
        env, k = pts.tolist(), 0
    elif pts.ndim == 2 and pts.shape[1] == n:
        env, k = [pts[:, i : i + 1] for i in range(n)], 1
    else:
        raise InputError("point shape %s is not (%d,) or (N, %d)" % (pts.shape, n, n))
    seeds = _seeds(n)
    jac = np.zeros(pts.shape[:-1] + (len(comps), n))
    with np.errstate(all="ignore"):
        for i, c in enumerate(comps):
            d = c.walk(env, seeds, k)[1]
            if d is not None:
                jac[..., i, :] = d
    if not np.isfinite(jac).all():
        rows_ok = np.isfinite(jac).all(axis=-1).reshape(-1, len(comps)).all(axis=0)
        bad = comps[int(np.argmin(rows_ok))]
        raise EvalDomainError("non-finite derivative", bad.root.span)
    return jac


# ---------------------------------------------------------------------------
# Printing and structural edits


def _pretty_node(node):
    if isinstance(node, Num):
        if math.copysign(1.0, node.value) < 0:
            return "(-%s)" % repr(abs(node.value))
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "(-%s)" % _pretty_node(node.arg)
    if isinstance(node, BinOp):
        return "(%s %s %s)" % (
            _pretty_node(node.left),
            node.op,
            _pretty_node(node.right),
        )
    if isinstance(node, Call):
        return "%s(%s)" % (node.fn, ", ".join(_pretty_node(a) for a in node.args))
    raise AssertionError(type(node))


def pretty(a):
    """Fully parenthesized source for one component; parsing it back
    yields a structurally equal tree."""
    return _pretty_node(a.root if isinstance(a, Ast) else a)


def substitute(a, name, replacement):
    """Replace every occurrence of variable name with a replacement node."""
    root = _map_vars(a.root, lambda v: replacement if v.name == name else v)
    return Ast(root, a.variables, a.source)
