"""Arithmetic expression language with forward-mode differentiation.

Grammar (EBNF):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" factor)?            right-associative
    atom   := NUMBER | NAME | NAME "(" expr ("," expr)* ")"
            | "(" expr ")" | "-" atom

A source string may also be a top-level parenthesized tuple
"(e1, e2, ...)", which parses to one component per entry.

Expressions are evaluated by generated code: each tuple of components
is compiled once, on first use, into straight-line Python source with
its forward-mode derivatives written out, in a point form over Python
floats and math and a block form over numpy arrays (see "Forward-mode
evaluation by generated code" below).
Evaluation is strict about domains: log or sqrt of a negative number,
division by zero, and non-finite intermediates raise EvalDomainError
instead of propagating NaN or infinity, except in a CompiledMap's block
forms, which mark each faulting row NaN and return the first fault.
"""

from __future__ import annotations

import dataclasses
import functools
import math
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
    "compile_map",
    "CompiledMap",
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
    # generated functions of the tuples of components this one leads
    generated: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
# Forward-mode evaluation by generated code
#
# A tuple of components is compiled, on first use, into the source of one
# Python function, which is exec'd once and kept on the first component.
# One generator (_emit writing into a _Writer) writes two forms of it.
# The point form takes the variable values as Python floats and calls
# math; a tangent, the partial derivatives in all n variables, is n float
# locals. The block form takes numpy arrays, evaluated elementwise, and
# calls numpy; a tangent is one array, broadcastable to (N, n) when the
# variables are (N, 1) columns. Each form makes the operations the rules
# below write, in their order, so the point form's floats are the entries
# a point's numpy tangent would hold.
#
# A constant subtree has no tangent and costs no derivative work. Where a
# tangent's absence is only known at run time (a min or max between a
# constant and a variable at one point, a power by a constant subtree
# that may be 0), a local flag holds it, the absent tangent's locals hold
# 0.0, and the nodes above branch on the flag.
#
# Faults: every operation that can turn finite arguments non-finite is
# checked right after it, and the generated function maps whatever it
# raises (a failing float operation, a failed check, a tangent rule's
# EvalDomainError) to the node whose line raised it, so the first
# faulting node in evaluation order gives the message and the span. A
# failed check of the block form raises nothing: it ORs its rows into
# the mask _m and keeps the first fault in _f, and a constant subtree's
# fault (a Python float division by zero, say) faults every row. The source holds only generated names,
# operators and the library names below; numbers and nodes are bound in
# the function's namespace, never printed (1e999 parses to inf, whose
# repr is not a literal).

# generated name -> (point form, block form)
_LIBRARY = {
    "_sin": (math.sin, np.sin),
    "_cos": (math.cos, np.cos),
    "_tan": (math.tan, np.tan),
    "_exp": (math.exp, np.exp),
    "_log": (math.log, np.log),
    "_sqrt": (math.sqrt, np.sqrt),
    "_abs": (abs, np.abs),
    "_atan": (math.atan, np.arctan),
    "_tanh": (math.tanh, np.tanh),
    "_copysign": (math.copysign, np.copysign),
    "_isfinite": (math.isfinite, np.isfinite),
}
# name -> (tangent factor k of argument a and value v, and whether the
# tangent is k * da or da / k); sqrt has a rule of its own
_UNARY = {
    "sin": ("_cos(%(a)s)", "*"),
    "cos": ("-_sin(%(a)s)", "*"),
    "tan": ("1.0 + %(v)s * %(v)s", "*"),
    "exp": ("%(v)s", "*"),
    "log": ("%(a)s", "/"),
    "sqrt": (None, None),
    "abs": ("_copysign(1.0, %(a)s) * (%(a)s != 0)", "*"),
    "atan": ("1.0 + %(a)s * %(a)s", "/"),
    "tanh": ("1.0 - %(v)s * %(v)s", "*"),
}
_FAULT_MESSAGES = {
    "log": "log of a non-positive number",
    "sqrt": "sqrt of a negative number",
}
# numpy's forms of these can be non-finite at a finite argument (math's
# raise instead); the other functions are finite wherever defined
_UNBOUNDED = frozenset({"exp", "log", "sqrt"})
# variadic, 2 or more arguments: name -> "argument beats the best so far"
_EXTREMES = {"min": "<", "max": ">"}
FUNCTION_NAMES = frozenset(_UNARY) | frozenset(_EXTREMES)
# op -> (name, Python operator)
_BINARY = {
    "+": ("addition", "+"),
    "-": ("subtraction", "-"),
    "*": ("multiplication", "*"),
    "/": ("division", "/"),
    "^": ("power", "**"),
}
# raised by failing float operations (math.isfinite rejects complex), by
# the checks (ArithmeticError) and by the tangent rules
_CAUGHT = (ArithmeticError, ValueError, TypeError, EvalDomainError)
_HEADER = "def _generated(%s):\n    try:\n"
_FOOTER = "\n    except _CAUGHT as err:\n        %s\n"
# the source line of the body's first line
_FIRST_LINE = _HEADER.count("\n") + 1


@dataclass(frozen=True)
class _Dyn:
    """A tangent absent when the local flag is true; its parts then hold
    0.0."""

    flag: str
    parts: tuple


def _part(t):
    """The one part of a block-form tangent, 0.0 for an absent one."""
    if t is None:
        return "0.0"
    return t.parts[0] if type(t) is _Dyn else t[0]


class _Writer:
    """The body of one generated function, line by line, with the owner of
    each line: the node whose fault the line raises and, for a division,
    the name of its divisor."""

    def __init__(self, n, block, derivatives):
        self.n = n
        self.block = block
        self.derivatives = derivatives
        self.width = 1 if block else n  # parts per tangent
        self.lines = []
        self.owners = []
        self.owner = None
        self.depth = 2
        self.count = 0
        self.namespace = {name: forms[block] for name, forms in _LIBRARY.items()}
        self.namespace.update(
            _np=np,
            _E=ArithmeticError,
            _D=EvalDomainError,
            _CAUGHT=_CAUGHT,
            _SQRT="sqrt not differentiable at zero",
            _POWER="power not differentiable at non-positive base",
            _at=_fault_at,
        )
        if block:
            self.write("_m, _f = False, None")

    def write(self, template, *names):
        self.lines.append("    " * self.depth + template % names)
        self.owners.append(self.owner)

    def mark(self, test, rows, message="None"):
        """Block form: where test holds, OR rows into the mask and keep
        the current node's fault unless the block has one."""
        node, divisor = self.owner
        self.write(
            "if %s: _m, _f = _m | %s, _f or _at(%s, %s, %s)",
            test, rows, self.bind(node), divisor or "None", message,
        )

    def new(self):
        self.count += 1
        return self.count

    def bind(self, value):
        name = "_c%d" % self.new()
        self.namespace[name] = value
        return name

    def seed(self, i):
        """The tangent of variable i, every partial written out."""
        if not self.derivatives:
            return None
        if self.block:
            return (self.bind(_seeds(self.n)[i]),)
        return tuple("1.0" if j == i else "0.0" for j in range(self.n))

    def names(self, k):
        return tuple("t%d_%d" % (k, j) for j in range(self.width))

    def parts(self, k, template, *args):
        """Write part j of node k's tangent as template over args, each a
        tangent (its part j is taken) or a name; return the parts."""
        names = self.names(k)
        for j, name in enumerate(names):
            self.write(
                "%s = " + template, name, *[a[j] if type(a) is tuple else a for a in args]
            )
        return names

    def check(self, v, power=False):
        """Fault where v is non-finite (or, after a power, complex)."""
        if self.block:
            if power:
                self.write("if type(%s) is complex: raise _E", v)
            self.mark("not _isfinite(%s).all()" % v, "~_isfinite(%s)" % v)
        elif power:
            self.write("if not _isfinite(%s): raise _E", v)
        else:
            self.write("if %s - %s: raise _E", v, v)

    def branches(self, k, cases):
        """Write "if c1: ... elif/else: ..." over cases [(condition or None
        for else, body)], each body writing its lines and returning a
        tangent of node k. Returns node k's tangent; branch results that
        differ are assigned to node k's own names."""
        done = []
        for cond, body in cases:
            saved, self.lines, self.owners = (self.lines, self.owners), [], []
            self.depth += 1
            result = body()
            self.depth -= 1
            done.append((cond, result, self.lines, self.owners))
            self.lines, self.owners = saved
        results = [res for _, res, _, _ in done]
        names = self.names(k)
        if all(res is None for res in results):
            merged = None
        elif all(type(res) is tuple for res in results):
            merged = results[0] if len(set(results)) == 1 else names
        else:
            merged = _Dyn("z%d" % k, names)
        for i, (cond, res, lines, owners) in enumerate(done):
            if cond is None:
                self.write("else:")
            else:
                self.write("if %s:" if i == 0 else "elif %s:", cond)
            self.lines += lines
            self.owners += owners
            self.depth += 1
            size = len(self.lines)
            if type(merged) is _Dyn and type(res) is not _Dyn:
                self.write("z%d = %s", k, res is None)
            if (merged is names or type(merged) is _Dyn) and type(res) is not _Dyn:
                for name, part in zip(names, res or ("0.0",) * self.width):
                    if name != part:
                        self.write("%s = %s", name, part)
            if not lines and len(self.lines) == size:
                self.write("pass")
            self.depth -= 1
        return merged


def _literal(node):
    """The value of a number or of a negated literal, else None."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        inner = _literal(node.arg)
        return None if inner is None else -inner
    return None


def _tangent(w, k, rule, tangents):
    """Node k's tangent by rule(*tangents), branching on every argument
    tangent whose absence is decided at run time."""
    for i, t in enumerate(tangents):
        if type(t) is _Dyn:
            absent, present = list(tangents), list(tangents)
            absent[i], present[i] = None, t.parts
            return w.branches(k, [
                (t.flag, lambda: _tangent(w, k, rule, absent)),
                (None, lambda: _tangent(w, k, rule, present)),
            ])
    if all(t is None for t in tangents):
        return None
    return rule(*tangents)


def _emit(w, node):
    """Write the code of node's subtree, arguments first. Returns the name
    of its value, its tangent (None, a tuple of parts or a _Dyn) and
    whether the value may be a non-finite input: a variable, a constant,
    or a min or max of those (every other value has been checked)."""
    if isinstance(node, Num):
        return w.bind(node.value), None, True
    if isinstance(node, Var):
        if not 0 <= node.index < w.n:
            raise InputError("variable %r has no index among %d" % (node.name, w.n))
        return "x%d" % node.index, w.seed(node.index), True
    if isinstance(node, BinOp):
        args = [_emit(w, node.left), _emit(w, node.right)]
    elif isinstance(node, Neg):
        args = [_emit(w, node.arg)]
    else:
        args = [_emit(w, arg) for arg in node.args]
    k = w.new()
    v = "v%d" % k
    if isinstance(node, BinOp):
        (a, da, _), (b, db, _) = args
        w.owner = (node, b if node.op == "/" else None)
        w.write("%s = %s %s %s", v, a, _BINARY[node.op][1], b)
        w.check(v, power=node.op == "^")
        rule = _binary_rule(w, k, node, a, b, v)
        tangents = [da, db]
    elif isinstance(node, Neg) or node.fn in _UNARY:
        ((a, da, raw),) = args
        fn = "neg" if isinstance(node, Neg) else node.fn
        w.owner = (node, None)
        if fn == "neg":
            w.write("%s = -%s", v, a)
        else:
            w.write("%s = _%s(%s)", v, fn, a)
        if raw or (w.block and fn in _UNBOUNDED):
            w.check(v)
        rule = _unary_rule(w, k, fn, a, v)
        tangents = [da]
    else:
        w.owner = (node, None)
        return v, _extreme(w, k, node.fn, args), any(raw for _, _, raw in args)
    tangent = _tangent(w, k, rule, tangents) if w.derivatives else None
    return v, tangent, False


def _binary_rule(w, k, node, a, b, v):
    op = node.op

    def rule(da, db):
        if op == "+":
            return db if da is None else da if db is None else w.parts(
                k, "%s + %s", da, db
            )
        if op == "-":
            if da is None:
                return w.parts(k, "-1.0 * %s", db)
            return da if db is None else w.parts(k, "%s - %s", da, db)
        if op == "*":
            if da is None:
                return w.parts(k, "%s * %s", a, db)
            if db is None:
                return w.parts(k, "%s * %s", b, da)
            return w.parts(k, "%s * %s + %s * %s", b, da, a, db)
        if op == "/":
            if da is None:
                return w.parts(k, "-1.0 * (%s * %s) / %s", v, db, b)
            if db is None:
                return w.parts(k, "%s / %s", da, b)
            return w.parts(k, "(%s - %s * %s) / %s", da, v, db, b)
        if db is not None:
            if w.block:
                # a may be a Python float, whose ~ is not a logical not
                w.mark("not _np.all(%s > 0)" % a, "_np.logical_not(%s > 0)" % a, "_POWER")
            else:
                w.write("if not %s > 0: raise _D(_POWER)", a)
            log = "k%d" % k
            # numpy's log at a point too, as the block takes it
            w.write("%s = _np.log(%s)" if w.block else "%s = float(_np.log(%s))", log, a)
            if da is None:
                return w.parts(k, "%s * (%s * %s)", v, db, log)
            w.write("q%d = %s / %s", k, b, a)
            return w.parts(k, "%s * (%s * %s + q%d * %s)", v, db, log, k, da)
        # constant exponent: direct rule, no log and no division
        # (v * b / a overflows on subnormal bases)
        exponent = _literal(node.right)
        if exponent is None:
            return w.branches(k, [
                ("%s == 0" % b, lambda: None),
                (None, lambda: _constant_power(w, k, a, b, da, None)),
            ])
        if exponent == 0:
            return None
        return _constant_power(w, k, a, b, da, float(exponent).is_integer())

    return rule


def _constant_power(w, k, a, b, da, integer):
    """Tangent of a^b for a constant b != 0; integer tells whether b is an
    integer, None to test it at run time. A base of 0 with a non-integer
    b has no derivative where a's tangent is nonzero."""
    factor = "k%d" % k
    w.write("%s = %s", factor, a)
    if integer is not True:
        if integer is None:
            w.write("if not float(%s).is_integer():", b)
            w.depth += 1
        if w.block:
            w.write("y%d = %s == 0", k, factor)
            w.write("if _np.any(y%d):", k)
            w.depth += 1
            _mark_tangent(w, "y%d" % k, da[0], "_POWER")
            w.write("%s = _np.where(y%d, 1.0, %s)", factor, k, factor)
        else:
            w.write("if %s == 0:", factor)
            w.depth += 1
            w.write("if %s: raise _D(_POWER)", " or ".join("%s != 0" % p for p in da))
            w.write("%s = 1.0", factor)
        w.depth -= 2 if integer is None else 1
    w.write("%s = %s * %s ** (%s - 1.0)", factor, b, factor, b)
    return w.parts(k, "%s * %s", factor, da)


def _unary_rule(w, k, fn, a, v):
    def rule(da):
        if fn == "neg":
            return w.parts(k, "-%s", da)
        if fn == "sqrt":
            return _sqrt_tangent(w, k, v, da)
        template, op = _UNARY[fn]
        factor = "k%d" % k
        w.write("%s = " + template % {"a": a, "v": v}, factor)
        if op == "*":
            return w.parts(k, "%s * %s", factor, da)
        return w.parts(k, "%s / %s", da, factor)

    return rule


def _sqrt_tangent(w, k, v, da):
    """da / (2 sqrt(a)), and 0 where sqrt(a) is 0 and da is too."""
    if w.block:
        zero = "y%d" % k
        w.write("%s = %s == 0", zero, v)
        _mark_tangent(w, zero, da[0], "_SQRT")
        return w.parts(
            k, "_np.where(%s, 0.0, %s / (2.0 * _np.where(%s, 1.0, %s)))", zero, da, zero, v
        )

    def at_zero():
        w.write("if %s: raise _D(_SQRT)", " or ".join("%s != 0" % p for p in da))
        return ("0.0",) * w.width

    def elsewhere():
        w.write("k%d = 2.0 * %s", k, v)
        return w.parts(k, "%s / %s", da, "k%d" % k)

    return w.branches(k, [("%s == 0" % v, at_zero), (None, elsewhere)])


def _mark_tangent(w, zero, da, message):
    """Block form: rows where zero holds and da is nonzero fault."""
    hit = "(%s & (%s != 0))" % (zero, da)
    w.mark("_np.any%s" % hit, "%s.any(-1, keepdims=True)" % hit, message)


def _extreme(w, k, fn, args):
    """Write min or max over args [(value, tangent, raw)] into node k;
    return its tangent. Ties keep the earlier argument, for the value and
    the tangent alike."""
    beats = _EXTREMES[fn]
    v = "v%d" % k
    w.write("%s = %s", v, args[0][0])
    tangents = [t if w.derivatives else None for _, t, _ in args]
    if w.block:
        current = tangents[0]
        for (a, _, _), t in zip(args[1:], tangents[1:]):
            take = "y%d" % w.new()
            w.write("%s = %s %s %s", take, a, beats, v)
            w.write("%s = _np.where(%s, %s, %s)", v, take, a, v)
            if t is not None or current is not None:
                w.write("t%d = _np.where(%s, %s, %s)", k, take, _part(t), _part(current))
                current = ("t%d" % k,)
        if current is None or any(type(t) is tuple for t in tangents):
            return current
        w.write("z%d = %s", k, " and ".join(t.flag for t in tangents if t is not None))
        return _Dyn("z%d" % k, current)
    # a point takes the first argument that beats the best so far
    if all(t is None for t in tangents):
        kind = None
    elif all(type(t) is tuple for t in tangents):
        kind = tuple
    else:
        kind = _Dyn
    names = w.names(k)

    def take(t):
        if kind is _Dyn:
            flag = t.flag if type(t) is _Dyn else t is None
            w.write("z%d = %s", k, flag)
        if kind is not None:
            parts = ("0.0",) * w.width if t is None else getattr(t, "parts", t)
            for name, part in zip(names, parts):
                w.write("%s = %s", name, part)

    take(tangents[0])
    for (a, _, _), t in zip(args[1:], tangents[1:]):
        w.write("if %s %s %s:", a, beats, v)
        w.depth += 1
        w.write("%s = %s", v, a)
        take(t)
        w.depth -= 1
    if kind is None:
        return None
    return names if kind is tuple else _Dyn("z%d" % k, names)


def _fault_message(node):
    if isinstance(node, BinOp):
        return "non-finite value in " + _BINARY[node.op][0]
    if isinstance(node, Neg):
        return "non-finite value in negation"
    return _FAULT_MESSAGES.get(node.fn, "non-finite value in %s()" % node.fn)


def _fault_at(node, divisor, message=None):
    """node's EvalDomainError: message, else "division by zero" where
    divisor (a division's right side, else None) holds a 0."""
    if message is None:
        if divisor is not None and np.any(divisor == 0):
            message = "division by zero"
        else:
            message = _fault_message(node)
    return EvalDomainError(message, node.span)


def _located(owners, err):
    """err, raised in a generated function, as the EvalDomainError of the
    node whose line raised it; err itself when no node's line did."""
    tb = err.__traceback__
    line = tb.tb_lineno - _FIRST_LINE
    owner = owners[line] if 0 <= line < len(owners) else None
    if owner is None:
        return err
    node, divisor = owner
    return _fault_at(
        node,
        None if divisor is None else _lookup(tb.tb_frame, divisor),
        str(err) if isinstance(err, EvalDomainError) else None,
    )


def _lookup(frame, name):
    local = frame.f_locals
    return local[name] if name in local else frame.f_globals[name]


def _nonfinite_derivative(spans, rows):
    """Raise for the first component whose Jacobian row is non-finite."""
    for span, row in zip(spans, rows):
        if not all(map(math.isfinite, row)):
            raise EvalDomainError("non-finite derivative", span)


def _generate(components, block, derivatives):
    """The generated function of components (Ast sharing one variable
    tuple), taking the n variable values. It returns the m component
    values or, with derivatives, their tangents: at a point the (m, n)
    Jacobian as nested lists, on a block one array or None per
    component, then the mask of faulting rows and the first fault."""
    n = components[0].arity
    w = _Writer(n, block, derivatives)
    roots = [_emit(w, c.root) for c in components]
    w.owner = None
    if not derivatives:
        results = "[%s]" % ", ".join(v for v, _, _ in roots)
        w.write("return %s, _m, _f" if block else "return %s", results)
    elif block:
        w.write(
            "return [%s], _m, _f",
            ", ".join("None" if t is None else _part(t) for _, t, _ in roots),
        )
    else:
        rows = [("0.0",) * n if t is None else getattr(t, "parts", t) for _, t, _ in roots]
        jac = "[%s]" % ", ".join("[%s]" % ", ".join(row) for row in rows)
        names = [p for row in rows for p in row if p not in ("0.0", "1.0")]
        if names:
            test = " + ".join("(%s - %s)" % (p, p) for p in names)
            w.write("if %s: _nonfinite(%s)", test, jac)
        w.write("return %s", jac)
    source = (
        _HEADER % ", ".join("x%d" % i for i in range(n))
        + "\n".join(w.lines)
        # a constant subtree's fault faults a block's every row
        + _FOOTER % ("return (), True, _f or _fault(err)" if block else "raise _fault(err) from None")
    )
    namespace = w.namespace
    namespace["_fault"] = functools.partial(_located, w.owners)
    namespace["_nonfinite"] = functools.partial(
        _nonfinite_derivative, [c.root.span for c in components]
    )
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["_generated"]


def _cached(make, components, *args):
    """make(components, *args) for a tuple of components, made on first
    use and kept on the first component (with the others, so their ids
    in the key stay theirs)."""
    key = (make,) + args + tuple(map(id, components[1:]))
    cache = components[0].generated
    got = cache.get(key)
    if got is None:
        got = cache[key] = (components[1:], make(components, *args))
    return got[1]


@functools.lru_cache(maxsize=None)
def _seeds(n):
    """Unit tangents of the n variables: read-only rows of the identity."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return tuple(eye)


@dataclass(frozen=True)
class CompiledMap:
    """The generated callables of a map whose rows are m components in n
    variables: values(c) and jacobian(c) at a point c of shape (n,), an
    (m,) and an (m, n) array, raising at a fault; values_many(P) and
    jacobian_many(P) on an (N, n) block return the pair (an (N, m) or
    an (N, m, n) array, first fault or None), a faulting row NaN (a
    non-finite derivative faults too)."""

    values: object
    values_many: object
    jacobian: object
    jacobian_many: object


def compile_map(components):
    """The CompiledMap of components, a sequence of Ast sharing one
    variable tuple; made once per tuple of components."""
    comps = tuple(components)
    if not comps:
        raise InputError("no components given")
    if len({c.variables for c in comps}) > 1:
        raise InputError("components disagree on variables")
    return _cached(_map_callables, comps)


def _map_callables(comps):
    m, n = len(comps), comps[0].arity

    def lazily(block, derivatives):
        # a one-slot cell holding the generated function, which is
        # compiled on its first call (a serial caller never needs the
        # block forms)
        cell = []

        def first(*x):
            cell[0] = _cached(_generate, comps, block, derivatives)
            return cell[0](*x)

        cell.append(first)
        return cell

    point_values, block_values = lazily(False, False), lazily(True, False)
    point_jacobian, block_jacobian = lazily(False, True), lazily(True, True)

    def values(c):
        return np.array(point_values[0](*c.tolist()))

    def values_many(pts):
        out = np.empty((pts.shape[0], m))
        with np.errstate(all="ignore"):
            got, bad, fault = block_values[0](*pts.T)
        for i, value in enumerate(got):
            out[:, i] = value
        if fault is not None:
            out[np.broadcast_to(bad, pts.shape[:1])] = np.nan
        return out, fault

    def jacobian(c):
        return np.array(point_jacobian[0](*c.tolist()), dtype=float)

    def jacobian_many(pts):
        jac = np.zeros((pts.shape[0], m, n))
        with np.errstate(all="ignore"):
            got, bad, fault = block_jacobian[0](*[pts[:, i : i + 1] for i in range(n)])
        for i, d in enumerate(got):
            if d is not None:
                jac[:, i, :] = d
        finite = np.isfinite(jac)
        if fault is not None:
            jac[np.broadcast_to(bad, (pts.shape[0], 1))[:, 0]] = np.nan
        elif not finite.all():
            rows_ok = finite.all(axis=-1).all(axis=0)
            comp = comps[int(np.argmin(rows_ok))]
            fault = EvalDomainError("non-finite derivative", comp.root.span)
        return jac, fault

    return CompiledMap(values, values_many, jacobian, jacobian_many)


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
    if all(type(v) is float or np.ndim(v) == 0 for v in x):
        return float(_cached(_generate, (a,), False, False)(*[float(v) for v in x])[0])
    env = [np.asarray(v, dtype=float) for v in x]
    with np.errstate(all="ignore"):
        got, _, fault = _cached(_generate, (a,), True, False)(*env)
    if fault is not None:
        raise fault
    out = np.asarray(got[0], dtype=float)
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
    comps = tuple(components)
    compiled = compile_map(comps)
    n = comps[0].arity
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1 and pts.shape[0] == n:
        return compiled.jacobian(pts)
    if pts.ndim == 2 and pts.shape[1] == n:
        jac, fault = compiled.jacobian_many(pts)
        if fault is not None:
            raise fault
        return jac
    raise InputError("point shape %s is not (%d,) or (N, %d)" % (pts.shape, n, n))


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
