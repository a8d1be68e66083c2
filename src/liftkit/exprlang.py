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
forms, which mark each faulting row NaN. A Jacobian form computes, and
so tests, only the values its derivatives read, and the values whose
operation can fault on finite arguments other than by overflow.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvalDomainError, InputError, ParseError

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
# One generator (_emit writing into a _Writer) writes two forms of it: a
# point form, which takes the variable values as Python floats and calls
# math, and a block form, which takes one numpy array per variable (the
# points' coordinates) and calls numpy, elementwise. The rules below write
# one text for both; only the _Writer tells them apart, by its library
# names, its fault checks (raise or mark) and its select (if or
# np.where). Each form makes the operations the rules write, in their
# order, so a point's floats are the entries its block would hold.
#
# A tangent, the partial derivatives in the n variables, is n parts: each
# the name of a local (a float at a point, a float or an array on a
# block), the seed 1.0, or None for a partial that is zero by the tree's
# structure, which is decided when the code is generated. A None part is
# neither computed nor stored, and a factor 1.0 is not written (x * 1.0
# is x), so a constant subtree, whose parts are all None, costs no
# derivative work. A min or max takes its parts from the argument it
# picks, 0.0 for a None part, and a power whose exponent has no tangent
# (a constant subtree, say) has 0.0 parts where the exponent is 0.
#
# Values: one writer writes all of a map's components, each distinct
# subtree once. A subtree is known by its operation and its arguments'
# names, so by its structure and its literals' bits (0.0 == -0.0, but
# each has a name). A library call on one name is written once, whether a
# node or a tangent rule (cos's -sin(a) next to a node sin(a)) asks for
# it. A repeated subtree is computed, checked and differentiated where it
# first occurs, which is where it faulted first.
#
# Faults: the generated function maps whatever it raises (a failing float
# operation, a failed check, a tangent rule's EvalDomainError) to the node
# whose line raised it, so the first faulting node in evaluation order
# gives the message and the span. The point form checks after each
# operation that can turn finite arguments non-finite, so its raise order
# names the fault. The block form raises nothing: a failed check ORs its
# rows into the mask _m, and a constant subtree's fault (a Python float
# division by zero, say) faults every row; a caller that raises on a block
# raises what the point form raises at its first faulting row. A block
# tests a value only where a fault could hide: a non-finite value stays
# non-finite through +, -, *, negation, a numerator, sin, cos, tan, log,
# sqrt and abs, so it is tested where it reaches a root or an operation
# that can turn it finite (a divisor, including a tangent rule's; the
# arguments of exp, atan, tanh, min and max; the operands of a select
# test; both sides of a power; the argument abs's tangent reads), and a
# power keeps its test for a complex value of Python floats. A variable,
# a constant, or a min or max of those is never tested: its first use is.
#
# Jacobian forms keep only what a derivative reads: a backward pass over
# the written lines (_Writer.needed) keeps a line where the returned
# tangent parts, or a line kept after it, read what it assigns, and a
# value's test where its value is computed. So a value no tangent rule
# reads (a root's, or the y^3 under x + y^3) is neither computed nor
# tested, and the Jacobian exists where only such a value overflows. A
# value whose operation can fault on finite arguments other than by
# overflow keeps its line and its test: log and sqrt (a bad argument),
# a division (by zero) and a power whose exponent is not a literal
# integer >= 0 (a complex value, or a pole at a zero base). The returned
# parts are tested by the point form's last line and by a block's caller.
#
# The source holds only generated names, operators, the literals 0.0, 1.0
# and 2.0, and the library names below; numbers and nodes are bound in
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
# name -> (tangent factor k of argument a, value v and the shared library
# calls cos(a) and sin(a), and whether a tangent part p becomes k * p or
# p / k); sqrt has a rule of its own
_UNARY = {
    "sin": ("%(cos)s", "*"),
    "cos": ("-%(sin)s", "*"),
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
# the functions whose value can be finite at a non-finite argument
_SATURATING = frozenset({"exp", "atan", "tanh"})
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
# the locals of generated code: values v, tangent parts t, factors k,
# ratios q, select tests y and a block's mask _m (variables x, literals
# _c and library names are never assigned)
_LOCAL = re.compile(r"\b(?:[vkqy]\d+|t\d+_\d+|_m)\b")
_ASSIGNMENT = re.compile(r"(\w+) = (.*)")


class _Writer:
    """The body of one generated function, line by line, with the owner of
    each line: the node whose fault the line raises and, for a division,
    the name of its divisor."""

    def __init__(self, n, block, derivatives):
        self.n = n
        self.block = block
        self.derivatives = derivatives
        # (text, owner, the names it may assign, the names it reads, the
        # value it tests or None, whether that test needs the value tested)
        self.lines = []
        self.owner = None
        self.count = 0
        # the names of literals, library calls and subtrees, by their keys
        self.known = {}
        # the values a block tests (see source), and the values a Jacobian
        # form computes though no tangent rule reads them (see pin)
        self.tested = set()
        self.pinned = set()
        self.namespace = {name: forms[block] for name, forms in _LIBRARY.items()}
        self.namespace.update(
            _np=np,
            _E=ArithmeticError,
            _D=EvalDomainError,
            _CAUGHT=_CAUGHT,
            _SQRT="sqrt not differentiable at zero",
            _POWER="power not differentiable at non-positive base",
            _pow=_power,
        )
        if block:
            self.write("_m = False")

    def write(self, template, *names, sets=(), test=None, guarded=False):
        """Append a line: an assignment "name = ...", a select of the names
        sets, a test of the value test (on a block, only where the value
        is tested, if guarded), or a line kept whatever it reads."""
        text = template % names
        assignment = _ASSIGNMENT.fullmatch(text)
        if assignment:
            sets = (assignment.group(1),)
        reads = _LOCAL.findall(assignment.group(2) if assignment else text)
        self.lines.append(("        " + text, self.owner, sets, reads, test, guarded))

    def new(self):
        self.count += 1
        return self.count

    def literal(self, value):
        """The name bound to the number value, one per type and bit
        pattern."""
        bits = struct.pack("<d", value) if isinstance(value, float) else value
        key = (type(value), bits)
        name = self.known.get(key)
        if name is None:
            name = self.known[key] = "_c%d" % self.new()
            self.namespace[name] = value
        return name

    def call(self, fn, a):
        """The name of the library call fn(a), written once."""
        key = (fn, a)
        name = self.known.get(key)
        if name is None:
            name = self.known[key] = "v%d" % self.new()
            self.write("%s = %s(%s)", name, fn, a)
        return name

    def seed(self, i):
        """The tangent of variable i (of a constant for i None)."""
        d = self.derivatives
        return tuple("1.0" if d and j == i else None for j in range(self.n))

    def parts(self, k, rule, *tangents):
        """Node k's tangent: part j is rule(*the parts j of tangents),
        written to a local, and None where those are all None. A part the
        rule hands back as a name (one of its parts, a value, a factor)
        is not copied."""
        out = []
        for j, args in enumerate(zip(*tangents)):
            if not any(args):
                out.append(None)
                continue
            part = rule(*args)
            if part not in args and not part.isidentifier():
                self.write("t%d_%d = %s", k, j, part)
                part = "t%d_%d" % (k, j)
            out.append(part)
        return tuple(out)

    def check(self, v, point=True, power=False):
        """Fault where v is non-finite (or, after a power, complex). At a
        point, where point holds, raise; on a block, OR the rows where v
        is into the mask _m, a test source keeps only if v needs it."""
        if self.block:
            if power:
                self.write("if type(%s) is complex: raise _E", v, test=v)
            self.write(
                "if not _isfinite(%s).all(): _m = _m | ~_isfinite(%s)", v, v,
                test=v, guarded=True,
            )
        elif power:
            self.write("if not _isfinite(%s): raise _E", v, test=v)
        elif point:
            self.write("if %s - %s: raise _E", v, v, test=v)

    def guard(self, *names):
        """The values names feed an operation that can turn a non-finite
        value finite: on a block, they need their tests."""
        self.tested.update(names)

    def pin(self, v):
        """v's operation can fault on finite arguments other than by
        overflow: a Jacobian form computes and tests v though no tangent
        rule reads it (a values form computes every value)."""
        if self.derivatives:
            self.pinned.add(v)
            self.tested.add(v)

    def require(self, ok, message):
        """Fault with message where the elementwise test ok fails."""
        if self.block:
            # ok may be a Python bool, whose ~ is not a logical not
            self.write("if not _np.all(%s): _m = _m | _np.logical_not(%s)", ok, ok)
        else:
            self.write("if not (%s): raise _D(%s)", ok, message)

    def select(self, test, pairs):
        """Where the elementwise test holds, each (name, value) pair's
        name takes the value."""
        if self.block:
            y = "y%d" % self.new()
            self.write("%s = %s", y, test)
            for name, value in pairs:
                self.write("%s = _np.where(%s, %s, %s)", name, y, value, name)
        else:
            assign = "; ".join("%s = %s" % pair for pair in pairs)
            self.write("if %s: %s", test, assign, sets=tuple(name for name, _ in pairs))

    def source(self, roots):
        """The function's text, returning the values of roots [(value,
        tangent, raw)] or, with derivatives, their Jacobian rows (None
        for a partial zero by structure on a block; a non-finite entry
        faults at a point), then, on a block, the mask of faulting rows
        (False where none faults)."""
        if self.derivatives:
            zero = "None" if self.block else "0.0"
            rows = [[p or zero for p in t] for _, t, _ in roots]
            result = "[%s]" % ", ".join("[%s]" % ", ".join(row) for row in rows)
            names = [p for row in rows for p in row if p not in (zero, "1.0")]
            if names and not self.block:
                test = " + ".join("(%s - %s)" % (p, p) for p in names)
                self.write("if %s: _nonfinite(%s)", test, result)
        else:
            result = "[%s]" % ", ".join(v for v, _, _ in roots)
            # a non-finite value reaches a root, or a guarded value, only
            # through values that stay non-finite, so only those are tested
            self.guard(*(v for v, _, _ in roots))
        if self.block:
            result += ", _m"
            # a constant subtree's fault faults a block's every row
            footer = "return (), True"
        else:
            footer = "raise _fault(err) from None"
        lines = self.needed(result)
        self.owners = [owner for _, owner in lines]
        body = [text for text, _ in lines] + ["        return " + result]
        names = ", ".join("x%d" % i for i in range(self.n))
        return _HEADER % names + "\n".join(body) + _FOOTER % footer

    def needed(self, result):
        """The (text, owner) of the lines to keep, by a backward pass from
        result: a line assigning what result, a later kept line or a
        pinned value reads; a line that assigns nothing (a require, the
        point's derivative test); and a test of a value some kept line
        computes (of a tested one where the test is guarded). A values
        form keeps every line."""
        live = set(_LOCAL.findall(result)) | self.pinned
        kept, computed = set(), set()
        for i in reversed(range(len(self.lines))):
            _, _, sets, reads, test, _ = self.lines[i]
            if test is None and (not sets or not live.isdisjoint(sets)):
                kept.add(i)
                computed.update(sets)
                live.difference_update(sets)
                live.update(reads)
        return [
            (text, owner)
            for i, (text, owner, _, _, test, guarded) in enumerate(self.lines)
            if i in kept or test in computed and (not guarded or test in self.tested)
        ]

    def log(self, a):
        """numpy's log of a, at a point too, as the block takes it."""
        return ("_np.log(%s)" if self.block else "float(_np.log(%s))") % a

    def power(self, a, b):
        """a ** b, which overflows to inf at a point as on a block."""
        return ("%s ** (%s)" if self.block else "_pow(%s, %s)") % (a, b)


def _power(a, b):
    """a ** b of Python floats, numpy's inf where the float ** overflows
    (it raises OverflowError)."""
    try:
        return a**b
    except OverflowError:
        with np.errstate(over="ignore"):
            return float(np.power(a, b))


def _times(x, y):
    """x * y without a factor 1.0 (exact)."""
    return y if x == "1.0" else x if y == "1.0" else "%s * %s" % (x, y)


def _still(test, tangent):
    """The test, or every part of tangent is 0: where the test fails, only
    a tangent that does not move is differentiable."""
    if "1.0" in tangent:
        return test
    return "(%s) | (%s)" % (test, " & ".join("(%s == 0)" % p for p in tangent if p))


def _literal(node):
    """The value of a number or of a negated literal, else None."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        inner = _literal(node.arg)
        return None if inner is None else -inner
    return None


def _natural(node):
    """Whether node is a literal integer >= 0, a power by which has no
    complex value and no pole."""
    value = _literal(node)
    return value is not None and value >= 0 and float(value).is_integer()


def _emit(w, node):
    """Write the code of node's subtree, arguments first, unless the writer
    knows it. Returns the name of its value, its tangent and whether the
    value may be a non-finite input: a variable, a constant, or a min or
    max of those (every other value is checked)."""
    if isinstance(node, Num):
        return w.literal(node.value), w.seed(None), True
    if isinstance(node, Var):
        if not 0 <= node.index < w.n:
            raise InputError("variable %r has no index among %d" % (node.name, w.n))
        return "x%d" % node.index, w.seed(node.index), True
    if isinstance(node, BinOp):
        op, args = node.op, [_emit(w, node.left), _emit(w, node.right)]
    elif isinstance(node, Neg):
        op, args = "neg", [_emit(w, node.arg)]
    else:
        op, args = node.fn, [_emit(w, arg) for arg in node.args]
    key = (op,) + tuple(v for v, _, _ in args)
    got = w.known.get(key)
    if got is None:
        got = w.known[key] = _operation(w, node, op, args)
    return got


def _operation(w, node, op, args):
    """_emit's result for node, operation op on args [(value, tangent,
    raw)], written for the first time."""
    k = w.new()
    v = "v%d" % k
    w.owner = (node, args[1][0] if op == "/" else None)
    if isinstance(node, BinOp):
        (a, da, _), (b, db, _) = args
        w.guard(*{"/": (b,), "^": (a, b)}.get(op, ()))
        w.write("%s = %s %s %s", v, a, _BINARY[op][1], b)
        if op == "/" or op == "^" and not _natural(node.right):
            w.pin(v)
        w.check(v, power=op == "^")
        tangent = _binary_tangent(w, k, node, a, b, v, da, db) if any(da + db) else da
        return v, tangent, False
    if op in _EXTREMES:
        return v, _extreme(w, k, op, args), any(raw for _, _, raw in args)
    ((a, da, raw),) = args
    if op in _SATURATING:
        w.guard(a)
    if op == "neg":
        w.write("%s = -%s", v, a)
    else:
        v = w.call("_" + op, a)
    if op in _FAULT_MESSAGES:
        w.pin(v)
    w.check(v, point=raw)
    return v, _unary_tangent(w, k, op, a, v, da) if any(da) else da, False


def _binary_tangent(w, k, node, a, b, v, da, db):
    op = node.op
    if op == "+":
        return w.parts(k, lambda p, q: "%s + %s" % (p, q) if p and q else p or q, da, db)
    if op == "-":
        return w.parts(
            k, lambda p, q: "%s - %s" % (p, q) if p and q else p or "-" + q, da, db
        )
    if op == "*":

        def product(p, q):
            if p and q:
                return "%s + %s" % (_times(b, p), _times(a, q))
            return _times(b, p) if p else _times(a, q)

        return w.parts(k, product, da, db)
    if op == "/":

        def quotient(p, q):
            if not q:
                return "%s / %s" % (p, b)
            if not p:
                return "-(%s) / %s" % (_times(v, q), b)
            return "(%s - %s) / %s" % (p, _times(v, q), b)

        return w.parts(k, quotient, da, db)
    if any(db):
        w.require("%s > 0" % a, "_POWER")
        log, ratio = "k%d" % k, "q%d" % k
        w.write("%s = %s", log, w.log(a))
        if any(da):
            w.write("%s = %s / %s", ratio, b, a)

        def power(p, q):
            if p and q:
                return "%s * (%s + %s)" % (v, _times(q, log), _times(ratio, p))
            return "%s * (%s)" % (v, _times(ratio, p) if p else _times(q, log))

        return w.parts(k, power, da, db)
    # constant exponent: direct rule, no log and no division
    # (v * b / a overflows on subnormal bases)
    exponent = _literal(node.right)
    if exponent == 0:
        return db
    integer = None if exponent is None else float(exponent).is_integer()
    return _constant_power(w, k, a, b, da, integer)


def _constant_power(w, k, a, b, da, integer):
    """Tangent of a^b for an exponent b without a tangent; integer tells
    whether the literal b is an integer, None for a b known only at run
    time, which may also be 0 (zero parts there). A base of 0 with a
    non-integer b has no derivative where a's tangent is nonzero."""
    factor = "k%d" % k
    base = a if integer else factor
    if not integer:  # a select below rewrites the base
        w.write("%s = %s", factor, a)
    if integer is None:
        w.require(_still("(%s != 0) | (%s %% 1.0 == 0)" % (factor, b), da), "_POWER")
        # a base of 1 keeps b * base^(b - 1) finite where it is unused
        w.select(
            "(%s == 0) & (%s %% 1.0 != 0) | (%s == 0)" % (factor, b, b),
            [(factor, "1.0")],
        )
    elif not integer:
        w.require(_still("%s != 0" % factor, da), "_POWER")
        w.select("%s == 0" % factor, [(factor, "1.0")])
    w.write("%s = %s * %s", factor, b, w.power(base, "%s - 1.0" % b))
    tangent = w.parts(k, lambda p: _times(factor, p), da)
    if integer is None:
        w.select("%s == 0" % b, [(part, "0.0") for part in tangent if part])
    return tangent


def _unary_tangent(w, k, fn, a, v, da):
    if fn == "neg":
        return w.parts(k, lambda p: "-" + p, da)
    factor = "k%d" % k
    if fn == "sqrt":
        # p / (2 sqrt(a)), and p / 1 = 0 where sqrt(a) is 0 and p is too
        w.guard(v)
        w.require(_still("%s != 0" % v, da), "_SQRT")
        w.write("%s = 2.0 * %s", factor, v)
        w.select("%s == 0" % v, [(factor, "1.0")])
        return w.parts(k, lambda p: "%s / %s" % (p, factor), da)
    if fn == "abs":
        # copysign and a != 0 turn a non-finite a finite
        w.guard(a)
    template, op = _UNARY[fn]
    calls = {g: w.call("_" + g, a) for g in ("sin", "cos") if "(%s)" % g in template}
    text = template % dict(calls, a=a, v=v)
    if text.isidentifier():  # exp's v, log's a, sin's cos(a): no copy
        factor = text
    else:
        w.write("%s = %s", factor, text)
    if op == "*":
        return w.parts(k, lambda p: _times(factor, p), da)
    w.guard(a)
    return w.parts(k, lambda p: "%s / %s" % (p, factor), da)


def _extreme(w, k, fn, args):
    """Write min or max over args [(value, tangent, raw)] into node k;
    return its tangent. Ties keep the earlier argument, for the value and
    the tangent alike. The value is one of the arguments, which a block
    tests, so it needs no test of its own."""
    v = "v%d" % k
    w.guard(*(a for a, _, _ in args))
    w.write("%s = %s", v, args[0][0])
    names = [
        "t%d_%d" % (k, j) if any(t[j] for _, t, _ in args) else None
        for j in range(w.n)
    ]
    for name, part in zip(names, args[0][1]):
        if name:
            w.write("%s = %s", name, part or "0.0")
    for a, t, _ in args[1:]:
        w.select(
            "%s %s %s" % (a, _EXTREMES[fn], v),
            [(v, a)] + [(name, part or "0.0") for name, part in zip(names, t) if name],
        )
    return tuple(names)


def _fault_message(node):
    if isinstance(node, BinOp):
        return "non-finite value in " + _BINARY[node.op][0]
    if isinstance(node, Neg):
        return "non-finite value in negation"
    return _FAULT_MESSAGES.get(node.fn, "non-finite value in %s()" % node.fn)


def _fault_at(node, divisor, message=None):
    """node's EvalDomainError: message, else "division by zero" where
    divisor (a division's right side, else None) is 0."""
    if message is None:
        if divisor == 0:
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
    Jacobian as nested lists, on a block its rows of parts, None for a
    partial zero by structure, then the mask of faulting rows."""
    w = _Writer(components[0].arity, block, derivatives)
    roots = [_emit(w, c.root) for c in components]
    w.owner = None
    source = w.source(roots)
    namespace = w.namespace
    namespace["_fault"] = functools.partial(_located, w.owners)
    namespace["_nonfinite"] = functools.partial(
        _nonfinite_derivative, [c.root.span for c in components]
    )
    exec(compile(source, "<expression>", "exec"), namespace)
    generated = namespace["_generated"]
    generated.source = source
    return generated


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


@dataclass(frozen=True)
class CompiledMap:
    """The generated callables of a map whose rows are m components in n
    variables: values(c) and jacobian(c) at a point c, a sequence of n
    Python floats, return a list of m floats and m lists of n floats,
    raising at a fault; values_many(P) and jacobian_many(P) on an (N, n)
    block return an (N, m) or an (N, m, n) array, a faulting row NaN
    (a derivative may also be non-finite where the values are not)."""

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
        return point_values[0](*c)

    def values_many(pts):
        out = np.empty((pts.shape[0], m))
        with np.errstate(all="ignore"):
            got, bad = block_values[0](*pts.T)
        for i, value in enumerate(got):
            out[:, i] = value
        if bad is not False:  # a row mask, or True for every row
            out[bad] = np.nan
        return out

    def jacobian(c):
        return point_jacobian[0](*c)

    def jacobian_many(pts):
        jac = np.zeros((pts.shape[0], m, n))
        with np.errstate(all="ignore"):
            got, bad = block_jacobian[0](*pts.T)
        for i, row in enumerate(got):
            for j, part in enumerate(row):
                if part is not None:
                    jac[:, i, j] = part
        if bad is not False:
            jac[bad] = np.nan
        return jac

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
    point = _cached(_generate, (a,), False, False)
    if all(type(v) is float or np.ndim(v) == 0 for v in x):
        return float(point(*[float(v) for v in x])[0])
    env = [np.asarray(v, dtype=float) for v in x]
    with np.errstate(all="ignore"):
        got, bad = _cached(_generate, (a,), True, False)(*env)
    if bad is not False:
        *cols, bad = (c.ravel() for c in np.broadcast_arrays(*env, bad))
        _raise_first(lambda c: point(*c), np.stack(cols, axis=1), bad, a.source)
    out = np.asarray(got[0], dtype=float)
    if out.ndim == 0 and env and env[0].ndim > 0:
        out = np.broadcast_to(out, env[0].shape).copy()
    return out


def _raise_first(point, pts, bad, name):
    """Raise what point, a one-point form taking a list of floats, raises
    at the first row of the (N, n) block pts that the mask bad marks; a
    DomainError naming name and the row if it returns there."""
    i = int(np.argmax(bad))
    point(pts[i].tolist())
    raise DomainError("%s faults at row %d of a block" % (name, i))


def jacobian_ad(components, x):
    """Jacobian of the map whose rows are components, at x.

    components: sequence of Ast sharing one variable tuple. For a point
    x of length n = arity the result is an (m, n) array with
    m = len(components); for an (N, n) block of points it is an
    (N, m, n) stack. A block raises what its first faulting row raises.
    """
    comps = tuple(components)
    compiled = compile_map(comps)
    n = comps[0].arity
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1 and pts.shape[0] == n:
        return np.array(compiled.jacobian(pts.tolist()), dtype=float)
    if pts.ndim == 2 and pts.shape[1] == n:
        jac = compiled.jacobian_many(pts)
        bad = ~np.isfinite(jac).all(axis=(1, 2))
        if bad.any():
            _raise_first(compiled.jacobian, pts, bad, comps[0].source)
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
