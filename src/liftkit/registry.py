"""Registry files: user-defined maps, weights, paths, and implicit
problems in INI syntax.

Section headers carry the object class and name: [map hump],
[weight wlin], [path circle1], [implicit cubic]. Vectors are
comma-separated; expression lists separate components with semicolons.
Membership predicates follow the sign convention: the domain is where
the expression is positive.

Example:

    [map hump]
    dim_in = 2
    dim_out = 2
    components = x + y^3 ; y
    jacobian = 1 ; 3*y^2 ; 0 ; 1
    domain = 4 - x^2 - y^2

    [weight wlin]
    family = affine
    a = 1
    b = 1

    [path arc]
    kind = expression
    components = cos(t) ; sin(t)
    domain = 0, 3.14159265358979

    [implicit cubic]
    map = cubic_implicit
    x_dim = 1
    w = 0
"""

from __future__ import annotations

import configparser
import os

import numpy as np

from .errors import InputError, LiftkitError
from .geometry import (
    Euclidean,
    ExpressionPath,
    Loop,
    Segment,
    Torus,
    polyline,
    subset_from_expression,
)
from .hadamard import (
    AffineWeight,
    ConstantWeight,
    ExpressionWeight,
    PowerWeight,
)
from .implicit import ImplicitProblem
from .mapdef import expression_map, resolve_map

__all__ = ["Registry", "load_registry", "parse_vector", "parse_weight_spec"]

_VAR_ORDER = ("x", "y", "z", "w")


def parse_vector(text):
    parts = [p.strip() for p in str(text).split(",")]
    if not parts or any(p == "" for p in parts):
        raise InputError("bad vector %r" % text)
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise InputError("bad vector %r" % text)


def _split_exprs(text):
    return [p.strip() for p in str(text).split(";") if p.strip()]


def _parse_knots(text):
    """A polyline's knots: vectors of one length separated by ';' (np.stack
    raises ValueError for none or for mixed lengths)."""
    return np.stack([parse_vector(k) for k in _split_exprs(text)])


def _base_space(tag, dim):
    tag = (tag or "euclidean").strip().lower()
    if tag == "euclidean":
        return Euclidean(dim)
    if tag == "torus":
        return Torus(dim)
    raise InputError("unknown space annotation %r" % tag)


def _field(body, section, key, convert=float, default=None):
    """body[key] by convert (float, int, str, parse_vector or
    _parse_knots), or default if given and the key is absent; a missing
    key, or a bad value, is an InputError naming the section and key."""
    if key not in body:
        if default is None:
            raise InputError("%s is missing key %r" % (section, key))
        return default
    try:
        return convert(body[key])
    except (ValueError, InputError):
        kind = _KINDS.get(convert, "a number")
        raise InputError(
            "%s: %s = %r is not %s" % (section, key, body[key], kind)
        ) from None


_KINDS = {int: "an integer", parse_vector: "a vector", _parse_knots: "a list of vectors"}


# weight family -> (constructor, parameter keys, in the spec's order)
_WEIGHT_FAMILIES = {
    "constant": (ConstantWeight, ("c",)),
    "affine": (AffineWeight, ("a", "b")),
    "power": (PowerWeight, ("a", "b", "gamma")),
}
_COUNTS = {1: "one parameter", 2: "two parameters", 3: "three parameters"}


def parse_weight_spec(text):
    """Weight from a compact spec: constant:c, affine:a,b,
    power:a,b,gamma, or expr:<formula in t>."""
    text = str(text).strip()
    if ":" not in text:
        raise InputError(
            "weight spec needs family:params, e.g. affine:1,1 or expr:1+t"
        )
    family, rest = text.split(":", 1)
    family = family.strip().lower()
    if family in ("expr", "expression"):
        return ExpressionWeight(rest.strip())
    vals = parse_vector(rest)
    if family not in _WEIGHT_FAMILIES:
        raise InputError("unknown weight family %r" % family)
    make, keys = _WEIGHT_FAMILIES[family]
    if vals.size != len(keys):
        names = "" if len(keys) == 1 else " " + ",".join(keys)
        raise InputError("%s weight takes %s%s" % (family, _COUNTS[len(keys)], names))
    return make(*map(float, vals))


class Registry:
    """Parsed registry file: named map/weight/path/implicit sections.

    Objects are built on access; validate() builds everything once and
    collects the failures.
    """

    def __init__(self, path=None):
        self.path = path
        self._maps = {}
        self._weights = {}
        self._paths = {}
        self._implicits = {}
        self._sections = {
            "map": self._maps,
            "weight": self._weights,
            "path": self._paths,
            "implicit": self._implicits,
        }

    # -- section intake ----------------------------------------------------

    @classmethod
    def from_file(cls, path):
        if not os.path.exists(path):
            raise InputError("registry file %s does not exist" % path)
        cp = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cp.read_file(fh)
        except configparser.Error as err:
            raise InputError("registry parse error: %s" % err)
        reg = cls(path=path)
        for section in cp.sections():
            parts = section.split(None, 1)
            if len(parts) != 2:
                raise InputError(
                    "section [%s] needs the form [kind name]" % section
                )
            kind, name = parts[0].lower(), parts[1].strip()
            if kind not in reg._sections:
                raise InputError("unknown section kind %r in [%s]" % (kind, section))
            reg._sections[kind][name] = dict(cp[section])
        return reg

    def names(self):
        return {kind + "s": sorted(bodies) for kind, bodies in self._sections.items()}

    # -- maps ----------------------------------------------------------------

    def has_map(self, name):
        return name in self._maps

    def get_map(self, name):
        if name not in self._maps:
            raise InputError("registry has no map %r" % name)
        body = self._maps[name]
        section = "map %s" % name
        dim_in = _field(body, section, "dim_in", int)
        dim_out = _field(body, section, "dim_out", int)
        comps = _split_exprs(_field(body, section, "components", str))
        if len(comps) != dim_out:
            raise InputError(
                "map %s declares dim_out = %d but has %d components"
                % (name, dim_out, len(comps))
            )
        variables = _VAR_ORDER[:dim_in]
        if dim_in > len(_VAR_ORDER):
            raise InputError("maps support at most %d variables" % len(_VAR_ORDER))
        domain = _base_space(body.get("space"), dim_in)
        codomain = _base_space(body.get("codomain_space"), dim_out)
        if "domain" in body:
            domain = subset_from_expression(domain, body["domain"], variables)
        jac_src = None
        if "jacobian" in body:
            jac_list = _split_exprs(body["jacobian"])
            if len(jac_list) != dim_in * dim_out:
                raise InputError(
                    "map %s jacobian needs %d expressions, got %d"
                    % (name, dim_in * dim_out, len(jac_list))
                )
            jac_src = "(" + ", ".join(jac_list) + ")"
        return expression_map(
            "(" + ", ".join(comps) + ")",
            variables=variables,
            domain=domain,
            codomain=codomain,
            jacobian_source=jac_src,
            name=name,
        )

    # -- weights ---------------------------------------------------------

    def has_weight(self, name):
        return name in self._weights

    def get_weight(self, name):
        if name not in self._weights:
            raise InputError("registry has no weight %r" % name)
        body = self._weights[name]
        family = body.get("family", "").strip().lower()
        if ":" in family:
            # compact one-line form, same syntax as the CLI weight spec
            return parse_weight_spec(body["family"])
        if family in ("expr", "expression"):
            if "expr" not in body:
                raise InputError("weight %s needs an expr key" % name)
            return parse_weight_spec("expr:" + body["expr"])
        if family not in _WEIGHT_FAMILIES:
            raise InputError("weight %s has unknown family %r" % (name, family))
        section = "weight %s" % name
        keys = _WEIGHT_FAMILIES[family][1]
        values = [_field(body, section, key) for key in keys]
        return parse_weight_spec("%s:%s" % (family, ",".join(map(repr, values))))

    # -- paths ---------------------------------------------------------------

    def has_path(self, name):
        return name in self._paths

    def get_path(self, name, space):
        """Build the named path in the given space (paths are stored as
        coordinate recipes; the space comes from the consuming map)."""
        if name not in self._paths:
            raise InputError("registry has no path %r" % name)
        body = self._paths[name]
        section = "path %s" % name
        kind = body.get("kind", "").strip().lower()
        if kind == "segment":
            start = _field(body, section, "start", parse_vector)
            return Segment(space, start, _field(body, section, "end", parse_vector))
        if kind == "loop":
            return Loop(
                space,
                _field(body, section, "center", parse_vector),
                _field(body, section, "radius"),
                winding=_field(body, section, "winding", int, 1),
                phase=_field(body, section, "phase", float, 0.0),
            )
        if kind == "polyline":
            return polyline(space, _field(body, section, "knots", _parse_knots))
        if kind == "expression":
            dom = _field(body, section, "domain", parse_vector, np.array([0.0, 1.0]))
            if dom.size != 2:
                raise InputError("path %s domain needs two numbers" % name)
            comps = _split_exprs(_field(body, section, "components", str))
            source = "(" + ", ".join(comps) + ")"
            return ExpressionPath(space, source, (float(dom[0]), float(dom[1])))
        raise InputError("path %s has unknown kind %r" % (name, kind))

    # -- implicit problems -------------------------------------------------

    def get_implicit(self, name):
        if name not in self._implicits:
            raise InputError("registry has no implicit problem %r" % name)
        body = self._implicits[name]
        section = "implicit %s" % name
        map_ref = _field(body, section, "map", str)
        x_dim = _field(body, section, "x_dim", int)
        w = _field(body, section, "w", parse_vector)
        f = resolve_map(map_ref, registry=self)
        return ImplicitProblem(f, x_dim, w)

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Build every section; returns a list of (section, error) pairs."""
        problems = []
        for kind, bodies, build in (
            ("map", self._maps, self.get_map),
            ("weight", self._weights, self.get_weight),
            ("path", self._paths, self._probe_path),
            ("implicit", self._implicits, self.get_implicit),
        ):
            for name in sorted(bodies):
                try:
                    build(name)
                except LiftkitError as err:
                    problems.append(("%s %s" % (kind, name), str(err)))
        return problems

    def _probe_path(self, name):
        """The named path in the first Euclidean space of dimension 1 to
        4 it builds in (a path needs a space of the right width); the
        last failure otherwise."""
        for dim in (1, 2, 3, 4):
            try:
                return self.get_path(name, Euclidean(dim))
            except LiftkitError as err:
                last = err
        raise last


def load_registry(path):
    return Registry.from_file(path)
