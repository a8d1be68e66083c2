"""Registry files and report documents."""

import json

import numpy as np
import pytest

from liftkit.cli import run
from liftkit.errors import InputError
from liftkit.geometry import Euclidean, Point
from liftkit.hadamard import AffineWeight, PowerWeight
from liftkit.mapdef import jacobian_at
from liftkit.registry import Registry, load_registry, parse_vector, parse_weight_spec
from liftkit.report import Report, load_schema, plain, schema_path, validate_report


# -- registry loading ------------------------------------------------------


def test_names_lists_every_section(registry_file):
    reg = Registry.from_file(registry_file)
    names = reg.names()
    assert names["maps"] == ["hump"]
    assert names["weights"] == ["wcompact", "wlin"]
    assert names["paths"] == ["arc", "diag", "ring"]
    assert names["implicits"] == ["cubic"]


def test_load_registry_alias(registry_file):
    reg = load_registry(registry_file)
    assert reg.has_map("hump")


def test_map_from_file_evaluates(registry_file):
    reg = Registry.from_file(registry_file)
    f = reg.get_map("hump")
    assert f.dim_in == 2 and f.dim_out == 2
    out = f(np.array([1.0, 2.0]))
    assert np.allclose(out, [9.0, 2.0])
    jac = jacobian_at(f, np.array([1.0, 2.0]))
    assert np.allclose(jac, [[1.0, 12.0], [0.0, 1.0]])


def test_map_domain_predicate(registry_file):
    # domain is the open disc x^2 + y^2 < 25
    reg = Registry.from_file(registry_file)
    f = reg.get_map("hump")
    assert f.domain.contains(np.array([3.0, 3.0]))
    assert not f.domain.contains(np.array([4.0, 4.0]))


def test_weight_long_form(registry_file):
    reg = Registry.from_file(registry_file)
    w = reg.get_weight("wlin")
    assert isinstance(w, AffineWeight)
    assert w(0.0) == pytest.approx(1.0)
    assert w(3.0) == pytest.approx(4.0)


def test_weight_compact_form(registry_file):
    reg = Registry.from_file(registry_file)
    w = reg.get_weight("wcompact")
    assert isinstance(w, PowerWeight)
    assert w(4.0) == pytest.approx(1.0 + 1.0 * 4.0**0.5)


def test_paths_of_each_kind(registry_file):
    reg = Registry.from_file(registry_file)
    plane = Euclidean(2)
    arc = reg.get_path("arc", plane)
    assert np.allclose(arc.eval(arc.domain[0]), [1.0, 0.0])
    assert np.allclose(arc.eval(arc.domain[1]), [-1.0, 0.0], atol=1e-12)
    diag = reg.get_path("diag", plane)
    assert np.allclose(diag.eval(diag.domain[1]), [1.0, 1.0])
    ring = reg.get_path("ring", plane)
    assert np.allclose(ring.eval(ring.domain[0]), ring.eval(ring.domain[1]))


def test_implicit_problem_from_file(registry_file):
    reg = Registry.from_file(registry_file)
    prob = reg.get_implicit("cubic")
    assert prob.m == 1 and prob.n == 1
    assert np.allclose(prob.w, [0.0])


def test_validate_clean_registry(registry_file):
    reg = Registry.from_file(registry_file)
    assert reg.validate() == []


def test_validate_reports_broken_sections(tmp_path):
    text = """\
[map bad]
dim_in = 2
dim_out = 2
components = x + y

[weight wbad]
family = mystery

[path pbad]
kind = segment
start = 0, 0
"""
    path = tmp_path / "broken.ini"
    path.write_text(text, encoding="utf-8")
    reg = Registry.from_file(str(path))
    problems = reg.validate()
    sections = [sec for sec, _ in problems]
    assert "map bad" in sections
    assert "weight wbad" in sections
    assert "path pbad" in sections


BAD_NUMBERS = """\
[weight wbad]
family = affine
a = one
b = 1

[path pbad]
kind = loop
center = 0, 0
radius = abc

[map mbad]
dim_in = two
dim_out = 1
components = x

[implicit ibad]
map = cubic_implicit
x_dim = 1.5
w = 0
"""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hadamard", "--weight", "wbad"], "weight wbad: a = 'one' is not a number"),
        (
            ["lift", "--map", "polar_exp", "--path", "pbad", "--start", "0,0"],
            "path pbad: radius = 'abc' is not a number",
        ),
        (
            ["invert", "--map", "mbad", "--target", "1", "--start", "0"],
            "map mbad: dim_in = 'two' is not an integer",
        ),
        (
            ["implicit", "--problem", "ibad", "--x-target", "1", "--start-x", "0",
             "--start-y", "0"],
            "implicit ibad: x_dim = '1.5' is not an integer",
        ),
    ],
    ids=["weight", "path", "map", "implicit"],
)
def test_a_bad_number_in_a_registry_is_an_input_error(tmp_path, capsys, argv, message):
    path = tmp_path / "numbers.ini"
    path.write_text(BAD_NUMBERS, encoding="utf-8")
    assert run(argv + ["--registry", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_validate_lists_bad_numbers(tmp_path, capsys):
    path = tmp_path / "numbers.ini"
    path.write_text(BAD_NUMBERS, encoding="utf-8")
    sections = [sec for sec, _ in Registry.from_file(str(path)).validate()]
    assert sections == ["map mbad", "weight wbad", "path pbad", "implicit ibad"]
    assert run(["registry", "validate", "--registry", str(path), "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["results"]["problems"]) == 4


UNREAD_KEYS = """\
[map hump]
dim_in = 2
dim_out = 2
components = x + y^3 ; y
jacobian = 1 ; 2*y^2 ; 0 ; 1

[map logline]
dim_in = 1
dim_out = 1
components = log(x)
domian = x
"""
_JACOBIAN_KEY = (
    "map hump has unknown key 'jacobian': a map's Jacobian comes from its components"
)
_MISSPELLED_KEY = (
    "map logline has unknown key 'domian': a map reads dim_in, dim_out, "
    "components, domain, space, codomain_space"
)


def test_a_map_section_refuses_a_key_it_does_not_read(tmp_path, capsys):
    # a hand-written Jacobian (here a wrong one) and a misspelled domain
    # are both refused, and both refusals name the section and the key
    path = tmp_path / "keys.ini"
    path.write_text(UNREAD_KEYS, encoding="utf-8")
    reg = Registry.from_file(str(path))
    for name, message in (("hump", _JACOBIAN_KEY), ("logline", _MISSPELLED_KEY)):
        with pytest.raises(InputError) as err:
            reg.get_map(name)
        assert str(err.value) == message
    assert reg.validate() == [("map hump", _JACOBIAN_KEY), ("map logline", _MISSPELLED_KEY)]
    assert run(["registry", "validate", "--registry", str(path), "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdicts"]["registry"] == "invalid"
    assert doc["results"]["problems"] == [
        {"section": "map hump", "error": _JACOBIAN_KEY},
        {"section": "map logline", "error": _MISSPELLED_KEY},
    ]
    for argv, message in (
        (["--map", "hump", "--point", "0.5,1", "--method", "both"], _JACOBIAN_KEY),
        (["--map", "logline", "--point", "-1"], _MISSPELLED_KEY),
    ):
        assert run(["deriv"] + argv + ["--registry", str(path)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message


STRAY_KEYS = """\
[weight wlong]
family = affine
a = 1
b = 1
c = 7

[weight wexpr]
family = expr
expr = 1 + t
t = 2

[weight wcompact]
family = power:1,1,0.5
gamma = 2

[path pseg]
kind = segment
start = 0, 0
end = 1, 1
ende = 2, 2

[path ring]
kind = loop
center = 0, 0
radius = 1
windng = 3

[path pknots]
kind = polyline
knots = 0, 0; 1, 1
domain = 0, 2

[path arc]
kind = expression
components = cos(t) ; sin(t)
domian = 0, 3

[implicit cubic]
map = cubic_implicit
x_dim = 1
w = 0
x_dom = 5
"""
# each section's refusal, in validate's order
_STRAY_KEYS = [
    ("weight wcompact", "'gamma': a compact weight reads family"),
    ("weight wexpr", "'t': an expr weight reads family, expr"),
    ("weight wlong", "'c': an affine weight reads family, a, b"),
    ("path arc", "'domian': an expression path reads kind, components, domain"),
    ("path pknots", "'domain': a polyline path reads kind, knots"),
    ("path pseg", "'ende': a segment path reads kind, start, end"),
    ("path ring", "'windng': a loop path reads kind, center, radius, winding, phase"),
    ("implicit cubic", "'x_dom': an implicit problem reads map, x_dim, w"),
]
_STRAY_KEYS = [(sec, "%s has unknown key %s" % (sec, why)) for sec, why in _STRAY_KEYS]


def test_every_section_refuses_a_key_it_does_not_read(tmp_path, capsys):
    # a misspelled winding once validated and ran the loop once round;
    # every kind of section, in each of its variants, now refuses a key
    # it does not read with an error naming the section and the key
    path = tmp_path / "stray.ini"
    path.write_text(STRAY_KEYS, encoding="utf-8")
    reg = Registry.from_file(str(path))
    assert reg.validate() == _STRAY_KEYS
    with pytest.raises(InputError, match="path ring has unknown key 'windng'"):
        reg.get_path("ring", Euclidean(2))
    assert run(["registry", "validate", "--registry", str(path), "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["problems"] == [
        {"section": sec, "error": message} for sec, message in _STRAY_KEYS
    ]
    messages = dict(_STRAY_KEYS)
    for argv, sec in (
        (["length", "--path", "ring", "--dim", "2"], "path ring"),
        (["hadamard", "--weight", "wlong"], "weight wlong"),
        (["hadamard", "--weight", "wexpr"], "weight wexpr"),
        (
            ["implicit", "--problem", "cubic", "--x-target", "1"]
            + ["--start-x", "0", "--start-y", "0"],
            "implicit cubic",
        ),
    ):
        assert run(argv + ["--registry", str(path)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % messages[sec]


BAD_VECTORS = """\
[path pseg]
kind = segment
start = 0, zero
end = 1, 1

[path ploop]
kind = loop
center = 0;0
radius = 1

[path pknots]
kind = polyline
knots = 0, 0; 1

[path pexpr]
kind = expression
components = t; 0
domain = 0, one

[implicit ivec]
map = cubic_implicit
x_dim = 1
w = 0, nought
"""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lift", "--path", "pseg"], "path pseg: start = '0, zero' is not a vector"),
        (["lift", "--path", "ploop"], "path ploop: center = '0;0' is not a vector"),
        (
            ["lift", "--path", "pknots"],
            "path pknots: knots = '0, 0; 1' is not a list of vectors",
        ),
        (["lift", "--path", "pexpr"], "path pexpr: domain = '0, one' is not a vector"),
        (
            ["implicit", "--problem", "ivec", "--x-target", "1", "--start-x", "0",
             "--start-y", "0"],
            "implicit ivec: w = '0, nought' is not a vector",
        ),
    ],
    ids=["segment-start", "loop-center", "polyline-knots", "expression-domain", "implicit-w"],
)
def test_a_bad_vector_in_a_registry_names_its_section_and_key(tmp_path, capsys, argv, message):
    path = tmp_path / "vectors.ini"
    path.write_text(BAD_VECTORS, encoding="utf-8")
    if argv[0] == "lift":
        argv = argv + ["--map", "polar_exp", "--start", "0,0"]
    assert run(argv + ["--registry", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_weight_long_forms_match_their_specs(tmp_path):
    text = """\
[weight wc]
family = constant
c = 2.5

[weight wp]
family = power
a = 1
b = 0.5
gamma = 0.25

[weight we]
family = expr
expr = 1 + t

[weight wmissing]
family = power
a = 1
b = 1
"""
    path = tmp_path / "weights.ini"
    path.write_text(text, encoding="utf-8")
    reg = Registry.from_file(str(path))
    for name, spec in (
        ("wc", "constant:2.5"),
        ("wp", "power:1,0.5,0.25"),
        ("we", "expr:1 + t"),
    ):
        got, want = reg.get_weight(name), parse_weight_spec(spec)
        assert type(got) is type(want)
        assert got.describe() == want.describe()
        assert got(3.0) == want(3.0)
    with pytest.raises(InputError, match="^weight wmissing is missing key 'gamma'$"):
        reg.get_weight("wmissing")


def test_unknown_section_kind_rejected(tmp_path):
    path = tmp_path / "odd.ini"
    path.write_text("[gadget g]\nfoo = 1\n", encoding="utf-8")
    with pytest.raises(InputError):
        Registry.from_file(str(path))


def test_missing_names_raise(registry_file):
    reg = Registry.from_file(registry_file)
    with pytest.raises(InputError):
        reg.get_map("nope")
    with pytest.raises(InputError):
        reg.get_weight("nope")
    with pytest.raises(InputError):
        reg.get_path("nope", Euclidean(2))
    with pytest.raises(InputError):
        reg.get_implicit("nope")


def test_parse_vector():
    assert np.allclose(parse_vector("1, 2.5, -3"), [1.0, 2.5, -3.0])
    with pytest.raises(InputError):
        parse_vector("1, two")


def test_parse_weight_spec_families():
    assert parse_weight_spec("constant:2")(9.0) == pytest.approx(2.0)
    assert parse_weight_spec("affine:1,1")(1.0) == pytest.approx(2.0)
    with pytest.raises(InputError, match="^unknown weight family 'mystery'$"):
        parse_weight_spec("mystery:1")
    for spec, message in (
        ("constant:1,2", "constant weight takes one parameter"),
        ("affine:1", "affine weight takes two parameters a,b"),
        ("power:1,2", "power weight takes three parameters a,b,gamma"),
    ):
        with pytest.raises(InputError, match="^%s$" % message):
            parse_weight_spec(spec)


# -- report documents ------------------------------------------------------


def test_plain_converts_numpy_and_points():
    doc = plain(
        {
            "a": np.float64(1.5),
            "b": np.int64(3),
            "c": np.bool_(True),
            "d": np.array([1.0, 2.0]),
            "e": Point(np.array([0.0, 1.0]), Euclidean(2)),
            "f": (1, 2),
        }
    )
    assert doc == {
        "a": 1.5,
        "b": 3,
        "c": True,
        "d": [1.0, 2.0],
        "e": [0.0, 1.0],
        "f": [1, 2],
    }
    # everything must survive json.dumps
    json.dumps(doc)


def test_report_json_is_canonical():
    rep = Report(command="deriv", inputs={"z": 1, "a": 2}, seed=7)
    text = rep.to_json()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["command"] == "deriv"
    assert doc["seed"] == 7
    # canonical form: same content, byte-equal text
    again = Report(command="deriv", inputs={"a": 2, "z": 1}, seed=7)
    assert again.to_json() == text
    keys = list(json.loads(text, object_pairs_hook=lambda kv: [k for k, _ in kv]))
    assert keys == sorted(keys)


def test_report_artifacts_key_only_when_present():
    bare = Report(command="x").to_dict()
    assert "artifacts" not in bare
    with_art = Report(command="x", artifacts=["a.csv"]).to_dict()
    assert with_art["artifacts"] == ["a.csv"]


def test_report_write_round_trip(tmp_path):
    rep = Report(command="length", results={"value": np.float64(2.0)})
    out = tmp_path / "report.json"
    rep.write(str(out))
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["results"]["value"] == 2.0
    assert validate_report(doc)


def test_schema_is_shipped_and_closed():
    schema = load_schema()
    assert schema_path().endswith("report_schema.json")
    assert schema["additionalProperties"] is False
    assert "seed" in schema["required"]


def test_validate_report_rejects_unknown_keys():
    doc = Report(command="x").to_dict()
    doc["surprise"] = 1
    with pytest.raises(Exception):
        validate_report(doc)


@pytest.mark.parametrize(
    "key, value", [("inputs", []), ("seed", "0"), ("seed", True), ("artifacts", [1])]
)
def test_validate_report_checks_each_keys_json_type(key, value):
    doc = Report(command="x", artifacts=["a.csv"]).to_dict()
    assert validate_report(doc)
    doc[key] = value
    with pytest.raises(InputError, match=key):
        validate_report(doc)


def test_validate_report_accepts_instances():
    assert validate_report(Report(command="x"))
