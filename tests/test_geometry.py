"""Spaces, paths, lengths, reparametrization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftkit import (
    Box,
    CircleQuotient,
    DegenerateInputError,
    Euclidean,
    ExpressionPath,
    FunctionPath,
    InputError,
    Loop,
    Point,
    ProductSpace,
    Sampled,
    Segment,
    Torus,
    distance,
    mapped_path,
    path_length,
    points_equal,
    polyline,
    reparam_arclength,
    resolve_map,
    reverse_path,
    subset_from_expression,
)
from liftkit.geometry import chart_norm, distinct_rows
from oracles import L_PARABOLA


def test_euclidean_distance():
    s = Euclidean(2)
    assert distance(s, np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_one_norm_distance():
    s = Euclidean(2, p=1.0)
    assert distance(s, np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 7.0


def test_circle_wraparound():
    s = CircleQuotient()
    d = distance(s, np.array([0.1]), np.array([2 * np.pi - 0.1]))
    assert d == pytest.approx(0.2, abs=1e-12)


def test_torus_distance_componentwise_arcs():
    s = Torus(2)
    a = np.array([0.1, 0.0])
    b = np.array([2 * np.pi - 0.1, 0.0])
    assert distance(s, a, b) == pytest.approx(0.2, abs=1e-12)


def test_segment_midpoint():
    s = Euclidean(2)
    seg = Segment(s, np.array([0.0, 0.0]), np.array([2.0, 2.0]))
    a, b = seg.domain
    mid = seg.eval(0.5 * (a + b))
    assert np.allclose(mid, [1.0, 1.0])


def test_loop_start_convention():
    s = Euclidean(2)
    loop = Loop(s, np.array([0.0, 0.0]), 1.0, winding=1)
    assert np.allclose(loop.eval(loop.domain[0]), [1.0, 0.0], atol=1e-15)


def test_sampled_linear_interpolation():
    s = Euclidean(2)
    p = Sampled(s, [0.0, 1.0], [[0.0, 0.0], [4.0, 0.0]])
    assert np.allclose(p.eval(0.25), [1.0, 0.0])


def test_sampled_rejects_decreasing_parameters():
    s = Euclidean(1)
    with pytest.raises(InputError):
        Sampled(s, [1.0, 0.0], [[0.0], [1.0]])


def test_unit_circle_circumference():
    s = Euclidean(2)
    loop = Loop(s, np.array([0.0, 0.0]), 1.0)
    res = path_length(loop)
    assert res.converged
    assert res.value == pytest.approx(2 * np.pi, abs=1e-6)


def test_segment_length_exact_at_first_refinement():
    s = Euclidean(2)
    seg = Segment(s, np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    res = path_length(seg)
    assert res.value == 5.0
    assert res.partitions_used <= 2


def test_parabola_length_oracle():
    s = Euclidean(2)
    p = ExpressionPath(s, "(t, t^2)", (0.0, 1.0))
    res = path_length(p)
    assert res.converged
    assert res.value == pytest.approx(L_PARABOLA, rel=1e-9)


def test_reparam_unit_speed_half_point():
    s = Euclidean(2)
    p = ExpressionPath(s, "(t, t^2)", (0.0, 1.0))
    total = path_length(p).require()
    q = reparam_arclength(p)
    a, b = q.domain
    assert b - a == pytest.approx(total, rel=1e-6)
    # half-parameter point sits at half arc length
    half = q.eval(a + 0.5 * (b - a))
    # oracle by fine uniform resampling of the original path
    ts = np.linspace(0.0, 1.0, 200001)
    pts = p.eval_many(ts)
    cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
    idx = np.searchsorted(cum, 0.5 * cum[-1])
    assert np.linalg.norm(half - pts[idx]) < 1e-4


def test_reparam_segment_exact():
    s = Euclidean(2)
    seg = Segment(s, np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    q = reparam_arclength(seg)
    assert q.domain == (0.0, 5.0)
    assert np.allclose(q.eval(2.5), [1.5, 2.0])


def test_reparam_constant_path_degenerate():
    s = Euclidean(2)
    p = Sampled(s, [0.0], [[1.0, 1.0]], degenerate=True)
    q = reparam_arclength(p)
    assert q.degenerate
    assert q.domain == (0.0, 0.0)


def test_reverse_segment():
    s = Euclidean(2)
    seg = Segment(s, np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    r = reverse_path(seg)
    assert np.allclose(r.eval(r.domain[0]), [1.0, 2.0])
    assert np.allclose(r.eval(r.domain[1]), [0.0, 0.0])


def test_reverse_is_involution():
    s = Euclidean(2)
    p = ExpressionPath(s, "(cos(t), sin(2*t))", (0.0, 2.0))
    rr = reverse_path(reverse_path(p))
    ts = np.linspace(0.0, 2.0, 41)
    assert np.allclose(rr.eval_many(ts), p.eval_many(ts), atol=1e-12)


def _reversal_cases():
    plane = Euclidean(2)

    def wave(ts):
        return np.stack([np.sin(3.0 * ts), np.abs(ts - 1.0)], axis=1)

    return [
        Segment(plane, np.array([0.5, -1.0]), np.array([2.0, 3.0]), (0.5, 2.0)),
        polyline(plane, [[0.0, 0.0], [1.0, 2.0], [3.0, -1.0], [4.0, 0.5]], (1.0, 3.0)),
        Loop(plane, np.array([1.0, -2.0]), 1.5, winding=-2, phase=0.7, interval=(0.25, 1.5)),
        ExpressionPath(plane, "(cos(t), t^2 - t)", (-1.0, 2.0)),
        FunctionPath(plane, wave, (0.0, 2.0), breakpoints=[1.0]),
    ]


@pytest.mark.parametrize("p", _reversal_cases(), ids=lambda p: p.kind)
def test_reversal_runs_the_path_backwards_on_its_domain(p):
    u, v = p.domain
    ts = np.linspace(u, v, 37)
    r = reverse_path(p)
    assert r.kind == p.kind
    assert r.domain == p.domain
    assert np.allclose(r.eval_many(ts), p.eval_many(u + v - ts), rtol=0.0, atol=1e-12)
    rr = reverse_path(r)
    assert rr.domain == p.domain
    assert np.allclose(rr.eval_many(ts), p.eval_many(ts), rtol=0.0, atol=1e-12)


def test_reversed_parabola_length_matches():
    s = Euclidean(2)
    p = ExpressionPath(s, "(t, t^2)", (0.0, 1.0))
    r = reverse_path(p)
    assert path_length(r).require() == pytest.approx(
        path_length(p).require(), abs=1e-9
    )


def test_open_subset_sign_convention():
    base = Euclidean(2)
    disk = subset_from_expression(base, "1 - x^2 - y^2")
    assert disk.contains(np.array([0.5, 0.0]))
    assert not disk.contains(np.array([1.5, 0.0]))


def test_point_canonicalizes_on_quotient():
    s = CircleQuotient()
    p = Point(np.array([2 * np.pi + 0.3]), s)
    assert p.coords[0] == pytest.approx(0.3, abs=1e-12)


def test_check_coords_takes_a_point_of_its_own_dimension():
    plane = Euclidean(2)
    assert plane.check_coords(Point(np.array([1.0, 2.0]), plane)).tolist() == [1.0, 2.0]
    with pytest.raises(InputError):
        plane.check_coords(Point(np.array([1.0, 2.0, 3.0]), Euclidean(3)))


_POINT_SPACES = [
    Euclidean(2),
    CircleQuotient(),
    Torus(2),
    ProductSpace([Euclidean(1), CircleQuotient()]),
]


@given(
    space=st.sampled_from(_POINT_SPACES),
    data=st.data(),
    rtol=st.sampled_from([1e-9, 0.125, 0.5]),
)
@settings(max_examples=200, deadline=None)
def test_points_equal_is_the_pairwise_rule(space, data, rtol):
    # quarter-integer coordinates keep every norm and distance exact, so
    # pairs land on the inclusive boundary and straddle +-pi
    coord = st.integers(-16, 16).map(lambda k: k / 4.0)
    block = st.lists(
        st.lists(coord, min_size=space.dim, max_size=space.dim), max_size=4
    )
    a = np.array(data.draw(block), dtype=float).reshape(-1, space.dim)
    b = np.array(data.draw(block), dtype=float).reshape(-1, space.dim)
    mask = points_equal(space, a, b, rtol=rtol)
    assert mask.shape == (a.shape[0], b.shape[0])
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            scale = 1.0 + max(chart_norm(ai), chart_norm(bj))
            assert mask[i, j] == (space.distance(ai, bj) <= rtol * scale)


_ONE_POINT_SPACES = [
    Euclidean(dim, p) for p in (1.0, 2.0, 3.0, math.inf) for dim in (1, 2, 9)
] + [
    Euclidean(17),
    CircleQuotient(),
    Torus(2),
    Torus(9),
    ProductSpace([Euclidean(1), CircleQuotient()]),
    ProductSpace([Torus(2), Euclidean(2, p=1.0), CircleQuotient()]),
    subset_from_expression(Euclidean(2), "min(x*x + y*y - 0.25, 4 - x*x - y*y)"),
    subset_from_expression(Torus(2), "log(x + 1) - y"),
]
# small, wide and huge coordinates: differences of huge ones overflow
_ONE_POINT_COORD = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 1.5e154, -math.pi, math.pi]),
)


def _same_bits(x, y):
    """x and y are one float, zeros of one sign; any NaN matches any."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


@given(space=st.sampled_from(_ONE_POINT_SPACES), data=st.data())
@settings(max_examples=300, deadline=None)
def test_one_point_forms_are_rows_of_the_block_forms(space, data):
    point = st.lists(_ONE_POINT_COORD, min_size=space.dim, max_size=space.dim)
    a = np.array(data.draw(st.lists(point, min_size=1, max_size=3)))
    b = np.array(data.draw(st.lists(point, min_size=a.shape[0], max_size=a.shape[0])))
    with np.errstate(all="ignore"):
        canonical = space.canonical(a)
        inside = space.contains_many(a)
        dist = space.distance_many(a, b)
        chart = space.chart_lengths(a, b)
    for i in range(a.shape[0]):
        ai, bi = a[i].tolist(), b[i].tolist()
        got = space.canonical_one(ai)
        assert all(type(v) is float for v in got)
        assert all(map(_same_bits, got, canonical[i].tolist()))
        assert space.contains(ai) == inside[i]
        assert _same_bits(space.distance_one(ai, bi), dist[i])
        assert _same_bits(space.chart_length_one(ai, bi), chart[i])


@given(data=st.data(), dim=st.sampled_from([1, 2, 3, 7, 8, 9, 17, 130]))
@settings(max_examples=200, deadline=None)
def test_chart_norm_is_the_row_norm_of_points_equal(data, dim):
    # numpy's unfused row sums; where a row's squares overflow, the same
    # of the row divided by its largest |entry| (every entry is finite)
    point = st.lists(_ONE_POINT_COORD, min_size=dim, max_size=dim)
    block = np.array(data.draw(st.lists(point, min_size=1, max_size=3)))
    top = np.abs(block).max(axis=1)
    with np.errstate(over="ignore"):
        rows = np.linalg.norm(block, axis=1)
        scaled = np.linalg.norm(block / np.where(top > 0, top, 1.0)[:, None], axis=1)
        rows = np.where(np.isinf(rows), top * scaled, rows)
    for i, row in enumerate(block):
        assert _same_bits(chart_norm(row.tolist()), rows[i])
        assert _same_bits(chart_norm(row), rows[i])


def test_one_point_distance_of_an_overflowing_difference_is_inf():
    a, b = [1e308, 0.0], [-1e308, 0.0]
    for space in (Euclidean(2), Euclidean(2, p=1.0), Euclidean(2, p=3.0), Torus(2)):
        with np.errstate(all="ignore"):
            block = space.distance_many(np.array([a]), np.array([b]))[0]
        got = space.distance_one(a, b)
        assert _same_bits(got, block)
        if not isinstance(space, Torus):
            assert got == math.inf


def test_block_distance_of_an_overflowing_difference_is_inf():
    # no errstate here: pytest makes the subtraction's RuntimeWarning an error
    a, b = [1e308, 0.0], [-1e308, 0.0]
    for p in (2.0, 1.0, math.inf, 3.0):
        space = Euclidean(2, p=p)
        block = space.distance_many(np.array([a, [0.5, 0.0]]), np.array([b, [0.0, 0.0]]))
        assert block.tolist() == [math.inf, 0.5]
        assert space.distance_one(a, b) == block[0]


def test_a_two_norm_whose_squares_overflow_is_finite():
    assert chart_norm([1e200, 0.0]) == 1e200
    assert Euclidean(1).distance([1e200], [0.0]) == 1e200
    big = math.ldexp(1.0, 600)
    assert Euclidean(2).distance([3 * big, 0.0], [0.0, -4 * big]) == 5 * big
    # on a block only the overflowing row is taken again, with no warning
    # (pytest makes a RuntimeWarning an error); a non-finite difference
    # stays inf, and every other row keeps the plain norm's bits
    a = np.array([[1e200, 0.0], [0.3, -1.7], [math.inf, 0.0], [2e-200, 1e-200],
                  [math.nan, 1e200]])
    b = np.array([[0.0, 0.0], [2.2, 0.4], [-1e300, 0.0], [0.0, 0.0], [0.0, 0.0]])
    got = Euclidean(2).distance_many(a, b)
    d = a - b
    plain = np.sqrt(d[[1, 3], 0] ** 2 + d[[1, 3], 1] ** 2)
    assert got[0] == 1e200 and got[2] == math.inf and math.isnan(got[4])
    assert got[[1, 3]].tolist() == plain.tolist()
    assert Euclidean(2).distance_many(a[0], b[0]) == 1e200
    assert points_equal(Euclidean(1), [[1e200]], [[1e200 * (1 + 1e-12)]])[0, 0]


def test_points_equal_boundaries_and_wraparound():
    line = Euclidean(1)
    zero, one = np.zeros((1, 1)), np.ones((1, 1))
    # d = 1 = 0.5 * (1 + 1): the boundary counts as equal
    assert points_equal(line, zero, one, rtol=0.5)[0, 0]
    assert not points_equal(line, zero, one, rtol=0.49)[0, 0]
    # quotient distance: two representatives straddling +-pi coincide
    circle = CircleQuotient()
    a, b = np.array([[np.pi - 1e-10]]), np.array([[-np.pi + 1e-10]])
    assert points_equal(circle, a, b)[0, 0]
    assert not points_equal(Euclidean(1), a, b)[0, 0]


def test_distinct_rows_keeps_the_first_of_each_group():
    # rows 0, 2 and 4 coincide; so do 1 and 3 on the circle (+-pi)
    pts = np.array([[1.0], [np.pi - 1e-10], [1.0 + 1e-12], [-np.pi + 1e-10], [1.0]])
    assert distinct_rows(CircleQuotient(), pts) == [0, 1]
    assert distinct_rows(Euclidean(1), pts) == [3, 0, 1]
    # a looser tolerance merges more
    assert distinct_rows(Euclidean(1), np.array([[0.0], [1e-8]]), rtol=1e-8) == [0]
    assert distinct_rows(Euclidean(1), np.array([[1e-8], [0.0]])) == [1, 0]
    assert distinct_rows(Euclidean(2), np.empty((0, 2))) == []


def _distinct_rows_by_rows(space, pts, rtol):
    """distinct_rows as a loop over every row: a row is kept where it
    equals no earlier kept row."""
    same = points_equal(space, pts, pts, rtol=rtol)
    found = []
    for i in range(same.shape[0]):
        if not same[i, found].any():
            found.append(i)
    return sorted(found, key=lambda i: tuple(pts[i]))


@given(data=st.data(), space=st.sampled_from([Euclidean(1), Euclidean(2), CircleQuotient()]))
@settings(max_examples=100, deadline=None)
def test_distinct_rows_equals_a_loop_over_every_row(data, space):
    # coordinates on a grid of step 0.4 rtol, so rows a few steps apart
    # coincide and rows further apart do not: chains of near-ties that
    # are not transitive, where which rows are kept depends on the order
    rtol = 1e-3
    steps = st.integers(-6, 6)
    rows = data.draw(st.lists(st.lists(steps, min_size=space.dim, max_size=space.dim),
                              min_size=0, max_size=24))
    pts = np.array(rows, dtype=float).reshape(-1, space.dim) * 0.4 * rtol
    if data.draw(st.booleans()):
        pts = pts + np.pi  # near the circle's cut
    assert distinct_rows(space, pts, rtol) == _distinct_rows_by_rows(space, pts, rtol)


def test_distinct_rows_keeps_a_nan_row_once():
    # a NaN row equals no row, itself included: it is kept, and only once
    pts = np.array([[math.nan], [1.0], [math.nan], [1.0]])
    kept = distinct_rows(Euclidean(1), pts)
    assert sorted(kept) == [0, 1, 2]
    assert kept == _distinct_rows_by_rows(Euclidean(1), pts, 1e-9)


def test_box_corners_and_contains():
    b = Box(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    corners = b.corners()
    assert corners.shape == (4, 2)
    assert b.contains_many(corners).all()
    assert not b.contains_many(np.array([[2.0, 0.5]]))[0]


@given(
    st.lists(
        st.tuples(
            st.floats(-5, 5, allow_nan=False, allow_infinity=False),
            st.floats(-5, 5, allow_nan=False, allow_infinity=False),
        ),
        min_size=2,
        max_size=8,
    )
)
@settings(max_examples=50, deadline=None)
def test_polyline_length_equals_chord_sum(knot_list):
    knots = np.array(knot_list, dtype=float)
    s = Euclidean(2)
    p = polyline(s, knots)
    res = path_length(p)
    chords = float(np.linalg.norm(np.diff(knots, axis=0), axis=1).sum())
    assert res.value == pytest.approx(chords, rel=1e-9, abs=1e-12)


@given(
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_triangle_inequality_euclidean(ax, ay, bx, by):
    s = Euclidean(2)
    a = np.array([ax, ay])
    b = np.array([bx, by])
    o = np.zeros(2)
    assert distance(s, a, b) <= distance(s, a, o) + distance(s, o, b) + 1e-12


@pytest.mark.parametrize("winding", [1, -1, 2, -2, 3, 4, 8, "mapped polyline"])
def test_path_length_stops_only_on_a_partition_with_new_points(winding):
    # a loop of even winding puts the first dyadic partitions on one
    # point, and a knot at t = 1/2 makes the first two partitions equal;
    # neither may pass for agreement
    if winding == "mapped polyline":
        p = mapped_path(resolve_map("polar_exp"), polyline(Euclidean(2), [[0, 0], [0, 3], [0, 6]]))
        want = 6.0
    else:
        p = Loop(Euclidean(2), np.array([0.0, 0.0]), 1.0, winding)
        want = 2 * np.pi * abs(winding)
    assert path_length(p).require() == pytest.approx(want, rel=1e-8)


def test_path_length_degenerate_loop_radius():
    s = Euclidean(2)
    with pytest.raises(InputError):
        Loop(s, np.array([0.0, 0.0]), -1.0)


def test_length_result_require_raises_on_nonconverged():
    s = Euclidean(1)
    seg = Segment(s, np.array([0.0]), np.array([1.0]))
    res = path_length(seg)
    res.require()
    bad = type(res)(
        value=res.value,
        partitions_used=res.partitions_used,
        certificate=res.certificate,
        converged=False,
    )
    with pytest.raises(DegenerateInputError):
        bad.require()
