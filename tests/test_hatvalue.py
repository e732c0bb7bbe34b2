"""Bifurcating intervals, hat values, and the constant-query hat cut."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cakecut import (Interval, QueryCounter, ValidationError, Valuation, hat_cut, hat_eval,
                     interval, is_bifurcating)
from oracles import grid_hat_cut, naive_hat
from strategies import lattice_points, valuations

UNIFORM = Valuation([Fraction(0), Fraction(1)], [Fraction(1)])


def test_empty_piece_is_never_bifurcating():
    assert not is_bifurcating(UNIFORM, None)
    assert hat_eval(UNIFORM, None) == 0


def test_uniform_middle_is_bifurcating():
    assert is_bifurcating(UNIFORM, interval("1/4", "3/4"))
    assert hat_eval(UNIFORM, interval("1/4", "3/4")) == 1


def test_uniform_edges_are_not_bifurcating():
    # worth 1/4 but leaves more than 1/2 on the right
    assert not is_bifurcating(UNIFORM, interval(0, "1/4"))
    assert hat_eval(UNIFORM, interval(0, "1/4")) == Fraction(1, 4)


def test_short_circuit_query_count():
    counter = QueryCounter()
    is_bifurcating(UNIFORM, interval(0, "1/8"), counter)  # fails the 1/4 test
    assert counter.eval_count == 1
    counter = QueryCounter()
    is_bifurcating(UNIFORM, interval("1/4", "3/4"), counter)
    assert counter.eval_count == 3


@given(valuations(), lattice_points(), lattice_points())
def test_hat_eval_matches_naive_definition(v, x, y):
    x, y = min(x, y), max(x, y)
    assert hat_eval(v, Interval(x, y)) == naive_hat(v, x, y)


@given(valuations(), lattice_points(), lattice_points(), lattice_points(),
       lattice_points())
def test_hat_value_monotone_under_connected_superset(v, a, b, c, d):
    """Growing an interval on either side never lowers its hat value."""
    a, b, c, d = sorted([a, b, c, d])
    inner, outer = Interval(b, c), Interval(a, d)
    assert hat_eval(v, inner) <= hat_eval(v, outer)


@given(valuations(), lattice_points(),
       st.fractions(min_value=Fraction(1, 20), max_value=Fraction(21, 20)))
def test_hat_cut_point_reaches_target(v, x, nu):
    y = hat_cut(v, x, nu)
    if y is not None:
        assert x <= y <= 1
        assert hat_eval(v, Interval(x, y)) >= nu
    else:
        assert hat_eval(v, Interval(x, Fraction(1))) < nu


def test_hat_cut_rejects_nonpositive_targets():
    with pytest.raises(ValueError):
        hat_cut(UNIFORM, Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        hat_cut(UNIFORM, Fraction(0), Fraction(-1, 2))


def test_hat_layer_refuses_floats():
    # a directly built Interval skips interval()'s float check; the queries catch it
    with pytest.raises(ValidationError):
        hat_eval(UNIFORM, Interval(0.1, 0.6))
    # nu = 1.0 skips the plain cut and 1.5 asks nothing, so hat_cut checks nu itself
    for x, nu in [(0.1, Fraction(1, 2)), (Fraction(0), 0.5), (Fraction(0), 1.0),
                  (Fraction(0), 1.5), (Fraction(0), Decimal("1.5")), (Fraction(0), "1/2")]:
        with pytest.raises(ValidationError):
            hat_cut(UNIFORM, x, nu)


def test_hat_cut_above_one_is_unreachable():
    assert hat_cut(UNIFORM, Fraction(0), Fraction(9, 8)) is None


def test_hat_cut_target_one_needs_bifurcation():
    # from 0 the uniform agent can never leave <= 1/2 on no side; the
    # earliest bifurcating prefix ends where [0,y] holds 1/2
    assert hat_cut(UNIFORM, Fraction(0), Fraction(1)) == Fraction(1, 2)
    # starting past the midpoint, [0,x] > 1/2 kills the y2 route
    assert hat_cut(UNIFORM, Fraction(3, 4), Fraction(1)) is None


def test_hat_cut_prefers_earlier_bifurcation_over_plain_cut():
    # plain value 9/10 is reached only at y = 9/10, but [0, 1/2] is already
    # bifurcating and scores 1 >= 9/10
    assert hat_cut(UNIFORM, Fraction(0), Fraction(9, 10)) == Fraction(1, 2)


@settings(max_examples=300, deadline=None)
@given(valuations(), lattice_points(),
       st.fractions(min_value=Fraction(1, 20), max_value=Fraction(21, 20)))
def test_hat_cut_agrees_with_grid_scan(v, x, nu):
    """Exact cut sits within one grid step left of the grid-scan answer."""
    resolution = 10 ** 4
    exact = hat_cut(v, x, nu)
    coarse = grid_hat_cut(v, x, nu, resolution)
    if exact is None:
        assert coarse is None
    else:
        assert coarse is not None
        assert exact <= coarse < exact + Fraction(1, resolution)


@given(valuations(), lattice_points(),
       st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20)))
def test_hat_cut_uses_constant_queries(v, x, nu):
    """At most 8 plain queries regardless of how jagged the density is."""
    counter = QueryCounter()
    hat_cut(v, x, nu, counter)
    assert counter.eval_count + counter.cut_count <= 8
