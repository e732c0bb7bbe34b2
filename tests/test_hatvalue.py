"""Bifurcating intervals, hat values, and the constant-query hat cut."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cakecut.hatvalue
from cakecut import (Interval, PrefixBook, QueryCounter, ValidationError, Valuation, hat_cut,
                     hat_eval, interval, is_bifurcating)
from oracles import CheckingBook, grid_hat_cut, literal_hat_cut, naive_hat
from strategies import kernel_points, lattice_points, mixed_valuations, valuations

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
    is_bifurcating(UNIFORM, interval("1/4", "3/4"), counter)  # [3/4, 1] is 1 - 1/4 - 1/2
    assert counter.eval_count == 2


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
    claim = hat_cut(v, x, nu)
    if claim is not None:
        y, hat = claim
        assert x <= y <= 1
        assert hat == hat_eval(v, Interval(x, y)) >= nu
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
    # with [0, 9/10] held, a target above [x, 1] asks no query at all
    with pytest.raises(ValidationError):
        hat_cut(UNIFORM, 0.9, Fraction(1, 2), None, held(UNIFORM, "9/10"))


def held(v, *points) -> PrefixBook:
    """A book over v that holds the mass of [0, x] at each point x."""
    book = PrefixBook([v])
    for x in map(Fraction, points):
        book.learn(v, x, v.prefix(x).numerator, v.prefix(x).denominator)
    return book


@pytest.mark.parametrize("lo, hi, error", [
    # 0 and 1 are held, yet the floats are still refused
    (0.0, 1.0, ValidationError),
    (Fraction(0), 1.0, ValidationError),
    # both ends held, in the wrong order
    (Fraction(3, 4), Fraction(1, 4), ValueError),
    # the book never holds a point outside [0, 1]
    (Fraction(0), Fraction(3, 2), ValueError),
])
def test_a_held_mass_lets_no_refused_point_through(lo, hi, error):
    book = held(UNIFORM, "1/4", "3/4")
    with pytest.raises(error) as derived:
        hat_eval(UNIFORM, Interval(lo, hi), None, book)
    with pytest.raises(error) as asked:
        hat_eval(UNIFORM, Interval(lo, hi))
    assert str(derived.value) == str(asked.value)
    with pytest.raises(ValueError, match="outside"):
        book.learn(UNIFORM, Fraction(3, 2), 1, 1)


def test_hat_cut_above_one_is_unreachable():
    assert hat_cut(UNIFORM, Fraction(0), Fraction(9, 8)) is None


def test_hat_cut_target_one_needs_bifurcation():
    # from 0 the uniform agent can never leave <= 1/2 on no side; the
    # earliest bifurcating prefix ends where [0,y] holds 1/2
    assert hat_cut(UNIFORM, Fraction(0), Fraction(1)) == (Fraction(1, 2), 1)
    # starting past the midpoint, [0,x] > 1/2 leaves no bifurcating [x,y]
    assert hat_cut(UNIFORM, Fraction(3, 4), Fraction(1)) is None


def test_hat_cut_prefers_earlier_bifurcation_over_plain_cut():
    # plain value 9/10 is reached only at y = 9/10, but [0, 1/2] is already
    # bifurcating and scores 1 >= 9/10
    assert hat_cut(UNIFORM, Fraction(0), Fraction(9, 10)) == (Fraction(1, 2), 1)


@settings(max_examples=300, deadline=None)
@given(valuations(), lattice_points(),
       st.fractions(min_value=Fraction(1, 20), max_value=Fraction(21, 20)))
def test_hat_cut_agrees_with_grid_scan(v, x, nu):
    """Exact cut sits within one grid step left of the grid-scan answer."""
    resolution = 10 ** 4
    claim = hat_cut(v, x, nu)
    coarse = grid_hat_cut(v, x, nu, resolution)
    if claim is None:
        assert coarse is None
    else:
        assert coarse is not None
        assert claim[0] <= coarse < claim[0] + Fraction(1, resolution)


@given(valuations(), lattice_points(),
       st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20)))
def test_hat_cut_uses_constant_queries(v, x, nu):
    """At most 1 eval and 1 cut query regardless of how jagged the density is."""
    counter = QueryCounter()
    hat_cut(v, x, nu, counter)
    assert counter.eval_count <= 1 and counter.cut_count <= 1


class RecordedQueries:
    """Every eval/cut query the hat layer asks, as (kind, first argument, second argument)."""

    def __init__(self, monkeypatch):
        self.asked = []
        for kind in ("eval_query", "cut_query"):
            real = getattr(cakecut.hatvalue, kind)

            def recorded(v, a, b, counter=None, real=real, kind=kind):
                self.asked.append((kind, a, b))
                return real(v, a, b, counter)
            monkeypatch.setattr(cakecut.hatvalue, kind, recorded)


@pytest.mark.parametrize("x, nu, claim, asked", [
    # the cut lands inside the cake: it proves [x, 1] holds nu, no eval
    ("0", "1/5", ("1/5", "1/5"), [("cut_query", "0", "1/5")]),
    # [4/5, 1] is worth exactly nu: the cut reaches 1, and eval(x, 1) says so
    ("4/5", "1/5", ("1", "1/5"), [("cut_query", "4/5", "1/5"), ("eval_query", "4/5", "1")]),
    # [9/10, 1] is worth 1/10 < nu: the cut clamps to 1, and eval(x, 1) says so
    ("9/10", "1/5", None, [("cut_query", "9/10", "1/5"), ("eval_query", "9/10", "1")]),
])
def test_a_target_below_a_quarter_with_no_prefix_held_asks_no_prefix(monkeypatch, x, nu, claim,
                                                                     asked):
    log = RecordedQueries(monkeypatch)
    expected = None if claim is None else tuple(map(Fraction, claim))
    assert hat_cut(UNIFORM, Fraction(x), Fraction(nu)) == expected
    assert log.asked == [(kind, Fraction(a), Fraction(b)) for kind, a, b in asked]


# nu across (0, 1] and beyond, with the thresholds the code tests exactly
TARGETS = st.one_of(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
                    st.fractions(min_value=Fraction(1, 20), max_value=Fraction(21, 20)))


@settings(max_examples=300, deadline=None)
@given(st.data(), TARGETS)
def test_hat_cut_returns_the_literal_point_and_its_hat(data, nu):
    """The point is the literal cut's, the hat value is that of [x, point], and
    no question is asked twice.

    Besides kernel points, x may be cut(0, 1/2) or the last point whose prefix
    is still 1/2, and nu may be exactly the mass of [x, 1]: the boundaries of
    the prefix tests that stand in for queries."""
    v = data.draw(mixed_valuations())
    median = v.leftmost_reach(Fraction(0), Fraction(1, 2))
    x = data.draw(st.one_of(kernel_points(v), st.sampled_from([median, v.next_mass(median)])))
    if v.prefix(x) < 1 and data.draw(st.booleans()):
        nu = 1 - v.prefix(x)
    with pytest.MonkeyPatch.context() as monkeypatch:
        record = RecordedQueries(monkeypatch)
        claim = hat_cut(v, x, nu)
    assert len(record.asked) == len(set(record.asked)), record.asked
    point = literal_hat_cut(v, x, nu)
    if point is None:
        assert claim is None
    else:
        assert claim == (point, hat_eval(v, Interval(x, point)))


@settings(max_examples=200, deadline=None)
@given(st.data(), TARGETS)
def test_reused_answers_change_no_answer_and_are_not_asked_again(data, nu):
    """Given the prefix mass, hat_cut answers the same and asks a subset."""
    v = data.draw(mixed_valuations())
    x = data.draw(kernel_points(v))
    fresh, reused = QueryCounter(), QueryCounter()
    assert hat_cut(v, x, nu, reused, held(v, x)) == hat_cut(v, x, nu, fresh)
    assert reused.eval_count <= fresh.eval_count and reused.cut_count <= fresh.cut_count


@given(mixed_valuations(), st.data())
def test_a_hat_value_teaches_the_book_the_masses_it_asked(v, data):
    lo, hi = sorted([data.draw(kernel_points(v)), data.draw(kernel_points(v))])
    book, counter = CheckingBook([v]), QueryCounter()
    assert hat_eval(v, Interval(lo, hi), counter, book) == hat_eval(v, Interval(lo, hi))
    # 0 and 1 are held from the start; else the mass of [0, lo] is asked
    # exactly when [lo, hi] is worth 1/4 or more, and either end teaches the other
    ends = lo == 0 or hi == 1 or v.value(lo, hi) >= Fraction(1, 4)
    assert (book.mass(v, lo) is not None, book.mass(v, hi) is not None) == (ends, ends)
    assert counter.eval_count == (0 if {lo, hi} <= {0, 1} else
                                  1 + (lo != 0 and hi != 1 and v.value(lo, hi) >= Fraction(1, 4)))
    # asked again with both ends held, it is derived and asks nothing
    again = QueryCounter()
    assert hat_eval(v, Interval(lo, hi), again, book) == hat_eval(v, Interval(lo, hi))
    assert again.eval_count == (0 if ends else counter.eval_count)


@settings(max_examples=200, deadline=None)
@given(mixed_valuations(), st.lists(st.data(), min_size=1, max_size=1))
def test_a_derived_hat_value_is_the_asked_one(v, draws):
    """With any two held points, hat_eval asks nothing and answers as the kernel does."""
    data = draws[0]
    lo, hi = sorted([data.draw(kernel_points(v)), data.draw(kernel_points(v))])
    book, counter = held(v, lo, hi), QueryCounter()
    assert hat_eval(v, Interval(lo, hi), counter, book) == hat_eval(v, Interval(lo, hi))
    assert counter.eval_count == 0


def test_the_book_refuses_a_contradicting_mass_and_keeps_the_held_one():
    book = held(UNIFORM, "1/4")
    with pytest.raises(RuntimeError, match="held as 1/4"):
        book.learn(UNIFORM, Fraction(1, 4), 1, 3)
    assert book.mass(UNIFORM, Fraction(1, 4)) == (1, 4)
    # the same mass again, in other terms, is no contradiction
    book.learn(UNIFORM, Fraction(1, 4), 2, 8)


@pytest.mark.parametrize("x, y, target, learned", [
    # a cut that lands inside the cake teaches P(y) = P(x) + target
    ("1/4", "1/2", "1/4", (1, 2)),
    # target 1 stands for hat_cut's threshold max(1/4, 1/2 - P(x)): here 1/4
    ("1/4", "1/2", "1", (1, 2)),
    # and here 1/2 - P(x), so P(y) = 1/2
    ("1/8", "1/2", "1", (1, 2)),
    # an answer of 1 may be a clamp ([3/4, 1] holds 1/4 < 1/2), so it teaches nothing
    ("3/4", "1", "1/2", (1, 1)),
])
def test_a_cut_from_a_held_point_teaches_its_answer_below_one(x, y, target, learned):
    book = held(UNIFORM, x)
    book.learn_cut(UNIFORM, Fraction(x), Fraction(y), Fraction(target))
    assert book.mass(UNIFORM, Fraction(y)) == learned
    # from a point not held, nothing is learned
    book = PrefixBook([UNIFORM])
    book.learn_cut(UNIFORM, Fraction(x), Fraction(y), Fraction(target))
    assert book.mass(UNIFORM, Fraction(y)) == (None if y != "1" else (1, 1))


def test_a_dropped_point_is_forgotten_for_every_valuation():
    other = Valuation(["0", "1/2", "1"], ["2", "0"])
    book = PrefixBook([UNIFORM, other])
    for v in (UNIFORM, other):
        book.learn(v, Fraction(1, 4), v.prefix(Fraction(1, 4)).numerator,
                   v.prefix(Fraction(1, 4)).denominator)
    book.drop(Fraction(1, 4))
    assert book.mass(UNIFORM, Fraction(1, 4)) is None and book.mass(other, Fraction(1, 4)) is None
    assert set(book.rows) == {(0, 1), (1, 1)}


# [0, 1/4] holds 1/2, [1/4, 1/2] nothing and [1/2, 1] the other 1/2
BOUNDARY = Valuation([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)],
                     [Fraction(2), Fraction(0), Fraction(1)])
# (name, x, rho = mass of [0, x]) where rho meets the thresholds hat_cut tests
BOUNDARY_POINTS = [
    ("rho=0", Fraction(0), Fraction(0)),
    ("rho=1/4", Fraction(1, 8), Fraction(1, 4)),
    ("rho=1/2 at the median", Fraction(1, 4), Fraction(1, 2)),
    ("rho=1/2 past a zero-density cell", Fraction(1, 2), Fraction(1, 2)),
    ("rho just above 1/2", Fraction(51, 100), Fraction(51, 100)),
]
BOUNDARY_TARGETS = [("1/4", lambda rho: Fraction(1, 4)),
                    ("1/2-rho", lambda rho: Fraction(1, 2) - rho),
                    ("1-rho", lambda rho: 1 - rho),
                    ("1", lambda rho: Fraction(1))]
BOUNDARY_CASES = [pytest.param(x, rho, nu, id=f"{name}, nu={target}")
                  for name, x, rho in BOUNDARY_POINTS
                  for target, at in BOUNDARY_TARGETS
                  if (nu := at(rho)) > 0]


@pytest.mark.parametrize("x, rho, nu", BOUNDARY_CASES)
def test_hat_cut_at_each_threshold_is_the_literal_point_with_one_cut(x, rho, nu):
    """On each threshold hat_cut tests, the literal point and its hat value, for one cut."""
    assert BOUNDARY.prefix(x) == rho
    assert BOUNDARY.leftmost_reach(Fraction(0), Fraction(1, 2)) == Fraction(1, 4)
    point = literal_hat_cut(BOUNDARY, x, nu)
    for book, evals in [(None, 1), (held(BOUNDARY, x), 0)]:
        counter = QueryCounter()
        claim = hat_cut(BOUNDARY, x, nu, counter, book)
        assert claim == (None if point is None
                         else (point, hat_eval(BOUNDARY, Interval(x, point))))
        assert (counter.eval_count, counter.cut_count) == (evals, claim is not None)
