"""Measure arithmetic and Robertson-Webb queries against naive oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cakecut import (Instance, Interval, QueryCounter, Valuation, cut_query,
                     eval_query, interval, validate)
from oracles import naive_cut, naive_value
from strategies import lattice_points, valuation_and_point, valuations

UNIFORM = Valuation([Fraction(0), Fraction(1)], [Fraction(1)])
LEFT_HALF = Valuation([Fraction(0), Fraction(1, 2), Fraction(1)],
                      [Fraction(2), Fraction(0)])


def test_interval_factory_orders_and_bounds():
    assert interval("1/4", "3/4") == Interval(Fraction(1, 4), Fraction(3, 4))
    with pytest.raises(ValueError):
        interval("3/4", "1/4")
    with pytest.raises(ValueError):
        interval(0, "9/8")


def test_interval_width_and_str():
    piece = interval(0, "2/3")
    assert piece.width == Fraction(2, 3)
    assert str(piece) == "[0, 2/3]"


class TestValuation:
    @given(valuations(), lattice_points(), lattice_points())
    def test_value_matches_naive_integration(self, v, x, y):
        x, y = min(x, y), max(x, y)
        assert v.value(x, y) == naive_value(v, x, y)

    @given(valuations())
    def test_total_mass_is_one(self, v):
        assert v.value(Fraction(0), Fraction(1)) == 1
        assert validate(v) is None

    @given(valuations(), lattice_points(), lattice_points(), lattice_points())
    def test_value_is_additive(self, v, x, y, z):
        x, y, z = sorted([x, y, z])
        assert v.value(x, y) + v.value(y, z) == v.value(x, z)

    @given(valuations())
    def test_equality_is_structural(self, v):
        twin = Valuation(list(v.breakpoints), list(v.densities))
        assert v == twin and hash(v) == hash(twin)

    @given(valuations(), lattice_points())
    def test_next_mass_finds_first_massive_point(self, v, x):
        y = v.next_mass(x)
        if y is None:
            assert naive_value(v, x, 1) == 0
        else:
            assert y >= x
            assert naive_value(v, x, y) == 0
            # mass starts immediately after y
            assert all(naive_value(v, y, y + step) > 0
                       for step in [Fraction(1, 10 ** 6)] if y + step <= 1)

    @given(valuation_and_point())
    def test_next_mass_left_of_the_support_is_its_start(self, case):
        v, x = case
        x *= v.support_lo  # every lattice point, scaled into [0, support_lo]
        assert v.next_mass(x) == v.support_lo

    @given(valuations(), lattice_points(),
           st.fractions(min_value=0, max_value=Fraction(11, 10)))
    def test_leftmost_reach_is_leftmost(self, v, x, target):
        r = v.leftmost_reach(x, target)
        if target <= 0:
            assert r == x
        elif r is None:
            assert naive_value(v, x, 1) < target
        else:
            assert naive_value(v, x, r) >= target
            assert naive_cut(v, x, target) == r

    def test_leftmost_reach_stops_before_a_zero_density_stretch(self):
        # [0, 1/4] already holds 1/2, and nothing accrues on [1/4, 1/2]
        v = Valuation(["0", "1/4", "1/2", "1"], ["2", "0", "1"])
        assert v.leftmost_reach(Fraction(0), Fraction(1, 2)) == Fraction(1, 4)
        assert v.leftmost_reach(Fraction(0), Fraction(1)) == 1
        assert v.next_mass(Fraction(1, 4)) == Fraction(1, 2)


def test_validate_rejects_malformed_valuations():
    bad = [
        Valuation([Fraction(0)], []),
        Valuation([Fraction(0), Fraction(1, 2)], [Fraction(2)]),
        Valuation([Fraction(1, 4), Fraction(1)], [Fraction(4, 3)]),
        Valuation([Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1)],
                  [Fraction(1), Fraction(1), Fraction(1)]),
        Valuation([Fraction(0), Fraction(1)], [Fraction(-1)]),
        Valuation([Fraction(0), Fraction(1)], [Fraction(2)]),
    ]
    for v in bad:
        assert validate(v) is not None


class TestQueries:
    def test_eval_query_counts(self):
        counter = QueryCounter()
        assert eval_query(UNIFORM, Fraction(1, 4), Fraction(3, 4), counter) == Fraction(1, 2)
        assert (counter.eval_count, counter.cut_count) == (1, 0)

    def test_eval_query_rejects_reversed_and_out_of_range(self):
        with pytest.raises(ValueError):
            eval_query(UNIFORM, Fraction(3, 4), Fraction(1, 4))
        with pytest.raises(ValueError):
            eval_query(UNIFORM, Fraction(-1, 4), Fraction(1, 4))

    @given(valuations(), lattice_points(),
           st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)))
    def test_cut_query_matches_naive_scan(self, v, x, nu):
        counter = QueryCounter()
        y = cut_query(v, x, nu, counter)
        assert counter.cut_count == 1
        expected = naive_cut(v, x, nu)
        assert y == (Fraction(1) if expected is None else expected)

    def test_cut_query_requires_open_unit_target(self):
        for nu in [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)]:
            with pytest.raises(ValueError):
                cut_query(UNIFORM, Fraction(0), nu)

    def test_cut_query_clamps_unreachable_to_one(self):
        assert cut_query(LEFT_HALF, Fraction(1, 2), Fraction(1, 3)) == 1


class TestInstance:
    def test_agent_order_and_distinct_ids(self):
        inst = Instance({"a": UNIFORM, "b": LEFT_HALF}, ["b", "a", "b"])
        assert inst.n == 3
        assert inst.distinct_ids() == ["b", "a"]
        assert inst.agent_valuations() == [LEFT_HALF, UNIFORM, LEFT_HALF]

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            Instance({"a": UNIFORM}, ["a", "zzz"])

    def test_first_violation_reports_agent_and_reason(self):
        broken = Valuation([Fraction(0), Fraction(1)], [Fraction(2)])
        inst = Instance({"a": UNIFORM, "bad": broken}, ["a", "bad"])
        problem = inst.first_violation()
        assert problem is not None and "bad" in problem

    def test_valid_instance_passes(self):
        assert Instance({"a": UNIFORM}, ["a"]).first_violation() is None
