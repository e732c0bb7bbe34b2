"""Measure arithmetic and Robertson-Webb queries against naive oracles."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cakecut import (Instance, Interval, QueryCounter, ValidationError, Valuation, cut_query,
                     eval_query, interval)
from oracles import naive_cut, naive_next_mass, naive_value
from strategies import (kernel_points, lattice_points, mixed_valuations, valuation_and_point,
                        valuations)

UNIFORM = Valuation([Fraction(0), Fraction(1)], [Fraction(1)])
LEFT_HALF = Valuation([Fraction(0), Fraction(1, 2), Fraction(1)],
                      [Fraction(2), Fraction(0)])


def test_interval_factory_orders_and_bounds():
    assert interval("1/4", "3/4") == Interval(Fraction(1, 4), Fraction(3, 4))
    # out of range is a ValidationError, which is still a ValueError
    for lo, hi in [("3/4", "1/4"), (0, "9/8")]:
        with pytest.raises(ValidationError):
            interval(lo, hi)
    # a float is rounded to binary before Fraction() sees it: 0.3 is not 3/10
    for lo, hi in [(0, 0.3), (0.5, 1)]:
        with pytest.raises(ValidationError):
            interval(lo, hi)


def test_a_fraction_is_kept_and_anything_else_exact_becomes_one():
    half = Fraction(1, 2)

    class Half(Fraction):
        pass

    piece = interval(half, Half(1, 1))
    assert piece.lo is half  # a Fraction passes through unrebuilt
    assert type(piece.hi) is Fraction and piece.hi == 1  # a subclass is converted
    assert type(interval(0, 1).lo) is Fraction


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
        assert v.prefix(Fraction(1)) == 1

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

    def test_a_valuation_cannot_be_changed(self):
        v = Valuation(["0", "1/2", "1"], ["3/2", "1/2"])
        before = v.prefix(Fraction(1, 2))
        for name in ("densities", "breakpoints", "support_lo", "_C"):
            with pytest.raises(AttributeError):
                setattr(v, name, (Fraction(2),))
            with pytest.raises(AttributeError):
                delattr(v, name)
        assert v.densities == (Fraction(3, 2), Fraction(1, 2))
        assert v.prefix(Fraction(1, 2)) == before == Fraction(3, 4)


def is_reduced(r) -> bool:
    return type(r) is Fraction and r.denominator > 0 and \
        math.gcd(r.numerator, r.denominator) == 1


class TestIntegerKernel:
    """The integer tables against the oracles, on points where their keys round.

    ``mixed_valuations`` puts breakpoints on coprime denominators and adds
    zero-density stretches; ``kernel_points`` hits breakpoints, 0 and 1
    exactly, lands just beside them, or lies off any lattice.  Targets end
    exactly at a breakpoint's mass, just beside it, or anywhere.
    """

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_kernel_matches_the_oracles(self, data):
        v = data.draw(mixed_valuations())
        x, y = sorted([data.draw(kernel_points(v)), data.draw(kernel_points(v))])
        to_breakpoint = naive_value(v, x, max(x, data.draw(st.sampled_from(v.breakpoints))))
        # from a tenth down to below 1/M, M the denominator of the mass table
        nudge = Fraction(data.draw(st.integers(-1, 1)), 10 ** data.draw(st.integers(1, 40)))
        target = data.draw(st.sampled_from([to_breakpoint, to_breakpoint + nudge,
                                            data.draw(st.fractions(0, 1, max_denominator=10 ** 6))]))

        answers = [v.prefix(x), v.value(x, y), eval_query(v, x, y)]
        assert answers == [naive_value(v, 0, x)] + [naive_value(v, x, y)] * 2
        reach = v.next_mass(x)
        assert reach == naive_next_mass(v, x)
        answers.append(reach)
        reach = v.leftmost_reach(x, target)
        assert reach == (x if target <= 0 else naive_cut(v, x, target))
        answers.append(reach)
        if 0 < target < 1:
            cut = cut_query(v, x, target)
            expected = naive_cut(v, x, target)
            assert cut == (Fraction(1) if expected is None else expected)
            answers.append(cut)
        assert all(is_reduced(r) for r in answers if r is not None)


def test_validate_rejects_malformed_valuations():
    bad = [
        ([Fraction(0)], [], "breakpoints must contain at least 0 and 1"),
        ([Fraction(0), Fraction(1, 2)], [Fraction(2)], "last breakpoint is 1/2, expected 1"),
        ([Fraction(1, 4), Fraction(1)], [Fraction(4, 3)], "first breakpoint is 1/4, expected 0"),
        ([Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1)],
         [Fraction(1), Fraction(1), Fraction(1)], "breakpoints not strictly increasing at 1/2"),
        ([Fraction(0), Fraction(1)], [Fraction(-1)], "negative density -1 on segment 0"),
        ([Fraction(0), Fraction(1)], [Fraction(2)], "total mass is 2, expected 1"),
        ([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)], "expected 1 densities, got 2"),
    ]
    for bps, des, message in bad:
        with pytest.raises(ValidationError) as exc:
            Valuation(bps, des)
        assert str(exc.value) == message
    # floats are refused too, even exactly representable ones
    for bps, des in [([0, 0.5, 1], [2, 0]), ([0, 1], [1.0])]:
        with pytest.raises(ValidationError):
            Valuation(bps, des)


raw_numbers = st.fractions(min_value=-1, max_value=2, max_denominator=8)


@given(st.one_of(
    valuations().map(lambda v: (list(v.breakpoints), list(v.densities))),
    st.tuples(st.lists(raw_numbers, max_size=6), st.lists(raw_numbers, max_size=6)),
))
def test_a_valuation_is_valid_or_refused(raw):
    breakpoints, densities = raw
    try:
        v = Valuation(breakpoints, densities)
    except ValidationError:
        return
    bp = v.breakpoints
    assert bp[0] == 0 and bp[-1] == 1
    assert all(a < b for a, b in zip(bp, bp[1:]))
    assert len(v.densities) == len(bp) - 1 and all(d >= 0 for d in v.densities)
    assert v.prefix(Fraction(1)) == 1


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

    def test_queries_refuse_floats(self):
        # 0.1 is 3602879701896397/36028797018963968, not 1/10
        for x, y in [(0.1, Fraction(1, 2)), (Fraction(0), 0.5), (0.0, 1.0)]:
            with pytest.raises(ValidationError):
                eval_query(UNIFORM, x, y)
        for x, nu in [(0.1, Fraction(1, 4)), (Fraction(0), 0.25)]:
            with pytest.raises(ValidationError):
                cut_query(UNIFORM, x, nu)
        # so are other non-rationals, which used to raise TypeError
        for bad in [Decimal("0.5"), "1/2", None, complex(0, 1)]:
            for call in [lambda: eval_query(UNIFORM, 0, bad),
                         lambda: eval_query(UNIFORM, bad, 1),
                         lambda: cut_query(UNIFORM, bad, Fraction(1, 4)),
                         lambda: cut_query(UNIFORM, 0, bad)]:
                with pytest.raises(ValidationError, match="exact"):
                    call()

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
        with pytest.raises(ValidationError, match="total mass is 2"):
            Valuation([Fraction(0), Fraction(1)], [Fraction(2)])
        with pytest.raises(ValidationError, match="'bad'"):
            Instance({"a": UNIFORM}, ["a", "bad"])
        with pytest.raises(ValidationError, match="at least one agent"):
            Instance({"a": UNIFORM}, [])

    def test_a_value_that_is_not_a_valuation_is_refused(self):
        for bad in ["x", None, (["0", "1"], ["1"])]:
            with pytest.raises(ValidationError, match="valuation 'b' is a"):
                Instance({"a": UNIFORM, "b": bad}, ["a"])

    def test_valid_instance_passes(self):
        assert Instance({"a": UNIFORM}, ["a"]).first_violation() is None
