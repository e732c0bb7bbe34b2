"""Grid-based allocation for instances with few distinct valuations."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cakecut import (GeneratorSpec, Instance, ValidationError, Valuation,
                     cut_point_grid, generate, solve_bounded)
from oracles import naive_value, worst_envy
from strategies import valuations

UNIFORM = Valuation([Fraction(0), Fraction(1)], [Fraction(1)])


def test_uniform_grid_is_even():
    grid = cut_point_grid(UNIFORM, Fraction(1, 4))
    assert grid == [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def test_grid_rejects_bad_epsilon():
    for eps in [Fraction(0), Fraction(1), Fraction(-1, 4), 0.25]:
        with pytest.raises(ValidationError):
            cut_point_grid(UNIFORM, eps)


@given(valuations(), st.integers(2, 9))
def test_grid_segments_hold_at_most_epsilon(v, k):
    """Consecutive grid points bound every nested interval's value by eps."""
    eps = Fraction(1, k)
    grid = cut_point_grid(v, eps)
    assert grid[0] == 0 and grid[-1] == 1
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert len(grid) <= k + 1
    for a, b in zip(grid, grid[1:]):
        assert naive_value(v, a, b) <= eps


def test_too_many_distinct_valuations_rejected():
    inst = generate(GeneratorSpec(n=4, family="random", seed=0))
    # d = 4 distinct but epsilon*n - 1 = 0
    with pytest.raises(ValidationError):
        solve_bounded(inst, Fraction(1, 4))


def test_identical_agents_split_at_grid_points():
    inst = Instance({"u": UNIFORM}, ["u"] * 4)
    pieces, report = solve_bounded(inst, Fraction(1, 2))
    assert {str(p) for p in pieces if p is not None} == {"[0, 1/2]", "[1/2, 1]"}
    assert report.max_envy == Fraction(1, 2)  # the empty agents' envy
    assert report.passed
    grid_check = next(c for c in report.checks if c.name == "grid_size_bound")
    assert grid_check.passed and grid_check.witness is None  # witnesses explain failures
    for eps in [0.5, 0.9]:
        with pytest.raises(ValidationError):
            solve_bounded(inst, eps)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 3), st.sampled_from([10, 16, 24]))
def test_grouped_instances_meet_the_envy_bound(seed, d, n):
    """d distinct valuations, n agents, eps = (d+1)/n: envy <= eps exactly."""
    eps = Fraction(d + 1, n)
    inst = generate(GeneratorSpec(n=n, family="grouped", distinct=d, seed=seed))
    pieces, report = solve_bounded(inst, eps)
    assert report.passed, report.failures()
    assert worst_envy(pieces, inst.agent_valuations()) <= eps
    # whole cake handed out even though some agents may get nothing
    assert sum(p.width for p in pieces if p is not None) == 1
    # each id's grid asks ceil(1/eps) - 1 cuts; all k segments are handed
    # out, one per agent in index order, and each id evals the segments
    # still left when its first agent chooses, once: at most d*k evals
    k = sum(p is not None for p in pieces)
    assert report.cut_count == d * (math.ceil(1 / eps) - 1)
    firsts = [inst.agent_ids.index(vid) for vid in inst.distinct_ids()]
    assert report.eval_count == sum(max(k - f, 0) for f in firsts) <= d * k


def test_first_agents_take_their_favorites():
    # identical valuations and equal-value segments: ties break leftmost,
    # so pieces are handed out left to right and the tail agents go empty
    inst = Instance({"u": UNIFORM}, ["u"] * 4)
    pieces, _ = solve_bounded(inst, Fraction(1, 2))
    assert [str(p) for p in pieces[:2]] == ["[0, 1/2]", "[1/2, 1]"]
    assert pieces[2] is None and pieces[3] is None


def test_an_oversize_grid_fails_the_report(monkeypatch):
    # a grid finer than n+1 points leaves segments nobody receives
    monkeypatch.setattr("cakecut.bounded.cut_point_grid",
                        lambda v, eps, counter=None: [Fraction(k, 8) for k in range(9)])
    _, report = solve_bounded(Instance({"u": UNIFORM}, ["u"] * 4), Fraction(1, 2))
    failed = {c.name for c in report.failures()}
    assert {"grid_size_bound", "complete_cover"} <= failed


def test_grid_rejects_a_malformed_valuation():
    # half the mass is missing: it is refused before the grid could repeat 1
    with pytest.raises(ValidationError):
        cut_point_grid(Valuation(["0", "1"], ["1/2"]), Fraction(1, 4))
