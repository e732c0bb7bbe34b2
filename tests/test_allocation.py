"""Gap computation, the envy graph and its cycle elimination."""

import copy
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cakecut.allocation
from cakecut import (EnvyGraph, Interval, QueryCounter, Valuation, check_pieces, hat_eval,
                     interval, unassigned_gaps)
from cakecut.allocation import envy_edges, hat_matrix, resolve_cycles
from oracles import replay_edge_counts
from strategies import partial_allocations

UNIFORM = Valuation([Fraction(0), Fraction(1)], [Fraction(1)])


def _steps(k: int) -> Valuation:
    """Mass concentrated uniformly on [k/4, (k+1)/4]."""
    pts = [Fraction(0), Fraction(k, 4), Fraction(k + 1, 4), Fraction(1)]
    pts = sorted(set(pts))
    dens = [Fraction(4) if a == Fraction(k, 4) else Fraction(0)
            for a in pts[:-1]]
    return Valuation(pts, dens)


def test_check_pieces_accepts_touching_and_rejects_overlap():
    assert check_pieces([interval(0, "1/2"), interval("1/2", 1)]) is None
    assert check_pieces([None, interval(0, 1)]) is None
    assert check_pieces([interval(0, "2/3"), interval("1/3", 1)]) is not None


def test_unassigned_gaps_basic():
    gaps = unassigned_gaps([interval("1/4", "1/2"), None, interval("3/4", "7/8")])
    assert gaps == [interval(0, "1/4"), interval("1/2", "3/4"), interval("7/8", 1)]
    assert unassigned_gaps([interval(0, 1)]) == []


@given(partial_allocations())
def test_gaps_partition_the_uncovered_part(pv):
    pieces, _ = pv
    gaps = unassigned_gaps(pieces)
    covered = sorted([p for p in pieces if p is not None] + gaps)
    # pieces and gaps together tile [0,1] without interior overlap
    assert covered[0].lo == 0 and covered[-1].hi == 1
    for a, b in zip(covered, covered[1:]):
        assert a.hi == b.lo
    assert all(g.lo < g.hi for g in gaps)


def test_envy_graph_and_source():
    # agent 0 holds the shared hotspot; agent 1 holds dust and envies it,
    # so agent 1 is the (only) vertex without incoming envy
    pieces = [interval(0, "1/4"), interval("7/8", 1)]
    graph = EnvyGraph(pieces, [_steps(0), _steps(0)])
    assert graph.succ == [set(), {0}]
    assert graph.in_deg == [1, 0]
    assert graph.source() == 1


def test_source_rejects_a_bare_two_cycle():
    # each agent holds the other's favourite quarter
    graph = EnvyGraph([interval("1/4", "1/2"), interval(0, "1/4")], [_steps(0), _steps(1)])
    assert graph.succ == [{1}, {0}]
    with pytest.raises(RuntimeError):
        graph.source()


def test_two_agent_swap_resolves_envy():
    # each agent holds the other's favourite quarter: a 2-cycle
    pieces = [interval("1/4", "1/2"), interval(0, "1/4")]
    graph = EnvyGraph(pieces, [_steps(0), _steps(1)])
    start = [row[:] for row in graph.matrix]
    cycles = graph.resolve()
    assert graph.pieces == [interval(0, "1/4"), interval("1/4", "1/2")]
    assert cycles == [[0, 1]]
    counts, _ = replay_edge_counts(start, cycles)
    assert counts[0] > counts[-1] == 0
    assert graph.succ == [set(), set()] and graph.in_deg == [0, 0]
    assert graph.source() == 0


def test_resolve_issues_no_queries_and_skips_an_edgeless_graph(monkeypatch):
    counter = QueryCounter()
    graph = EnvyGraph([interval("1/4", "1/2"), interval(0, "1/4")],
                      [_steps(0), _steps(1)], counter)
    built = (counter.eval_count, counter.cut_count)
    assert graph.resolve() == [[0, 1]]
    assert (counter.eval_count, counter.cut_count) == built
    monkeypatch.setattr(cakecut.allocation, "resolve_cycles", None)
    assert graph.resolve() == []  # no edge left: resolve_cycles is not called


class TestCycleElimination:
    @settings(max_examples=200, deadline=None)
    @given(partial_allocations())
    def test_acyclic_multiset_preserving_and_monotone(self, pv):
        """Output graph acyclic; pieces permuted; own hat values never drop."""
        pieces, vals = pv
        before = [hat_eval(v, p) for v, p in zip(vals, pieces)]
        graph = EnvyGraph(pieces, vals)
        graph.resolve()
        fixed = graph.pieces

        assert Counter(fixed) == Counter(pieces)
        after = [hat_eval(v, p) for v, p in zip(vals, fixed)]
        assert all(b <= a for b, a in zip(before, after))
        assert graph.hats() == after
        EnvyGraph(fixed, vals).source()  # must not raise
        assert graph.matrix == hat_matrix(fixed, vals)

    @settings(max_examples=200, deadline=None)
    @given(partial_allocations())
    def test_each_rotation_strictly_reduces_edges(self, pv):
        pieces, vals = pv
        graph = EnvyGraph(pieces, vals)
        start = [row[:] for row in graph.matrix]
        cycles = graph.resolve()
        counts, replayed = replay_edge_counts(start, cycles)
        assert all(a > b for a, b in zip(counts, counts[1:]))
        assert len(cycles) == len(counts) - 1
        assert replayed == graph.matrix


@settings(max_examples=200, deadline=None)
@given(partial_allocations(), st.data())
def test_grow_matches_a_rebuilt_graph(pv, data):
    """After grow(), the graph equals one built from scratch on the same pieces."""
    pieces, vals = pv
    held = [i for i, p in enumerate(pieces) if p is not None]
    assume(held)
    s = data.draw(st.sampled_from(held))
    old = pieces[s]
    others = [p for p in pieces if p is not None and p != old]
    room_lo = max([p.hi for p in others if p.hi <= old.lo], default=Fraction(0))
    room_hi = min([p.lo for p in others if p.lo >= old.hi], default=Fraction(1))
    a, b = (Fraction(data.draw(st.integers(0, 12)), 12) for _ in range(2))
    piece = Interval(old.lo - a * (old.lo - room_lo), old.hi + b * (room_hi - old.hi))

    counter = QueryCounter()
    graph = EnvyGraph(pieces, vals, counter)
    built, book = counter.eval_count, copy.deepcopy(graph.book)
    graph.grow(s, piece)
    # one hat_eval per agent whose support meets an added part, reading the
    # book as the graph held it
    added = [(lo, hi) for lo, hi in [(piece.lo, old.lo), (old.hi, piece.hi)] if lo < hi]
    column = QueryCounter()
    for v in vals:
        if any(v.support_lo < hi and v.support_hi > lo for lo, hi in added):
            hat_eval(v, piece, column, book)
    assert counter.eval_count - built == column.eval_count
    fresh = EnvyGraph(graph.pieces, vals)
    assert graph.pieces[s] == piece
    assert graph.matrix == fresh.matrix == hat_matrix(graph.pieces, vals)
    assert graph.succ == fresh.succ
    assert graph.in_deg == fresh.in_deg


@pytest.mark.parametrize("old, piece", [
    ("[1/8, 1/4]", interval(0, "1/8")), ("[1/8, 1/4]", interval("3/16", "3/8")),
    ("[1/8, 1/4]", interval(0, "3/16")), ("[1/8, 1/4]", None), (None, interval(0, "1/4"))])
def test_grow_refuses_a_piece_that_does_not_contain_the_old_one(old, piece):
    # skipping the agents an added part misses is sound only for a piece that
    # grew; the check must hold with asserts stripped
    held = None if old is None else interval("1/8", "1/4")
    graph = EnvyGraph([held, interval("1/2", 1)], [UNIFORM, UNIFORM])
    with pytest.raises(RuntimeError, match=re.escape(f"piece {old} cannot grow to {piece}")):
        graph.grow(0, piece)


def test_resolve_cycles_is_pure_column_permutation():
    """No fresh queries: the final matrix is the old one, columns permuted."""
    pieces = [interval("1/4", "1/2"), interval(0, "1/4")]
    vals = [_steps(0), _steps(1)]
    matrix = hat_matrix(pieces, vals)
    start = [row[:] for row in matrix]
    assert resolve_cycles(pieces, matrix) == [[0, 1]]
    assert pieces == [interval(0, "1/4"), interval("1/4", "1/2")]
    assert matrix == hat_matrix(pieces, vals)
    assert matrix == [[row[1], row[0]] for row in start]
    assert envy_edges(matrix) == [set(), set()]


def test_a_rotation_that_adds_edges_raises(monkeypatch):
    # rotating two agents who each prefer their own piece creates envy; the
    # edge-decrease check must catch it even with asserts stripped
    cycles = iter([[0, 1]])
    monkeypatch.setattr(cakecut.allocation, "_find_cycle", lambda edges: next(cycles, None))
    matrix = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    with pytest.raises(RuntimeError):
        resolve_cycles([interval(0, "1/2"), interval("1/2", 1)], matrix)
