"""End-to-end solver behaviour: the two phases, the merge, and the audits."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from cakecut import (Instance, SolverConfig, ValidationError, Valuation,
                     interval, merge_final, solve, solve_mult)
from oracles import worst_envy
from strategies import instances

DELTA = Fraction(1, 10)


def two_agent_instance() -> Instance:
    """Agent a wants only the left half, agent b only the right half."""
    left = Valuation(["0", "1/2", "1"], ["2", "0"])
    right = Valuation(["0", "1/2", "1"], ["0", "2"])
    return Instance({"a": left, "b": right}, ["a", "b"])


def test_two_complementary_agents_regression():
    """Pinned run: opposite half-cakes split at 5/8 after 12 + 15 iterations."""
    pieces, trace, report = solve(two_agent_instance(), SolverConfig(delta=DELTA))
    assert [str(p) for p in pieces] == ["[0, 5/8]", "[5/8, 1]"]
    assert (trace.phase1_iterations, trace.phase2_iterations) == (12, 15)
    assert report.max_envy == 0
    assert report.min_ratio == 3
    assert report.passed, report.failures()


def test_single_agent_gets_everything():
    inst = Instance({"u": Valuation(["0", "1"], ["1"])}, ["u"])
    pieces, _, report = solve(inst, SolverConfig(delta=DELTA))
    assert pieces == [interval(0, 1)]
    assert report.passed


def test_identical_agents_all_get_pieces():
    inst = Instance({"u": Valuation(["0", "1"], ["1"])}, ["u"] * 4)
    pieces, _, report = solve(inst, SolverConfig(delta=DELTA))
    assert all(p is not None for p in pieces)
    assert report.passed, report.failures()


def test_solve_rejects_invalid_instance():
    broken = Valuation(["0", "1"], ["2"])
    with pytest.raises(ValidationError):
        solve(Instance({"x": broken}, ["x"]), SolverConfig(delta=DELTA))


def test_config_validates_delta_and_trace_level():
    with pytest.raises(ValidationError):
        SolverConfig(delta=Fraction(0))
    with pytest.raises(ValidationError):
        SolverConfig(delta=Fraction(3, 2))
    with pytest.raises(ValidationError):
        SolverConfig(delta=DELTA, trace_level="loud")


def test_config_keeps_delta_exact():
    # a float delta used as given would put float cut points on the decision
    # path, and two uniform agents would then fail bifurcating_margin
    uniform = Valuation(["0", "1"], ["1"])
    for delta in ["1/10", 0.1]:
        config = SolverConfig(delta=delta)
        assert config.delta == Fraction(delta) and type(config.delta) is Fraction
        _, _, report = solve(Instance({"u": uniform}, ["u", "u"]), config)
        assert report.passed, report.failures()


class TestTraceLevels:
    def test_off_records_nothing(self):
        _, trace, _ = solve(two_agent_instance(),
                            SolverConfig(delta=DELTA, trace_level="off"))
        assert trace.snapshots == [] and trace.events == []
        assert trace.phase1_iterations > 0  # counters still maintained

    def test_phase_boundaries_records_snapshots_only(self):
        _, trace, _ = solve(two_agent_instance(), SolverConfig(delta=DELTA))
        assert [s.label for s in trace.snapshots] == ["phase1_end", "phase2_end", "final"]
        assert trace.events == []

    def test_full_records_one_event_per_iteration(self):
        _, trace, _ = solve(two_agent_instance(),
                            SolverConfig(delta=DELTA, trace_level="full"))
        assigns = [e for e in trace.events if e.phase == 1]
        appends = [e for e in trace.events if e.phase == 2 and e.kind != "rotate"]
        assert len(assigns) == trace.phase1_iterations
        assert len(appends) == trace.phase2_iterations
        assert {e.kind for e in assigns} == {"assign"}


@settings(max_examples=60, deadline=None)
@given(instances(max_n=5))
def test_random_instances_pass_their_audits(inst):
    """Complete connected allocation with every proved bound re-checked."""
    pieces, trace, report = solve(inst, SolverConfig(delta=DELTA))
    assert report.passed, report.failures()
    assert len(pieces) == inst.n and all(p is not None for p in pieces)
    bound = Fraction(1, 4) + 2 * DELTA / inst.n
    assert worst_envy(pieces, inst.agent_valuations()) <= bound
    budget = Fraction(inst.n ** 2) / DELTA
    assert trace.phase1_iterations <= budget
    assert trace.phase2_iterations <= budget


@settings(max_examples=30, deadline=None)
@given(instances(max_n=4))
def test_solver_is_deterministic(inst):
    first = solve(inst, SolverConfig(delta=DELTA))
    second = solve(inst, SolverConfig(delta=DELTA))
    assert first[0] == second[0]
    assert first[2].eval_count == second[2].eval_count
    assert first[2].cut_count == second[2].cut_count


class TestMergeFinal:
    def test_leftover_gap_prefers_adjacent_piece(self):
        # gap [1/4, 1/2] touches the first piece's right end
        merged = merge_final([interval(0, "1/4"), interval("1/2", 1)])
        assert merged == [interval(0, "1/2"), interval("1/2", 1)]

    def test_leading_gap_attaches_to_piece_starting_at_its_end(self):
        merged = merge_final([interval("1/4", "1/2"), interval("1/2", 1)])
        assert merged == [interval(0, "1/2"), interval("1/2", 1)]

    def test_empty_agent_absorbs_gap_with_no_free_neighbor(self):
        # [0,1/4] merges right into agent 0; the gap [1/2,1] then finds its
        # only neighbor already used and falls through to empty agent 1
        merged = merge_final([interval("1/4", "1/2"), None])
        assert merged == [interval(0, "1/2"), interval("1/2", 1)]

    def test_adjacent_merges_may_leave_an_agent_empty(self):
        merged = merge_final([interval("1/4", "1/2"), None, interval("1/2", "3/4")])
        assert merged == [interval(0, "1/2"), None, interval("1/2", 1)]


def test_solve_mult_validates_c():
    inst = two_agent_instance()
    for c in [Fraction(0), Fraction(1), Fraction(-1, 10)]:
        with pytest.raises(ValidationError):
            solve_mult(inst, c)


def test_solve_mult_reports_ratio_checks():
    pieces, _, report = solve_mult(two_agent_instance(), Fraction(1, 10))
    names = [c.name for c in report.checks]
    assert "mult_ratio_bound" in names and "value_floor" in names
    assert report.passed, report.failures()
