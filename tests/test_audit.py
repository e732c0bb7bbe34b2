"""The audit layer must catch what it claims to catch.

Positive coverage (solver output passes) lives in test_solver; here the
emphasis is on failure detection: perturbed allocations and doctored traces
must produce failing checks with informative witnesses.
"""

from fractions import Fraction

import cakecut.audit as audit
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cakecut import (Check, Instance, Interval, SolverConfig, ValidationError, Valuation,
                     build_report, check_mult_bounds, check_phase_invariants,
                     check_theorem_bounds, interval, solve, solve_bounded, solve_mult)
from cakecut.audit import (check_iteration_bounds, check_structure, check_trace_monotonicity,
                           max_envy_of, min_ratio_of, values_matrix)
from cakecut.cake import QueryCounter
from cakecut.solver import Snapshot, Trace, TraceEvent
from oracles import (brute_force_min_envy, literal_max_envy, literal_min_ratio,
                     literal_mult_bounds, literal_phase_invariants, literal_theorem_bounds,
                     literal_values, phase_invariants)
from strategies import partial_allocations, shared_allocations

UNIFORM = Valuation([Fraction(0), Fraction(1)], [Fraction(1)])
LEFTY = Valuation(["0", "1/2", "1"], ["2", "0"])
DELTA = Fraction(1, 10)
TWO_UNIFORM = [UNIFORM, UNIFORM]


def test_values_matrix_and_summaries():
    pieces = [interval(0, "1/4"), interval("1/4", 1)]
    values = values_matrix(pieces, [UNIFORM, UNIFORM])
    assert values == [[Fraction(1, 4), Fraction(3, 4)]] * 2
    assert max_envy_of(values) == Fraction(1, 2)
    assert min_ratio_of(values) == Fraction(1, 3)


def test_min_ratio_none_when_nothing_to_compare():
    values = values_matrix([interval(0, 1)], [UNIFORM])
    assert min_ratio_of(values) is None
    assert max_envy_of(values) == 0


def test_theorem_bounds_flag_lopsided_allocations():
    # uniform agent 1 holds a sliver: envy 9/10 - 1/10 over the bound
    pieces = [interval(0, "1/10"), interval("1/10", 1)]
    checks = {c.name: c for c in check_theorem_bounds(values_matrix(pieces, TWO_UNIFORM), DELTA)}
    assert list(checks) == ["additive_envy_bound", "half_value_bound"]
    assert not checks["additive_envy_bound"].passed
    assert "agent 1" in checks["additive_envy_bound"].witness
    assert not checks["half_value_bound"].passed
    assert all(c.passed for c in check_structure(pieces))


def test_structure_checks_flag_overlap_and_gaps():
    overlap = [interval(0, "2/3"), interval("1/3", 1)]
    checks = {c.name: c for c in build_report(overlap, TWO_UNIFORM).checks}
    witness = "pieces of agents 1 and 2 overlap: [0, 2/3] and [1/3, 1]"
    assert not checks["pieces_disjoint"].passed
    assert checks["pieces_disjoint"].witness == witness
    assert not checks["complete_cover"].passed
    assert checks["complete_cover"].witness == witness
    gappy = [interval(0, "1/4"), interval("3/4", 1)]
    names = {c.name: c.passed for c in check_structure(gappy)}
    assert not names["complete_cover"]


def test_mult_bounds_flag_ratio_and_floor():
    pieces = [interval(0, "1/100"), interval("1/100", 1)]
    checks = {c.name: c for c in
              check_mult_bounds(values_matrix(pieces, TWO_UNIFORM), Fraction(1, 10))}
    assert not checks["mult_ratio_bound"].passed
    assert not checks["value_floor"].passed
    assert "1/8" in checks["value_floor"].witness or "agent 1" in checks["value_floor"].witness


def test_phase_invariants_pass_on_real_boundaries():
    inst = Instance({"l": LEFTY, "u": UNIFORM}, ["l", "u"])
    _, trace, report = solve(inst, SolverConfig(delta=DELTA))
    names = [c.name for c in report.checks]
    for phase in ["phase1_end", "phase2_end"]:
        for inv in ["piece_envy_cap", "gap_envy_cap", "no_affordable_prefix",
                    "bifurcating_margin"]:
            assert f"{phase}:{inv}" in names
    assert "phase1_end:no_remaining_claim" in names
    assert report.passed, report.failures()


def test_phase_invariants_flag_remaining_claims():
    # a giant untouched gap that the uniform agent still wants
    pieces = [interval(0, "1/100"), None]
    checks = {c.name: c for c in
              check_phase_invariants(pieces, [UNIFORM, UNIFORM], DELTA, "phase1_end")}
    assert not checks["phase1_end:no_remaining_claim"].passed
    assert "gap" in checks["phase1_end:no_remaining_claim"].witness
    assert not checks["phase1_end:gap_envy_cap"].passed


def test_a_gap_worth_exactly_the_cap_is_still_claimed():
    # agent 1 holds 1/10 and values the gap [1/10, 1/4] at 3/20 = 1/10 + delta/2
    pieces = [interval(0, "1/10"), interval("1/4", 1)]
    checks = {c.name: c for c in
              check_phase_invariants(pieces, TWO_UNIFORM, DELTA, "phase1_end")}
    assert checks["phase1_end:no_remaining_claim"].witness == (
        "agent 1 still claims gap [1/10, 1/4]")
    assert checks["phase1_end:gap_envy_cap"].passed


def test_a_remaining_claim_names_the_leftmost_gap_claimed():
    # agent 1 (right half only) claims only the right gap, agent 2 (left half
    # only) only the left one: the witness is the leftmost gap, not agent 1
    righty = Valuation(["0", "1/2", "1"], ["0", "2"])
    checks = check_phase_invariants([None, interval("2/5", "3/5")], [righty, LEFTY], DELTA,
                                    "phase1_end")
    assert checks[0].witness == "agent 2 still claims gap [0, 2/5]"


def test_phase_invariants_flag_affordable_prefixes():
    # agent 2 (uniform) holds a sliver while agent 1 owns nearly everything;
    # a prefix of piece 1 already reaches hat_2 + delta/2
    pieces = [interval(0, "9/10"), interval("9/10", 1)]
    checks = {c.name: c for c in
              check_phase_invariants(pieces, [LEFTY, UNIFORM], DELTA, "phase2_end")}
    assert not checks["phase2_end:no_affordable_prefix"].passed
    assert not checks["phase2_end:piece_envy_cap"].passed


def test_phase_invariants_flag_a_prefix_of_a_piece_worth_exactly_the_cap():
    # empty-handed agent 1 values agent 2's piece at exactly its cap delta/2,
    # all of it left of 1/2, so the strict prefix [19/40, 1/2] already pays
    pieces = [None, interval("19/40", "3/4")]
    checks = {c.name: c for c in
              check_phase_invariants(pieces, [LEFTY, UNIFORM], DELTA, "phase2_end")}
    assert checks["phase2_end:piece_envy_cap"].passed
    assert checks["phase2_end:no_affordable_prefix"].witness == (
        "agent 1 can reach 0 + 1/20 by 1/2 inside agent 2's piece [19/40, 3/4]")


def test_phase_invariants_flag_a_thin_bifurcation_margin():
    # agent 1's sliver is not bifurcating, agent 2's [1/10, 3/5] is, and it is
    # worth 1/2 >= 1/4 + delta/2 with only 2/5 <= 1/2 - delta/2 to its right
    pieces = [interval(0, "1/10"), interval("1/10", "3/5")]
    checks = {c.name: c for c in
              check_phase_invariants(pieces, TWO_UNIFORM, DELTA, "phase2_end")}
    assert [name for name, c in checks.items() if not c.passed] == [
        "phase2_end:piece_envy_cap", "phase2_end:gap_envy_cap",
        "phase2_end:no_affordable_prefix", "phase2_end:bifurcating_margin"]
    assert checks["phase2_end:bifurcating_margin"].witness == (
        "agent 2's piece [1/10, 3/5] is bifurcating for agent 1 yet worth 1/2 "
        "with only 2/5 to its right")


@settings(max_examples=200, deadline=None)
@given(partial_allocations(), st.sampled_from([Fraction(1, 2), Fraction(1, 4), DELTA,
                                               Fraction(1, 40)]),
       st.sampled_from(["phase1_end", "phase2_end"]))
def test_phase_invariants_match_their_definitions(allocation, delta, phase):
    pieces, valuations = allocation
    checks = check_phase_invariants(pieces, valuations, delta, phase)
    assert [(c.name, c.passed) for c in checks] == phase_invariants(pieces, valuations,
                                                                    delta, phase)
    assert all((c.witness is None) == c.passed for c in checks)


# Each agent holds the piece it values most, 3/4 against 1/4: leaving out
# its own column is what makes the minimum ratio 3 rather than 1.
MOSTLY_LEFT = Valuation(["0", "1/2", "1"], ["3/2", "1/2"])
MOSTLY_RIGHT = Valuation(["0", "1/2", "1"], ["1/2", "3/2"])
BOTH_HOLD_THEIR_BEST = ([interval(0, "1/2"), interval("1/2", 1)], [MOSTLY_LEFT, MOSTLY_RIGHT])


def _verdicts(checks):
    return [(c.name, c.passed, c.witness) for c in checks]


@settings(max_examples=300, deadline=None)
@given(shared_allocations(), st.sampled_from([Fraction(1, 2), DELTA, Fraction(1, 80)]),
       st.sampled_from([Fraction(1, 5), DELTA]))
@example(BOTH_HOLD_THEIR_BEST, DELTA, DELTA)
def test_the_audit_matches_the_literal_pair_scans(allocation, delta, c):
    """Values, summaries, names, verdicts and witnesses equal the n^2 scans', failures included."""
    pieces, valuations = allocation
    values = values_matrix(pieces, valuations)
    assert values == literal_values(pieces, valuations)
    assert max_envy_of(values) == literal_max_envy(values)
    assert min_ratio_of(values) == literal_min_ratio(values)
    assert _verdicts(check_theorem_bounds(values, delta)) == literal_theorem_bounds(values, delta)
    assert _verdicts(check_mult_bounds(values, c)) == literal_mult_bounds(values, c)
    for phase in ("phase1_end", "phase2_end"):
        assert _verdicts(check_phase_invariants(pieces, valuations, delta, phase)) == \
            literal_phase_invariants(pieces, valuations, delta, phase)


def test_trace_monotonicity_detects_a_drop():
    class Fake:
        events = []
        snapshots = []

    trace = Fake()
    trace.snapshots = [
        type("S", (), {"hat_values": [Fraction(1, 4), Fraction(1, 2)]}),
        type("S", (), {"hat_values": [Fraction(1, 4), Fraction(1, 3)]}),
    ]
    check = check_trace_monotonicity(trace)
    assert not check.passed
    assert "agent 2" in check.witness


def test_trace_monotonicity_reads_the_events_too():
    # a drop between two iterations can vanish by the next phase boundary
    hats = [(Fraction(1, 2),), (Fraction(1, 3),), (Fraction(2, 3),)]
    trace = Trace(events=[TraceEvent(1, "assign", 0, interval(0, 1), h) for h in hats],
                  snapshots=[Snapshot("phase1_end", [interval(0, 1)], [], [Fraction(2, 3)])])
    check = check_trace_monotonicity(trace)
    assert not check.passed and check.witness == "agent 1 fell 1/2 -> 1/3"


def test_iteration_bounds_flag_overruns():
    class Fake:
        phase1_iterations = 50
        phase2_iterations = 3

    checks = {c.name: c for c in check_iteration_bounds(Fake(), Fraction(40))}
    assert not checks["growth_iterations_within_budget"].passed
    assert checks["growth_iterations_within_budget"].witness == "50 > 40"
    assert checks["appending_iterations_within_budget"].passed
    assert checks["appending_iterations_within_budget"].witness is None


def test_build_report_wires_counters_and_summaries():
    counter = QueryCounter(eval_count=7, cut_count=3)
    report = build_report([interval(0, 1)], [UNIFORM], counter=counter)
    assert (report.eval_count, report.cut_count) == (7, 3)
    assert report.max_envy == 0 and report.min_ratio is None
    assert report.passed and report.failures() == []


@pytest.mark.parametrize("params, added", [
    (None, []),
    ({"epsilon": Fraction(1, 2)}, ["envy_within_epsilon"]),
    ({"delta": DELTA}, ["additive_envy_bound", "half_value_bound"]),
    ({"c": DELTA}, ["additive_envy_bound", "half_value_bound", "mult_ratio_bound", "value_floor"]),
    ({"delta": DELTA, "epsilon": Fraction(1, 2)},
     ["additive_envy_bound", "half_value_bound", "envy_within_epsilon"]),
])
def test_build_report_maps_each_parameter_to_its_checks(params, added):
    marker = Check("caller", True)
    report = build_report([interval(0, 1)], [UNIFORM], params=params, checks=[marker])
    names = [c.name for c in report.checks]
    assert names == ["caller", "pieces_disjoint", "complete_cover"] + added
    assert report.passed


def test_build_report_derives_the_loop_budget_from_c():
    class Fake:
        events = []
        snapshots = []
        phase1_iterations = 81   # one agent, delta = c/8 = 1/80: budget 80
        phase2_iterations = 80
        cycle_rotations = 0

    report = build_report([interval(0, 1)], [UNIFORM], params={"c": DELTA}, trace=Fake())
    assert [c.name for c in report.failures()] == ["growth_iterations_within_budget"]


def test_build_report_keeps_its_parameters_as_fractions():
    report = build_report([interval(0, 1)], [UNIFORM], params={"delta": "2/20", "epsilon": "1/2"})
    assert report.params == {"delta": Fraction(1, 10), "epsilon": Fraction(1, 2)}
    assert all(type(x) is Fraction for x in report.params.values())
    assert build_report([interval(0, 1)], [UNIFORM]).params == {}


@pytest.mark.parametrize("params", [
    {"delta": Fraction(1)}, {"epsilon": Fraction(0)}, {"c": DELTA, "delta": DELTA},
    {"eps": DELTA}, {"delta": 0.1}, {"epsilon": 0.5},
])
def test_build_report_rejects_malformed_parameters(params):
    with pytest.raises(ValidationError):
        build_report([interval(0, 1)], [UNIFORM], params=params)


def test_build_report_refuses_pieces_that_do_not_fit_its_valuations():
    thirds = [interval(0, "1/3"), interval("1/3", "2/3"), interval("2/3", 1)]
    # two pieces for three agents used to raise IndexError
    with pytest.raises(ValidationError, match="2 pieces for 3 agents"):
        build_report(thirds[:2], [UNIFORM] * 3, params={"delta": DELTA})
    # three pieces for two agents used to pass, with a third of the cake unowned
    with pytest.raises(ValidationError, match="3 pieces for 2 agents"):
        build_report(thirds, [UNIFORM] * 2, params={"delta": DELTA})
    # endpoints built as floats used to be audited in floats
    with pytest.raises(ValidationError, match="float"):
        build_report([Interval(0.0, 0.5), interval("1/2", 1)], [UNIFORM] * 2,
                     params={"delta": DELTA})


def test_each_audit_builds_one_value_matrix(monkeypatch):
    calls = []
    real = audit.values_matrix
    monkeypatch.setattr(audit, "values_matrix", lambda *args: calls.append(args) or real(*args))
    solve_mult(Instance({"l": LEFTY, "u": UNIFORM}, ["l", "u"]), DELTA)
    solve_bounded(Instance({"u": UNIFORM}, ["u"] * 4), Fraction(1, 2))
    assert len(calls) == 2


class TestBruteForce:
    def test_two_uniform_agents_split_evenly(self):
        inst = Instance({"u": UNIFORM}, ["u", "u"])
        envy, pieces = brute_force_min_envy(inst, 100)
        assert envy == 0
        assert pieces == [interval(0, "1/2"), interval("1/2", 1)]

    def test_three_uniform_agents_find_thirds(self):
        inst = Instance({"u": UNIFORM}, ["u"] * 3)
        envy, pieces = brute_force_min_envy(inst, 9)
        assert envy == 0
        assert [str(p) for p in pieces] == ["[0, 1/3]", "[1/3, 2/3]", "[2/3, 1]"]

    def test_rejects_large_instances_and_bad_resolution(self):
        inst = Instance({"u": UNIFORM}, ["u"] * 5)
        with pytest.raises(ValidationError):
            brute_force_min_envy(inst, 10)
        with pytest.raises(ValidationError):
            brute_force_min_envy(Instance({"u": UNIFORM}, ["u"]), 0)

    def test_breakpoints_join_the_grid(self):
        # the envy-0 cut sits at the breakpoint 1/7, which no k/3 grid point
        # hits; it is reachable only because breakpoints enter the grid
        lopsided = Valuation(["0", "1/7", "1"], ["7/2", "7/12"])
        inst = Instance({"v": lopsided}, ["v", "v"])
        envy, pieces = brute_force_min_envy(inst, 3)
        assert envy == 0
        assert pieces[0].hi == Fraction(1, 7)
