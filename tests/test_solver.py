"""End-to-end solver behaviour: the two phases, the merge, and the audits."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import cakecut.solver
from cakecut import (GeneratorSpec, Instance, SolverConfig, Trace, ValidationError, Valuation,
                     generate, interval, merge_final, phase_one, phase_two, solve, solve_mult)
from cakecut.solver import TRACE_LEVELS, GapPool, _Gap
from oracles import worst_envy
from reference_solver import appending_phase, growth_phase
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
    for level in ["loud", "off"]:
        with pytest.raises(ValidationError):
            SolverConfig(delta=DELTA, trace_level=level)
        with pytest.raises(ValidationError):
            solve_mult(two_agent_instance(), DELTA, trace_level=level)


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

    @pytest.mark.parametrize("level", TRACE_LEVELS)
    def test_every_level_audits_hat_monotonicity(self, level):
        _, _, report = solve(two_agent_instance(), SolverConfig(delta=DELTA, trace_level=level))
        assert [c.name for c in report.checks][-1] == "hat_values_nondecreasing"
        assert report.passed


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


def growth(inst, delta=DELTA):
    trace = Trace()
    pieces = phase_one(inst, SolverConfig(delta=delta), None, trace)
    return pieces, trace.phase1_iterations


@pytest.mark.parametrize("family", ["random", "identical", "blocks", "grouped"])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_growth_phase_matches_the_literal_loop(family, n):
    for seed in range(2):
        inst = generate(GeneratorSpec(n=n, family=family, seed=seed))
        assert growth(inst) == growth_phase(inst, DELTA)
    if n <= 5:
        assert growth(inst, Fraction(1, 80)) == growth_phase(inst, Fraction(1, 80))


@settings(max_examples=40, deadline=None)
@given(instances(max_n=5))
def test_growth_phase_matches_the_literal_loop_on_random_instances(inst):
    assert growth(inst) == growth_phase(inst, DELTA)


def appending(inst, delta=DELTA):
    config = SolverConfig(delta=delta)
    trace = Trace()
    partial = phase_one(inst, config)
    pieces = phase_two(partial, inst, config, None, trace)
    return (pieces, trace.phase2_iterations, trace.cycle_rotations), partial


@pytest.mark.parametrize("family", ["random", "identical", "blocks", "grouped"])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_appending_phase_matches_the_literal_loop(family, n):
    for seed in range(2):
        inst = generate(GeneratorSpec(n=n, family=family, seed=seed))
        result, partial = appending(inst)
        assert result == appending_phase(partial, inst, DELTA)
    if n <= 5:
        result, partial = appending(inst, Fraction(1, 80))
        assert result == appending_phase(partial, inst, Fraction(1, 80))


@pytest.mark.parametrize("n, seed, delta", [(3, 0, Fraction(1, 80)), (3, 6, Fraction(1, 40)),
                                            (5, 1, Fraction(1, 40))])
def test_appending_phase_matches_the_literal_loop_through_a_rotation(n, seed, delta):
    # random instances whose appending phase rotates an envy cycle; the
    # family grid above never does
    inst = generate(GeneratorSpec(n=n, family="random", seed=seed))
    result, partial = appending(inst, delta)
    assert result[2] == 1
    assert result == appending_phase(partial, inst, delta)


@settings(max_examples=40, deadline=None)
@given(instances(max_n=5))
def test_appending_phase_matches_the_literal_loop_on_random_instances(inst):
    result, partial = appending(inst)
    assert result == appending_phase(partial, inst, DELTA)


def test_growth_loop_stops_at_its_budget(monkeypatch):
    # an award that never changes anything would loop forever; the budget
    # check must stop it and fail the report, with or without asserts
    monkeypatch.setattr(GapPool, "award", lambda self: 0)
    _, trace, report = solve(two_agent_instance(), SolverConfig(delta=DELTA))
    assert trace.phase1_iterations == 41  # floor(n^2/delta) + 1
    assert "growth_iterations_within_budget" in {c.name for c in report.failures()}


def test_appending_loop_stops_at_its_budget(monkeypatch):
    # a cut query that returns its start point makes every crumb empty, so
    # more than n gaps remain forever; the budget check must stop the loop
    # (with or without asserts) and the report must say so
    monkeypatch.setattr(cakecut.solver, "cut_query", lambda v, x, nu, counter=None: x)
    inst = generate(GeneratorSpec(n=3, family="blocks", seed=0))
    pieces, trace, report = solve(inst, SolverConfig(delta=DELTA))
    assert trace.phase2_iterations == 91  # floor(n^2/delta) + 1
    assert {c.name for c in report.failures()} == {"complete_cover",
                                                   "appending_iterations_within_budget"}
    assert len(pieces) == inst.n


@pytest.mark.parametrize("cut", ["short", "none"])
def test_a_wrong_hat_cut_raises_even_without_asserts(monkeypatch, cut):
    # a point short of the real cut gives an award that raises the winner's
    # hat value by less than delta/n; no point at all leaves no prefix
    real = cakecut.solver.hat_cut

    def wrong(v, x, nu, counter=None):
        y = real(v, x, nu, counter)
        return None if cut == "none" else x + (y - x) / 2
    monkeypatch.setattr(cakecut.solver, "hat_cut", wrong)
    with pytest.raises(RuntimeError, match="by less than" if cut == "short" else "not a point"):
        solve(two_agent_instance(), SolverConfig(delta=DELTA))


def test_appending_loop_rejects_gaps_that_do_not_alternate(monkeypatch):
    # splitting the last gap in two breaks the piece/gap alternation that
    # more than n gaps imply
    real = cakecut.solver.unassigned_gaps

    def split_last(pieces):
        *gaps, last = real(pieces)
        mid = (last.lo + last.hi) / 2
        return gaps + [interval(last.lo, mid), interval(mid, last.hi)]
    monkeypatch.setattr(cakecut.solver, "unassigned_gaps", split_last)
    partial = [interval("1/5", "2/5"), interval("3/5", "4/5")]
    with pytest.raises(RuntimeError, match="do not alternate"):
        phase_two(partial, two_agent_instance(), SolverConfig(delta=DELTA))


def test_solver_has_no_assert_statements():
    # python -O strips asserts, so every library check must be a real one
    found = [(path.name, node.lineno)
             for path in sorted(Path(cakecut.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def solve_random_at_large_delta(n, seed):
    # an agent empty-handed after phase 1 values all of the cake at most
    # (2n-1)*delta/n, so it needs delta >= n/(2n-1); 9/10 is enough here
    inst = generate(GeneratorSpec(n=n, family="random", seed=seed))
    pieces, trace, report = solve(inst, SolverConfig(delta=Fraction(9, 10)))
    assert report.passed, report.failures()
    return pieces, trace.snapshots[1], report


def test_a_large_delta_can_leave_an_agent_with_nothing():
    pieces, _, report = solve_random_at_large_delta(3, 12)
    assert pieces[2] is None
    assert report.max_envy == Fraction(7, 13)


def test_solve_hands_a_gap_with_no_free_neighbour_to_an_empty_handed_agent():
    pieces, phase2_end, _ = solve_random_at_large_delta(2, 13)
    assert phase2_end.pieces[1] is None
    # agent 1 absorbs the left gap, so the right one goes to agent 2
    assert pieces[1] == phase2_end.gaps[-1] == interval("329/480", 1)


class TestGapPool:
    UNIFORM = Valuation(["0", "1"], ["1"])

    @staticmethod
    def pool(valuations: dict, gaps, step=DELTA) -> GapPool:
        pool = GapPool(Instance(valuations, list(valuations)), step)
        pool.gaps = [pool._seed(_Gap(Fraction(lo), Fraction(hi))) for lo, hi in gaps]
        return pool

    @staticmethod
    def count_peeks(monkeypatch) -> list:
        peeks = []
        next_mass = Valuation.next_mass

        def counted(v, x):
            peeks.append(x)
            return next_mass(v, x)
        monkeypatch.setattr(Valuation, "next_mass", counted)
        return peeks

    def test_release_merges_both_neighbours_and_reseeds_a_dropped_group(self):
        pool = self.pool({"u": self.UNIFORM}, [("0", "1/4"), ("1/2", "3/4")])
        pool.hat_own[0] = Fraction(1, 4)
        left = pool.gaps[0]
        # [0, 1/4] is worth 1/4 < 1/4 + delta/n to the agent: its group is dropped
        assert pool._best_claim(left) is None and left.groups == {}
        pool._release(Fraction(1, 4), Fraction(1, 2))
        assert [g.interval() for g in pool.gaps] == [interval(0, "3/4")]
        assert pool.gaps[0].groups == {"u": [0]}
        assert pool._best_claim(pool.gaps[0]) == (Fraction(7, 20), 0)

    def test_carve_keeps_groups_whose_mass_starts_at_or_after_the_cut(self, monkeypatch):
        valuations = {
            "all": self.UNIFORM,
            "left": Valuation(["0", "1/4", "1"], ["4", "0"]),
            "at": Valuation(["0", "1/2", "1"], ["0", "2"]),
            "after": Valuation(["0", "3/4", "1"], ["0", "4"]),
        }
        pool = self.pool(valuations, [("0", "1")])
        gap = pool.gaps[0]
        peeks = self.count_peeks(monkeypatch)
        pool._carve(gap, Fraction(1, 2))
        # only the groups whose mass started left of the cut are looked up again
        assert peeks == [Fraction(1, 2)] * 2
        assert gap.order == [(Fraction(1, 2), "all"), (Fraction(1, 2), "at"),
                             (Fraction(3, 4), "after")]
        assert set(gap.groups) == {"all", "at", "after"}

    def test_a_support_touching_a_gap_at_an_endpoint_is_never_seeded(self, monkeypatch):
        valuations = {
            "mid": Valuation(["0", "1/3", "2/3", "1"], ["0", "3", "0"]),
            "u": self.UNIFORM,
        }
        pool = self.pool(valuations, [])
        peeks = self.count_peeks(monkeypatch)
        for lo, hi in [("0", "1/3"), ("2/3", "1")]:
            gap = pool._seed(_Gap(Fraction(lo), Fraction(hi)))
            assert list(gap.groups) == ["u"]
        assert len(peeks) == 2  # one for "u" per gap, none for "mid"
        # a gap reaching past the support edge by less than 1/scale meets it
        gap = pool._seed(_Gap(Fraction(0), Fraction(17, 50)))
        assert gap.order == [(Fraction(0), "u"), (Fraction(1, 3), "mid")]


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
