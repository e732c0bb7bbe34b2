"""End-to-end solver behaviour: the two phases, the merge, and the audits."""

import ast
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cakecut.solver
from cakecut import (EnvyGraph, GeneratorSpec, Instance, QueryCounter, SolverConfig, Trace,
                     ValidationError, Valuation, generate, hat_eval, interval, merge_final,
                     phase_one, phase_two, solve, solve_mult)
from cakecut.serialize import allocation_to_obj, dumps_canonical
from cakecut.solver import AT_LO, TRACE_LEVELS, GapPool, _Gap
from oracles import CheckingBook, fixed_evals, worst_envy
from reference_solver import appending_phase, growth_phase
from strategies import instances, lattice_points

DELTA = Fraction(1, 10)


def two_agent_instance() -> Instance:
    """Agent a wants only the left half, agent b only the right half."""
    left = Valuation(["0", "1/2", "1"], ["2", "0"])
    right = Valuation(["0", "1/2", "1"], ["0", "2"])
    return Instance({"a": left, "b": right}, ["a", "b"])


def two_uniform_agents() -> Instance:
    """Two agents sharing the uniform valuation: phase 1 leaves at most n gaps."""
    return Instance({"u": Valuation(["0", "1"], ["1"])}, ["u", "u"])


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
    with pytest.raises(ValidationError):
        solve(Instance({"x": Valuation(["0", "1"], ["2"])}, ["x"]), SolverConfig(delta=DELTA))


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


def test_trace_records_every_level_it_accepts_and_rejects_others():
    # a misspelt level used to be accepted and then record no events
    with pytest.raises(ValidationError, match="unknown trace level 'ful'"):
        Trace(level="ful")
    trace = Trace(level="full")
    phase_one(generate(GeneratorSpec(n=4, seed=1)), SolverConfig(delta=DELTA), None, trace)
    assert len(trace.events) == trace.phase1_iterations > 0


def test_config_keeps_delta_exact():
    # a float delta used as given would put float cut points on the decision
    # path, and two uniform agents would then fail bifurcating_margin
    uniform = Valuation(["0", "1"], ["1"])
    config = SolverConfig(delta="1/10")
    assert config.delta == Fraction(1, 10) and type(config.delta) is Fraction
    _, _, report = solve(Instance({"u": uniform}, ["u", "u"]), config)
    assert report.passed, report.failures()
    # 0.1 would be 3602879701896397/36028797018963968, so it is refused
    with pytest.raises(ValidationError):
        SolverConfig(delta=0.1)


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


@pytest.mark.parametrize("valuations, cuts", [
    # b's support starts at 2/9, inside (1/5, 1/4]: a asks first and ends the
    # crumb at 1/4, which is 9/4 on the support scale 9, so b is asked only
    # if the crumb's end is scaled up, to 3
    ({"a": Valuation(["0", "1"], ["1"]),
      "b": Valuation(["0", "2/9", "6/25", "1"], ["0", "225/8", "25/38"])}, 28),
    # c's support ends at 2/9, just right of the crumb's start 1/5, which is
    # 9/5 on the scale 9, so c is asked only if that start is scaled down, to 1
    ({"c": Valuation(["0", "1/9", "2/9", "1"], ["0", "9", "0"]),
      "a": Valuation(["0", "1"], ["1"])}, 17),
])
def test_a_crumb_asks_every_agent_whose_support_meets_it(valuations, cuts):
    instance = Instance(valuations, list(valuations))
    partial = [interval("1/10", "1/5"), interval("1/2", "3/5")]
    counter, trace = QueryCounter(), Trace()
    pieces = phase_two(partial, instance, SolverConfig(delta=DELTA), counter, trace)
    assert (pieces, trace.phase2_iterations, trace.cycle_rotations) == \
        appending_phase(partial, instance, DELTA)
    assert counter.cut_count == cuts


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


def test_phase_two_invariants_are_rechecked_when_its_pieces_move(monkeypatch):
    # phase 2's verdicts repeat phase 1's only for the same pieces: a phase 2
    # that takes agent 1's piece away must fail the phase2_end envy caps,
    # though the real phase 2 would append nothing here
    real = cakecut.solver.phase_two
    monkeypatch.setattr(cakecut.solver, "phase_two",
                        lambda pieces, *args: [None, *real(pieces, *args)[1:]])
    _, _, report = solve(two_uniform_agents(), SolverConfig(delta=DELTA))
    failed = {c.name for c in report.failures()}
    assert {"phase2_end:piece_envy_cap", "phase2_end:gap_envy_cap"} <= failed
    assert not any(name.startswith("phase1_end") for name in failed)


def test_a_phase_two_that_moves_nothing_repeats_phase_one_verdicts(monkeypatch):
    phases = []
    real = cakecut.solver.check_phase_invariants
    monkeypatch.setattr(cakecut.solver, "check_phase_invariants",
                        lambda *args: phases.append(args[3]) or real(*args))
    _, trace, report = solve(two_uniform_agents(), SolverConfig(delta=DELTA))
    assert trace.phase2_iterations == 0 and phases == ["phase1_end"]
    verdicts = {phase: [(c.name.partition(":")[2], c.passed, c.witness) for c in report.checks
                        if c.name.startswith(phase) and not c.name.endswith("no_remaining_claim")]
                for phase in phases + ["phase2_end"]}
    assert verdicts["phase2_end"] == verdicts["phase1_end"] != []


@pytest.mark.parametrize("cut", ["short", "none"])
def test_a_wrong_hat_cut_raises_even_without_asserts(monkeypatch, cut):
    # a point short of the real cut gives an award that raises the winner's
    # hat value by less than delta/n; no point at all leaves no prefix
    real = cakecut.solver.hat_cut

    def wrong(v, x, nu, *reused):
        y, _ = real(v, x, nu, *reused)
        short = interval(x, x + (y - x) / 2)
        return None if cut == "none" else (short.hi, hat_eval(v, short))
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
        pool.live = [g for g in pool.gaps if g.order]
        return pool

    @staticmethod
    def keyed(pool: GapPool, lo: Fraction, starts) -> list:
        """``(mass start, id)`` pairs of a gap from ``lo`` as its ``order`` keys them."""
        return [(AT_LO if Fraction(x) == lo else int(Fraction(x) * pool.scale), vid)
                for x, vid in starts]

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
        pool = self.pool({"u": self.UNIFORM}, [("0", "1/4"), ("1/2", "3/4")], Fraction(1, 20))
        pool.set_hat(0, Fraction(1, 4))
        left = pool.gaps[0]
        # [0, 1/4] is worth 1/4 < 1/4 + delta/n to the agent: its id is dropped
        assert pool._best_claim(left)[0] is None and left.order == []
        assert pool.live == [pool.gaps[1]]
        pool._release(Fraction(1, 4), Fraction(1, 2))
        assert [g.interval() for g in pool.gaps] == [interval(0, "3/4")]
        assert pool.gaps[0].order == [(AT_LO, "u")] and pool.members["u"] == [(5, 0)]
        assert pool.live == pool.gaps
        # [0, 3/10] leaves 7/10 on its right, so its hat value is its plain value
        assert pool._best_claim(pool.gaps[0])[0] == (Fraction(3, 10), 0, Fraction(3, 10))

    @pytest.mark.parametrize("step, hats, claim", [
        # rep, index 1 (least hat, then least index), wins on its plain target 1/5
        ("1/10", ("1/5", "1/10", "1/10"), ("1/5", 1, "1/5")),
        # rep's target 1/2 is bifurcating: the first index at most room = 1 wins
        ("1/10", ("1/2", "2/5", "2/5"), ("1/2", 0, "1")),
        # index 0's target 6/5 is above room, so the hat-1 prefix skips it
        ("3/10", ("9/10", "3/10", "3/5"), ("1/2", 1, "1")),
        # index 0's target sits exactly at room = 1, so it is a candidate and wins
        ("1/10", ("9/10", "2/5", "2/5"), ("1/2", 0, "1")),
    ])
    def test_the_claim_names_rep_or_the_first_candidate_at_hat_value_one(self, step, hats, claim):
        pool = GapPool(Instance({"u": self.UNIFORM}, ["u"] * 3), Fraction(step))
        for i, h in enumerate(hats):
            pool.set_hat(i, Fraction(h))
        r, winner, at_r = claim
        assert pool._best_claim(pool.gaps[0])[0] == (Fraction(r), winner, Fraction(at_r))

    def test_cuts_tied_at_the_winning_endpoint_all_teach_the_book(self):
        # "late" has no mass before 1/20, yet its cut for 1/10 also ends at 1/10
        late = Valuation(["0", "1/20", "1/10", "1"], ["0", "2", "1"])
        pool = GapPool(Instance({"u": self.UNIFORM, "late": late}, ["late", "u"]), DELTA)
        r = Fraction(1, 10)
        # "u" answers first; the tie goes to the least index, the "late" agent
        assert pool._best_claim(pool.gaps[0]) == ((r, 0, r), [(self.UNIFORM, r), (late, r)])
        assert pool.book.mass(self.UNIFORM, r) is None and pool.book.mass(late, r) is None
        assert pool.award() == 0
        assert pool.book.mass(self.UNIFORM, r) == pool.book.mass(late, r) == (1, 10)

    def test_a_stale_member_raises_at_its_first_award(self, monkeypatch):
        set_hat = GapPool.set_hat

        def stale(pool, a, hat):
            members = pool.members[pool.vids[a]]
            kept = list(members)
            set_hat(pool, a, hat)
            if hat < 1:
                members[:] = kept  # the agent keeps its old (level, index) entry
        monkeypatch.setattr(GapPool, "set_hat", stale)
        with pytest.raises(RuntimeError, match="by less than"):
            phase_one(generate(GeneratorSpec(n=5, seed=3)), SolverConfig(delta=DELTA))

    def test_set_hat_keeps_members_by_level_then_index(self):
        valuations = {"u": self.UNIFORM, "right": Valuation(["0", "1/2", "1"], ["0", "2"])}
        pool = GapPool(Instance(valuations, ["u", "u", "u", "right"]), Fraction(1, 10))
        # index 0 reaches the hat value of index 2 after it: ties go by index
        for a, hat in [(2, "1/5"), (0, "1/5"), (1, "1/10")]:
            pool.set_hat(a, Fraction(hat))
        assert pool.members["u"] == [(1, 1), (2, 0), (2, 2)]
        assert pool.level == [2, 1, 2, 0]
        # a hat value off the step lattice is refused
        with pytest.raises(ValueError, match="not a multiple"):
            pool.set_hat(0, Fraction(1, 4))
        # at hat value 1 an agent leaves, and its id leaves starts with its last agent
        pool.set_hat(3, Fraction(1))
        assert pool.members["right"] == [] and [vid for _, vid in pool.starts] == ["u"]
        assert pool.level[3] == 10

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
        # only the ids whose mass started left of the cut are looked up again
        assert peeks == [Fraction(1, 2)] * 2
        # "at" starts at the new left end, so it is keyed with the moved "all"
        assert gap.order == [(AT_LO, "all"), (AT_LO, "at"), (3, "after")] and pool.scale == 4

    @pytest.mark.parametrize("valuations, before, after", [
        # "b" and "a" move in that order and both continue at 1/2, where "at"
        # already starts: the three are merged by id
        ({"b": UNIFORM,
          "a": Valuation(["0", "1/4", "1"], ["0", "4/3"]),
          "at": Valuation(["0", "1/2", "1"], ["0", "2"]),
          "after": Valuation(["0", "3/4", "1"], ["0", "4"])},
         [("0", "b"), ("1/4", "a"), ("1/2", "at"), ("3/4", "after")],
         [("1/2", "b"), ("1/2", "a"), ("1/2", "at"), ("3/4", "after")]),
        # "hole" has no mass on (1/4, 5/8): it moves to 5/8, between 1/2 and 3/4
        ({"all": UNIFORM,
          "hole": Valuation(["0", "1/4", "5/8", "1"], ["2", "0", "4/3"]),
          "after": Valuation(["0", "3/4", "1"], ["0", "4"])},
         [("0", "all"), ("0", "hole"), ("3/4", "after")],
         [("1/2", "all"), ("5/8", "hole"), ("3/4", "after")]),
    ])
    def test_carve_puts_each_moved_id_at_its_sorted_place(self, valuations, before, after):
        pool = self.pool(valuations, [("0", "1")])
        gap = pool.gaps[0]
        assert gap.order == self.keyed(pool, Fraction(0), before)
        pool._carve(gap, Fraction(1, 2))
        assert gap.order == sorted(self.keyed(pool, Fraction(1, 2), after))

    @settings(max_examples=60, deadline=None)
    @given(instances(), st.sampled_from([Fraction(1, 2), Fraction(1, 10), Fraction(1, 80)]))
    def test_members_and_levels_follow_every_award(self, instance, delta):
        step = delta / instance.n
        pool = GapPool(instance, step)
        while True:
            for vid in set(pool.vids):
                below = [i for i, v in enumerate(pool.vids) if v == vid and pool.hat_own[i] < 1]
                assert pool.members[vid] == sorted((pool.level[i], i) for i in below)
            assert pool.level == [h.numerator * step.denominator
                                  // (h.denominator * step.numerator) for h in pool.hat_own]
            if pool.award() is None:
                break

    def test_a_support_touching_a_gap_at_an_endpoint_is_never_seeded(self, monkeypatch):
        valuations = {
            "mid": Valuation(["0", "1/3", "2/3", "1"], ["0", "3", "0"]),
            "u": self.UNIFORM,
        }
        pool = self.pool(valuations, [])
        peeks = self.count_peeks(monkeypatch)
        for lo, hi in [("0", "1/3"), ("2/3", "1")]:
            gap = pool._seed(_Gap(Fraction(lo), Fraction(hi)))
            assert [vid for _, vid in gap.order] == ["u"]
        # "u" starts at the left end of [0, 1/3] and is read off its support
        # without a peek; in [2/3, 1] it straddles the left end.  None for "mid".
        assert peeks == [Fraction(2, 3)]
        # a gap reaching past the support edge by less than 1/scale meets it
        gap = pool._seed(_Gap(Fraction(0), Fraction(17, 50)))
        assert gap.order == self.keyed(pool, Fraction(0), [("0", "u"), ("1/3", "mid")])

    @classmethod
    def literal_seed(cls, pool: GapPool, lo: Fraction, hi: Fraction) -> list:
        """The order of [lo, hi] from a next_mass peek for every id with members."""
        order = []
        for vid, agents in pool.members.items():
            start = pool.valuations[vid].next_mass(lo) if agents else None
            if start is not None and start < hi:
                order += cls.keyed(pool, lo, [(start, vid)])
        return sorted(order)

    @settings(max_examples=60, deadline=None)
    @given(instances(), st.lists(st.tuples(lattice_points(), lattice_points()), max_size=4),
           st.sampled_from([Fraction(1, 2), Fraction(1, 10)]))
    def test_seed_matches_a_literal_seed_as_ids_fill_up(self, instance, ends, delta):
        pool = GapPool(instance, delta / instance.n)
        lattice = [(min(a, b), max(a, b)) for a, b in ends if a != b] + [(Fraction(0), Fraction(1))]
        while True:
            # fresh seeds of the live gaps and of lattice gaps, after every award
            for lo, hi in lattice + [(g.lo, g.hi) for g in pool.gaps]:
                gap = pool._seed(_Gap(lo, hi))
                assert gap.order == self.literal_seed(pool, lo, hi)
            starts = sorted((pool.valuations[vid].support_lo * pool.scale, vid)
                            for vid, agents in pool.members.items() if agents)
            assert pool.starts == starts
            if pool.award() is None:
                break

    @settings(max_examples=60, deadline=None)
    @given(instances(), st.sampled_from([Fraction(1, 2), Fraction(1, 10), Fraction(1, 80)]))
    def test_the_integer_state_follows_every_award(self, instance, delta):
        """Levels, members, every gap's keyed order and the live index, after every award."""
        step = delta / instance.n
        pool = GapPool(instance, step)
        while True:
            assert all(h == 1 or h == level * step for h, level in zip(pool.hat_own, pool.level))
            for vid, members in pool.members.items():
                below = [i for i, v in enumerate(pool.vids) if v == vid and pool.hat_own[i] < 1]
                assert [i for _, i in members] == sorted(below, key=lambda i: (pool.hat_own[i], i))
            for g in pool.gaps:
                # an id leaves an order only once it cannot claim: peek the ids kept
                starts = [(pool.valuations[vid].next_mass(g.lo), vid) for _, vid in g.order]
                assert all(x is not None and x < g.hi for x, _ in starts)
                assert g.order == sorted(self.keyed(pool, g.lo, starts))
            assert all(a.hi <= b.lo for a, b in zip(pool.gaps, pool.gaps[1:]))
            assert pool.live == [g for g in pool.gaps if g.order]
            if pool.award() is None:
                break

    @staticmethod
    def live_points(pool: GapPool) -> set:
        """0, 1 and the ends of every gap and piece, as (numerator, denominator)."""
        ends = [x for p in pool.pieces if p is not None for x in p]
        ends += [x for g in pool.gaps for x in (g.lo, g.hi)]
        return {(0, 1), (1, 1)} | {(x.numerator, x.denominator) for x in ends}

    @settings(max_examples=40, deadline=None)
    @given(instances(), st.sampled_from([Fraction(1, 2), Fraction(1, 10), Fraction(1, 80)]))
    def test_the_book_holds_masses_at_live_points_only(self, instance, delta):
        pool = GapPool(instance, delta / instance.n)
        while pool.award() is not None:
            assert set(pool.book.rows) <= self.live_points(pool)

    def test_the_book_stays_as_small_as_the_partition_over_many_awards(self):
        pool = GapPool(generate(GeneratorSpec(n=12, family="blocks", seed=7)), Fraction(1, 240))
        awards = 0
        while pool.award() is not None:
            awards += 1
            # every gap ends at a piece or at 0 or 1
            assert set(pool.book.rows) <= self.live_points(pool) and len(pool.book.rows) <= 2 * 12 + 2
        assert awards > 500

    def test_an_id_leaves_the_index_when_its_last_agent_fills(self):
        valuations = {"u": self.UNIFORM, "right": Valuation(["0", "1/2", "1"], ["0", "2"])}
        pool = GapPool(Instance(valuations, ["u", "right"]), Fraction(1, 2))
        assert [vid for _, vid in pool.starts] == ["u", "right"]
        # [0, 1/2] is bifurcating for "u": one award fills its only agent
        assert pool.award() == 0 and pool.hat_own[0] == 1
        assert [vid for _, vid in pool.starts] == ["right"]
        gap = pool._seed(_Gap(Fraction(0), Fraction(1)))
        assert gap.order == [(1, "right")] and pool.scale == 2
        assert pool.members["right"] == [(0, 1)]


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
    for c in [Fraction(0), Fraction(1), Fraction(-1, 10), 0.1]:
        with pytest.raises(ValidationError):
            solve_mult(inst, c)


def test_solve_mult_reports_ratio_checks():
    pieces, _, report = solve_mult(two_agent_instance(), Fraction(1, 10))
    names = [c.name for c in report.checks]
    assert "mult_ratio_bound" in names and "value_floor" in names
    assert report.passed, report.failures()


# (n, family, seed, parameter, value, (eval_count, cut_count, phase1_iterations,
# phase2_iterations, cycle_rotations), sha256 of the allocation file with its
# audit): the first 20 instances of the benchmark's multiplicative sample under
# solve_mult, then a grouped and a blocks instance under solve.  A change that
# moves any of these counts or bytes must say why.
C = Fraction(1, 10)
PINNED_RUNS = [
    (2, "random", 1000, "c", C, (62, 174, 84, 20, 0),
     "96600c821feffc150b34fcab8eaaab8dca5875b05509e45681a8cde9a7c06c2a"),
    (3, "identical", 1001, "c", C, (0, 147, 147, 0, 0),
     "e9b8827e04826493cf1c02f98f052f6044dbc2d929917e6f014df3d6809281ff"),
    (4, "blocks", 1002, "c", C, (83, 564, 324, 240, 0),
     "6a2daf451a9619a56f4ba1841a888415b931ab6c5aa81eb43638dc7facc0b2c8"),
    (5, "grouped", 1003, "c", C, (248, 539, 306, 0, 0),
     "48191f12b3bea1c5fd2bf13f1cc41f5197aff5bb29f9aa296a91051f36299d75"),
    (6, "random", 1004, "c", C, (1651, 2163, 403, 0, 0),
     "3cacb39bd76283a589561ea0771b57cd9cd76b97e0ce93a19b9b820d7a138490"),
    (2, "identical", 1005, "c", C, (0, 83, 83, 0, 0),
     "59be6c001d94c6de8d7b6d39baf624f5c5a5c88ff19fbc60a8b8f6d504f2d138"),
    (3, "blocks", 1006, "c", C, (63, 363, 183, 180, 0),
     "82efbc19d8ff5c10e2937a1d7953b4c32459c2e9034a9e9f9f055f90caf6600f"),
    (4, "grouped", 1007, "c", C, (160, 365, 186, 0, 0),
     "814d1364bbde5bad0fa18146259dd192a080b19ffaed8664181a2ed824ecb25b"),
    (5, "random", 1008, "c", C, (845, 1240, 296, 0, 0),
     "63e2bd7178e527f77a9dd41d8ba86e9d5ebfbdb181f09d8b827ad47904ee5d52"),
    (6, "identical", 1009, "c", C, (0, 297, 297, 0, 0),
     "86d55af355ebb819ba66e02a8ef6a65421a62e54ada32fe1ad65a81bec405214"),
    (2, "blocks", 1010, "c", C, (42, 200, 80, 120, 0),
     "2f3fcd118db03da554853404db0568b45b4c7d52524dbcb4da1229a7d487a624"),
    (3, "grouped", 1011, "c", C, (122, 285, 147, 0, 0),
     "e49779b2281c4555f21bf284eef79fad357097cd535564f80aa88ffa835ff925"),
    (4, "random", 1012, "c", C, (474, 751, 256, 0, 0),
     "fb32ebac40afa1504b4f1df0a32ac1dafb7ac54244bfcb512ceeadd23f236874"),
    (5, "identical", 1013, "c", C, (0, 292, 292, 0, 0),
     "cc58e758c51ee36e19b87064879e040e41046ee51f9495eadfa9898bc56b0d7e"),
    (6, "blocks", 1014, "c", C, (126, 1086, 726, 360, 0),
     "0c9f8752e95c8fbcb8b5a24fbc81231799ed4e5b07e3f90d3b1bcd7f46d19d89"),
    (2, "grouped", 1015, "c", C, (102, 242, 74, 47, 0),
     "3493f1c9e5aa004c022320c90ef7f56553f41ab5e238c04ab2f4acb6a8d6e89c"),
    (3, "random", 1016, "c", C, (194, 412, 170, 0, 0),
     "7c0d58792aec0fa3931430deed4c58ba67d0012fa5b2d82b445b132a8cc499dc"),
    (4, "identical", 1017, "c", C, (0, 217, 217, 0, 0),
     "76c8ad85e41682c98f21d8892114e0a562994ef6b31940daa2865f5a65dda6f5"),
    (5, "blocks", 1018, "c", C, (105, 800, 500, 300, 0),
     "4d842fb06333d499192f6c09db8d08b8745dcda7d388793f977fe45a508c9275"),
    (6, "grouped", 1019, "c", C, (270, 610, 317, 0, 0),
     "c420322a56722c90a1ae2d4fbfa34cc9888ecb1c6dc81b343707a1cf9388f6b5"),
    (50, "grouped", 7, "delta", DELTA, (457, 863, 524, 0, 0),
     "cd15cbfa52702d3cf2288742091bf24713dca04f7104120c8f2fa207cf101730"),
    (30, "blocks", 7, "delta", Fraction(1, 20), (180, 4980, 4530, 450, 0),
     "a4b4911f594debf0c893407c03d9175fd88bbce9ccf31cd22dd32554576cc648"),
]


@pytest.mark.parametrize("n, family, seed, key, value, counts, digest", PINNED_RUNS,
                         ids=[f"{family}-n{n}-seed{seed}" for n, family, seed, *_ in PINNED_RUNS])
def test_query_counts_and_file_bytes_are_pinned(monkeypatch, n, family, seed, key, value,
                                                 counts, digest):
    """The pinned counts and bytes, with a ``CheckingBook`` that asks the kernel for every
    mass the solve's book holds."""
    books = checking_books(monkeypatch)
    instance = generate(GeneratorSpec(n=n, family=family, seed=seed))
    if key == "c":
        pieces, _, report = solve_mult(instance, value)
    else:
        pieces, _, report = solve(instance, SolverConfig(delta=value))
    assert (report.eval_count, report.cut_count, report.phase1_iterations,
            report.phase2_iterations, report.cycle_rotations) == counts
    text = dumps_canonical(allocation_to_obj(pieces, report.params, report))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert len(books) == 1 and books[0].reads > 0


# sha256 of ``trace_text`` for the full-level trace of some PINNED_RUNS entries:
# the first five multiplicative-sample cases and the grouped and blocks runs.
# The final bytes can survive a change in which agent wins an award; these
# pin every award, crumb and rotation in order, with the hat values after it.
TRACE_DIGESTS = {
    ("random", 2, 1000): "2b12aa40a648a9d381d4b00b104e83be67bbfc64a2b9a630220778099dfd1258",
    ("identical", 3, 1001): "ad8d5c772cb8d31ab2bbaf989a02ababdafcc2feb7544d0a3c6dfcbac8ad34d9",
    ("blocks", 4, 1002): "69a5697c6a1b50836f09ae6f31abae3d8ee7982bcf02171e46f6bb4470af7a8e",
    ("grouped", 5, 1003): "0d7f1ecebeb733b3e35b5c819dc652ae9e8ba6cf99aa321de21e3fab20647941",
    ("random", 6, 1004): "0ce8e78821b64560c29f95ab3b706562ce22ea0bdcea01acc8216e8217ba0f88",
    ("grouped", 50, 7): "d9d2fa26d332b0e76a40451a01d635e134d2626553fd123069e4b1fda47859a9",
    ("blocks", 30, 7): "171660ef94d92610e9a4eaff7099de6c80f353a47cec136a8112b4e18a351d2d",
}
TRACED_RUNS = [run for run in PINNED_RUNS if (run[1], run[0], run[2]) in TRACE_DIGESTS]


def trace_text(trace: Trace) -> str:
    """One line per event, then one per snapshot, every number in exact ``str`` form."""
    lines = [f"{e.phase} {e.kind} {e.agent} {e.piece} {','.join(map(str, e.hat_values))}"
             for e in trace.events]
    lines += [f"{s.label} {';'.join(map(str, s.pieces))} {';'.join(map(str, s.gaps))} "
              f"{','.join(map(str, s.hat_values))}" for s in trace.snapshots]
    return "\n".join(lines)


@pytest.mark.parametrize("n, family, seed, key, value, counts, digest", TRACED_RUNS,
                         ids=[f"{family}-n{n}-seed{seed}" for n, family, seed, *_ in TRACED_RUNS])
def test_the_award_order_is_pinned(n, family, seed, key, value, counts, digest):
    instance = generate(GeneratorSpec(n=n, family=family, seed=seed))
    if key == "c":
        _, trace, _ = solve_mult(instance, value, trace_level="full")
    else:
        _, trace, _ = solve(instance, SolverConfig(delta=value, trace_level="full"))
    digest = hashlib.sha256(trace_text(trace).encode()).hexdigest()
    assert digest == TRACE_DIGESTS[family, n, seed]


def checking_books(monkeypatch) -> list:
    """Make every solve's book a ``CheckingBook``; returns the books made."""
    books = []
    monkeypatch.setattr(cakecut.solver, "PrefixBook",
                        lambda valuations: books.append(CheckingBook(valuations)) or books[-1])
    return books


@settings(max_examples=40, deadline=None)
@given(instances(max_n=5), st.sampled_from([Fraction(1, 10), Fraction(1, 80)]))
def test_a_checking_book_finds_every_held_mass_right_and_changes_nothing(inst, delta):
    config = SolverConfig(delta=delta, trace_level="full")
    with pytest.MonkeyPatch.context() as monkeypatch:
        books = checking_books(monkeypatch)
        checked = solve(inst, config)
    plain = solve(inst, config)
    assert len(books) == 1 and checked == plain


class QueryLog:
    """Every query one solve asks, with the solver spans open when it was asked.

    Rebinds ``eval_query``/``cut_query`` in every cakecut module that holds
    them, and wraps ``phase_one``, ``phase_two``, ``GapPool.award``,
    ``GapPool._best_claim`` and ``hat_cut`` in named spans.  Each record is
    ``(spans, hat_cut call number or None, valuation, question, counted)``
    where ``question`` is ``(kind, first argument, second argument)``, and
    ``starts[k]`` is the point x that hat_cut call k cut from.  After each
    ``GapPool.award`` and ``EnvyGraph.grow``, ``live`` gets ``(number of
    records so far, live points)``: 0, 1 and the ends of the pieces, which
    include every gap's ends.
    """

    def __init__(self, monkeypatch):
        self.records = []
        self.live = []
        self.spans = []
        self.calls = 0
        self.starts = {}
        for name, module in list(sys.modules.items()):
            if name.startswith("cakecut") and module is not None:
                for kind in ("eval_query", "cut_query"):
                    if hasattr(module, kind):
                        monkeypatch.setattr(module, kind, self.query(kind, getattr(module, kind)))
        for owner, attr in [(cakecut.solver, "phase_one"), (cakecut.solver, "phase_two"),
                            (cakecut.solver, "hat_cut"), (GapPool, "award"),
                            (GapPool, "_best_claim")]:
            monkeypatch.setattr(owner, attr, self.span(attr, getattr(owner, attr)))
        for owner, attr in [(GapPool, "award"), (EnvyGraph, "grow")]:
            monkeypatch.setattr(owner, attr, self.moved(getattr(owner, attr)))

    def query(self, kind, real):
        def asked(v, a, b, counter=None):
            call = next((s for s in reversed(self.spans) if isinstance(s, int)), None)
            self.records.append((tuple(s for s in self.spans if isinstance(s, str)), call, v,
                                 (kind, a, b), counter is not None))
            return real(v, a, b, counter)
        return asked

    def questions(self) -> list:
        """The counted queries and the live-point notes, in order, as ``fixed_evals`` reads them."""
        notes = iter(self.live)
        note = next(notes, None)
        out = []
        for k, (_, _, v, question, counted) in enumerate(self.records):
            while note is not None and note[0] == k:
                out.append((None, ("live", note[1], None)))
                note = next(notes, None)
            if counted:
                out.append((v, question))
        return out

    def moved(self, real):
        """``real``, noting the live points once it returns."""
        def noted(holder, *args):
            result = real(holder, *args)
            ends = {(x.numerator, x.denominator) for p in holder.pieces if p is not None
                    for x in p}
            self.live.append((len(self.records), ends | {(0, 1), (1, 1)}))
            return result
        return noted

    def span(self, name, real):
        def spanned(*args, **kwargs):
            if name == "hat_cut":
                self.calls += 1
                self.starts[self.calls] = args[1]
                self.spans.append(self.calls)
            self.spans.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                self.spans.pop()
                if name == "hat_cut":
                    self.spans.pop()
        return spanned


@pytest.mark.parametrize("n, family, seed, key, value, counts, digest", PINNED_RUNS,
                         ids=[f"{family}-n{n}-seed{seed}" for n, family, seed, *_ in PINNED_RUNS])
def test_a_solve_asks_each_fixed_question_once(monkeypatch, n, family, seed, key, value, counts,
                                               digest):
    """At most one cut and no eval but eval(0, x) or eval(x, 1) in a hat cut, no repeat in a
    hat cut, nothing asked by ``award`` itself, no query of either phase left uncounted, no
    appending cut from a point where the agent's support has ended, and no counted eval whose
    two ends' masses earlier counted answers of the same valuation fixed at live points."""
    instance = generate(GeneratorSpec(n=n, family=family, seed=seed))
    log = QueryLog(monkeypatch)
    if key == "c":
        solve_mult(instance, value)
    else:
        solve(instance, SolverConfig(delta=value))
    assert all(q in [("eval_query", 0, log.starts[call]), ("eval_query", log.starts[call], 1)]
               for _, call, _, q, _ in log.records if call is not None and q[0] == "eval_query")
    per_call = {}
    for spans, call, v, question, _ in log.records:
        if call is not None:
            per_call.setdefault(call, []).append((id(v), question))
    assert all(sum(q[0] == "cut_query" for _, q in asked) <= 1 for asked in per_call.values())
    assert all(len(asked) == len(set(asked)) for asked in per_call.values())
    assert [r for r in log.records if r[0][-1:] == ("award",)] == []
    hidden = [r for r in log.records if not r[4] and {"phase_one", "phase_two"} & set(r[0])]
    assert hidden == []
    assert all(q[1] < v.support_hi for spans, _, v, q, _ in log.records
               if "phase_two" in spans and q[0] == "cut_query")
    assert fixed_evals(log.questions()) == []
