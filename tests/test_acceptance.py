"""Release gate: every promised guarantee, re-checked exactly at full scale.

Each test prints a single PASS line with its headline numbers (visible under
``pytest -s``/``-v``); any violation fails the test outright.  Tolerances are
zero -- all comparisons are Fraction-exact -- and the stated runtime ceilings
are asserted, not just hoped for.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from cakecut import (EnvyGraph, GeneratorSpec, Instance, SolverConfig, Valuation,
                     check_pieces, generate, hat_cut, hat_eval, interval, solve,
                     solve_bounded, solve_mult, unassigned_gaps)
from cakecut.allocation import envy_edges, hat_matrix
from cakecut.cake import Interval
from cakecut.cli import EXIT_OK, main
from oracles import (brute_force_min_envy, grid_hat_cut, literal_hat_cut, naive_cut,
                     naive_hat, naive_value, replay_edge_counts, worst_envy)

FAMILY_ROTATION = ("random", "identical", "blocks", "grouped")


def _invariant_names(report):
    return {c.name: c.passed for c in report.checks}


def test_additive_envy_suite_500_instances():
    """Complete connected allocations within 1/4 + 2*delta/n, 500 for 500."""
    delta = Fraction(1, 10)
    started = time.monotonic()
    worst = Fraction(0)
    for k in range(500):
        n = 2 + k % 7
        spec = GeneratorSpec(n=n, family=FAMILY_ROTATION[k % 4], seed=k,
                             max_pieces=12)
        inst = generate(spec)
        pieces, _, report = solve(inst, SolverConfig(delta=delta))
        assert report.passed, (spec, report.failures())
        # structural facts re-established independently of the report
        assert check_pieces(pieces) is None
        assert unassigned_gaps(pieces) == []
        assert all(p is None or p.lo < p.hi or p.lo == p.hi for p in pieces)
        envy = worst_envy(pieces, inst.agent_valuations())
        assert envy <= Fraction(1, 4) + 2 * delta / n, (spec, envy)
        worst = max(worst, envy)
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"suite took {elapsed:.1f}s"
    print(f"PASS additive-envy suite: 500/500 within bound, "
          f"worst envy {worst} (~{float(worst):.4f}), {elapsed:.1f}s")


def test_headline_hundred_agents():
    """n = 100, delta = 1/20: envy at most 0.251 and ratio at least 0.499."""
    started = time.monotonic()
    inst = generate(GeneratorSpec(n=100, family="blocks", seed=7))
    pieces, trace, report = solve(inst, SolverConfig(delta=Fraction(1, 20)))
    assert report.passed, report.failures()
    assert report.max_envy <= Fraction(251, 1000), report.max_envy
    assert report.min_ratio is not None and report.min_ratio >= Fraction(499, 1000)
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"headline run took {elapsed:.1f}s"
    print(f"PASS headline n=100: envy {report.max_envy} <= 251/1000, "
          f"ratio {report.min_ratio} >= 499/1000, "
          f"{trace.phase1_iterations}+{trace.phase2_iterations} iterations, "
          f"{elapsed:.1f}s")


def test_multiplicative_suite_200_instances():
    """(2+c) * own >= other and own >= 1/(4n) at c = 1/10, 200 for 200."""
    c = Fraction(1, 10)
    started = time.monotonic()
    for k in range(200):
        n = 2 + k % 5
        spec = GeneratorSpec(n=n, family=FAMILY_ROTATION[k % 4], seed=1000 + k)
        inst = generate(spec)
        pieces, _, report = solve_mult(inst, c)
        assert report.passed, (spec, report.failures())
        vals = inst.agent_valuations()
        for i, v in enumerate(vals):
            own = Fraction(0) if pieces[i] is None else naive_value(v, *pieces[i])
            assert own >= Fraction(1, 4 * n), (spec, i, own)
            for j, p in enumerate(pieces):
                if j != i and p is not None:
                    assert (2 + c) * own >= naive_value(v, *p), (spec, i, j)
    elapsed = time.monotonic() - started
    print(f"PASS multiplicative suite: 200/200 ratio and floor hold, {elapsed:.1f}s")


def test_phase_invariant_suite_200_instances():
    """Boundary invariants, hat monotonicity, and loop budgets on every run."""
    delta = Fraction(1, 10)
    started = time.monotonic()
    expected = [
        "phase1_end:no_remaining_claim", "phase1_end:piece_envy_cap",
        "phase1_end:gap_envy_cap", "phase1_end:no_affordable_prefix",
        "phase1_end:bifurcating_margin", "phase2_end:piece_envy_cap",
        "phase2_end:gap_envy_cap", "phase2_end:no_affordable_prefix",
        "phase2_end:bifurcating_margin", "hat_values_nondecreasing",
        "growth_iterations_within_budget", "appending_iterations_within_budget",
    ]
    for k in range(200):
        n = 2 + k % 5
        spec = GeneratorSpec(n=n, family=FAMILY_ROTATION[k % 4], seed=2000 + k)
        inst = generate(spec)
        _, trace, report = solve(inst, SolverConfig(delta=delta, trace_level="full"))
        names = _invariant_names(report)
        for name in expected:
            assert names.get(name) is True, (spec, name, report.failures())
        budget = Fraction(n * n) / delta
        assert trace.phase1_iterations <= budget
        assert trace.phase2_iterations <= budget
    elapsed = time.monotonic() - started
    print(f"PASS phase-invariant suite: 200/200 with all {len(expected)} "
          f"invariant checks, {elapsed:.1f}s")


def _is_acyclic(graph) -> bool:
    indegree = [0] * len(graph)
    for succs in graph:
        for j in succs:
            indegree[j] += 1
    frontier = [i for i in range(len(graph)) if indegree[i] == 0]
    seen = 0
    while frontier:
        u = frontier.pop()
        seen += 1
        for j in graph[u]:
            indegree[j] -= 1
            if indegree[j] == 0:
                frontier.append(j)
    return seen == len(graph)


def test_cycle_elimination_1000_partial_allocations():
    """Acyclic output, monotone own hat values, piece multiset preserved."""
    rng = random.Random(99)
    started = time.monotonic()
    rotations = 0
    for k in range(1000):
        n = rng.randint(2, 7)
        inst = generate(GeneratorSpec(n=n, family="random", seed=3000 + k))
        vals = inst.agent_valuations()
        m = rng.randint(0, n)
        cuts = sorted(rng.randint(0, 48) for _ in range(2 * m))
        slots = [Interval(Fraction(cuts[2 * i], 48), Fraction(cuts[2 * i + 1], 48))
                 for i in range(m)]
        slots = [s for s in slots if s.lo < s.hi]
        owners = rng.sample(range(n), len(slots))
        pieces = [None] * n
        for owner, slot in zip(owners, slots):
            pieces[owner] = slot

        before = [hat_eval(v, p) for v, p in zip(vals, pieces)]
        graph = EnvyGraph(pieces, vals)
        start = [row[:] for row in graph.matrix]
        cycles = graph.resolve()
        fixed = graph.pieces
        after = [hat_eval(v, p) for v, p in zip(vals, fixed)]

        assert Counter(fixed) == Counter(pieces)
        assert all(b <= a for b, a in zip(before, after))
        assert _is_acyclic(envy_edges(hat_matrix(fixed, vals)))
        counts, replayed = replay_edge_counts(start, cycles)
        assert all(x > y for x, y in zip(counts, counts[1:])), counts
        assert replayed == graph.matrix
        rotations += len(cycles)
    elapsed = time.monotonic() - started
    print(f"PASS cycle elimination: 1000/1000 partial allocations, "
          f"{rotations} rotations total, {elapsed:.1f}s")


def test_hat_cut_matches_grid_oracle_10000_triples():
    """hat_cut within one 1e-4 grid step of a scan oracle; targets honored.

    The point is also the literal cut's, and the hat value returned with it
    is that of [x, point].
    """
    rng = random.Random(7)
    resolution = 10 ** 4
    step = Fraction(1, resolution)
    started = time.monotonic()
    checked = none_agreements = 0
    for k in range(2000):
        v = generate(GeneratorSpec(n=1, family="random", seed=4000 + k)) \
            .agent_valuations()[0]
        for _ in range(5):
            x = Fraction(rng.randint(0, 48), 48)
            nu = Fraction(rng.randint(1, 21), 20)
            claim = hat_cut(v, x, nu)
            coarse = grid_hat_cut(v, x, nu, resolution)
            if claim is None:
                assert coarse is None, (v, x, nu, coarse)
                assert literal_hat_cut(v, x, nu) is None, (v, x, nu)
                none_agreements += 1
            else:
                exact, hat = claim
                assert coarse is not None, (v, x, nu, exact)
                assert exact <= coarse < exact + step, (v, x, nu, exact, coarse)
                assert exact == literal_hat_cut(v, x, nu), (v, x, nu, exact)
                # the hat value returned with the point is the one asked afresh
                assert hat == hat_eval(v, Interval(x, exact)) >= nu, (v, x, nu, hat)
            checked += 1
    elapsed = time.monotonic() - started
    assert checked == 10000
    print(f"PASS hat-cut oracle: 10000/10000 triples within one grid step "
          f"({none_agreements} None-agreements), {elapsed:.1f}s")


def test_bounded_suite_200_grouped_instances():
    """Few distinct valuations: complete cover, envy <= eps, small grids."""
    rng = random.Random(11)
    started = time.monotonic()
    for k in range(200):
        d = rng.randint(1, 3)
        n = rng.randint(4 * (d + 1), 20)
        eps = Fraction(d + 1, n)
        inst = generate(GeneratorSpec(n=n, family="grouped", distinct=d,
                                      seed=5000 + k))
        pieces, report = solve_bounded(inst, eps)
        assert report.passed, (d, n, report.failures())
        assert check_pieces(pieces) is None
        assert unassigned_gaps(pieces) == []
        assert worst_envy(pieces, inst.agent_valuations()) <= eps
        # the mark union, rebuilt with the naive walker, stays within n + 1
        marks = set()
        for vid in inst.distinct_ids():
            v = inst.valuations[vid]
            z = Fraction(0)
            marks.add(z)
            while True:
                y = naive_cut(v, z, eps)
                if y is None or y >= 1:
                    break
                marks.add(y)
                z = y
            marks.add(Fraction(1))
        assert len(marks) <= n + 1, (d, n, sorted(marks))
    elapsed = time.monotonic() - started
    print(f"PASS bounded suite: 200/200 grouped instances, {elapsed:.1f}s")


def test_brute_force_oracle_and_bench_comparison():
    """The exhaustive oracle finds the known optima, and no solve beats it."""
    uniform = Valuation([Fraction(0), Fraction(1)], [Fraction(1)])
    envy2, pieces2 = brute_force_min_envy(Instance({"u": uniform}, ["u"] * 2), 100)
    assert envy2 == 0 and pieces2 == [interval(0, "1/2"), interval("1/2", 1)]
    envy3, pieces3 = brute_force_min_envy(Instance({"u": uniform}, ["u"] * 3), 99)
    assert envy3 == 0
    assert [str(p) for p in pieces3] == ["[0, 1/3]", "[1/3, 2/3]", "[2/3, 1]"]

    for k in range(4):
        instance = generate(GeneratorSpec(n=2 + k % 2, family="random", seed=77 + k,
                                          max_pieces=8))
        _, _, report = solve(instance, SolverConfig(delta=Fraction(1, 10)))
        optimum, _ = brute_force_min_envy(instance, 36)
        assert report.passed
        assert report.max_envy >= optimum
    print("PASS brute-force oracle: n=2 splits at 1/2, n=3 at thirds, "
          "4 solves at or above the grid optimum")


def test_seeded_runs_are_byte_identical(tmp_path, capsys):
    """Any seeded run repeated writes the same bytes."""
    inst = tmp_path / "inst.json"
    twin = tmp_path / "twin.json"
    for target in (inst, twin):
        assert main(["gen", "--n", "5", "--family", "grouped", "--distinct", "2",
                     "--seed", "13", "-o", str(target)]) == EXIT_OK
    assert inst.read_bytes() == twin.read_bytes()

    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["solve", str(inst), "--delta", "1/10", "-o", str(path)]) == EXIT_OK
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]

    outputs = []
    for name in ("ba.json", "bb.json"):
        path = tmp_path / name
        assert main(["bounded", str(inst), "--epsilon", "3/5", "-o", str(path)]) == EXIT_OK
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    capsys.readouterr()
    print("PASS determinism: gen, solve, and bounded outputs byte-identical")
