"""Exact audits of allocations and solver state.

Nothing in here trusts the solver: every guarantee is recomputed from the
pieces and the valuations with Fraction arithmetic.  The checks come in
three groups -- structural (disjoint connected pieces covering the cake),
endpoint bounds on the finished allocation (additive envy, half-value,
multiplicative ratio, value floor), and mid-run invariants that must hold
when each solver phase ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .allocation import check_pieces, unassigned_gaps
from .cake import (ONE, ZERO, Piece, QueryCounter, ValidationError, Valuation, float_error,
                   open_unit)
from .hatvalue import HALF, QUARTER, hat_eval

if TYPE_CHECKING:  # the solver imports this module
    from .solver import Trace


@dataclass
class Check:
    """One named pass/fail verdict, with a human-readable counterexample."""

    name: str
    passed: bool
    witness: Optional[str] = None


@dataclass
class AuditReport:
    """Everything recomputed about one allocation.

    ``values[i][j]`` is agent i's exact value for agent j's piece (agents
    sharing a Valuation object share one row list);
    ``min_ratio`` is None when no agent assigns positive value to another's
    piece (the ratio is vacuously unbounded).  ``params`` holds the
    parameters the checks were derived from, as validated ``Fraction``s.
    """

    values: list[list[Fraction]]
    max_envy: Fraction
    min_ratio: Optional[Fraction]
    checks: list[Check] = field(default_factory=list)
    eval_count: int = 0
    cut_count: int = 0
    phase1_iterations: int = 0
    phase2_iterations: int = 0
    cycle_rotations: int = 0
    params: dict[str, Fraction] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


def _per_valuation(valuations: Sequence[Valuation], row):
    """``row(v)`` for each agent's valuation, computed once per Valuation object.

    Agents that share a valuation (an instance's agents with one id do) share
    one row object, so later passes can key their work by row identity.
    """
    rows = {}
    for v in valuations:
        if id(v) not in rows:
            rows[id(v)] = row(v)
    return [rows[id(v)] for v in valuations]


def values_matrix(pieces: Sequence[Piece], valuations: Sequence[Valuation]) -> list[list[Fraction]]:
    """``values[i][j]`` is agent i's value for agent j's piece, one row per valuation."""
    return _per_valuation(valuations, lambda v: [v.value_of(p) for p in pieces])


def _own_and_best(values: Sequence[Sequence[Fraction]]) -> list[tuple[Fraction, Optional[Fraction]]]:
    """(v_i(own piece), v_i(best other piece)) per agent; the latter None when there is none.

    The best other piece is the row's maximum unless that sits in the
    agent's own column, and then the runner-up.  Both are found once per row
    object.  Envy, half value and ratio each move one way as the other
    piece's value grows, so an agent's verdict on every other piece follows
    from its best one.
    """
    tops = {}
    pairs = []
    for i, row in enumerate(values):
        if id(row) not in tops:
            k = max(range(len(row)), key=row.__getitem__)
            tops[id(row)] = k, row[k], max(row[:k] + row[k + 1:], default=None)
        k, top, runner_up = tops[id(row)]
        pairs.append((row[i], runner_up if k == i else top))
    return pairs


def _first_failure(values: Sequence[Sequence[Fraction]], pairs, fails, say) -> Optional[str]:
    """``say(i, j, own, other)`` for the first pair i != j, row by row, that ``fails``.

    ``pairs`` is ``_own_and_best(values)``.  ``fails(own, other)`` may only
    turn true as ``other`` grows, so only an agent that fails at its best
    other piece has its row scanned.
    """
    for i, (own, other) in enumerate(pairs):
        if other is not None and fails(own, other):
            row = values[i]
            j = next(j for j, x in enumerate(row) if j != i and fails(own, x))
            return say(i, j, own, row[j])
    return None


def max_envy_of(values: Sequence[Sequence[Fraction]]) -> Fraction:
    """Largest amount any agent prefers another's piece over its own (>= 0)."""
    return max([ZERO, *(other - own for own, other in _own_and_best(values) if other is not None)])


def min_ratio_of(values: Sequence[Sequence[Fraction]]) -> Optional[Fraction]:
    """Smallest v_i(own)/v_i(other) over pairs where the other piece has value."""
    return min((own / other for own, other in _own_and_best(values)
                if other is not None and other > 0), default=None)


def _agent(i: int) -> str:
    return f"agent {i + 1}"


def check_structure(pieces: Sequence[Piece]) -> list[Check]:
    """The allocation is n connected pieces, pairwise disjoint, covering [0,1].

    Pieces that overlap or leave [0,1] fail both checks, with one witness.
    """
    msg = check_pieces(pieces)
    gaps = unassigned_gaps(pieces) if msg is None else []
    return [
        Check("pieces_disjoint", msg is None, msg),
        Check("complete_cover", msg is None and not gaps,
              f"uncovered: {', '.join(map(str, gaps))}" if gaps else msg),
    ]


def check_theorem_bounds(values: Sequence[Sequence[Fraction]], delta: Fraction) -> list[Check]:
    """The connected solver's additive-envy and half-value bounds, on the value matrix."""
    n = len(values)
    step = delta / n
    bound = QUARTER + 2 * step
    pairs = _own_and_best(values)
    envy = _first_failure(values, pairs, lambda own, other: other - own > bound,
                          lambda i, j, own, other:
                          f"{_agent(i)} envies {_agent(j)} by {other - own} > {bound}")
    half = _first_failure(values, pairs, lambda own, other: own < other / 2 - step,
                          lambda i, j, own, other:
                          f"{_agent(i)} holds {own} < {other}/2 - {delta}/{n}")
    return [Check("additive_envy_bound", envy is None, envy),
            Check("half_value_bound", half is None, half)]


def check_mult_bounds(values: Sequence[Sequence[Fraction]], c: Fraction) -> list[Check]:
    """Multiplicative-mode guarantees on the value matrix: pairwise ratio and the 1/(4n) floor."""
    n = len(values)
    scale = 2 + c
    ratio = _first_failure(values, _own_and_best(values), lambda own, other: scale * own < other,
                           lambda i, j, own, other:
                           f"(2+{c}) * {own} < {other} for {_agent(i)} vs {_agent(j)}")
    floor = Fraction(1, 4 * n)
    low = next((f"{_agent(i)} holds {values[i][i]} < 1/{4 * n}"
                for i in range(n) if values[i][i] < floor), None)
    return [Check("mult_ratio_bound", ratio is None, ratio), Check("value_floor", low is None, low)]


def check_phase_invariants(pieces: Sequence[Piece], valuations: Sequence[Valuation],
                           delta: Fraction, phase: str) -> list[Check]:
    """Invariants that must hold in the partial allocation at a phase boundary.

    ``phase`` tags the check names ("phase1_end" or "phase2_end").  All five
    families are recomputed from scratch:

    * no_remaining_claim  -- no agent hat-values any gap at or above its own
      hat value plus delta/n (the growth loop's exit condition; phase 1 only);
    * piece_envy_cap      -- v_i(P_j) <= hat_i(P_i) + delta/n;
    * gap_envy_cap        -- v_i(U)   <= hat_i(P_i) + delta/n for every gap;
    * no_affordable_prefix -- no strict prefix of any assigned piece is worth
      hat_i(P_i) + delta/n to any agent i;
    * bifurcating_margin  -- when P_i is not bifurcating for i but P_j is,
      either v_i(P_j) < 1/4 + delta/n or the cake right of P_j is worth more
      than 1/2 - delta/n to i.

    Every row depends only on the valuation, so it is computed once per
    Valuation object: the hat values and the worth of every piece and gap,
    where a hat value below 1 is the plain value, so plain values are looked
    up only for bifurcating intervals, and the pieces whose margin is thin.
    Each check moves one way in a piece's or gap's worth, so an agent is
    judged from a row's largest entry, and only an agent that fails scans
    the row.  The own piece never fails: it is worth at most the own hat
    value, below the cap, and is not thin for an agent below hat value 1.
    Each witness is the first failure agent by agent, except that a
    remaining claim names the leftmost gap still claimed.
    """
    step = delta / len(valuations)
    gaps = unassigned_gaps(pieces)

    def rows(v: Valuation):
        hats, gap_hats = [hat_eval(v, p) for p in pieces], [hat_eval(v, g) for g in gaps]
        worth = [h if h < ONE else v.value_of(p) for p, h in zip(pieces, hats)]
        gap_worth = [h if h < ONE else v.value_of(g) for g, h in zip(gaps, gap_hats)]
        # P_j bifurcating for v yet worth 1/4 + delta/n, with at most
        # 1/2 - delta/n to its right
        thin = [j for j, (p, h, w) in enumerate(zip(pieces, hats, worth))
                if h == ONE and w >= QUARTER + step and v.value(p.hi, ONE) <= HALF - step]
        tops = [max(row, default=ZERO) for row in (worth, gap_hats, gap_worth)]
        return hats, worth, gap_hats, gap_worth, thin, tops

    claims: list[tuple[int, int]] = []
    bad: dict[str, str] = {}
    for i, (v, (hats, worth, gap_hats, gap_worth, thin, (top, top_gap_hat, top_gap_worth))) in \
            enumerate(zip(valuations, _per_valuation(valuations, rows))):
        own = hats[i]
        cap = own + step
        if top_gap_hat >= cap:
            claims.append((next(k for k, h in enumerate(gap_hats) if h >= cap), i))
        if top > cap:
            j = next(j for j, w in enumerate(worth) if w > cap)
            bad.setdefault("piece_envy_cap",
                           f"{_agent(i)} values {_agent(j)}'s piece at {worth[j]} > {own} + {step}")
        # A strict prefix [lo_j, y), y < hi_j, reaching the cap would mean
        # agent i should have taken it; only a piece worth at least the cap
        # can hold one.
        if top >= cap and "no_affordable_prefix" not in bad:
            for j, (p, w) in enumerate(zip(pieces, worth)):
                y = v.leftmost_reach(p.lo, cap) if w >= cap else None
                if y is not None and y < p.hi:
                    bad["no_affordable_prefix"] = (f"{_agent(i)} can reach {own} + {step} "
                                                   f"by {y} inside {_agent(j)}'s piece {p}")
                    break
        if thin and own < ONE:
            j = thin[0]
            bad.setdefault("bifurcating_margin",
                           f"{_agent(j)}'s piece {pieces[j]} is bifurcating for {_agent(i)} yet "
                           f"worth {worth[j]} with only {v.value(pieces[j].hi, ONE)} to its right")
        if top_gap_worth > cap:
            k = next(k for k, w in enumerate(gap_worth) if w > cap)
            bad.setdefault("gap_envy_cap",
                           f"{_agent(i)} values gap {gaps[k]} at {gap_worth[k]} > {own} + {step}")
    if claims:
        k, i = min(claims)
        bad["no_remaining_claim"] = f"{_agent(i)} still claims gap {gaps[k]}"
    names = ["piece_envy_cap", "gap_envy_cap", "no_affordable_prefix", "bifurcating_margin"]
    if phase == "phase1_end":
        names.insert(0, "no_remaining_claim")
    return [Check(f"{phase}:{name}", name not in bad, bad.get(name)) for name in names]


def check_trace_monotonicity(trace: Trace) -> Check:
    """Per-agent hat values never decrease over the recorded events, nor over the snapshots."""
    for seq in ([e.hat_values for e in trace.events], [s.hat_values for s in trace.snapshots]):
        for prev, cur in zip(seq, seq[1:]):
            for i, (a, b) in enumerate(zip(prev, cur)):
                if b < a:
                    return Check("hat_values_nondecreasing", False,
                                 f"{_agent(i)} fell {a} -> {b}")
    return Check("hat_values_nondecreasing", True)


def loop_budget(n: int, delta: Fraction) -> Fraction:
    """The proved bound n^2/delta on the iterations of either solver loop."""
    return Fraction(n * n) / delta


def check_iteration_bounds(trace: Trace, budget: Fraction) -> list[Check]:
    """Both solver loops stayed within the n^2/delta iteration budget."""
    return [Check(name, count <= budget, None if count <= budget else f"{count} > {budget}")
            for name, count in (("growth_iterations_within_budget", trace.phase1_iterations),
                                ("appending_iterations_within_budget", trace.phase2_iterations))]


def check_grid_size(grid: Sequence[Fraction], n: int) -> Check:
    """The bounded solver's grid has at most n+1 points, so n pieces cover it."""
    ok = len(grid) <= n + 1
    return Check("grid_size_bound", ok, None if ok else f"{len(grid)} points, n+1 = {n + 1}")


PARAMS = ("delta", "c", "epsilon")


def build_report(pieces: Sequence[Piece], valuations: Sequence[Valuation], *,
                 params: Optional[dict] = None,
                 checks: Sequence[Check] = (),
                 counter: Optional[QueryCounter] = None,
                 trace: Optional[Trace] = None) -> AuditReport:
    """Audit an allocation against the parameters it was solved with.

    The exact value matrix is built once, one row per valuation; the
    envy/ratio summaries and every allocation check read each agent's best
    other piece from it.  The report lists the caller's run-time ``checks``
    first, then what each key of ``params`` implies:

    * always -- pieces_disjoint, complete_cover;
    * ``delta`` (c/8 when only ``c`` is given) -- additive_envy_bound,
      half_value_bound;
    * ``c`` -- mult_ratio_bound, value_floor;
    * ``epsilon`` -- envy_within_epsilon;

    then, given a trace, the n^2/delta loop budgets (when delta is known) and
    hat-value monotonicity.  The report's ``params`` are ``params`` with each
    value as a ``Fraction``.  Raises :class:`ValidationError` for a piece
    count other than the valuation count, a float endpoint, an unknown key,
    a value outside (0,1), or ``delta`` other than ``c/8`` when both are
    given.
    """
    if len(pieces) != len(valuations):
        raise ValidationError(f"allocation has {len(pieces)} pieces for {len(valuations)} agents")
    for piece in pieces:
        for end in piece or ():
            if isinstance(end, float):
                raise float_error("piece endpoint", end)
    params = params or {}
    unknown = sorted(set(params) - set(PARAMS))
    if unknown:
        raise ValidationError(f"unknown parameter(s) {unknown}; expected some of {PARAMS}")
    params = {key: open_unit(key, value) for key, value in params.items()}
    c, epsilon = params.get("c"), params.get("epsilon")
    delta = params.get("delta", None if c is None else c / 8)
    if c is not None and delta != c / 8:
        raise ValidationError(f"delta must equal c/8 = {c / 8}, got {delta}")

    values = values_matrix(pieces, valuations)
    max_envy = max_envy_of(values)
    all_checks = [*checks, *check_structure(pieces)]
    if delta is not None:
        all_checks += check_theorem_bounds(values, delta)
    if c is not None:
        all_checks += check_mult_bounds(values, c)
    if epsilon is not None:
        all_checks.append(Check("envy_within_epsilon", max_envy <= epsilon,
                                None if max_envy <= epsilon else f"max envy {max_envy} > {epsilon}"))
    if trace is not None and delta is not None:
        all_checks += check_iteration_bounds(trace, loop_budget(len(valuations), delta))
    if trace is not None:
        all_checks.append(check_trace_monotonicity(trace))
    report = AuditReport(
        values=values,
        max_envy=max_envy,
        min_ratio=min_ratio_of(values),
        params=params,
        checks=all_checks,
    )
    if counter is not None:
        report.eval_count = counter.eval_count
        report.cut_count = counter.cut_count
    if trace is not None:
        report.phase1_iterations = trace.phase1_iterations
        report.phase2_iterations = trace.phase2_iterations
        report.cycle_rotations = trace.cycle_rotations
    return report
