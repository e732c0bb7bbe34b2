"""Connected, approximately envy-free division of the cake.

The solver runs in two phases over a partial allocation that starts empty.

*Growth phase.*  While some agent values an unassigned gap (under the hat
valuation) at least ``delta/n`` above its own piece, take the leftmost such
gap, let every qualifying agent name the shortest gap prefix meeting its
raised target, and hand the shortest of those prefixes to its agent --
releasing whatever that agent held before.  Each award raises the winner's
hat value by at least ``delta/n`` and hat values never exceed 1, so the loop
runs at most ``n^2/delta`` times.

*Appending phase.*  While more than ``n`` gaps remain, make the envy graph
acyclic by rotating pieces along envy cycles, pick its lowest-index source,
and extend that source's piece rightward into the adjacent gap by a *crumb*
worth at most ``delta/n`` to every agent (tight for at least one); when the
whole remaining gap is that cheap, append all of it.  Also at most
``n^2/delta`` iterations.

Finally each leftover gap is merged into a distinct adjacent piece, yielding
a complete allocation of connected pieces, one per agent (an agent can end
with nothing, but only when ``delta >= n/(2n-1)``), whose additive envy is
provably at most ``1/4 + 2*delta/n`` and which satisfies
``v_i(I_i) >= v_i(I_j)/2 - delta/n`` for every pair -- both re-checked
exactly, never assumed.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .audit import AuditReport, Check, build_report, check_phase_invariants, loop_budget
from .cake import (
    ONE,
    ZERO,
    Instance,
    Interval,
    Piece,
    QueryCounter,
    SupportBoxes,
    ValidationError,
    Valuation,
    cut_query,
    open_unit,
)
from .allocation import EnvyGraph, unassigned_gaps
from .hatvalue import hat_cut, hat_eval, hat_with_prefix

log = logging.getLogger(__name__)

TRACE_LEVELS = ("phase_boundaries", "full")


def _check_trace_level(level: str) -> None:
    if level not in TRACE_LEVELS:
        raise ValidationError(f"unknown trace level {level!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters: the envy step ``delta`` and how much to record."""

    delta: Fraction
    trace_level: str = "phase_boundaries"

    def __post_init__(self):
        object.__setattr__(self, "delta", open_unit("delta", self.delta))
        _check_trace_level(self.trace_level)


@dataclass
class Snapshot:
    label: str
    pieces: list[Piece]
    gaps: list[Interval]
    hat_values: list[Fraction]


@dataclass
class TraceEvent:
    """One solver action (recorded only at trace level 'full')."""

    phase: int                     # 1 = growth, 2 = appending
    kind: str                      # assign | crumb | whole_gap | rotate
    agent: int
    piece: Piece
    hat_values: tuple[Fraction, ...]


@dataclass
class Trace:
    """Phase-end and final snapshots, loop counters, and (level 'full') per-iteration events."""

    level: str = "phase_boundaries"
    snapshots: list[Snapshot] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)
    phase1_iterations: int = 0
    phase2_iterations: int = 0
    cycle_rotations: int = 0

    def __post_init__(self):
        _check_trace_level(self.level)

    def snap(self, label: str, pieces: Sequence[Piece], gaps: Sequence[Interval],
             hats: Sequence[Fraction]) -> None:
        self.snapshots.append(Snapshot(label, list(pieces), list(gaps), list(hats)))

    def event(self, phase: int, kind: str, agent: int, piece: Piece,
              hats: Sequence[Fraction]) -> None:
        if self.level == "full":
            self.events.append(TraceEvent(phase, kind, agent, piece, tuple(hats)))


class _Gap:
    """One unassigned interval and the ids that may still claim a prefix of it.

    ``order`` holds ``(mass start, id)`` for each such id, sorted so a scan
    can stop once no later id could name a shorter prefix.  An id's
    candidates are not kept here: they are its agents in ``GapPool.members``.
    """

    __slots__ = ("lo", "hi", "order")

    def __init__(self, lo: Fraction, hi: Fraction):
        self.lo, self.hi = lo, hi
        self.order: list[tuple[Fraction, str]] = []

    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)


class GapPool:
    """State of the growth phase: pieces, hat values and the sorted gaps.

    Agents sharing a valuation name the same prefixes, so each gap lists its
    candidates by valuation id and queries once per id.  Answers the pool
    already holds are not asked again: the mass of [0, lo] that the gap's hat
    value asked goes on to ``hat_cut``, and the hat value ``hat_cut`` returns
    with its point names the winner and becomes its hat value, so an
    award asks nothing itself.  A gap is seeded only from valuations whose
    support box meets it.  The boxes are ``SupportBoxes``, so the test is on
    integers and exact: a support that only touches a gap at an endpoint is
    never seeded.  The ids that still have members are kept in ``starts``,
    sorted by ``(support_lo, id)``, so a reseed reads the ids whose support
    starts inside the gap as one slice.
    """

    def __init__(self, instance: Instance, step: Fraction,
                 counter: Optional[QueryCounter] = None):
        self.valuations = instance.valuations
        self.vids = instance.agent_ids
        self.step = step
        self.counter = counter
        self.pieces: list[Piece] = [None] * instance.n
        self.hat_own: list[Fraction] = [ZERO] * instance.n
        # Agents below hat value 1 (a full agent never competes again), by id.
        self.members: dict[str, list[int]] = {}
        for i, vid in enumerate(self.vids):
            self.members.setdefault(vid, []).append(i)
        ids = list(self.members)
        self.boxes = SupportBoxes([self.valuations[vid] for vid in ids])
        self.box_hi = dict(zip(ids, self.boxes.hi))
        # (support_lo, id) of every id with members -- exactly the order entry
        # of a gap its support starts inside -- and the integer box_lo keys.
        self.starts = sorted((self.valuations[vid].support_lo, vid) for vid in ids)
        self.start_keys = [self.boxes.floor(lo) for lo, _ in self.starts]
        self.gaps: list[_Gap] = [self._seed(_Gap(ZERO, ONE))]

    def _seed(self, g: _Gap) -> _Gap:
        """Rebuild g's candidates from every valuation with mass inside it.

        When ``g.lo <= support_lo < g.hi`` the mass start is ``support_lo``
        itself, so those ids arrive from ``starts`` as one slice already in
        ``(start, id)`` order, with no peek.  Only the ids whose support
        straddles ``g.lo`` are peeked with ``next_mass`` and inserted.
        """
        boxes = self.boxes
        lo, first, hi = boxes.floor(g.lo), boxes.ceil(g.lo), boxes.ceil(g.hi)
        k = bisect_left(self.start_keys, first)
        order = self.starts[k:bisect_left(self.start_keys, hi, k)]
        for _, vid in self.starts[:k]:
            if self.box_hi[vid] > lo:
                # Mass lies right of g.lo inside the box, so start is not None.
                start = self.valuations[vid].next_mass(g.lo)
                if start < g.hi:
                    insort(order, (start, vid))
        g.order = order
        return g

    def _carve(self, g: _Gap, r: Fraction) -> None:
        """Remove the awarded prefix [g.lo, r] from the gap (r < g.hi)."""
        g.lo = r
        # Mass-start points left of the new edge must be recomputed; the rest
        # are untouched (mass that began at or beyond r still begins there).
        k = bisect_left(g.order, (r,))
        moved, g.order[:k] = g.order[:k], []
        for _, vid in moved:
            start = self.valuations[vid].next_mass(r)
            if start is not None and start < g.hi:  # else no mass is left inside the gap
                insort(g.order, (start, vid))

    def _release(self, lo: Fraction, hi: Fraction) -> None:
        """Return [lo, hi] to the pool as one gap with its endpoint-adjacent neighbours.

        The merged gap is seeded afresh: a wider gap can interest ids
        dropped earlier.
        """
        gaps = self.gaps
        k = bisect_left(gaps, lo, key=lambda g: g.lo)
        if k < len(gaps) and gaps[k].lo == hi:
            hi = gaps.pop(k).hi
        if k > 0 and gaps[k - 1].hi == lo:
            k -= 1
            lo = gaps.pop(k).lo
        gaps.insert(k, self._seed(_Gap(lo, hi)))

    def _best_claim(self, g: _Gap) -> Optional[tuple[Fraction, int, Fraction]]:
        """Shortest qualifying prefix of ``g`` as (endpoint, agent, hat value), if any.

        Walks the ids in mass-start order: once some id names a prefix
        endpoint, any id whose mass begins at or beyond it cannot name a
        strictly shorter one, so it is skipped without queries.  An id's
        candidates are its members (agents below hat value 1, by index) at
        hat value ``room = reach - step`` or less, reach being the gap's hat
        value.  The id qualifies when ``rep``, its first member of least hat
        value, does; else it leaves ``g.order`` and cannot qualify again
        before the gap is reseeded: in the growth phase hat values of pieces
        only rise, and carving only lowers the gap's hat value (plain values
        shrink, and an interval containing a bifurcating one is bifurcating
        itself).  ``hat_cut`` answers rep's target nu <= reach with hat value
        nu < 1/2 (nu < t <= 1/2, or nu <= 1 - rho < 1/2), met by exactly the
        members at rep's hat value, rep first, or with hat value 1, met by
        every candidate as reach <= 1, and then the first candidate wins.
        """
        hat_own, step = self.hat_own, self.step
        best: Optional[tuple[Fraction, int, Fraction]] = None
        for start, vid in list(g.order):
            if best is not None and start >= best[0]:
                break  # mass starts too far right to beat the current prefix
            v = self.valuations[vid]
            members = self.members[vid]
            if members:  # an id whose agents are all full asks nothing
                reach, prefix = hat_with_prefix(v, g.lo, g.hi, self.counter)
                room = reach - step
                rep = min(members, key=hat_own.__getitem__)
            if not members or hat_own[rep] > room:
                g.order.remove((start, vid))
                continue
            claim = hat_cut(v, g.lo, hat_own[rep] + step, self.counter, prefix)
            if claim is None or claim[0] > g.hi:
                point = None if claim is None else claim[0]
                raise RuntimeError(f"agent {rep + 1}'s hat cut from {g.lo} is {point}, "
                                   f"not a point of the gap {g.interval()}")
            r, at_r = claim
            winner = rep if at_r < 1 else next(i for i in members if hat_own[i] <= room)
            # An agent appears under one id only, so (r, winner) never ties.
            if best is None or (r, winner, at_r) < best:
                best = (r, winner, at_r)
        return best

    def award(self) -> Optional[int]:
        """One growth iteration; returns the winner, or None if nobody qualifies.

        The leftmost gap with a qualifying agent loses its shortest qualifying
        prefix to that agent, whose previous piece returns to the pool.
        """
        for k, g in enumerate(self.gaps):
            if g.order and (claim := self._best_claim(g)) is not None:
                break
        else:
            return None  # exact exit condition: no (gap, agent) pair qualifies
        r, a, hat = claim
        released = self.pieces[a]
        piece = Interval(g.lo, r)
        if hat < self.hat_own[a] + self.step:
            raise RuntimeError(f"award raises agent {a + 1}'s hat value from {self.hat_own[a]} "
                               f"to {hat}, by less than {self.step}")
        self.pieces[a] = piece
        self.hat_own[a] = hat
        if hat >= 1:
            vid = self.vids[a]
            self.members[vid].remove(a)
            if not self.members[vid]:
                j = self.starts.index((self.valuations[vid].support_lo, vid))
                del self.starts[j], self.start_keys[j]
        if r < g.hi:
            self._carve(g, r)
        else:
            self.gaps.pop(k)
        if released is not None:
            self._release(released.lo, released.hi)
        return a


def phase_one(instance: Instance, config: SolverConfig,
              counter: Optional[QueryCounter] = None,
              trace: Optional[Trace] = None) -> list[Piece]:
    """Growth phase: returns a partial allocation no gap can improve on.

    At exit, every agent values every remaining gap (under the hat
    valuation) strictly below its own hat value plus ``delta/n``.  The loop
    also stops after floor(n^2/delta) + 1 awards, one more than the proved
    bound allows, so a run that overruns fails the report's
    ``growth_iterations_within_budget`` check instead of looping on.
    Without a ``trace`` it records into a fresh one.
    """
    if trace is None:
        trace = Trace()
    pool = GapPool(instance, config.delta / instance.n, counter)
    budget = loop_budget(instance.n, config.delta)
    iterations = 0
    while iterations <= budget and (a := pool.award()) is not None:
        iterations += 1
        trace.event(1, "assign", a, pool.pieces[a], pool.hat_own)
    trace.phase1_iterations = iterations
    trace.snap("phase1_end", pool.pieces, [g.interval() for g in pool.gaps], pool.hat_own)
    log.debug("growth phase done: %s iterations, %s gaps", iterations, len(pool.gaps))
    return pool.pieces


def phase_two(pieces: Sequence[Piece], instance: Instance, config: SolverConfig,
              counter: Optional[QueryCounter] = None,
              trace: Optional[Trace] = None) -> list[Piece]:
    """Appending phase: feed gap crumbs to envy-graph sources until <= n gaps.

    The crumb from the source's right end ``r_s`` ends at the least of the
    agents' cuts ``cut(r_s, delta/n)``.  Only an agent whose support meets
    ``(r_s, x)``, x being the least cut answered so far (1 at first), is
    asked: any other agent's cut ends at 1 or beyond its support start, not
    before x.  The envy graph asks only the agents whose support meets the
    piece, or the part it grows by (``EnvyGraph``).

    Like the growth loop, it stops after floor(n^2/delta) + 1 iterations, so
    a run that overruns leaves more than n gaps and fails the report's
    ``appending_iterations_within_budget`` and ``complete_cover`` checks.
    Without a ``trace`` it records into a fresh one.
    """
    if trace is None:
        trace = Trace()
    valuations = instance.agent_valuations()
    n = instance.n
    gaps = unassigned_gaps(pieces)
    if len(gaps) <= n:
        # Nothing to append: phase 2 ends where phase 1 did.  Within a solve
        # the phase-1 snapshot holds these pieces' hat values, so the phase
        # asks no query for its snapshot, counted or not.
        last = trace.snapshots[-1] if trace.snapshots else None
        hats = last.hat_values if last is not None and last.pieces == list(pieces) else \
            [hat_eval(v, p) for v, p in zip(valuations, pieces)]
        trace.snap("phase2_end", pieces, gaps, hats)
        return list(pieces)

    graph = EnvyGraph(pieces, valuations, counter)
    boxes = graph.boxes
    step = config.delta / n
    budget = loop_budget(n, config.delta)
    iterations = 0
    while len(gaps) > n and iterations <= budget:
        # More gaps than agents forces a full piece/gap alternation: every
        # agent holds something and has a gap immediately to its right.
        if len(gaps) != n + 1 or None in graph.pieces:
            raise RuntimeError(f"{len(gaps)} gaps do not alternate with the pieces of {n} agents")
        cycles = graph.resolve()
        trace.cycle_rotations += len(cycles)
        for cyc in cycles:
            trace.event(2, "rotate", cyc[0], graph.pieces[cyc[0]], graph.hats())

        s = graph.source()
        r_s = graph.pieces[s].hi
        k = bisect_left(gaps, r_s, key=lambda g: g.lo)
        if k == len(gaps) or gaps[k].lo != r_s:
            raise RuntimeError(f"source agent {s + 1} has no gap on its right at {r_s}")
        # x is the least cut so far: an agent whose support misses (r_s, x)
        # cannot cut short of it.
        left, x, right = boxes.floor(r_s), ONE, boxes.scale
        for v, lo, hi in zip(valuations, boxes.lo, boxes.hi):
            if lo < right and hi > left and (y := cut_query(v, r_s, step, counter)) < x:
                x, right = y, boxes.ceil(y)
        if x >= gaps[k].hi:
            x = gaps.pop(k).hi
            kind = "whole_gap"
        else:
            gaps[k] = Interval(x, gaps[k].hi)
            kind = "crumb"
        graph.grow(s, Interval(graph.pieces[s].lo, x))
        iterations += 1
        trace.event(2, kind, s, graph.pieces[s], graph.hats())
    trace.phase2_iterations = iterations
    trace.snap("phase2_end", graph.pieces, gaps, graph.hats())
    log.debug("appending phase done: %s iterations", iterations)
    return graph.pieces


def merge_final(pieces: Sequence[Piece]) -> list[Piece]:
    """Merge each remaining gap into a distinct adjacent piece.

    Gaps are matched left to right, each preferring the piece ending at its
    left edge and falling back to the piece starting at its right edge.  A
    gap with no free neighbor (possible only when some agents hold nothing)
    is handed whole to the lowest-index empty-handed agent.  A gap left over
    once those run out stays uncovered, and the report's ``complete_cover``
    check fails.

    Inside ``solve`` an agent reaches the merge empty-handed only when
    ``delta >= n/(2n-1)``.  Phase 2 moves pieces only while more than n gaps
    force every agent to hold one, and never empties a hand, so such an
    agent held nothing when phase 1 ended.  Its hat value was then 0, so it
    valued each of the at most n-1 pieces and at most n gaps at no more than
    ``delta/n``; together they cover the cake, so ``1 <= (2n-1)*delta/n``.
    """
    out = list(pieces)
    ends = {p.hi: i for i, p in enumerate(out) if p is not None}
    starts = {p.lo: i for i, p in enumerate(out) if p is not None}
    used: set[int] = set()
    leftover: list[Interval] = []
    for gap in unassigned_gaps(out):
        left = ends.get(gap.lo)
        right = starts.get(gap.hi)
        if left is not None and left not in used:
            used.add(left)
            out[left] = Interval(out[left].lo, gap.hi)
        elif right is not None and right not in used:
            used.add(right)
            out[right] = Interval(gap.lo, out[right].hi)
        else:
            leftover.append(gap)
    empty = [i for i, p in enumerate(pieces) if p is None]
    for gap, agent in zip(leftover, empty):
        out[agent] = gap
    return out


def solve(instance: Instance, config: SolverConfig,
          mult_c: Optional[Fraction] = None) -> tuple[list[Piece], Trace, AuditReport]:
    """Run both phases plus the merge and audit the result exactly.

    Returns the complete allocation (one connected piece per agent, or
    ``None`` for an agent left empty-handed, see ``merge_final``; jointly
    covering [0,1]), the execution trace, and an audit report in which every
    proved bound has been re-checked with exact arithmetic.  With ``mult_c`` (and
    ``config.delta == mult_c/8``, as ``solve_mult`` sets it) the report also
    audits the multiplicative bounds.
    """
    valuations = instance.agent_valuations()
    counter = QueryCounter()
    trace = Trace(level=config.trace_level)

    grown = phase_one(instance, config, counter, trace)
    checks = check_phase_invariants(grown, valuations, config.delta, "phase1_end")
    partial = phase_two(grown, instance, config, counter, trace)
    if partial == grown:
        # The invariants depend only on the pieces: phase 2 repeats phase 1's verdicts.
        checks += [Check("phase2_end:" + c.name.partition(":")[2], c.passed, c.witness)
                   for c in checks if c.name != "phase1_end:no_remaining_claim"]
    else:
        checks += check_phase_invariants(partial, valuations, config.delta, "phase2_end")
    allocation = merge_final(partial)
    trace.snap("final", allocation, [],
               [hat_eval(v, p) for v, p in zip(valuations, allocation)])

    params = {"delta": config.delta}
    if mult_c is not None:
        params["c"] = mult_c
    report = build_report(allocation, valuations, params=params, checks=checks,
                          counter=counter, trace=trace)
    return allocation, trace, report


def solve_mult(instance: Instance, c: Fraction,
               trace_level: str = "phase_boundaries") -> tuple[list[Piece], Trace, AuditReport]:
    """Multiplicative mode: run with delta = c/8.

    The output allocation satisfies ``(2+c) * v_i(I_i) >= v_i(I_j)`` for all
    pairs and gives every agent at least ``1/(4n)``; both are audited.
    """
    c = open_unit("c", c)
    return solve(instance, SolverConfig(delta=c / 8, trace_level=trace_level), mult_c=c)
