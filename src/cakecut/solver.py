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
from itertools import takewhile
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
from .hatvalue import PrefixBook, hat_cut, hat_eval, hat_ratio

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
    already holds are not asked again.  Its ``book`` (a ``PrefixBook``) holds
    the masses P(x) of [0, x] that answers fixed, at live points only: 0, 1
    and the ends of the current gaps and pieces.  A gap's hat value and
    ``hat_cut`` read and teach it, ``award`` teaches it the winning
    endpoint from the lessons ``_best_claim`` returns, and ``_release`` drops
    the points a merge makes interior.  The hat value ``hat_cut`` returns
    with its point names the winner and becomes its hat value, so an award
    asks nothing itself.  A gap is seeded only from valuations whose support
    box meets it.  The boxes are ``SupportBoxes``, so the test is on
    integers and exact: a support that only touches a gap at an endpoint is
    never seeded.  The ids that still have members are kept in ``starts``,
    sorted by ``(support_lo, id)``, so a reseed reads the ids whose support
    starts inside the gap as one slice.

    ``members[vid]`` lists the id's agents below hat value 1 sorted by
    ``(hat_own[i], i)``, so its lowest agent is ``members[vid][0]``, and
    ``target[i]`` caches ``hat_own[i] + step``, the least hat value agent i
    may claim.  Both follow ``hat_own`` because ``set_hat`` is the one place
    that writes it; ``award`` checks each raise against ``hat_own``, so a
    stale target raises at its first award.
    """

    def __init__(self, instance: Instance, step: Fraction,
                 counter: Optional[QueryCounter] = None, book: Optional[PrefixBook] = None):
        self.valuations = instance.valuations
        self.vids = instance.agent_ids
        self.step = step
        self.counter = counter
        self.book = PrefixBook(self.valuations.values()) if book is None else book
        self.pieces: list[Piece] = [None] * instance.n
        self.hat_own: list[Fraction] = [ZERO] * instance.n
        self.target: list[Fraction] = [step] * instance.n
        # Agents below hat value 1 (a full agent never competes again), by id;
        # every hat value is 0, so index order is (hat value, index) order.
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

    def set_hat(self, a: int, hat: Fraction) -> None:
        """Write agent a's hat value, its ``target`` and its place in ``members``.

        Below hat value 1 the agent is re-inserted at its ``(hat value,
        index)`` place; at hat value 1 it leaves ``members``, and an id left
        without members leaves ``starts``.  A full agent is in no id's order
        and is never written again.
        """
        hat_own, vid = self.hat_own, self.vids[a]
        members = self.members[vid]
        members.remove(a)
        hat_own[a] = hat
        self.target[a] = hat + self.step
        if hat < 1:
            insort(members, a, key=lambda i: (hat_own[i], i))
        elif not members:
            j = self.starts.index((self.valuations[vid].support_lo, vid))
            del self.starts[j], self.start_keys[j]

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
        """Remove the awarded prefix [g.lo, r] from the gap (r < g.hi).

        Mass-start points left of the new edge, the front run of ``g.order``,
        must be recomputed; the rest are untouched (mass that began at or
        beyond r still begins there).  A moved id whose mass continues at r
        joins the entries already at r, by id; only a later start is
        inserted by bisection.
        """
        g.lo = r
        order, rn, rd = g.order, r.numerator, r.denominator
        # the ids whose mass starts below r, compared on integers, lead the order
        k = next((j for j, (s, _) in enumerate(order)
                  if s.numerator * rd >= rn * s.denominator), len(order))
        moved, order[:k] = order[:k], []
        at_r = []
        for _, vid in moved:
            start = self.valuations[vid].next_mass(r)
            if start is None or start >= g.hi:
                continue  # no mass is left inside the gap
            if start.numerator * rd == rn * start.denominator:
                at_r.append(vid)
            else:
                insort(order, (start, vid))
        if at_r:
            k = next((j for j, (s, _) in enumerate(order)
                      if s.numerator * rd != rn * s.denominator), len(order))
            order[:k] = [(r, vid) for vid in sorted(at_r + [vid for _, vid in order[:k]])]

    def _release(self, lo: Fraction, hi: Fraction) -> None:
        """Return [lo, hi] to the pool as one gap with its endpoint-adjacent neighbours.

        The merged gap is seeded afresh: a wider gap can interest ids
        dropped earlier.  A merged end is no longer the end of a gap or piece,
        so the book drops it.  The first gap with ``g.lo >= lo`` is found by
        one bisection on integers, ``g.lo.numerator * b >= a * g.lo.denominator``.
        """
        gaps = self.gaps
        a, b = lo.numerator, lo.denominator
        k = bisect_left(gaps, True, key=lambda g: g.lo.numerator * b >= a * g.lo.denominator)
        if k < len(gaps) and gaps[k].lo == hi:
            self.book.drop(hi)
            hi = gaps.pop(k).hi
        if k > 0 and gaps[k - 1].hi == lo:
            self.book.drop(lo)
            k -= 1
            lo = gaps.pop(k).lo
        gaps.insert(k, self._seed(_Gap(lo, hi)))

    def _best_claim(self, g: _Gap) -> tuple[Optional[tuple[Fraction, int, Fraction]],
                                            list[tuple[Valuation, Fraction]]]:
        """Shortest qualifying prefix of ``g`` as (endpoint, agent, hat value), and its lessons.

        Walks the ids in mass-start order: once some id names a prefix
        endpoint, any id whose mass begins at or beyond it cannot name a
        strictly shorter one, so it is skipped without queries.  An id's
        candidates are its members (agents below hat value 1, sorted by
        ``(hat value, index)``) whose cached ``target`` is at most reach, the
        gap's hat value: a front run of ``members``, compared on integers.
        The id qualifies when ``rep = members[0]``, its first member of least
        hat value, does; else it leaves ``g.order`` and cannot qualify again
        before the gap is reseeded: in the growth phase hat values of pieces
        only rise, and carving only lowers the gap's hat value (plain values
        shrink, and an interval containing a bifurcating one is bifurcating
        itself).  ``hat_cut`` answers rep's target nu <= reach with hat value
        nu < 1/2 (nu < t <= 1/2, or nu <= 1 - rho < 1/2), met by exactly the
        members at rep's hat value, rep first, or with hat value 1, met by
        every candidate as reach <= 1, and then the candidate of least index
        wins.  ``nu`` is ``target[rep]``, so the scan builds no Fraction.

        The claim is None when no id qualifies.  The lessons are ``(valuation,
        hat value)`` for every id whose cut answered the winning endpoint, a
        tie across ids included: the endpoint stays live, so ``award`` teaches
        the book its mass from each.
        """
        target, counter, book = self.target, self.counter, self.book
        best: Optional[tuple[Fraction, int, Fraction]] = None
        lessons: list[tuple[Valuation, Fraction]] = []
        for start, vid in list(g.order):
            if best is not None and start >= best[0]:
                break  # mass starts too far right to beat the current prefix
            v = self.valuations[vid]
            members = self.members[vid]
            if members:  # an id whose agents are all full asks nothing
                p, q, _ = hat_ratio(v, g.lo, g.hi, counter, book)  # reach = p/q
                rep = members[0]
                nu = target[rep]
            if not members or nu.numerator * q > p * nu.denominator:  # rep is above room
                g.order.remove((start, vid))
                continue
            claim = hat_cut(v, g.lo, nu, counter, book)
            if claim is None or claim[0] > g.hi:
                point = None if claim is None else claim[0]
                raise RuntimeError(f"agent {rep + 1}'s hat cut from {g.lo} is {point}, "
                                   f"not a point of the gap {g.interval()}")
            r, at_r = claim
            if at_r < 1:
                winner = rep
            else:
                # the candidates, target <= reach, are a front run of members
                winner = min(takewhile(
                    lambda i: target[i].numerator * q <= p * target[i].denominator, members))
            # An agent appears under one id only, so (r, winner) never ties.
            if best is None or r < best[0]:
                best, lessons = (r, winner, at_r), [(v, at_r)]
            elif r == best[0]:
                lessons.append((v, at_r))
                if winner < best[1]:
                    best = (r, winner, at_r)
        return best, lessons

    def award(self) -> Optional[int]:
        """One growth iteration; returns the winner, or None if nobody qualifies.

        The leftmost gap with a qualifying agent loses its shortest qualifying
        prefix to that agent, whose previous piece returns to the pool.  The
        book learns the winning endpoint's mass from the scan's lessons, the
        cuts that answered it.
        """
        for k, g in enumerate(self.gaps):
            if g.order and (found := self._best_claim(g))[0] is not None:
                break
        else:
            return None  # exact exit condition: no (gap, agent) pair qualifies
        (r, a, hat), lessons = found
        own = self.hat_own[a]
        # hat >= own + step on integers: the check reads hat_own, not the target it guards
        (c, d), (p, q) = hat.as_integer_ratio(), own.as_integer_ratio()
        s, t = self.step.as_integer_ratio()
        if c * q * t < d * (p * t + s * q):
            raise RuntimeError(f"award raises agent {a + 1}'s hat value from {own} "
                               f"to {hat}, by less than {self.step}")
        for v, at_r in lessons:
            self.book.learn_cut(v, g.lo, r, at_r)
        released = self.pieces[a]
        self.pieces[a] = Interval(g.lo, r)
        self.set_hat(a, hat)
        if r < g.hi:
            self._carve(g, r)
        else:
            self.gaps.pop(k)
        if released is not None:
            self._release(released.lo, released.hi)
        return a


def phase_one(instance: Instance, config: SolverConfig,
              counter: Optional[QueryCounter] = None,
              trace: Optional[Trace] = None, book: Optional[PrefixBook] = None) -> list[Piece]:
    """Growth phase: returns a partial allocation no gap can improve on.

    At exit, every agent values every remaining gap (under the hat
    valuation) strictly below its own hat value plus ``delta/n``.  The loop
    also stops after floor(n^2/delta) + 1 awards, one more than the proved
    bound allows, so a run that overruns fails the report's
    ``growth_iterations_within_budget`` check instead of looping on.
    Without a ``trace`` it records into a fresh one, and without a ``book``
    the pool keeps a fresh one; ``solve`` hands the same book on to
    ``phase_two``.
    """
    if trace is None:
        trace = Trace()
    pool = GapPool(instance, config.delta / instance.n, counter, book)
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
              trace: Optional[Trace] = None, book: Optional[PrefixBook] = None) -> list[Piece]:
    """Appending phase: feed gap crumbs to envy-graph sources until <= n gaps.

    The crumb from the source's right end ``r_s`` ends at the least of the
    agents' cuts ``cut(r_s, delta/n)``.  Only an agent whose support meets
    ``(r_s, x)``, x being the least cut answered so far (1 at first), is
    asked: any other agent's cut ends at 1 or beyond its support start, not
    before x.  The envy graph asks only the agents whose support meets the
    piece, or the part it grows by (``EnvyGraph``).

    The ``book`` (a ``PrefixBook``, fresh when none is given) goes to the
    envy graph.  A cut that answered a point still live after the crumb, x
    or the gap's end, teaches the book; the crumb makes r_s interior, so the
    book drops it.  An empty crumb (x = r_s) teaches and drops nothing.
    With nothing to append, the snapshot's hat values are read from the
    book, which after ``phase_one`` holds both ends of every piece; a mass it
    lacks is asked without the counter.

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
        trace.snap("phase2_end", pieces, gaps,
                   [hat_eval(v, p, None, book) for v, p in zip(valuations, pieces)])
        return list(pieces)

    graph = EnvyGraph(pieces, valuations, counter, book)
    book, boxes = graph.book, graph.boxes
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
        left, x, right, answers = boxes.floor(r_s), ONE, boxes.scale, []
        for v, lo, hi in zip(valuations, boxes.lo, boxes.hi):
            if lo < right and hi > left:
                y = cut_query(v, r_s, step, counter)
                answers.append((v, y))
                if y < x:
                    x, right = y, boxes.ceil(y)
        end = gaps[k].hi
        if x >= end:
            x = gaps.pop(k).hi
            kind = "whole_gap"
        else:
            gaps[k] = Interval(x, end)
            kind = "crumb"
        if x > r_s:
            for v, y in answers:
                if y == x or y == end:
                    book.learn_cut(v, r_s, y, step)
            book.drop(r_s)
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
    book = PrefixBook(instance.valuations.values())

    grown = phase_one(instance, config, counter, trace, book)
    checks = check_phase_invariants(grown, valuations, config.delta, "phase1_end")
    partial = phase_two(grown, instance, config, counter, trace, book)
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
