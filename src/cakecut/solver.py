"""Connected, approximately envy-free division of the cake.

The solver runs in two phases over a partial allocation that starts empty.

*Growth phase.*  While some agent values an unassigned gap (under the hat
valuation) at least ``delta/n`` above its own piece, take the leftmost such
gap, let every qualifying agent name the shortest gap prefix meeting its
raised target, and hand the shortest of those prefixes to its agent --
releasing whatever that agent held before.  Each award raises the winner's
hat value by exactly ``delta/n``, or to 1, and hat values never exceed 1, so
the loop runs at most ``n^2/delta`` times.

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
from math import floor
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


# The order key of a mass start at a gap's left end: below every breakpoint's.
AT_LO = -1


class _Gap:
    """One unassigned interval and the ids that may still claim a prefix of it.

    ``lo_n/lo_d`` and ``hi_n/hi_d`` cache the ends' numerators and
    denominators, so the pool compares ends on integers.  ``order`` holds
    ``(key, id)`` for each id that may claim, sorted so a scan can stop once
    no later id could name a shorter prefix.  The key is the id's mass start
    in the gap on the pool's breakpoint scale: ``AT_LO`` when the mass starts
    at ``lo``, else the breakpoint where it starts, times the scale.  An
    id's candidates are not kept here: they are its agents in
    ``GapPool.members``.
    """

    __slots__ = ("lo", "hi", "lo_n", "lo_d", "hi_n", "hi_d", "order")

    def __init__(self, lo: Fraction, hi: Fraction):
        self.lo, self.hi = lo, hi
        self.lo_n, self.lo_d, self.hi_n, self.hi_d = (lo.numerator, lo.denominator,
                                                      hi.numerator, hi.denominator)
        self.order: list[tuple[int, str]] = []

    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)


def _first_from(gaps: Sequence[_Gap], n: int, d: int) -> int:
    """The position of the first gap with ``lo >= n/d`` in a cake-ordered list."""
    return bisect_left(gaps, True, key=lambda g: g.lo_n * d >= n * g.lo_d)


class GapPool:
    """State of the growth phase: pieces, hat levels and the sorted gaps.

    Agents sharing a valuation name the same prefixes, so each gap lists its
    candidates by valuation id and queries once per id.  Answers the pool
    already holds are not asked again.  Its ``book`` (a ``PrefixBook``) holds
    the masses P(x) of [0, x] that answers fixed, at live points only: 0, 1
    and the ends of the current gaps and pieces.  A gap's hat value and
    ``hat_cut`` read and teach it, ``award`` teaches it the winning
    endpoint from the lessons ``_best_claim`` returns, and ``_release`` drops
    the points a merge makes interior.  The hat value ``hat_cut`` returns
    with its point names the winner and becomes its hat value, so an award
    asks nothing itself.

    Every award raises its winner's hat value by exactly ``step`` or to 1,
    so an agent below hat value 1 sits at an integer *level* L, its hat value
    being L * step, and may claim its *target* (L + 1) * step.  ``level``
    holds each agent's level (at hat value 1, its hat value over the step
    rounded down), and ``members[vid]`` lists the id's agents below hat value
    1 as sorted ``(level, index)`` pairs, so its lowest agent is
    ``members[vid][0]``.  ``hat_own`` keeps the hat values as Fractions for
    the trace.  ``set_hat`` is the one writer of all three; ``award``
    checks each raise against ``level``, so a stale member raises at its
    first award.

    Mass starts are breakpoints or a gap's left end, since that is all
    ``next_mass`` and a support's start can be, so a gap's ``order`` keys
    them as integers on one ``scale``, the lcm of the breakpoint
    denominators (``SupportBoxes.scale``).  A gap is seeded only from
    valuations whose support box meets it, so a support that only touches a
    gap at an endpoint is never seeded.  The ids that still have members are
    kept in ``starts`` as ``(support_lo * scale, id)``, sorted, so a reseed
    reads the ids whose support starts inside the gap as one slice.  ``gaps``
    lists the gaps in cake order, and ``live`` lists, also in cake order,
    those whose ``order`` is not empty: the only gaps an award can take from.
    """

    def __init__(self, instance: Instance, step: Fraction,
                 counter: Optional[QueryCounter] = None, book: Optional[PrefixBook] = None):
        self.valuations = instance.valuations
        self.vids = instance.agent_ids
        self.step = step
        self.step_n, self.step_d = step.numerator, step.denominator
        self.counter = counter
        self.book = PrefixBook(self.valuations.values()) if book is None else book
        self.pieces: list[Piece] = [None] * instance.n
        self.hat_own: list[Fraction] = [ZERO] * instance.n
        self.level: list[int] = [0] * instance.n
        # Agents below hat value 1 (a full agent never competes again), by id.
        self.members: dict[str, list[tuple[int, int]]] = {}
        for i, vid in enumerate(self.vids):
            self.members.setdefault(vid, []).append((0, i))
        ids = list(self.members)
        boxes = SupportBoxes([self.valuations[vid] for vid in ids])
        self.scale = boxes.scale
        self.box_lo, self.box_hi = dict(zip(ids, boxes.lo)), dict(zip(ids, boxes.hi))
        self.starts = sorted(zip(boxes.lo, ids))
        # target Fractions by level, made the first time a level claims
        self.targets: dict[int, Fraction] = {}
        self.gaps: list[_Gap] = [self._seed(_Gap(ZERO, ONE))]
        self.live = [g for g in self.gaps if g.order]

    def set_hat(self, a: int, hat: Fraction) -> None:
        """Write agent a's hat value, its level and its place in ``members``.

        Below hat value 1 the hat value must be a multiple of ``step``
        (ValueError otherwise), and the agent is re-inserted at its
        ``(level, index)`` place; at hat value 1 it leaves ``members``, and
        an id left without members leaves ``starts``.  A full agent is in no
        id's order and is never written again.
        """
        vid = self.vids[a]
        members = self.members[vid]
        del members[bisect_left(members, (self.level[a], a))]
        self.hat_own[a] = hat
        c, d = hat.numerator, hat.denominator
        level, off = divmod(c * self.step_d, d * self.step_n)
        self.level[a] = level
        if c < d:
            if off:
                raise ValueError(f"hat value {hat} is not a multiple of the step {self.step}")
            insort(members, (level, a))
        elif not members:
            self.starts.remove((self.box_lo[vid], vid))

    def _seed(self, g: _Gap) -> _Gap:
        """Rebuild g's candidates from every valuation with mass inside it.

        When ``g.lo <= support_lo < g.hi`` the mass start is ``support_lo``
        itself, so those ids arrive from ``starts`` as one slice already in
        ``(key, id)`` order, with no peek; a support starting at ``g.lo`` is
        re-keyed ``AT_LO``.  Only the ids whose support straddles ``g.lo`` are
        peeked with ``next_mass`` and inserted.  The caller files g in
        ``gaps`` and ``live``.
        """
        scale, starts = self.scale, self.starts
        lo = g.lo_n * scale // g.lo_d
        first, hi = -(-g.lo_n * scale // g.lo_d), -(-g.hi_n * scale // g.hi_d)
        k = bisect_left(starts, (first,))
        order = starts[k:bisect_left(starts, (hi,), k)]
        if lo == first:  # g.lo is on the scale: a support may start at it
            j = bisect_left(order, (lo + 1,))
            order[:j] = [(AT_LO, vid) for _, vid in order[:j]]
        for _, vid in starts[:k]:
            if self.box_hi[vid] > lo:
                # Mass lies right of g.lo inside the box, so start is not None.
                key = self._start_key(g, self.valuations[vid].next_mass(g.lo))
                if key < hi:
                    insort(order, (key, vid))
        g.order = order
        return g

    def _start_key(self, g: _Gap, start: Fraction) -> int:
        """The order key of a mass start ``next_mass(g.lo)`` in g."""
        n, d = start.numerator, start.denominator
        return AT_LO if n == g.lo_n and d == g.lo_d else n * (self.scale // d)

    def _carve(self, g: _Gap, r: Fraction) -> None:
        """Remove the awarded prefix [g.lo, r] from the gap (r < g.hi).

        Mass starts left of the new edge, the front run of ``g.order`` found
        by one bisection, must be recomputed; the rest are untouched (mass
        that began at or beyond r still begins there).  Starts at r, whether
        kept or recomputed, become ``AT_LO``, merged by id; only a later
        start is inserted by bisection.  A gap left with no id leaves
        ``live``.
        """
        g.lo, g.lo_n, g.lo_d = r, r.numerator, r.denominator
        scale, order = self.scale, g.order
        edge = -(-g.lo_n * scale // g.lo_d)  # a key below it starts left of r
        k = bisect_left(order, (edge,))
        moved, rest = order[:k], order[k:]
        at_lo = []
        if edge * g.lo_d == g.lo_n * scale:  # r is on the scale: a start may sit at it
            j = bisect_left(rest, (edge + 1,))
            at_lo = [vid for _, vid in rest[:j]]
            del rest[:j]
        hi = -(-g.hi_n * scale // g.hi_d)
        for _, vid in moved:
            start = self.valuations[vid].next_mass(r)
            if start is None:
                continue  # no mass is left inside the gap
            key = self._start_key(g, start)
            if key == AT_LO:
                at_lo.append(vid)
            elif key < hi:
                insort(rest, (key, vid))
        g.order = [(AT_LO, vid) for vid in sorted(at_lo)] + rest
        if not g.order:
            self.live.remove(g)

    def _release(self, lo: Fraction, hi: Fraction) -> None:
        """Return [lo, hi] to the pool as one gap with its endpoint-adjacent neighbours.

        The merged gap is seeded afresh: a wider gap can interest ids
        dropped earlier.  A merged end is no longer the end of a gap or piece,
        so the book drops it.  The first gap with ``g.lo >= lo`` is found by
        one bisection on integers, and the merged gap enters ``live`` at its
        cake place, found the same way, when it has candidates.
        """
        gaps, live = self.gaps, self.live
        a, b = lo.numerator, lo.denominator
        k = _first_from(gaps, a, b)
        if k < len(gaps) and gaps[k].lo_n == hi.numerator and gaps[k].lo_d == hi.denominator:
            self.book.drop(hi)
            right = gaps.pop(k)
            if right.order:
                live.remove(right)
            hi = right.hi
        if k > 0 and gaps[k - 1].hi_n == a and gaps[k - 1].hi_d == b:
            self.book.drop(lo)
            k -= 1
            left = gaps.pop(k)
            if left.order:
                live.remove(left)
            lo = left.lo
        g = self._seed(_Gap(lo, hi))
        gaps.insert(k, g)
        if g.order:
            live.insert(_first_from(live, g.lo_n, g.lo_d), g)

    def _best_claim(self, g: _Gap) -> tuple[Optional[tuple[Fraction, int, Fraction]],
                                            list[tuple[Valuation, Fraction]]]:
        """Shortest qualifying prefix of ``g`` as (endpoint, agent, hat value), and its lessons.

        Walks the ids in mass-start order: once some id names a prefix
        endpoint r, any id whose mass begins at or beyond it, a key at least
        ceil(r * scale), cannot name a strictly shorter one, so it is skipped
        without queries.  With reach = p/q the gap's hat value and step =
        s/t, an id's candidates are its members whose target is at most
        reach, (L + 1) * s * q <= p * t: a front run of ``members``.  The id
        qualifies when ``rep = members[0]``, its first member of least level,
        does; else it leaves ``g.order`` and cannot qualify again before the
        gap is reseeded: in the growth phase hat values of pieces only rise,
        and carving only lowers the gap's hat value (plain values shrink, and
        an interval containing a bifurcating one is bifurcating itself).
        ``hat_cut`` answers rep's target nu <= reach with hat value nu < 1/2
        (nu < t <= 1/2, or nu <= 1 - rho < 1/2), met by exactly the members
        at rep's level, rep first, or with hat value 1, met by every
        candidate as reach <= 1, and then the candidate of least index wins.

        The claim is None when no id qualifies, and then ``g.order`` is empty
        and g has left ``live``.  The lessons are ``(valuation, hat value)``
        for every id whose cut answered the winning endpoint, a tie across
        ids included: the endpoint stays live, so ``award`` teaches the book
        its mass from each.
        """
        counter, book, targets = self.counter, self.book, self.targets
        s, t = self.step_n, self.step_d
        order = g.order
        best: Optional[tuple[Fraction, int, Fraction]] = None
        lessons: list[tuple[Valuation, Fraction]] = []
        stop = self.scale  # no key reaches it: every start lies below g.hi <= 1
        for key, vid in list(order):
            if key >= stop:
                break  # mass starts too far right to beat the current prefix
            v = self.valuations[vid]
            members = self.members[vid]
            if members:  # an id whose agents are all full asks nothing
                p, q, _ = hat_ratio(v, g.lo, g.hi, counter, book)  # reach = p/q
                level, rep = members[0]
            if not members or (level + 1) * s * q > p * t:  # rep is above room
                order.remove((key, vid))
                continue
            nu = targets.get(level)
            if nu is None:
                nu = targets[level] = Fraction((level + 1) * s, t)
            claim = hat_cut(v, g.lo, nu, counter, book)
            if claim is None or claim[0].numerator * g.hi_d > g.hi_n * claim[0].denominator:
                point = None if claim is None else claim[0]
                raise RuntimeError(f"agent {rep + 1}'s hat cut from {g.lo} is {point}, "
                                   f"not a point of the gap {g.interval()}")
            r, at_r = claim
            if at_r.denominator != 1:  # a hat value in (0, 1) names rep
                winner = rep
            else:
                top = p * t // (s * q)  # the candidates' levels lie below it
                winner = min(i for _, i in members[:bisect_left(members, (top,))])
            rn, rd = r.numerator, r.denominator
            # An agent appears under one id only, so (r, winner) never ties.
            if best is None or rn * bd < bn * rd:
                best, lessons, bn, bd = (r, winner, at_r), [(v, at_r)], rn, rd
                stop = -(-rn * self.scale // rd)
            elif rn == bn and rd == bd:
                lessons.append((v, at_r))
                if winner < best[1]:
                    best = (r, winner, at_r)
        if not order:
            self.live.remove(g)
        return best, lessons

    def award(self) -> Optional[int]:
        """One growth iteration; returns the winner, or None if nobody qualifies.

        The leftmost gap with a qualifying agent loses its shortest qualifying
        prefix to that agent, whose previous piece returns to the pool.  Only
        the ``live`` gaps are scanned, and one that yields no claim has left
        ``live`` by then.  The book learns the winning endpoint's mass from
        the scan's lessons, the cuts that answered it.
        """
        live = self.live
        while live:
            g = live[0]
            claim, lessons = self._best_claim(g)
            if claim is not None:
                break
        else:
            return None  # exact exit condition: no (gap, agent) pair qualifies
        r, a, hat = claim
        # the raise is to the target of the winner's level, or to 1: on
        # integers, and read from level, not from the members entry it guards
        c, d = hat.numerator, hat.denominator
        aim = (self.level[a] + 1) * self.step_n * d  # the target times d * step_d
        if c != d and c * self.step_d != aim:
            size = "less" if c * self.step_d < aim else "more"
            raise RuntimeError(f"award raises agent {a + 1}'s hat value from {self.hat_own[a]} "
                               f"to {hat}, by {size} than {self.step} and not to 1")
        for v, at_r in lessons:
            self.book.learn_cut(v, g.lo, r, at_r)
        released = self.pieces[a]
        self.pieces[a] = Interval(g.lo, r)
        self.set_hat(a, hat)
        if r.numerator * g.hi_d < g.hi_n * r.denominator:
            self._carve(g, r)
        else:
            self.gaps.remove(g)
            del live[0]
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
    budget = floor(loop_budget(instance.n, config.delta))
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
    budget = floor(loop_budget(n, config.delta))
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
