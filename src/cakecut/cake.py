"""The cake, agent valuations, and the two oracle queries.

The cake is the unit interval [0,1].  Each agent's preferences are given by a
piecewise-constant density over [0,1] that integrates to exactly 1.  All
coordinates, densities, and values are `fractions.Fraction`, so every
comparison made by the solvers and the auditors is exact -- floats appear only
when a report is rendered for humans.

Agents are consulted through two queries:

* ``eval_query(v, x, y)``  -- the value the agent assigns to [x, y];
* ``cut_query(v, x, nu)``  -- the leftmost y >= x with value(x..y) >= nu,
  clamped to 1 when out of reach.

Empty pieces are represented by ``None``; a non-empty piece is an
:class:`Interval`.  Two intervals sharing only an endpoint count as disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class ValidationError(ValueError):
    """Malformed input: instance, allocation file, or parameter out of range."""


def float_error(name: str, x: float) -> ValidationError:
    """The refusal of a float where an exact number belongs (0.1 is not 1/10 in binary)."""
    return ValidationError(f"{name} must be exact, such as '1/10', not the float {x!r}")


def _exact(name: str, x) -> Fraction:
    """``x`` as a Fraction; ValidationError for a float."""
    if isinstance(x, float):
        raise float_error(name, x)
    return Fraction(x)


def open_unit(name: str, x) -> Fraction:
    """The parameter ``x`` as a Fraction; ValidationError unless 0 < x < 1."""
    x = _exact(name, x)
    if not (ZERO < x < ONE):
        raise ValidationError(f"{name} must lie in (0,1), got {x}")
    return x


class Interval(NamedTuple):
    """A closed sub-interval [lo, hi] of the cake, with lo <= hi."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


# An agent's piece: an Interval, or None for the empty piece.
Piece = Optional[Interval]


def interval(lo, hi) -> Interval:
    """Build an Interval from anything Fraction() accepts except a float.

    >>> interval(0, "1/2")
    Interval(lo=Fraction(0, 1), hi=Fraction(1, 2))
    """
    lo, hi = _exact("lo", lo), _exact("hi", hi)
    if not (ZERO <= lo <= hi <= ONE):
        raise ValidationError(f"not a sub-interval of [0,1]: [{lo}, {hi}]")
    return Interval(lo, hi)


@dataclass
class QueryCounter:
    """Tally of oracle queries issued during one solver run."""

    eval_count: int = 0
    cut_count: int = 0


class Valuation:
    """A piecewise-constant density on [0,1], normalized to total mass 1.

    ``breakpoints`` is a strictly increasing sequence of Fractions running
    from 0 to 1; ``densities`` holds one nonnegative Fraction per consecutive
    breakpoint pair, and the total mass is exactly 1.  Input that breaks any
    of these, or holds a float, raises ValidationError naming the first
    fault, so a Valuation that exists is valid.  Instances are immutable
    after construction and safe to share.
    """

    __slots__ = ("breakpoints", "densities", "_cum", "support_lo", "support_hi")

    def __init__(self, breakpoints: Sequence, densities: Sequence):
        bp = self.breakpoints = tuple(_exact("breakpoint", b) for b in breakpoints)
        de = self.densities = tuple(_exact("density", d) for d in densities)
        if len(bp) < 2:
            raise ValidationError("breakpoints must contain at least 0 and 1")
        if bp[0] != 0:
            raise ValidationError(f"first breakpoint is {bp[0]}, expected 0")
        if bp[-1] != 1:
            raise ValidationError(f"last breakpoint is {bp[-1]}, expected 1")
        if len(de) != len(bp) - 1:
            raise ValidationError(f"expected {len(bp) - 1} densities, got {len(de)}")
        # One pass over the cells builds the cumulative mass at each
        # breakpoint and the bounding box of the positive-density region, a
        # fast "can this agent value anything here?" prefilter.
        cum = [ZERO]
        lo, hi = ONE, ZERO
        for k, (a, b, d) in enumerate(zip(bp, bp[1:], de)):
            if not a < b:
                raise ValidationError(f"breakpoints not strictly increasing at {a}")
            if d < 0:
                raise ValidationError(f"negative density {d} on segment {k}")
            if d > 0:
                lo = min(lo, a)
                hi = b
            cum.append(cum[-1] + d * (b - a))
        if cum[-1] != 1:
            raise ValidationError(f"total mass is {cum[-1]}, expected 1")
        self._cum = tuple(cum)
        self.support_lo = lo
        self.support_hi = hi

    def __repr__(self) -> str:
        bp = ", ".join(str(b) for b in self.breakpoints)
        de = ", ".join(str(d) for d in self.densities)
        return f"Valuation(breakpoints=[{bp}], densities=[{de}])"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Valuation)
            and self.breakpoints == other.breakpoints
            and self.densities == other.densities
        )

    def __hash__(self) -> int:
        return hash((self.breakpoints, self.densities))

    def prefix(self, x: Fraction) -> Fraction:
        """Exact mass of [0, x]."""
        # Index of the cell containing x: breakpoints[k] <= x.
        k = bisect_right(self.breakpoints, x) - 1
        if k < 0:
            return ZERO
        if k >= len(self.densities):
            return self._cum[-1]
        return self._cum[k] + self.densities[k] * (x - self.breakpoints[k])

    def value(self, x: Fraction, y: Fraction) -> Fraction:
        """Exact mass of [x, y] (uncounted; prefer eval_query in solvers)."""
        return self.prefix(y) - self.prefix(x)

    def value_of(self, piece: Piece) -> Fraction:
        return ZERO if piece is None else self.value(piece.lo, piece.hi)

    def next_mass(self, x: Fraction) -> Optional[Fraction]:
        """Largest y >= x with mass(x..y) = 0, or None when [x,1] has no mass.

        Mass starts accruing immediately to the right of the returned point,
        so any value target over [x, 1] is met strictly beyond it.
        """
        goal = self.prefix(x)
        if goal >= self._cum[-1]:
            return None
        # First breakpoint whose cumulative mass exceeds the goal.
        k = bisect_right(self._cum, goal)
        return max(x, self.breakpoints[k - 1])

    def leftmost_reach(self, x: Fraction, target: Fraction) -> Optional[Fraction]:
        """Leftmost y in [x, 1] with mass(x..y) >= target, or None.

        Because the measure is atomless, when the target is reachable the
        returned point satisfies mass(x..y) == target exactly (unless
        target <= 0, in which case x itself is returned).
        """
        if target <= 0:
            return x
        goal = self.prefix(x) + target
        if goal > self._cum[-1]:
            return None
        # First breakpoint index whose cumulative mass reaches the goal.
        k = bisect_left(self._cum, goal)
        if k == 0:
            return max(x, self.breakpoints[0])
        # Cumulative mass rises strictly inside cell k-1, so invert linearly.
        y = self.breakpoints[k - 1] + (goal - self._cum[k - 1]) / self.densities[k - 1]
        return max(x, y)


def _check_point(x: Fraction, name: str) -> None:
    if isinstance(x, float):
        raise float_error(name, x)
    if not (ZERO <= x <= ONE):
        raise ValueError(f"{name}={x} outside [0,1]")


def eval_query(v: Valuation, x: Fraction, y: Fraction, counter: Optional[QueryCounter] = None) -> Fraction:
    """Robertson-Webb evaluation query: the exact value of [x, y]."""
    _check_point(x, "x")
    _check_point(y, "y")
    if x > y:
        raise ValueError(f"eval_query needs x <= y, got {x} > {y}")
    if counter is not None:
        counter.eval_count += 1
    return v.value(x, y)


def cut_query(v: Valuation, x: Fraction, nu: Fraction, counter: Optional[QueryCounter] = None) -> Fraction:
    """Robertson-Webb cut query: leftmost y >= x with value(x..y) >= nu.

    When no point of [x, 1] reaches the target value, the response is 1;
    callers must re-check the achieved value.  Requires nu in (0, 1).
    """
    _check_point(x, "x")
    if isinstance(nu, float):
        raise float_error("nu", nu)
    if not (ZERO < nu < ONE):
        raise ValueError(f"cut_query needs nu in (0,1), got {nu}")
    if counter is not None:
        counter.cut_count += 1
    y = v.leftmost_reach(x, nu)
    return ONE if y is None else y


class Instance:
    """A cake-division instance: shared valuations plus one id per agent.

    Valuations are stored once under string ids; agents reference an id.  The
    id indirection is what lets the bounded-heterogeneity solver know, by
    declaration, how many distinct valuations an instance contains.  Building
    one with no agent, or with an agent whose id names no valuation, raises
    ValidationError.
    """

    def __init__(self, valuations: dict, agent_ids: Sequence[str]):
        self.valuations = dict(valuations)
        self.agent_ids = list(agent_ids)
        problem = self.first_violation()
        if problem is not None:
            raise ValidationError(problem)

    @property
    def n(self) -> int:
        return len(self.agent_ids)

    def agent_valuations(self) -> list[Valuation]:
        return [self.valuations[vid] for vid in self.agent_ids]

    def distinct_ids(self) -> list[str]:
        """Valuation ids actually referenced, in first-use order."""
        seen: list[str] = []
        for vid in self.agent_ids:
            if vid not in seen:
                seen.append(vid)
        return seen

    def first_violation(self) -> Optional[str]:
        """None, or what keeps these agents from forming an instance.

        The constructor raises on the message, so a built Instance returns
        None; its valuations are valid because each Valuation is.
        """
        if not self.agent_ids:
            return "instance needs at least one agent"
        for vid in self.agent_ids:
            if vid not in self.valuations:
                return f"agent references unknown valuation id {vid!r}"
        return None
