"""The cake, agent valuations, and the two oracle queries.

The cake is the unit interval [0,1].  Each agent's preferences are given by a
piecewise-constant density over [0,1] that integrates to exactly 1.  Queries
take points and targets as `fractions.Fraction` and answer with one; inside, a
`Valuation` keeps its breakpoints and cumulative masses as integer numerators
over two common denominators and answers from those.  Every comparison made
by the solvers and the auditors is exact -- floats appear only when a report
is rendered for humans.

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
from math import lcm
from numbers import Rational
from typing import NamedTuple, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class ValidationError(ValueError):
    """Malformed input: instance, allocation file, or parameter out of range."""


def float_error(name: str, x: float) -> ValidationError:
    """The refusal of a float where an exact number belongs (0.1 is not 1/10 in binary)."""
    return ValidationError(f"{name} must be exact, such as '1/10', not the float {x!r}")


def require_rational(name: str, x) -> None:
    """ValidationError unless ``x`` is an exact rational number (a query point or target).

    A Fraction passes on its type alone, so the query hot path pays no ABC check.
    """
    if type(x) is Fraction or isinstance(x, Rational):
        return
    if isinstance(x, float):
        raise float_error(name, x)
    raise ValidationError(f"{name} must be an exact rational number, such as Fraction(1, 10), "
                          f"not {x!r}")


def _exact(name: str, x) -> Fraction:
    """``x`` as a Fraction, itself when it is one; ValidationError for a float."""
    if type(x) is Fraction:
        return x
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
    after construction and safe to share: assigning or deleting an attribute
    raises AttributeError.

    The queries run on integer tables built once here.  With ``D`` the lcm of
    the breakpoint denominators and ``M = D * L``, ``L`` the lcm of the
    density denominators:

    * ``_B[k] / D`` is breakpoint k;
    * ``_R[k] / L`` is the density on cell k;
    * ``_C[k] / M`` is the mass of [0, breakpoint k].
    """

    __slots__ = ("breakpoints", "densities", "support_lo", "support_hi",
                 "_D", "_M", "_B", "_R", "_C")

    def __init__(self, breakpoints: Sequence, densities: Sequence):
        bp = tuple([_exact("breakpoint", b) for b in breakpoints])
        de = tuple([_exact("density", d) for d in densities])
        if len(bp) < 2:
            raise ValidationError("breakpoints must contain at least 0 and 1")
        if bp[0] != 0:
            raise ValidationError(f"first breakpoint is {bp[0]}, expected 0")
        if bp[-1] != 1:
            raise ValidationError(f"last breakpoint is {bp[-1]}, expected 1")
        if len(de) != len(bp) - 1:
            raise ValidationError(f"expected {len(bp) - 1} densities, got {len(de)}")
        D = lcm(*[b.denominator for b in bp])
        L = lcm(*[d.denominator for d in de])
        B = tuple([b.numerator * (D // b.denominator) for b in bp])
        R = tuple([d.numerator * (L // d.denominator) for d in de])
        # One pass over the cells checks them and builds the cumulative mass
        # at each breakpoint (cell k adds R[k] * (B[k+1] - B[k]) / M) and the
        # bounding box of the positive-density region, a fast "can this agent
        # value anything here?" prefilter.
        C = [0]
        lo = hi = None
        for k, (a, b, r) in enumerate(zip(B, B[1:], R)):
            if not a < b:
                raise ValidationError(f"breakpoints not strictly increasing at {bp[k]}")
            if r < 0:
                raise ValidationError(f"negative density {de[k]} on segment {k}")
            if r > 0:
                if lo is None:
                    lo = bp[k]
                hi = bp[k + 1]
            C.append(C[-1] + r * (b - a))
        M = D * L
        if C[-1] != M:
            raise ValidationError(f"total mass is {Fraction(C[-1], M)}, expected 1")
        for name, value in (("breakpoints", bp), ("densities", de), ("support_lo", lo),
                            ("support_hi", hi), ("_D", D), ("_M", M), ("_B", B), ("_R", R),
                            ("_C", tuple(C))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Valuation is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Valuation is immutable; cannot delete {name!r}")

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

    def _mass(self, p: int, q: int) -> int:
        """``M * q`` times the mass of [0, p/q], for q > 0 (the mass is 1 beyond 1)."""
        B = self._B
        # Cell k holds p/q when B[k] <= p*D/q, that is B[k] <= floor(p*D/q).
        k = bisect_right(B, p * self._D // q) - 1
        if k < 0:
            return 0
        if k >= len(self._R):
            return self._M * q
        return self._C[k] * q + self._R[k] * (p * self._D - B[k] * q)

    def prefix(self, x: Fraction) -> Fraction:
        """Exact mass of [0, x]."""
        q = x.denominator
        return Fraction(self._mass(x.numerator, q), self._M * q)

    def value(self, x: Fraction, y: Fraction) -> Fraction:
        """Exact mass of [x, y] (uncounted; prefer eval_query in solvers)."""
        p, q, s, t = x.numerator, x.denominator, y.numerator, y.denominator
        return Fraction(self._mass(s, t) * q - self._mass(p, q) * t, self._M * q * t)

    def value_of(self, piece: Piece) -> Fraction:
        return ZERO if piece is None else self.value(piece.lo, piece.hi)

    def next_mass(self, x: Fraction) -> Optional[Fraction]:
        """Largest y >= x with mass(x..y) = 0, or None when [x,1] has no mass.

        Mass starts accruing immediately to the right of the returned point,
        so any value target over [x, 1] is met strictly beyond it.
        """
        mass = self.prefix(x)
        m, n = mass.numerator, mass.denominator
        if m >= n:
            return None
        # First breakpoint whose cumulative mass exceeds the mass of [0, x]:
        # C[k] > M*m/n exactly when C[k] > floor(M*m/n).
        k = bisect_right(self._C, self._M * m // n)
        # Mass starts at breakpoint k-1, or at x if x lies past it.
        if x.numerator * self._D >= self._B[k - 1] * x.denominator:
            return x
        return self.breakpoints[k - 1]

    def leftmost_reach(self, x: Fraction, target: Fraction) -> Optional[Fraction]:
        """Leftmost y in [x, 1] with mass(x..y) >= target, or None.

        Because the measure is atomless, when the target is reachable the
        returned point satisfies mass(x..y) == target exactly (unless
        target <= 0, in which case x itself is returned).
        """
        tp, tq = target.numerator, target.denominator
        if tp <= 0:
            return x
        mass = self.prefix(x)
        Q = mass.denominator * tq
        goal = mass.numerator * tq + tp * mass.denominator  # Q times the mass of [0, y]
        if goal > Q:
            return None
        # The first breakpoint whose cumulative mass reaches the goal ends the
        # cell k holding y: C[j] >= M*goal/Q exactly when C[j] >= ceil(M*goal/Q),
        # and the goal is positive, so that breakpoint is not the first.
        M = self._M
        k = bisect_left(self._C, -(-M * goal // Q)) - 1
        # Cumulative mass rises strictly inside cell k, so invert linearly:
        # y = B[k]/D + (goal/Q - C[k]/M) / (R[k]/L), with M = D*L.  The mass
        # of [0, y] is the goal, more than that of [0, x], so y > x.
        r = self._R[k]
        return Fraction(self._B[k] * Q * r + M * goal - self._C[k] * Q, self._D * Q * r)


class SupportBoxes:
    """The supports ``[support_lo, support_hi]`` of some valuations, on one integer scale.

    ``scale`` is the lcm of the valuations' breakpoint denominators, so every
    breakpoint times ``scale`` is an integer.  A support's ends are
    breakpoints, so ``lo[k]`` and ``hi[k]``, valuation k's ends times
    ``scale``, are exact.  Valuation k's support meets the open interval
    (x, y) exactly when ``lo[k] < ceil(y)`` and ``hi[k] > floor(x)``: the
    test is on integers and exact, and a support that only touches the
    interval at an end does not meet it.  Scale each end once per interval,
    not once per valuation.  Outside its support a valuation has no mass, so
    one that misses (x, y) values it at 0.
    """

    __slots__ = ("scale", "lo", "hi")

    def __init__(self, valuations: Sequence[Valuation]):
        self.scale = lcm(*[v._D for v in valuations])
        self.lo = [self.floor(v.support_lo) for v in valuations]
        self.hi = [self.floor(v.support_hi) for v in valuations]

    def floor(self, x: Fraction) -> int:
        """floor(x * scale)."""
        return x.numerator * self.scale // x.denominator

    def ceil(self, x: Fraction) -> int:
        """ceil(x * scale)."""
        return -(-x.numerator * self.scale // x.denominator)


def check_point(x: Fraction, name: str) -> None:
    """The refusal a query gives a point: ValidationError unless exact, ValueError outside [0,1]."""
    require_rational(name, x)
    if not 0 <= x.numerator <= x.denominator:
        raise ValueError(f"{name}={x} outside [0,1]")


def check_span(x: Fraction, y: Fraction) -> None:
    """The refusals ``eval_query(v, x, y)`` gives, before it reads any mass."""
    check_point(x, "x")
    check_point(y, "y")
    if x.numerator * y.denominator > y.numerator * x.denominator:
        raise ValueError(f"eval_query needs x <= y, got {x} > {y}")


def eval_query(v: Valuation, x: Fraction, y: Fraction, counter: Optional[QueryCounter] = None) -> Fraction:
    """Robertson-Webb evaluation query: the exact value of [x, y]."""
    check_span(x, y)
    if counter is not None:
        counter.eval_count += 1
    return v.value(x, y)


def cut_query(v: Valuation, x: Fraction, nu: Fraction, counter: Optional[QueryCounter] = None) -> Fraction:
    """Robertson-Webb cut query: leftmost y >= x with value(x..y) >= nu.

    When no point of [x, 1] reaches the target value, the response is 1;
    callers must re-check the achieved value.  Requires nu in (0, 1).
    """
    check_point(x, "x")
    require_rational("nu", nu)
    if not 0 < nu.numerator < nu.denominator:
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
        None; its valuations are valid because each Valuation is, and every
        value it holds is one.
        """
        if not self.agent_ids:
            return "instance needs at least one agent"
        for vid, v in self.valuations.items():
            if not isinstance(v, Valuation):
                return f"valuation {vid!r} is a {type(v).__name__}, not a Valuation"
        for vid in self.agent_ids:
            if vid not in self.valuations:
                return f"agent references unknown valuation id {vid!r}"
        return None
