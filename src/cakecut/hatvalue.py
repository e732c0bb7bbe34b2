"""The bifurcating-interval preference and its eval/cut queries.

An interval X = [x, y] is *bifurcating* for an agent when the agent values X
at 1/4 or more while neither side of it, [0, x] nor [y, 1], is worth more
than 1/2.  Owning such an interval caps the agent's envy structurally: every
other connected piece lies entirely inside one side.

``hat_eval`` scores an interval at 1 when it is bifurcating and at its plain
value otherwise ("the hat value").  The hat value of the empty piece is 0,
and a non-bifurcating interval is always worth strictly less than 1/2, so the
two branches never collide.  ``hat_cut`` answers cut queries against the hat
value with a constant number of plain eval/cut queries.

A caller that asks many hat questions of one valuation reuses answers it
already holds instead of asking again: ``hat_with_prefix`` hands back the
mass of [0, x] along with a hat value, ``hat_cut`` takes that mass and a
``Median`` (the valuation's cut(0, 1/2) and the mass right of it, each asked
once), and ``hat_cut`` returns the hat value of the prefix it names, which it
knows without a further query.  Every threshold test compares integers:
``f >= 1/4`` is ``4 * f.numerator >= f.denominator``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .cake import (ONE, ZERO, Interval, Piece, QueryCounter, Valuation, cut_query, eval_query,
                   require_rational)

QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)


def is_bifurcating(v: Valuation, piece: Piece, counter: Optional[QueryCounter] = None) -> bool:
    """True iff the piece is worth >= 1/4 with <= 1/2 on each side of it.

    The empty piece is never bifurcating.  Checks short-circuit, so between
    one and three eval queries are issued.
    """
    return hat_eval(v, piece, counter) == ONE


def hat_eval(v: Valuation, piece: Piece, counter: Optional[QueryCounter] = None) -> Fraction:
    """Hat value of a piece: 1 if bifurcating, else the plain value."""
    if piece is None:
        return ZERO
    return hat_with_prefix(v, piece.lo, piece.hi, counter)[0]


def hat_with_prefix(v: Valuation, lo: Fraction, hi: Fraction,
                    counter: Optional[QueryCounter] = None) -> tuple[Fraction, Optional[Fraction]]:
    """Hat value of [lo, hi], and the mass of [0, lo] if that was asked, else None.

    The mass of [0, lo] is asked only when [lo, hi] is worth 1/4 or more.
    """
    value = eval_query(v, lo, hi, counter)
    if 4 * value.numerator < value.denominator:
        return value, None
    prefix = eval_query(v, ZERO, lo, counter)
    if 2 * prefix.numerator <= prefix.denominator:
        tail = eval_query(v, hi, ONE, counter)
        if 2 * tail.numerator <= tail.denominator:
            return ONE, prefix
    return value, prefix


class Median:
    """The point cut(0, 1/2) of one valuation and the mass of [cut(0, 1/2), 1].

    Both answers are fixed for the valuation, so each is asked once, when it
    is first needed, and counted on ``counter`` then.
    """

    __slots__ = ("v", "counter", "_point", "_tail")

    def __init__(self, v: Valuation, counter: Optional[QueryCounter] = None):
        self.v, self.counter = v, counter
        self._point: Optional[Fraction] = None
        self._tail: Optional[Fraction] = None

    def point(self) -> Fraction:
        if self._point is None:
            self._point = cut_query(self.v, ZERO, HALF, self.counter)
        return self._point

    def tail(self) -> Fraction:
        if self._tail is None:
            self._tail = eval_query(self.v, self.point(), ONE, self.counter)
        return self._tail


def hat_cut(v: Valuation, x: Fraction, nu: Fraction,
            counter: Optional[QueryCounter] = None, prefix: Optional[Fraction] = None,
            median: Optional[Median] = None) -> Optional[tuple[Fraction, Fraction]]:
    """Leftmost y in [x, 1] with hat value of [x, y] at least nu, and that hat value.

    Returns ``(y, hat value of [x, y])``, or None when no such y exists.
    ``prefix`` is the mass of [0, x] and ``median`` the valuation's
    ``Median``, when the caller already holds them; a question already
    answered is never asked again within one call.

    Two candidate points are identified and the earlier valid one wins:

    * y1 -- the plain cut point for target nu.  Valid only if the target is
      actually reached (the cut clamps to 1 when the value runs out).
    * y2 -- the leftmost point making [x, y2] bifurcating: far enough right
      to capture value 1/4 and to leave at most 1/2 beyond it.  Considered
      only when [0, x] is worth at most 1/2, and valid only if the
      bifurcation check passes after clamping.

    Targets above 1 are unreachable (hat values never exceed 1).  For a
    target of exactly 1 only y2 matters: an interval of full value is itself
    bifurcating, so the plain cut can never come earlier.

    The returned hat value needs no query.  When the named point is y2 (a tie
    y1 == y2 included), [x, y2] passed the bifurcation check and its hat is
    1.  Otherwise the point is y1, and [x, y1] is not bifurcating: every
    bifurcating [x, y] is worth 1/4, so y >= cut(x, 1/4), and leaves at most
    1/2 right of y, so y >= cut(0, 1/2); hence y >= y2.  Both cuts then reach
    their targets exactly, so [x, y2] is bifurcating too.  So either no
    [x, y] is bifurcating (when [0, x] is worth more than 1/2, or [x, y2]
    failed the check), or y2 was valid and y1 < y2.  Either way the hat of
    [x, y1] is its plain value, the eval(x, y1) already asked.
    """
    require_rational("nu", nu)
    p, q = nu.numerator, nu.denominator
    if p <= 0:
        raise ValueError(f"hat_cut needs nu > 0, got {nu}")
    if p > q:
        return None
    if median is None:
        median = Median(v, counter)
    best: Optional[tuple[Fraction, Fraction]] = None
    y1 = m1 = None
    if p < q:
        y1 = median.point() if x == 0 and 2 * p == q else cut_query(v, x, nu, counter)
        m1 = eval_query(v, x, y1, counter)
        if m1.numerator * q >= p * m1.denominator:
            best = (y1, m1)
    if prefix is None:
        prefix = eval_query(v, ZERO, x, counter)
    if 2 * prefix.numerator <= prefix.denominator:
        half = median.point()
        quarter = y1 if 4 * p == q else cut_query(v, x, QUARTER, counter)
        y2 = max(quarter, half)
        # The bifurcation check of [x, y2]; [0, x] is worth at most 1/2.
        m2 = m1 if y2 == y1 else eval_query(v, x, y2, counter)
        if 4 * m2.numerator >= m2.denominator:
            tail = median.tail() if y2 == half else eval_query(v, y2, ONE, counter)
            if 2 * tail.numerator <= tail.denominator and (best is None or y2 <= best[0]):
                best = (y2, ONE)
    return best
