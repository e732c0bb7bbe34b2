"""The bifurcating-interval preference and its eval/cut queries.

An interval X = [x, y] is *bifurcating* for an agent when the agent values X
at 1/4 or more while neither side of it, [0, x] nor [y, 1], is worth more
than 1/2.  Owning such an interval caps the agent's envy structurally: every
other connected piece lies entirely inside one side.

``hat_eval`` scores an interval at 1 when it is bifurcating and at its plain
value otherwise ("the hat value").  The hat value of the empty piece is 0,
and a non-bifurcating interval is always worth strictly less than 1/2, so the
two branches never collide.  ``hat_cut`` answers cut queries against the hat
value with at most one eval and three cut queries.

A valuation's total mass is exactly 1 and it has no atoms, so some answers
need no query: the mass of [y, 1] is 1 minus that of [0, y], and a cut whose
target is reachable reaches it exactly.  A caller that asks many hat
questions of one valuation also reuses answers it already holds:
``hat_with_prefix`` hands back the mass of [0, x] along with a hat value,
``hat_cut`` takes that mass and a ``Median`` (the valuation's cut(0, 1/2),
asked once), and ``hat_cut`` returns the hat value of the prefix it names,
which it knows without a further query.  Every threshold test compares
integers: ``f >= 1/4`` is ``4 * f.numerator >= f.denominator``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .cake import (ONE, ZERO, Piece, QueryCounter, Valuation, cut_query, eval_query,
                   require_rational)

QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)


def is_bifurcating(v: Valuation, piece: Piece, counter: Optional[QueryCounter] = None) -> bool:
    """True iff the piece is worth >= 1/4 with <= 1/2 on each side of it.

    The empty piece is never bifurcating.  Checks short-circuit, so one or
    two eval queries are issued.
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

    The mass of [0, lo] is asked only when [lo, hi] is worth 1/4 or more.  The
    mass of [hi, 1] is never asked: the total mass is exactly 1, so [hi, 1] is
    worth 1 - prefix - value, which is at most 1/2 exactly when
    prefix + value >= 1/2.
    """
    value = eval_query(v, lo, hi, counter)
    c, d = value.numerator, value.denominator
    if 4 * c < d:
        return value, None
    prefix = eval_query(v, ZERO, lo, counter)
    a, b = prefix.numerator, prefix.denominator
    if 2 * a <= b and 2 * (a * d + c * b) >= b * d:
        return ONE, prefix
    return value, prefix


class Median:
    """The point cut(0, 1/2) of one valuation, asked once when first needed.

    The answer is fixed for the valuation, so it is counted on ``counter``
    the first time only.  The mass right of it needs no query: [0, m] is
    worth exactly 1/2, so [m, 1] is worth exactly 1/2 too.
    """

    __slots__ = ("v", "counter", "_point")

    def __init__(self, v: Valuation, counter: Optional[QueryCounter] = None):
        self.v, self.counter = v, counter
        self._point: Optional[Fraction] = None

    def point(self) -> Fraction:
        if self._point is None:
            self._point = cut_query(self.v, ZERO, HALF, self.counter)
        return self._point


def hat_cut(v: Valuation, x: Fraction, nu: Fraction,
            counter: Optional[QueryCounter] = None, prefix: Optional[Fraction] = None,
            median: Optional[Median] = None) -> Optional[tuple[Fraction, Fraction]]:
    """Leftmost y in [x, 1] with hat value of [x, y] at least nu, and that hat value.

    Returns ``(y, hat value of [x, y])``, or None when no such y exists.
    ``prefix`` is the mass of [0, x] and ``median`` the valuation's
    ``Median``, when the caller already holds them; a question already
    answered is never asked again within one call.  With neither, the call
    asks at most one eval, eval(0, x), and three cuts.  Write rho for the
    mass of [0, x] and m for cut(0, 1/2).

    Two candidate points are identified and the earlier one wins:

    * y1 = cut(x, nu), the plain cut point.  It exists exactly when
      [x, 1], worth 1 - rho, holds nu; the cut is then asked, and [x, y1] is
      worth exactly nu because the measure is atomless.  Otherwise no plain
      value reaches nu and the cut is not asked.
    * y2 = max(cut(x, 1/4), m), the leftmost point making [x, y2]
      bifurcating.  Considered only when rho <= 1/2, and then always
      bifurcating: [x, 1] holds 1 - rho >= 1/2, so the quarter cut reaches
      1/4 exactly and [x, y2] is worth at least 1/4; [0, m] is worth exactly
      1/2 and y2 >= m, so [y2, 1] is worth at most 1/2.

    Targets above 1 are unreachable (hat values never exceed 1).  For a
    target of exactly 1 only y2 matters: an interval of full value is itself
    bifurcating, so the plain cut can never come earlier.

    The returned hat value needs no query.  When the named point is y2 (a tie
    y1 == y2 included), [x, y2] is bifurcating and its hat is 1.  Otherwise
    the point is y1, and [x, y1] is not bifurcating: every bifurcating
    [x, y] needs rho <= 1/2, is worth 1/4, so y >= cut(x, 1/4), and leaves
    at most 1/2 right of y, so y >= m; hence y >= y2 > y1.  So the hat of
    [x, y1] is its plain value, nu.
    """
    require_rational("x", x)  # with the prefix held, no query may see x
    require_rational("nu", nu)
    p, q = nu.numerator, nu.denominator
    if p <= 0:
        raise ValueError(f"hat_cut needs nu > 0, got {nu}")
    if p > q:
        return None
    if median is None:
        median = Median(v, counter)
    if prefix is None:
        prefix = eval_query(v, ZERO, x, counter)
    a, b = prefix.numerator, prefix.denominator
    y1 = None
    if p < q and (b - a) * q >= p * b:
        y1 = median.point() if x == 0 and 2 * p == q else cut_query(v, x, nu, counter)
    if 2 * a > b:
        return None if y1 is None else (y1, nu)
    # y1 exists here when nu = 1/4: [x, 1] holds at least 1/2.
    quarter = y1 if 4 * p == q else cut_query(v, x, QUARTER, counter)
    y2 = max(quarter, median.point())
    if y1 is not None and y1 < y2:
        return y1, nu
    return y2, ONE
