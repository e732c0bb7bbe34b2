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
    value = eval_query(v, piece.lo, piece.hi, counter)
    if (value >= QUARTER and eval_query(v, ZERO, piece.lo, counter) <= HALF
            and eval_query(v, piece.hi, ONE, counter) <= HALF):
        return ONE
    return value


def hat_cut(v: Valuation, x: Fraction, nu: Fraction,
            counter: Optional[QueryCounter] = None) -> Optional[Fraction]:
    """Leftmost y in [x, 1] with hat value of [x, y] at least nu, or None.

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
    """
    require_rational("nu", nu)
    if nu <= 0:
        raise ValueError(f"hat_cut needs nu > 0, got {nu}")
    if nu > 1:
        return None
    best: Optional[Fraction] = None
    if nu < 1:
        y1 = cut_query(v, x, nu, counter)
        if eval_query(v, x, y1, counter) >= nu:
            best = y1
    if eval_query(v, ZERO, x, counter) <= HALF:
        y2 = max(cut_query(v, x, QUARTER, counter), cut_query(v, ZERO, HALF, counter))
        if is_bifurcating(v, Interval(x, y2), counter) and (best is None or y2 < best):
            best = y2
    return best
