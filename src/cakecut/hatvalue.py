"""The bifurcating-interval preference and its eval/cut queries.

An interval X = [x, y] is *bifurcating* for an agent when the agent values X
at 1/4 or more while neither side of it, [0, x] nor [y, 1], is worth more
than 1/2.  Owning such an interval caps the agent's envy structurally: every
other connected piece lies entirely inside one side.

``hat_eval`` scores an interval at 1 when it is bifurcating and at its plain
value otherwise ("the hat value").  The hat value of the empty piece is 0,
and a non-bifurcating interval is always worth strictly less than 1/2, so the
two branches never collide.  ``hat_cut`` answers cut queries against the hat
value with at most one eval and one cut query.

A valuation's total mass is exactly 1 and it has no atoms, so some answers
need no query: the mass of [y, 1] is 1 minus that of [0, y], a cut whose
target is reachable reaches it exactly, and once the mass of [0, x] is known
to be at most 1/2, [x, y] is bifurcating exactly when it reaches one
threshold.  A caller that asks many hat questions of one valuation also
reuses answers it already holds: ``hat_with_prefix`` hands back the mass of
[0, x] along with a hat value, ``hat_cut`` takes that mass, and ``hat_cut``
returns the hat value of the prefix it names, which it knows without a
further query.  Every threshold test compares integers: ``f >= 1/4`` is
``4 * f.numerator >= f.denominator``.
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


def hat_cut(v: Valuation, x: Fraction, nu: Fraction,
            counter: Optional[QueryCounter] = None,
            prefix: Optional[Fraction] = None) -> Optional[tuple[Fraction, Fraction]]:
    """Leftmost y in [x, 1] with hat value of [x, y] at least nu, and that hat value.

    Returns ``(y, hat value of [x, y])``, or None when no such y exists.
    ``prefix`` is the mass of [0, x] when the caller already holds it.  A
    call asks at most one eval and one cut.  Write rho for the mass of
    [0, x].

    * nu < 1/4 with no prefix held: no [x, y] worth less than 1/4 is
      bifurcating, whatever rho is, so the answer is y = cut(x, nu) with hat
      value nu when [x, 1] holds nu, and None otherwise.  A cut answering
      y < 1 proves that [x, 1] holds nu; only y = 1, a reach or a clamp,
      asks eval(x, 1) to tell.  Otherwise rho is asked, as eval(0, x).

    * rho > 1/2: no [x, y] is bifurcating, so the hat value is the plain
      value.  The answer is cut(x, nu) with hat value nu when [x, 1], worth
      1 - rho < 1/2, holds nu (the measure is atomless, so the cut reaches
      nu exactly); otherwise no y qualifies.
    * rho <= 1/2: let t = max(1/4, 1/2 - rho).  [x, y] is bifurcating
      exactly when it is worth at least t: it must be worth 1/4, and [y, 1],
      worth 1 - rho - [x, y], is at most 1/2 exactly when [x, y] >= 1/2 -
      rho.  Since t <= 1/2 <= 1 - rho, cut(x, t) reaches t exactly and is
      the leftmost bifurcating end (when rho < 1/4 it is cut(0, 1/2)).
      Every shorter [x, y] is worth less than t, and its hat value is that
      plain value.  So when nu < t the answer is cut(x, nu), which lies
      before cut(x, t), with hat value nu; otherwise it is cut(x, t) with
      hat value 1 (a tie nu == t included).

    Targets above 1 are unreachable: hat values never exceed 1.
    """
    require_rational("x", x)  # with the prefix held, no query may see x
    require_rational("nu", nu)
    p, q = nu.numerator, nu.denominator
    if p <= 0:
        raise ValueError(f"hat_cut needs nu > 0, got {nu}")
    if p > q:
        return None
    if prefix is None:
        if 4 * p < q:
            y = cut_query(v, x, nu, counter)
            return (y, nu) if y < ONE or eval_query(v, x, ONE, counter) >= nu else None
        prefix = eval_query(v, ZERO, x, counter)
    a, b = prefix.numerator, prefix.denominator
    if 2 * a > b:
        return (cut_query(v, x, nu, counter), nu) if (b - a) * q >= p * b else None
    # nu < t means nu < 1/4 or nu < 1/2 - rho.
    if 4 * p < q or 2 * p * b < q * (b - 2 * a):
        return cut_query(v, x, nu, counter), nu
    return cut_query(v, x, QUARTER if 4 * a >= b else HALF - prefix, counter), ONE
