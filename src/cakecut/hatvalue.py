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
threshold.  The measure is also additive: eval(x, y) is P(y) - P(x), P(x)
being the mass of [0, x].  So within one solve the answers already given fix
more than they say, and a ``PrefixBook`` holds the masses P(x) they fix.
``hat_eval`` and ``hat_cut`` read the book they are handed before they ask,
and teach it what they ask.  Every threshold test compares integers:
``f >= 1/4`` is ``4 * f.numerator >= f.denominator``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional

from .cake import (ONE, ZERO, Piece, QueryCounter, Valuation, check_point, check_span, cut_query,
                   eval_query, require_rational)

QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)


class PrefixBook:
    """The masses P(x) of [0, x] that answers have fixed within one solve, per valuation.

    ``rows`` maps a point, keyed by its ``(numerator, denominator)`` (hashing
    a Fraction costs a modular inverse), to ``{id(v): (p, q)}``, P(x) = p/q
    in lowest terms: the threshold tests cross-multiply, so a mass needs no
    Fraction.  A valuation is named by its identity, so agents that share one
    share its masses, and a book must not outlive the valuations it names.  A
    book built over some valuations holds P(0) = 0 and P(1) = 1 for each, and
    it learns by two more rules:

    * an eval of [x, y] with one end held teaches the other end (``hat_ratio``
      and ``hat_cut``; eval(0, x) teaches P(x));
    * a cut from a held x that answers y < 1 teaches P(y) = P(x) + target
      (``learn_cut``).  An answer of 1 may be a clamp, so it teaches nothing.

    A mass that contradicts the one held raises RuntimeError; nothing is
    overwritten, and a point outside [0, 1] is refused as the kernel refuses
    it.  The book keeps what it is taught until its owner ``drop``s a point,
    as ``GapPool`` and ``phase_two`` do once a point is no longer the end of
    a gap or piece.
    """

    __slots__ = ("rows",)

    def __init__(self, valuations: Iterable[Valuation] = ()):
        keys = [id(v) for v in valuations]
        self.rows: dict[tuple[int, int], dict[int, tuple[int, int]]] = {
            (0, 1): dict.fromkeys(keys, (0, 1)), (1, 1): dict.fromkeys(keys, (1, 1))}

    def span(self, v: Valuation, lo: tuple[int, int], hi: tuple[int, int]
             ) -> tuple[Optional[tuple[int, int]], Optional[tuple[int, int]]]:
        """The held masses at two points given by their keys, None where not held."""
        rows, k = self.rows, id(v)
        at_lo, at_hi = rows.get(lo), rows.get(hi)
        return None if at_lo is None else at_lo.get(k), None if at_hi is None else at_hi.get(k)

    def mass(self, v: Valuation, x: Fraction) -> Optional[tuple[int, int]]:
        """P(x) for ``v`` as ``(p, q)`` if held, else None."""
        row = self.rows.get((x.numerator, x.denominator))
        return None if row is None else row.get(id(v))

    def learn(self, v: Valuation, x: Fraction, p: int, q: int) -> None:
        """Hold P(x) = p/q for ``v``; RuntimeError if a different mass is held."""
        key = (x.numerator, x.denominator)
        if not 0 <= key[0] <= key[1]:
            check_point(x, "x")
        self.hold(v, key, p, q)

    def hold(self, v: Valuation, key: tuple[int, int], p: int, q: int) -> None:
        """``learn`` at a point of [0, 1] given by its key."""
        g = gcd(p, q)
        mass = (p // g, q // g)
        row = self.rows.get(key)
        if row is None:
            self.rows[key] = {id(v): mass}
            return
        held = row.setdefault(id(v), mass)
        if held != mass:
            raise RuntimeError(f"the mass of [0, {Fraction(*key)}] is held as "
                               f"{held[0]}/{held[1]}, yet an answer makes it {mass[0]}/{mass[1]}")

    def learn_cut(self, v: Valuation, x: Fraction, y: Fraction, target: Fraction) -> None:
        """Learn from cut(x, target) = y: P(y) = P(x) + target, when P(x) is held and y < 1.

        ``target`` 1 stands for the bifurcating threshold t = max(1/4, 1/2 -
        P(x)) that ``hat_cut`` cuts to when it answers hat value 1; no plain
        cut targets 1.
        """
        row = self.rows.get((x.numerator, x.denominator))
        held = None if row is None else row.get(id(v))
        key = (y.numerator, y.denominator)
        if held is None or key[0] >= key[1]:
            return
        a, b = held
        p, q = target.numerator, target.denominator
        if p < q:
            self.hold(v, key, a * q + p * b, b * q)
        elif 4 * a >= b:
            self.hold(v, key, 4 * a + b, 4 * b)
        else:
            self.hold(v, key, 1, 2)

    def drop(self, x: Fraction) -> None:
        """Forget every mass held at x."""
        self.rows.pop((x.numerator, x.denominator), None)


def is_bifurcating(v: Valuation, piece: Piece, counter: Optional[QueryCounter] = None) -> bool:
    """True iff the piece is worth >= 1/4 with <= 1/2 on each side of it.

    The empty piece is never bifurcating.  Checks short-circuit, so one or
    two eval queries are issued.
    """
    return hat_eval(v, piece, counter) == ONE


def hat_eval(v: Valuation, piece: Piece, counter: Optional[QueryCounter] = None,
             book: Optional[PrefixBook] = None) -> Fraction:
    """Hat value of a piece: 1 if bifurcating, else the plain value."""
    if piece is None:
        return ZERO
    p, q, value = hat_ratio(v, piece.lo, piece.hi, counter, book)
    return value if value is not None else ONE if p == q else Fraction(p, q)


def hat_ratio(v: Valuation, lo: Fraction, hi: Fraction, counter: Optional[QueryCounter] = None,
              book: Optional[PrefixBook] = None) -> tuple[int, int, Optional[Fraction]]:
    """Hat value of [lo, hi] as ``(p, q, value)``: p/q, and the asked Fraction if any.

    p/q is the hat value, (1, 1) when [lo, hi] is bifurcating; a plain value
    is below 1/2, so p == q only then.  ``value`` is the plain value when it
    was asked and is the hat value, else None: a caller that only compares
    needs no Fraction.  With ``book`` holding both ends' masses, p/q is
    P(hi) - P(lo) and nothing is asked.  Otherwise eval(lo, hi) is asked, and
    the mass of [0, lo] only when [lo, hi] is worth 1/4 or more and the book
    does not hold it; the book learns every end the answers fix.  The mass
    of [hi, 1] is never asked: the total mass is exactly 1, so [hi, 1] is
    worth at most 1/2 exactly when P(hi) >= 1/2.  A float, a point outside
    [0, 1] or lo > hi is refused as ``eval_query`` refuses it, whatever the
    book holds.
    """
    at_lo = at_hi = None
    if book is not None:
        if type(lo) is not Fraction or type(hi) is not Fraction:
            check_span(lo, hi)  # before any key is read
        lo_key, hi_key = (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)
        if lo_key[0] * hi_key[1] > hi_key[0] * lo_key[1]:
            check_span(lo, hi)  # raises: lo > hi
        at_lo, at_hi = book.span(v, lo_key, hi_key)
        if at_lo is not None and at_hi is not None:
            (p, q), (r, s) = at_lo, at_hi
            num, den = r * q - p * s, q * s
            if 4 * num >= den and 2 * p <= q and 2 * r >= s:
                return 1, 1, None
            return num, den, None
    value = eval_query(v, lo, hi, counter)
    c, d = value.numerator, value.denominator
    if at_lo is not None:
        p, q = at_lo
        book.hold(v, hi_key, p * d + c * q, q * d)
    elif at_hi is not None:
        r, s = at_hi
        at_lo = (r * d - c * s, s * d)
        book.hold(v, lo_key, *at_lo)
    if 4 * c < d:
        return c, d, value
    if at_lo is None:
        prefix = eval_query(v, ZERO, lo, counter)
        p, q = prefix.numerator, prefix.denominator
        if book is not None:
            book.hold(v, lo_key, p, q)
            book.hold(v, hi_key, p * d + c * q, q * d)
    else:
        p, q = at_lo
    if 2 * p <= q and 2 * (p * d + c * q) >= q * d:
        return 1, 1, None
    return c, d, value


def hat_cut(v: Valuation, x: Fraction, nu: Fraction,
            counter: Optional[QueryCounter] = None,
            book: Optional[PrefixBook] = None) -> Optional[tuple[Fraction, Fraction]]:
    """Leftmost y in [x, 1] with hat value of [x, y] at least nu, and that hat value.

    Returns ``(y, hat value of [x, y])``, or None when no such y exists.  A
    call asks at most one eval and one cut.  Write rho for the mass of
    [0, x]; it is read from ``book`` when the book holds it, and an eval that
    asks it teaches the book.  The book does not learn the answer's mass
    here: ``learn_cut`` records it for the answers the caller keeps.

    * nu < 1/4 with rho not held: no [x, y] worth less than 1/4 is
      bifurcating, whatever rho is, so the answer is y = cut(x, nu) with hat
      value nu when [x, 1] holds nu, and None otherwise.  A cut answering
      y < 1 proves that [x, 1] holds nu; only y = 1, a reach or a clamp,
      asks eval(x, 1) to tell, and that eval teaches rho.  Otherwise rho is
      asked, as eval(0, x).

    * rho > 1/2: no [x, y] is bifurcating, so the hat value is the plain
      value.  The answer is cut(x, nu) with hat value nu when [x, 1], worth
      1 - rho < 1/2, holds nu (the measure is atomless, so the cut reaches
      nu exactly); otherwise no y qualifies, and nothing is asked.
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
    require_rational("x", x)  # with rho held, no query may see x
    require_rational("nu", nu)
    p, q = nu.numerator, nu.denominator
    if p <= 0:
        raise ValueError(f"hat_cut needs nu > 0, got {nu}")
    if p > q:
        return None
    held = None if book is None else book.mass(v, x)
    if held is not None:
        a, b = held
    elif 4 * p < q:
        y = cut_query(v, x, nu, counter)
        if y < ONE:
            return y, nu
        rest = eval_query(v, x, ONE, counter)
        if book is not None:
            book.learn(v, x, rest.denominator - rest.numerator, rest.denominator)
        return (y, nu) if rest >= nu else None
    else:
        prefix = eval_query(v, ZERO, x, counter)
        a, b = prefix.numerator, prefix.denominator
        if book is not None:
            book.learn(v, x, a, b)
    if 2 * a > b:
        return (cut_query(v, x, nu, counter), nu) if (b - a) * q >= p * b else None
    # nu < t means nu < 1/4 or nu < 1/2 - rho.
    if 4 * p < q or 2 * p * b < q * (b - 2 * a):
        return cut_query(v, x, nu, counter), nu
    return cut_query(v, x, QUARTER if 4 * a >= b else Fraction(b - 2 * a, 2 * b), counter), ONE
