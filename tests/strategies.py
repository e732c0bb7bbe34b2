"""Hypothesis strategies shared across the property-based tests."""

from fractions import Fraction

from hypothesis import strategies as st

from cakecut import Instance, Interval, Valuation

GRID = 24


@st.composite
def lattice_points(draw, grid=GRID):
    """A fraction k/grid in [0, 1]."""
    return Fraction(draw(st.integers(0, grid)), grid)


@st.composite
def valuations(draw, max_pieces=6, grid=GRID):
    """A piecewise-constant probability density over [0, 1].

    Breakpoints live on the k/grid lattice and densities come from small
    integer weights, so every derived quantity stays a modest Fraction.
    """
    pieces = draw(st.integers(1, max_pieces))
    cuts = draw(st.lists(st.integers(1, grid - 1), min_size=pieces - 1,
                         max_size=pieces - 1, unique=True))
    breakpoints = [Fraction(0)] + sorted(Fraction(c, grid) for c in cuts) + [Fraction(1)]
    weights = draw(st.lists(st.integers(0, 9), min_size=pieces, max_size=pieces)
                   .filter(any))
    mass = sum(w * (b - a)
               for w, a, b in zip(weights, breakpoints, breakpoints[1:]))
    return Valuation(breakpoints, [Fraction(w) / mass for w in weights])


# Pairwise coprime denominators, so the lcm of a valuation's breakpoint
# denominators is rarely one of them and integer keys must round.
COPRIME = (2, 3, 5, 7, 11, 13, 97, 1009, 999983)


@st.composite
def mixed_valuations(draw, max_pieces=6):
    """A valuation off any common lattice, with zero-density stretches.

    Each breakpoint has a denominator drawn from COPRIME, and each weight is
    0 (a zero-density stretch) or k/m for m in COPRIME, so both the
    breakpoint and the density denominators are mixed.
    """
    pieces = draw(st.integers(1, max_pieces))
    cuts = set()
    for _ in range(pieces - 1):
        q = draw(st.sampled_from(COPRIME))
        cuts.add(Fraction(draw(st.integers(1, q - 1)), q))
    breakpoints = [Fraction(0)] + sorted(cuts) + [Fraction(1)]
    weight = st.one_of(st.just(Fraction(0)),
                       st.builds(Fraction, st.integers(1, 9), st.sampled_from(COPRIME)))
    weights = draw(st.lists(weight, min_size=len(breakpoints) - 1,
                            max_size=len(breakpoints) - 1).filter(any))
    mass = sum(w * (b - a) for w, a, b in zip(weights, breakpoints, breakpoints[1:]))
    return Valuation(breakpoints, [w / mass for w in weights])


@st.composite
def kernel_points(draw, valuation):
    """A point of [0, 1] where the kernel's integer keys round, or meet a breakpoint.

    One of: a breakpoint exactly (0 and 1 included); a point just beside a
    breakpoint; or an off-lattice point with a denominator up to 10**6.
    """
    b = draw(st.sampled_from(valuation.breakpoints))
    nudge = Fraction(draw(st.integers(-1, 1)), draw(st.integers(2, 10 ** 6)))
    return draw(st.one_of(
        st.just(b),
        st.just(min(max(b + nudge, Fraction(0)), Fraction(1))),
        st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6),
    ))


@st.composite
def valuation_and_point(draw):
    return draw(valuations()), draw(lattice_points())


@st.composite
def instances(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    distinct = draw(st.integers(1, n))
    vals = {f"v{k}": draw(valuations()) for k in range(distinct)}
    ids = [f"v{draw(st.integers(0, distinct - 1))}" for _ in range(n)]
    for k in range(distinct):  # every valuation is used by someone
        ids[k] = f"v{k}"
    return Instance(vals, ids)


@st.composite
def partial_allocations(draw, max_n=6, grid=GRID):
    """(pieces, valuations): disjoint ordered pieces, some agents empty."""
    n = draw(st.integers(1, max_n))
    vals = [draw(valuations(max_pieces=4)) for _ in range(n)]
    k = draw(st.integers(0, n))
    cuts = sorted(draw(st.lists(st.integers(0, grid), min_size=2 * k,
                                max_size=2 * k)))
    slots = [Interval(Fraction(cuts[2 * i], grid), Fraction(cuts[2 * i + 1], grid))
             for i in range(k)]
    slots = [s for s in slots if s.lo < s.hi]
    # spread the pieces over a random subset of agents, order preserved
    owners = sorted(draw(st.permutations(range(n)))[:len(slots)])
    pieces = [None] * n
    for owner, piece in zip(owners, slots):
        pieces[owner] = piece
    return pieces, vals


@st.composite
def shared_allocations(draw, max_n=6):
    """``partial_allocations``, with agents sharing Valuation objects as an id's agents do.

    Agent k takes the valuation drawn for some agent at or before it, so
    agent 0 keeps its own and any later agent may share.
    """
    pieces, vals = draw(partial_allocations(max_n=max_n))
    return pieces, [vals[draw(st.integers(0, k))] for k in range(len(vals))]
