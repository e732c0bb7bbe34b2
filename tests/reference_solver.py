"""Literal transcriptions of the two solver loops, for differential testing.

The growth loop recomputes the unassigned gaps every iteration, asks every
agent about every gap, and hands the leftmost gap with a qualifying agent's
shortest qualifying prefix to that agent (lowest index on ties).  The
appending loop rebuilds the gaps, the hat matrix and the envy graph every
iteration.  No groups, no cache, no prefilter, no incremental edges, no
reused answers (the hat cut is ``oracles.literal_hat_cut``):
agreement with ``cakecut.phase_one`` and ``cakecut.phase_two`` checks all
of their bookkeeping at once.
"""

from fractions import Fraction

from cakecut import Interval, cut_query, hat_eval, unassigned_gaps
from cakecut.allocation import envy_edges, hat_matrix, resolve_cycles
from oracles import literal_hat_cut


def growth_phase(instance, delta):
    """(pieces, iterations) of the growth phase at envy step ``delta``."""
    valuations = instance.agent_valuations()
    step = Fraction(delta) / instance.n
    pieces = [None] * instance.n
    hats = [Fraction(0)] * instance.n
    iterations = 0
    while True:
        for gap in unassigned_gaps(pieces):
            claims = [(literal_hat_cut(v, gap.lo, hats[i] + step), i)
                      for i, v in enumerate(valuations)
                      if hat_eval(v, gap) >= hats[i] + step]
            if claims:
                r, i = min(claims)
                pieces[i] = Interval(gap.lo, r)
                hats[i] = hat_eval(valuations[i], pieces[i])
                iterations += 1
                break
        else:
            return pieces, iterations


def appending_phase(pieces, instance, delta):
    """(pieces, iterations, rotations) of the appending phase started from ``pieces``."""
    valuations = instance.agent_valuations()
    step = Fraction(delta) / instance.n
    pieces = list(pieces)
    iterations = rotations = 0
    while len(gaps := unassigned_gaps(pieces)) > instance.n:
        rotations += len(resolve_cycles(pieces, hat_matrix(pieces, valuations)))
        edges = envy_edges(hat_matrix(pieces, valuations))
        s = min(i for i in range(instance.n) if not any(i in out for out in edges))
        gap = next(g for g in gaps if g.lo == pieces[s].hi)
        x = min(min(cut_query(v, gap.lo, step) for v in valuations), gap.hi)
        pieces[s] = Interval(pieces[s].lo, x)
        iterations += 1
    return pieces, iterations, rotations
