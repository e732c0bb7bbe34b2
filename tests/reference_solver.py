"""A literal transcription of the growth phase, for differential testing.

Every iteration recomputes the unassigned gaps, asks every agent about every
gap, and hands the leftmost gap with a qualifying agent's shortest
qualifying prefix to that agent (lowest index on ties).  No groups, no
cache, no prefilter: agreement with ``cakecut.phase_one`` checks all of its
bookkeeping at once.
"""

from fractions import Fraction

from cakecut import Interval, hat_cut, hat_eval, unassigned_gaps


def growth_phase(instance, delta):
    """(pieces, iterations) of the growth phase at envy step ``delta``."""
    valuations = instance.agent_valuations()
    step = Fraction(delta) / instance.n
    pieces = [None] * instance.n
    hats = [Fraction(0)] * instance.n
    iterations = 0
    while True:
        for gap in unassigned_gaps(pieces):
            claims = [(hat_cut(v, gap.lo, hats[i] + step), i)
                      for i, v in enumerate(valuations)
                      if hat_eval(v, gap).value >= hats[i] + step]
            if claims:
                r, i = min(claims)
                pieces[i] = Interval(gap.lo, r)
                hats[i] = hat_eval(valuations[i], pieces[i]).value
                iterations += 1
                break
        else:
            return pieces, iterations
