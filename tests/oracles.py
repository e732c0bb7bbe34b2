"""Independent reference implementations used to cross-check the package.

Everything here but the ``literal_*`` functions recomputes results from the
raw (breakpoints, densities) data by direct summation or grid scanning -- no
prefix sums, no binary search over mass, none of the package's shortcut
logic -- so agreement is meaningful evidence rather than the same code run
twice.  The ``literal_*`` functions go through the package's queries: each
is the plain transcription, one question per agent pair, that an optimised
path must keep agreeing with.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from cakecut import (Interval, ValidationError, cut_query, eval_query, hat_eval,
                     is_bifurcating)
from cakecut.allocation import unassigned_gaps

QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)


def naive_value(valuation, x, y) -> Fraction:
    """Measure of [x, y] by summing density * overlap over every segment."""
    x, y = Fraction(x), Fraction(y)
    total = Fraction(0)
    for a, b, d in zip(valuation.breakpoints, valuation.breakpoints[1:],
                       valuation.densities):
        lo, hi = max(a, x), min(b, y)
        if lo < hi:
            total += d * (hi - lo)
    return total


def naive_cut(valuation, x, nu):
    """Leftmost y with naive_value(x, y) >= nu, found by walking segments."""
    x, nu = Fraction(x), Fraction(nu)
    acc = Fraction(0)
    for a, b, d in zip(valuation.breakpoints, valuation.breakpoints[1:],
                       valuation.densities):
        lo, hi = max(a, x), b
        if lo >= hi:
            continue
        gain = d * (hi - lo)
        if acc + gain >= nu:
            if d == 0:
                return lo
            return lo + (nu - acc) / d
        acc += gain
    return None


def naive_next_mass(valuation, x):
    """Largest y >= x with naive_value(x, y) == 0, or None, by walking segments."""
    x = Fraction(x)
    for a, b, d in zip(valuation.breakpoints, valuation.breakpoints[1:],
                       valuation.densities):
        if b > x and d > 0:
            return max(a, x)
    return None


def naive_hat(valuation, x, y) -> Fraction:
    """Hat value of [x, y] straight from the definition."""
    raw = naive_value(valuation, x, y)
    if (x < y and raw >= QUARTER and naive_value(valuation, 0, x) <= HALF
            and naive_value(valuation, y, 1) <= HALF):
        return Fraction(1)
    return raw


def grid_hat_cut(valuation, x, nu, resolution=10 ** 4):
    """First grid point y = k/resolution >= x whose hat value reaches nu.

    The hat value is nondecreasing in y (raw mass only grows, and a
    bifurcating interval stays bifurcating when extended), so binary search
    over the grid finds the same point a linear scan would.
    """
    x, nu = Fraction(x), Fraction(nu)
    lo = math.ceil(x * resolution)
    hi = resolution
    if naive_hat(valuation, x, Fraction(hi, resolution)) < nu:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if naive_hat(valuation, x, Fraction(mid, resolution)) >= nu:
            hi = mid
        else:
            lo = mid + 1
    return Fraction(lo, resolution)


def literal_hat_cut(v, x, nu, counter=None):
    """The hat cut point as first written, asking every query it uses afresh.

    Unlike the oracles above this one goes through the package's queries:
    it is the plain two-candidate transcription that ``cakecut.hat_cut``
    must keep naming the same point as, and the cut the literal growth loop
    in ``reference_solver`` asks.
    """
    if nu <= 0:
        raise ValueError(f"hat_cut needs nu > 0, got {nu}")
    if nu > 1:
        return None
    best = None
    if nu < 1:
        y1 = cut_query(v, x, nu, counter)
        if eval_query(v, x, y1, counter) >= nu:
            best = y1
    if eval_query(v, Fraction(0), x, counter) <= HALF:
        y2 = max(cut_query(v, x, QUARTER, counter), cut_query(v, Fraction(0), HALF, counter))
        if is_bifurcating(v, Interval(x, y2), counter) and (best is None or y2 < best):
            best = y2
    return best


def envy_matrix(pieces, valuations):
    """Row i = agent i's value for every assigned piece (None counts 0)."""
    rows = []
    for v in valuations:
        rows.append([Fraction(0) if p is None else naive_value(v, p.lo, p.hi)
                     for p in pieces])
    return rows


def worst_envy(pieces, valuations) -> Fraction:
    rows = envy_matrix(pieces, valuations)
    worst = Fraction(0)
    for i, row in enumerate(rows):
        for j, other in enumerate(row):
            if i != j:
                worst = max(worst, other - row[i])
    return worst


def replay_edge_counts(matrix, cycles) -> tuple[list[int], list[list[Fraction]]]:
    """Envy-edge counts before each rotation and after the last, and the final matrix.

    Replays ``cycles`` on a copy of a hat-value matrix: in each cycle every
    agent takes its successor's column.  Edges are counted straight from the
    definition, i -> j when ``matrix[i][i] < matrix[i][j]``.
    """
    matrix = [list(row) for row in matrix]

    def edges():
        return sum(row[i] < x for i, row in enumerate(matrix) for x in row)

    counts = [edges()]
    for cycle in cycles:
        for row in matrix:
            old = list(row)
            for agent, succ in zip(cycle, cycle[1:] + cycle[:1]):
                row[agent] = old[succ]
        counts.append(edges())
    return counts, matrix


def phase_invariants(pieces, valuations, delta, phase):
    """(name, passed) for each phase-boundary invariant, straight from its definition.

    Gaps are the uncovered stretches between sorted pieces; every value is a
    ``naive_value`` sum and every hat value a ``naive_hat``.  With
    ``cap_i = hat_i(P_i) + delta/n``:

    * no_remaining_claim (phase 1 only): no gap has hat value >= cap_i;
    * piece_envy_cap: v_i(P_j) <= cap_i for j != i;
    * gap_envy_cap: v_i(U) <= cap_i for every gap U;
    * no_affordable_prefix: the leftmost point reaching cap_i from the start
      of any piece is not strictly inside it;
    * bifurcating_margin: if P_i is not bifurcating for i but P_j (j != i)
      is, then v_i(P_j) < 1/4 + delta/n or v_i(right of P_j) > 1/2 - delta/n.
    """
    step = Fraction(delta) / len(valuations)
    held = sorted(p for p in pieces if p is not None)
    ends = [Fraction(0)] + [x for p in held for x in (p.lo, p.hi)] + [Fraction(1)]
    gaps = [(a, b) for a, b in zip(ends[::2], ends[1::2]) if a < b]

    def hat(v, p):
        return Fraction(0) if p is None else naive_hat(v, p.lo, p.hi)

    def worth(v, p):
        return Fraction(0) if p is None else naive_value(v, p.lo, p.hi)

    caps = [hat(v, p) + step for v, p in zip(valuations, pieces)]
    others = [(i, v, p) for i, v in enumerate(valuations)
              for j, p in enumerate(pieces) if j != i and p is not None]
    verdicts = []
    if phase == "phase1_end":
        verdicts.append(("no_remaining_claim", all(
            naive_hat(v, a, b) < cap for v, cap in zip(valuations, caps) for a, b in gaps)))
    verdicts.append(("piece_envy_cap", all(worth(v, p) <= caps[i] for i, v, p in others)))
    verdicts.append(("gap_envy_cap", all(
        naive_value(v, a, b) <= cap for v, cap in zip(valuations, caps) for a, b in gaps)))
    reaches = [(naive_cut(v, p.lo, caps[i]), p.hi) for i, v in enumerate(valuations)
               for p in pieces if p is not None]
    verdicts.append(("no_affordable_prefix", all(y is None or y >= hi for y, hi in reaches)))
    verdicts.append(("bifurcating_margin", all(
        hat(v, pieces[i]) == 1 or hat(v, p) < 1 or worth(v, p) < QUARTER + step
        or naive_value(v, p.hi, 1) > HALF - step for i, v, p in others)))
    return [(f"{phase}:{name}", passed) for name, passed in verdicts]


def _agent(i):
    return f"agent {i + 1}"


def _pairs(values):
    """(i, j, v_i(own), v_i(j's piece)) for every ordered pair i != j, row by row."""
    return ((i, j, row[i], other) for i, row in enumerate(values)
            for j, other in enumerate(row) if j != i)


def literal_values(pieces, valuations):
    """The value matrix with one kernel question per agent pair."""
    return [[v.value_of(p) for p in pieces] for v in valuations]


def literal_max_envy(values):
    return max([Fraction(0), *(other - own for _, _, own, other in _pairs(values))])


def literal_min_ratio(values):
    return min((own / other for _, _, own, other in _pairs(values) if other > 0), default=None)


def literal_theorem_bounds(values, delta):
    """(name, passed, witness) of the additive-envy and half-value bounds, over all n^2 pairs."""
    n = len(values)
    bound = QUARTER + 2 * delta / n
    envy = next((f"{_agent(i)} envies {_agent(j)} by {other - own} > {bound}"
                 for i, j, own, other in _pairs(values) if other - own > bound), None)
    half = next((f"{_agent(i)} holds {own} < {other}/2 - {delta}/{n}"
                 for i, j, own, other in _pairs(values) if own < other / 2 - delta / n), None)
    return [("additive_envy_bound", envy is None, envy), ("half_value_bound", half is None, half)]


def literal_mult_bounds(values, c):
    """(name, passed, witness) of the pairwise ratio bound and the 1/(4n) floor."""
    n = len(values)
    ratio = next((f"(2+{c}) * {own} < {other} for {_agent(i)} vs {_agent(j)}"
                  for i, j, own, other in _pairs(values) if (2 + c) * own < other), None)
    low = next((f"{_agent(i)} holds {values[i][i]} < 1/{4 * n}"
                for i in range(n) if values[i][i] < Fraction(1, 4 * n)), None)
    return [("mult_ratio_bound", ratio is None, ratio), ("value_floor", low is None, low)]


def literal_phase_invariants(pieces, valuations, delta, phase):
    """(name, passed, witness) of each phase-boundary invariant, agent pair by agent pair.

    The same checks and witnesses as ``cakecut.audit.check_phase_invariants``,
    written as one pass per agent over full hat matrices, with every entry
    asked afresh for every agent.
    """
    step = Fraction(delta) / len(valuations)
    gaps = unassigned_gaps(pieces)
    piece_hats = [[hat_eval(v, p) for p in pieces] for v in valuations]
    gap_hats = [[hat_eval(v, g) for g in gaps] for v in valuations]
    claims = []
    bad = {}
    for i, v in enumerate(valuations):
        own = piece_hats[i][i]
        cap = own + step
        claims += [(k, i) for k, h in enumerate(gap_hats[i]) if h >= cap]
        for j, (p, h) in enumerate(zip(pieces, piece_hats[i])):
            if j == i or p is None:
                continue
            worth = h if h < 1 else v.value_of(p)
            if worth > cap:
                bad.setdefault("piece_envy_cap",
                               f"{_agent(i)} values {_agent(j)}'s piece at {worth} > {own} + {step}")
            y = v.leftmost_reach(p.lo, cap) if worth >= cap else None
            if y is not None and y < p.hi:
                bad.setdefault("no_affordable_prefix", f"{_agent(i)} can reach {own} + {step} "
                               f"by {y} inside {_agent(j)}'s piece {p}")
            if own < 1 and h == 1 and worth >= QUARTER + step:
                right = v.value(p.hi, Fraction(1))
                if right <= HALF - step:
                    bad.setdefault("bifurcating_margin",
                                   f"{_agent(j)}'s piece {p} is bifurcating for {_agent(i)} "
                                   f"yet worth {worth} with only {right} to its right")
        for gap, h in zip(gaps, gap_hats[i]):
            worth = h if h < 1 else v.value_of(gap)
            if worth > cap:
                bad.setdefault("gap_envy_cap", f"{_agent(i)} values gap {gap} at {worth} > {own} + {step}")
    if claims:
        k, i = min(claims)
        bad["no_remaining_claim"] = f"{_agent(i)} still claims gap {gaps[k]}"
    names = ["piece_envy_cap", "gap_envy_cap", "no_affordable_prefix", "bifurcating_margin"]
    if phase == "phase1_end":
        names.insert(0, "no_remaining_claim")
    return [(f"{phase}:{name}", name not in bad, bad.get(name)) for name in names]


def brute_force_min_envy(instance, resolution):
    """Exhaustive reference: minimum max-envy over grid-cut allocations.

    Tries every way to cut the cake at n-1 points drawn from the grid
    {k/resolution} union all valuation breakpoints, assigning the resulting
    intervals to agents in every order, and returns the best (envy, pieces)
    found.  Prefix masses are ``naive_value`` sums.  Exact but exponential --
    fine for n <= 3 at resolution ~100; n = 4 is only practical at coarse
    resolutions (<= 25 or so).
    """
    if instance.n > 4:
        raise ValidationError("exhaustive search supports at most 4 agents")
    if resolution < 1:
        raise ValidationError(f"resolution must be >= 1, got {resolution}")
    n = instance.n
    vals = instance.agent_valuations()
    grid = {Fraction(k, resolution) for k in range(resolution + 1)}
    for v in vals:
        grid.update(v.breakpoints)
    points = sorted(grid)
    pref = [{g: naive_value(v, 0, g) for g in points} for v in vals]

    def assemble(bounds, perm):
        out = []
        for i in range(n):
            a, b = bounds[perm[i]], bounds[perm[i] + 1]
            out.append(Interval(a, b) if a < b else None)
        return out

    best = best_bounds = best_perm = None
    for cuts in combinations_with_replacement(points, n - 1):
        bounds = (Fraction(0),) + cuts + (Fraction(1),)
        piece_vals = [
            [pref[i][b] - pref[i][a] for a, b in zip(bounds, bounds[1:])]
            for i in range(n)
        ]
        for perm in permutations(range(n)):
            worst = Fraction(0)
            for i in range(n):
                own = piece_vals[i][perm[i]]
                for j in range(n):
                    e = piece_vals[i][perm[j]] - own
                    if e > worst:
                        worst = e
            if best is None or worst < best:
                best, best_bounds, best_perm = worst, bounds, perm
                if worst == 0:
                    return best, assemble(bounds, perm)
    return best, assemble(best_bounds, best_perm)
