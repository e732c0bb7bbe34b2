"""Envy at most epsilon when agents share few distinct valuations.

Each distinct valuation walks the cake left to right, dropping a mark every
time another epsilon of its mass accrues; the union of all marks splits the
cake into segments each worth at most epsilon to everyone.  When the number
of distinct valuations d satisfies d <= epsilon*n - 1 there are at most n
segments, so handing each agent (in index order) its favorite remaining
segment allocates everything.  An agent's piece is then within epsilon of
any other piece it can see -- envy never exceeds epsilon -- at the price of
possibly empty pieces.  The grids ask exactly d*(ceil(1/epsilon) - 1) cuts.
Agents sharing an id rank the segments alike, so the hand-out asks each
id's evals once, when the id's first agent chooses: one per segment still
left then.  With S <= n segments that is at most d*S evals in all.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .audit import AuditReport, build_report, check_grid_size
from .cake import (
    ONE,
    ZERO,
    Instance,
    Interval,
    Piece,
    QueryCounter,
    ValidationError,
    Valuation,
    cut_query,
    eval_query,
    open_unit,
)


def cut_point_grid(v: Valuation, epsilon: Fraction,
                   counter: Optional[QueryCounter] = None) -> list[Fraction]:
    """Points 0 = z_0 < z_1 < ... < z_T = 1 with v([z_{t-1}, z_t]) <= epsilon.

    Every interior point is the leftmost one adding exactly epsilon of mass
    after its predecessor, so consecutive points bound the value of any
    sub-interval lying between them by epsilon.  The points strictly
    increase because ``v``, like every Valuation, has total mass 1: mark t
    has prefix mass t*epsilon <= (ceil(1/epsilon) - 1)*epsilon < 1, so it
    lies strictly between its predecessor (epsilon less mass) and 1.
    """
    epsilon = open_unit("epsilon", epsilon)
    steps = math.ceil(1 / epsilon)
    points = [ZERO]
    for _ in range(steps - 1):
        points.append(cut_query(v, points[-1], epsilon, counter))
    points.append(ONE)
    return points


def solve_bounded(instance: Instance, epsilon: Fraction) -> tuple[list[Piece], AuditReport]:
    """Allocate whole grid segments greedily; requires d <= epsilon*n - 1.

    Returns one (possibly empty) piece per agent covering the cake, plus an
    audit report certifying envy <= epsilon exactly.  Raises
    :class:`ValidationError` when the instance declares too many distinct
    valuations for the requested epsilon.
    """
    epsilon = open_unit("epsilon", epsilon)
    n = instance.n
    distinct = instance.distinct_ids()
    d = len(distinct)
    if d > epsilon * n - 1:
        raise ValidationError(
            f"{d} distinct valuations exceed the bound epsilon*n - 1 = {epsilon * n - 1}")

    counter = QueryCounter()
    marks: set[Fraction] = set()
    for vid in distinct:
        marks.update(cut_point_grid(instance.valuations[vid], epsilon, counter))
    grid = sorted(marks)
    segments = [Interval(a, b) for a, b in zip(grid, grid[1:])]

    valuations = instance.agent_valuations()
    pieces: list[Piece] = [None] * n
    remaining = list(range(len(segments)))
    worth: dict[str, dict[int, Fraction]] = {}  # segment index -> value, per id
    for i, (vid, v) in enumerate(zip(instance.agent_ids, valuations)):
        if not remaining:
            break
        if vid not in worth:
            worth[vid] = {k: eval_query(v, segments[k].lo, segments[k].hi, counter)
                          for k in remaining}
        best = max(remaining, key=worth[vid].__getitem__)
        pieces[i] = segments[best]
        remaining.remove(best)

    report = build_report(pieces, valuations, params={"epsilon": epsilon},
                          checks=[check_grid_size(grid, n)], counter=counter)
    return pieces, report
