"""Partial allocations, unassigned gaps, and the envy graph.

A partial allocation is a list of pairwise-disjoint pieces indexed by agent
(``None`` marks an agent that holds nothing yet).  The *gaps* are the maximal
unassigned intervals; zero-width gaps are dropped, so the gap list is always
the minimum-cardinality cover of the uncovered part of the cake.

The envy graph (``EnvyGraph``) has an edge i -> j whenever agent i's hat
value for its own piece is strictly below its hat value for j's piece.
Cycles are removed by rotating pieces along a cycle (each agent takes its
successor's piece), which never lowers anyone's hat value and strictly
shrinks the edge set, so at most n^2 rotations occur.  An agent values
cake outside its support at 0, so the graph asks an agent about a piece only
when the agent's support meets it, and when a piece grows, only when the
support meets the added part.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .cake import ONE, ZERO, Interval, Piece, QueryCounter, SupportBoxes, Valuation
from .hatvalue import hat_eval

Pieces = Sequence[Piece]


def check_pieces(pieces: Pieces) -> Optional[str]:
    """None if pieces are pairwise disjoint within [0,1], else a violation."""
    placed = sorted(
        ((p, i) for i, p in enumerate(pieces) if p is not None),
        key=lambda t: (t[0].lo, t[0].hi),
    )
    for p, i in placed:
        if not (ZERO <= p.lo <= p.hi <= ONE):
            return f"piece of agent {i + 1} is not a sub-interval of [0,1]: {p}"
    for (p, i), (q, j) in zip(placed, placed[1:]):
        if p.hi > q.lo:
            return f"pieces of agents {i + 1} and {j + 1} overlap: {p} and {q}"
    return None


def unassigned_gaps(pieces: Pieces) -> list[Interval]:
    """Maximal unassigned intervals, sorted left to right.

    >>> from .cake import interval
    >>> [str(g) for g in unassigned_gaps([interval("1/5", "2/5"), interval("3/5", "7/10")])]
    ['[0, 1/5]', '[2/5, 3/5]', '[7/10, 1]']
    """
    cursor = ZERO
    gaps: list[Interval] = []
    for p in sorted((p for p in pieces if p is not None), key=lambda p: p.lo):
        if p.lo > cursor:
            gaps.append(Interval(cursor, p.lo))
        cursor = max(cursor, p.hi)
    if cursor < ONE:
        gaps.append(Interval(cursor, ONE))
    return gaps


def hat_matrix(pieces: Pieces, valuations: Sequence[Valuation],
               counter: Optional[QueryCounter] = None) -> list[list[Fraction]]:
    """H[i][j] = hat value, for agent i, of the piece agent j holds.

    Every entry is asked; ``EnvyGraph`` builds the same matrix asking only
    the agents whose support meets each piece.
    """
    return [[hat_eval(v, p, counter) for p in pieces] for v in valuations]


def envy_edges(matrix: list[list[Fraction]]) -> list[set[int]]:
    """Successor sets of the envy graph encoded by a hat-value matrix."""
    n = len(matrix)
    return [
        {j for j in range(n) if j != i and matrix[i][i] < matrix[i][j]}
        for i in range(n)
    ]


def _find_cycle(graph: Sequence[set[int]]) -> Optional[list[int]]:
    """First cycle under a lowest-index-first depth-first search, or None."""
    n = len(graph)
    color = [0] * n  # 0 unseen, 1 on stack, 2 done
    parent: dict[int, int] = {}
    for root in range(n):
        if color[root] != 0:
            continue
        stack = [(root, iter(sorted(graph[root])))]
        color[root] = 1
        while stack:
            u, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == 0:
                    parent[w] = u
                    color[w] = 1
                    stack.append((w, iter(sorted(graph[w]))))
                    advanced = True
                    break
                if color[w] == 1:
                    cycle = [u]
                    while cycle[-1] != w:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[u] = 2
                stack.pop()
    return None


def resolve_cycles(pieces: list[Piece], matrix: list[list[Fraction]]) -> list[list[int]]:
    """Rotate pieces along envy cycles, in place, until the graph is acyclic.

    Works purely on a precomputed hat-value matrix: rotating ownership only
    permutes matrix columns, so no new queries are needed.  Returns the
    rotated cycles in order.  Each rotation must strictly decrease the number
    of envy edges, which bounds the loop by n^2 rotations; a rotation that
    does not raises ``RuntimeError``.
    """
    cycles: list[list[int]] = []
    edges = envy_edges(matrix)
    count = sum(len(s) for s in edges)
    while (cycle := _find_cycle(edges)) is not None:
        cycles.append(cycle)
        # Each agent in the cycle takes its successor's piece, and every
        # matrix row its successor's column.
        shifted = cycle[1:] + cycle[:1]
        for row in (pieces, *matrix):
            moved = [row[j] for j in shifted]
            for agent, x in zip(cycle, moved):
                row[agent] = x
        edges = envy_edges(matrix)
        new_count = sum(len(s) for s in edges)
        if new_count >= count:
            raise RuntimeError(f"rotating cycle {cycle} left {new_count} envy edges, "
                               f"not fewer than {count}")
        count = new_count
    return cycles


class EnvyGraph:
    """The appending phase's envy graph over a partial allocation.

    ``matrix[i][j]`` is agent i's hat value for the piece agent j holds,
    ``succ[i]`` the agents that i envies and ``in_deg[j]`` the number of
    agents that envy j.  Queries are issued only to build the matrix and to
    re-evaluate a piece that grows, and only to the agents whose support box
    (``boxes``) meets the piece, or the part it grows by: an agent values
    cake outside its support at 0, and a hat value below 1/4 is the plain
    value.  Rotations just permute columns.
    """

    def __init__(self, pieces: Pieces, valuations: Sequence[Valuation],
                 counter: Optional[QueryCounter] = None):
        self.pieces = list(pieces)
        self.valuations = valuations
        self.counter = counter
        self.boxes = SupportBoxes(valuations)
        self.matrix = [[ZERO] * len(self.pieces) for _ in valuations]
        for j, p in enumerate(self.pieces):
            for i in self._meeting(p.lo, p.hi) if p is not None else ():
                self.matrix[i][j] = hat_eval(valuations[i], p, counter)
        self._index()

    def _meeting(self, lo: Fraction, hi: Fraction) -> set[int]:
        """The agents whose support meets the open interval (lo, hi)."""
        if lo >= hi:
            return set()
        boxes = self.boxes
        left, right = boxes.floor(lo), boxes.ceil(hi)
        return {i for i, (a, b) in enumerate(zip(boxes.lo, boxes.hi)) if a < right and b > left}

    def _index(self) -> None:
        self.succ = envy_edges(self.matrix)
        self.in_deg = [0] * len(self.pieces)
        for out in self.succ:
            for j in out:
                self.in_deg[j] += 1

    def resolve(self) -> list[list[int]]:
        """Rotate every envy cycle away; returns the rotated cycles."""
        if not any(self.succ):
            return []
        cycles = resolve_cycles(self.pieces, self.matrix)
        if cycles:
            self._index()
        return cycles

    def source(self) -> int:
        """Lowest-index agent nobody envies; raises when everyone is envied."""
        for i, d in enumerate(self.in_deg):
            if d == 0:
                return i
        raise RuntimeError("envy graph has no source; resolve cycles first")

    def grow(self, s: int, piece: Piece) -> None:
        """Give agent s ``piece``, which contains its old one, and update the graph.

        Only column s changes, and only upward: s may stop envying others,
        and others may start envying s.  Only the agents whose support meets
        an added part, [piece.lo, old.lo] or [old.hi, piece.hi], are asked
        again: for any other agent the piece's value and the mass on each
        side of it are unchanged, and so is its hat value.  That holds only
        when both pieces are intervals and the new one contains the old one,
        so anything else raises ``RuntimeError``.
        """
        old = self.pieces[s]
        if old is None or piece is None or piece.lo > old.lo or piece.hi < old.hi:
            raise RuntimeError(f"agent {s + 1}'s piece {old} cannot grow to {piece}")
        self.pieces[s] = piece
        m, succ = self.matrix, self.succ
        for i in self._meeting(piece.lo, old.lo) | self._meeting(old.hi, piece.hi):
            m[i][s] = hat_eval(self.valuations[i], piece, self.counter)
            if i == s:
                dropped = [j for j in succ[s] if m[s][j] <= m[s][s]]
                succ[s].difference_update(dropped)
                for j in dropped:
                    self.in_deg[j] -= 1
            elif s not in succ[i] and m[i][s] > m[i][i]:
                succ[i].add(s)
                self.in_deg[s] += 1

    def hats(self) -> list[Fraction]:
        """Each agent's hat value for its own piece."""
        return [row[i] for i, row in enumerate(self.matrix)]
