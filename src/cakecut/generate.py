"""Deterministic instance generators for tests and experiments.

All randomness flows through ``random.Random(seed)`` using only integer
draws, so a (family, seed, ...) tuple pins the instance exactly across
platforms.  Densities are built by normalizing small integer weights over a
lattice of breakpoints, which keeps every Fraction's denominator modest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cake import Instance, ValidationError, Valuation

FAMILIES = ("random", "identical", "blocks", "grouped")


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: agent count, valuation family, and a seed.

    ``max_pieces`` caps the number of constant-density segments per
    valuation; ``distinct`` is the number of valuation groups for the
    ``grouped`` family; ``grid`` is the denominator of the breakpoint
    lattice for randomized families.
    """

    n: int
    family: str = "random"
    seed: int = 0
    max_pieces: int = 8
    distinct: int = 2
    grid: int = 48

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"need at least one agent, got n={self.n}")
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.max_pieces < 1:
            raise ValidationError("max_pieces must be >= 1")
        if self.distinct < 1:
            raise ValidationError("distinct must be >= 1")
        if self.grid < 2:
            raise ValidationError("grid must be >= 2")


def _random_valuation(rng: random.Random, max_pieces: int, grid: int) -> Valuation:
    """Integer weights over random lattice breakpoints, normalized to mass 1."""
    k = min(rng.randint(1, max_pieces), grid)
    cuts = [0, *sorted(rng.sample(range(1, grid), k - 1)), grid]
    weights = [rng.randint(0, 9) for _ in range(k)]
    if not any(weights):
        weights[rng.randrange(k)] = 1
    # grid times the mass, summed on the integer lattice
    mass = sum(w * (b - a) for w, a, b in zip(weights, cuts, cuts[1:]))
    return Valuation([Fraction(c, grid) for c in cuts], [Fraction(w * grid, mass) for w in weights])


def _block_valuation(i: int, n: int) -> Valuation:
    """Uniform density n on the block [i/n, (i+1)/n], zero elsewhere."""
    cuts = sorted({0, i, i + 1, n})
    return Valuation([Fraction(c, n) for c in cuts],
                     [Fraction(n if a == i else 0) for a in cuts[:-1]])


def generate(spec: GeneratorSpec) -> Instance:
    """Build the instance pinned by ``spec`` (same spec, same instance).

    Families:

    * ``random``    -- independent random valuation per agent;
    * ``identical`` -- one random valuation shared by everyone;
    * ``blocks``    -- agent i wants only the block [i/n, (i+1)/n];
    * ``grouped``   -- ``distinct`` random valuations dealt round-robin.
    """
    rng = random.Random(spec.seed)
    n = spec.n
    if spec.family == "random":
        valuations = {f"v{i}": _random_valuation(rng, spec.max_pieces, spec.grid)
                      for i in range(n)}
        agent_ids = [f"v{i}" for i in range(n)]
    elif spec.family == "identical":
        valuations = {"v0": _random_valuation(rng, spec.max_pieces, spec.grid)}
        agent_ids = ["v0"] * n
    elif spec.family == "blocks":
        valuations = {f"v{i}": _block_valuation(i, n) for i in range(n)}
        agent_ids = [f"v{i}" for i in range(n)]
    else:  # grouped
        k = min(spec.distinct, n)
        valuations = {f"v{g}": _random_valuation(rng, spec.max_pieces, spec.grid)
                      for g in range(k)}
        agent_ids = [f"v{i % k}" for i in range(n)]
    return Instance(valuations, agent_ids)
