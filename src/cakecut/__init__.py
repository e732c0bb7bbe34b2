"""Connected cake cutting with exact rational arithmetic.

The package divides the unit interval among n agents with piecewise-constant
valuations so that each agent gets one connected piece (or nothing, which is
possible only when delta >= n/(2n-1)) and no agent envies another by more
than 1/4 + 2*delta/n, using a number of evaluation and cut queries bounded
independently of how complicated the valuations are.  A
companion solver trades the connectivity guarantee's strength for an
arbitrarily small envy bound when agents share few distinct valuations.
Every claimed bound is re-verified with Fraction arithmetic by the audit
module -- nothing is trusted to floating point.
"""

from .cake import (
    Instance,
    Interval,
    Piece,
    QueryCounter,
    ValidationError,
    Valuation,
    cut_query,
    eval_query,
    interval,
)
from .hatvalue import hat_cut, hat_eval, is_bifurcating
from .allocation import EnvyGraph, check_pieces, unassigned_gaps
from .audit import (
    AuditReport,
    Check,
    build_report,
    check_mult_bounds,
    check_phase_invariants,
    check_theorem_bounds,
)
from .solver import SolverConfig, Trace, merge_final, phase_one, phase_two, solve, solve_mult
from .bounded import cut_point_grid, solve_bounded
from .generate import GeneratorSpec, generate
from .serialize import (
    allocation_from_obj,
    allocation_to_obj,
    format_fraction,
    instance_from_obj,
    instance_to_obj,
    parse_fraction,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "Check",
    "EnvyGraph",
    "GeneratorSpec",
    "Instance",
    "Interval",
    "Piece",
    "QueryCounter",
    "SolverConfig",
    "Trace",
    "ValidationError",
    "Valuation",
    "allocation_from_obj",
    "allocation_to_obj",
    "build_report",
    "check_mult_bounds",
    "check_phase_invariants",
    "check_pieces",
    "check_theorem_bounds",
    "cut_point_grid",
    "cut_query",
    "eval_query",
    "format_fraction",
    "generate",
    "hat_cut",
    "instance_from_obj",
    "instance_to_obj",
    "hat_eval",
    "interval",
    "is_bifurcating",
    "merge_final",
    "parse_fraction",
    "phase_one",
    "phase_two",
    "solve",
    "solve_bounded",
    "solve_mult",
    "unassigned_gaps",
]
