"""Command-line front end: generate, solve and audit.

Subcommands::

    gen         write a seeded random instance file
    solve       connected allocation with additive guarantee (--delta)
    solve-mult  multiplicative mode, delta = c/8 (--c)
    bounded     grid-based allocation for few distinct valuations (--epsilon)
    audit       re-verify an allocation file against its instance

Exit codes: 0 all audits passed, 1 an audit check failed, 2 malformed
input, parameters or usage (a missing or unknown argument included).
Every failure emits a single JSON diagnostic line on stderr and no usage
text; ``--help`` prints usage and exits 0.  Fractions are written "p/q" on
the command line and in files; floats are rejected.  Output paths default
into $CAKECUT_OUTDIR (or the working directory).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .audit import build_report
from .cake import ValidationError
from .generate import FAMILIES, GeneratorSpec, generate
from .serialize import (allocation_from_obj, allocation_to_obj, instance_from_obj,
                        instance_to_obj, parse_fraction, read_json, report_to_obj,
                        write_json)
from .solver import SolverConfig, solve, solve_mult
from .bounded import solve_bounded

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_INVALID = 2
OUTDIR_ENV = "CAKECUT_OUTDIR"


def _diagnose(kind: str, message: str, **extra) -> None:
    payload = {"error": kind, "message": message}
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _out_path(explicit, default_name: str) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get(OUTDIR_ENV, ".")) / default_name


def integer(text: str) -> int:
    """An ASCII decimal integer, optionally negative: no spaces, "_" or other digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValidationError(f"not an integer: {text!r}")
    return int(text)


def _report_exit(report, out) -> int:
    if report.passed:
        return EXIT_OK
    failed = [c.name for c in report.failures()]
    see = f"; see {out}" if out else ""
    _diagnose("audit", f"{len(failed)} check(s) failed{see}", failed=failed)
    return EXIT_AUDIT


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(n=args.n, family=args.family, seed=args.seed,
                         max_pieces=args.max_pieces, distinct=args.distinct,
                         grid=args.grid)
    instance = generate(spec)
    out = _out_path(args.output, f"instance-{spec.family}-n{spec.n}-seed{spec.seed}.json")
    write_json(out, instance_to_obj(instance))
    print(out)
    return EXIT_OK


# command -> (parameter, help, parameter help, solver(instance, parameter)).
# The solvers return the pieces first and the audit report last.
SOLVERS = {
    "solve": ("delta", "connected allocation, additive guarantee", 'slack parameter, e.g. "1/10"',
              lambda instance, delta: solve(instance, SolverConfig(delta=delta))),
    "solve-mult": ("c", "multiplicative mode (delta = c/8)", 'ratio slack, e.g. "1/10"',
                   solve_mult),
    "bounded": ("epsilon", "grid allocation for few distinct valuations",
                'envy bound, e.g. "1/4"', solve_bounded),
}


def _cmd_solve(args) -> int:
    param, _, _, solver = SOLVERS[args.command]
    instance = instance_from_obj(read_json(args.instance))
    result = solver(instance, parse_fraction(getattr(args, param)))
    pieces, report = result[0], result[-1]
    out = _out_path(args.output, "allocation.json")
    # The file records the parameters its embedded audit checked.
    write_json(out, allocation_to_obj(pieces, report.params, report))
    print(f"{args.command}: wrote {out}  max_envy={report.max_envy} "
          f"(~{float(report.max_envy):.4f})  evals={report.eval_count} "
          f"cuts={report.cut_count}  checks={sum(c.passed for c in report.checks)}"
          f"/{len(report.checks)}")
    return _report_exit(report, out)


def _cmd_audit(args) -> int:
    instance = instance_from_obj(read_json(args.instance))
    pieces, params = allocation_from_obj(read_json(args.allocation))
    if not params:
        raise ValidationError("allocation file carries none of delta/c/epsilon")
    report = build_report(pieces, instance.agent_valuations(), params=params)
    for check in report.checks:
        mark = "ok  " if check.passed else "FAIL"
        suffix = f"  [{check.witness}]" if check.witness else ""
        print(f"{mark} {check.name}{suffix}")
    if args.output:
        write_json(Path(args.output), report_to_obj(report))
    return _report_exit(report, args.output)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValidationError, so they exit like any other."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cakecut", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded instance file")
    p.add_argument("--n", type=integer, required=True, help="number of agents")
    p.add_argument("--family", default="random", choices=FAMILIES)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--max-pieces", type=integer, default=8,
                   help="max constant-density segments per valuation")
    p.add_argument("--distinct", type=integer, default=2,
                   help="valuation groups for the grouped family")
    p.add_argument("--grid", type=integer, default=48,
                   help="breakpoint lattice denominator")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_gen)

    for command, (param, help_text, param_help, _) in SOLVERS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("instance")
        p.add_argument(f"--{param}", required=True, help=param_help)
        p.add_argument("-o", "--output")
        p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("audit", help="re-verify an allocation file")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("-o", "--output", help="also write the recomputed report")
    p.set_defaults(run=_cmd_audit)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except ValidationError as exc:
        _diagnose("validation", str(exc))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
