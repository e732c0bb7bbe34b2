"""Command-line front end: generate, solve, audit, and benchmark.

Subcommands::

    gen         write a seeded random instance file
    solve       connected allocation with additive guarantee (--delta)
    solve-mult  multiplicative mode, delta = c/8 (--c)
    bounded     grid-based allocation for few distinct valuations (--epsilon)
    audit       re-verify an allocation file against its instance
    bench       batch runs over seeds with an aggregate report

Exit codes: 0 all audits passed, 1 an audit check failed, 2 malformed
input or parameters.  Failures emit a single JSON diagnostic line on
stderr.  Fractions are written "p/q" on the command line and in files;
floats are rejected.  Output paths default into $CAKECUT_OUTDIR (or the
working directory).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .audit import brute_force_min_envy, build_report
from .cake import ValidationError
from .generate import FAMILIES, GeneratorSpec, generate
from .serialize import (allocation_from_obj, allocation_to_obj, format_fraction,
                        instance_from_obj, instance_to_obj, parse_fraction,
                        read_json, report_to_obj, write_json)
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


def _parse_agent_range(text: str) -> list[int]:
    """"4" -> [4]; "2..8" -> [2, 3, ..., 8]."""
    lo, sep, hi = text.partition("..")
    try:
        bounds = (integer(lo), integer(hi if sep else lo))
    except ValueError:
        raise ValidationError(f"bad agent range {text!r}; use N or LO..HI") from None
    if not (1 <= bounds[0] <= bounds[1]):
        raise ValidationError(f"bad agent range {text!r}")
    return list(range(bounds[0], bounds[1] + 1))


def _report_exit(report, out: Path) -> int:
    if report.passed:
        return EXIT_OK
    _diagnose("audit", f"{len(report.failures())} check(s) failed; see {out}",
              failed=[c.name for c in report.failures()])
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


def _summarize(kind: str, out: Path, report) -> None:
    print(f"{kind}: wrote {out}  max_envy={report.max_envy} "
          f"(~{float(report.max_envy):.4f})  evals={report.eval_count} "
          f"cuts={report.cut_count}  checks={sum(c.passed for c in report.checks)}"
          f"/{len(report.checks)}")


def _cmd_solve(args) -> int:
    instance = instance_from_obj(read_json(args.instance))
    delta = parse_fraction(args.delta)
    pieces, _, report = solve(instance, SolverConfig(delta=delta))
    out = _out_path(args.output, "allocation.json")
    write_json(out, allocation_to_obj(pieces, {"delta": delta}, report))
    _summarize("solve", out, report)
    return _report_exit(report, out)


def _cmd_solve_mult(args) -> int:
    instance = instance_from_obj(read_json(args.instance))
    c = parse_fraction(args.c)
    pieces, _, report = solve_mult(instance, c)
    out = _out_path(args.output, "allocation.json")
    write_json(out, allocation_to_obj(pieces, {"c": c, "delta": c / 8}, report))
    _summarize("solve-mult", out, report)
    return _report_exit(report, out)


def _cmd_bounded(args) -> int:
    instance = instance_from_obj(read_json(args.instance))
    epsilon = parse_fraction(args.epsilon)
    pieces, report = solve_bounded(instance, epsilon)
    out = _out_path(args.output, "allocation.json")
    write_json(out, allocation_to_obj(pieces, {"epsilon": epsilon}, report))
    _summarize("bounded", out, report)
    return _report_exit(report, out)


def _cmd_audit(args) -> int:
    instance = instance_from_obj(read_json(args.instance))
    pieces, params = allocation_from_obj(read_json(args.allocation))
    if len(pieces) != instance.n:
        raise ValidationError(f"allocation has {len(pieces)} pieces for {instance.n} agents")
    if not params:
        raise ValidationError("allocation file carries none of delta/c/epsilon")
    report = build_report(pieces, instance.agent_valuations(), params=params)
    for check in report.checks:
        mark = "ok  " if check.passed else "FAIL"
        suffix = f"  [{check.witness}]" if check.witness else ""
        print(f"{mark} {check.name}{suffix}")
    if args.output:
        write_json(Path(args.output), report_to_obj(report))
    if not report.passed:
        _diagnose("audit", f"{len(report.failures())} check(s) failed",
                  failed=[c.name for c in report.failures()])
        return EXIT_AUDIT
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.count < 1:
        raise ValidationError(f"--count must be >= 1, got {args.count}")
    agent_counts = _parse_agent_range(args.n)
    delta = parse_fraction(args.delta)
    rows = []
    failed = 0
    totals = {"eval_queries": 0, "cut_queries": 0}
    worst_envy = Fraction(0)
    for k in range(args.count):
        spec = GeneratorSpec(n=agent_counts[k % len(agent_counts)], family=args.family,
                             seed=args.seed + k, max_pieces=args.max_pieces)
        instance = generate(spec)
        pieces, _, report = solve(instance, SolverConfig(delta=delta))
        row = {
            "seed": spec.seed,
            "n": spec.n,
            "passed": report.passed,
            "max_envy": format_fraction(report.max_envy),
            "eval_queries": report.eval_count,
            "cut_queries": report.cut_count,
            "growth_iterations": report.phase1_iterations,
            "appending_iterations": report.phase2_iterations,
        }
        if args.oracle_resolution and spec.n <= 3:
            optimum, _ = brute_force_min_envy(instance, args.oracle_resolution)
            row["oracle_min_envy"] = format_fraction(optimum)
            row["envy_above_oracle"] = format_fraction(report.max_envy - optimum)
        rows.append(row)
        failed += not report.passed
        totals["eval_queries"] += report.eval_count
        totals["cut_queries"] += report.cut_count
        worst_envy = max(worst_envy, report.max_envy)
    summary = {
        "count": args.count,
        "family": args.family,
        "delta": format_fraction(delta),
        "agent_counts": agent_counts,
        "violations": failed,
        "worst_max_envy": format_fraction(worst_envy),
        "total_eval_queries": totals["eval_queries"],
        "total_cut_queries": totals["cut_queries"],
        "runs": rows,
    }
    out = _out_path(args.output, "bench-report.json")
    write_json(out, summary)
    print(f"bench: {args.count} runs, {failed} violations, worst max envy "
          f"{worst_envy} (~{float(worst_envy):.4f}); wrote {out}")
    if failed:
        _diagnose("audit", f"{failed} of {args.count} runs failed an audit check")
        return EXIT_AUDIT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cakecut", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded instance file")
    p.add_argument("--n", type=integer, required=True, help="number of agents")
    p.add_argument("--family", default="random",
                   choices=FAMILIES + ("disjoint-blocks",))
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--max-pieces", type=integer, default=8,
                   help="max constant-density segments per valuation")
    p.add_argument("--distinct", type=integer, default=2,
                   help="valuation groups for the grouped family")
    p.add_argument("--grid", type=integer, default=48,
                   help="breakpoint lattice denominator")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("solve", help="connected allocation, additive guarantee")
    p.add_argument("instance")
    p.add_argument("--delta", required=True, help='slack parameter, e.g. "1/10"')
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("solve-mult", help="multiplicative mode (delta = c/8)")
    p.add_argument("instance")
    p.add_argument("--c", required=True, help='ratio slack, e.g. "1/10"')
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_solve_mult)

    p = sub.add_parser("bounded", help="grid allocation for few distinct valuations")
    p.add_argument("instance")
    p.add_argument("--epsilon", required=True, help='envy bound, e.g. "1/4"')
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_bounded)

    p = sub.add_parser("audit", help="re-verify an allocation file")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("-o", "--output", help="also write the recomputed report")
    p.set_defaults(run=_cmd_audit)

    p = sub.add_parser("bench", help="batch solves over consecutive seeds")
    p.add_argument("--count", type=integer, default=100)
    p.add_argument("--n", default="2..8", help='agents per run: "4" or "2..8" (round-robin)')
    p.add_argument("--delta", default="1/10")
    p.add_argument("--family", default="random",
                   choices=FAMILIES + ("disjoint-blocks",))
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--max-pieces", type=integer, default=8)
    p.add_argument("--oracle-resolution", type=integer, default=0,
                   help="if > 0, compare n <= 3 runs against the brute-force optimum")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValidationError as exc:
        _diagnose("validation", str(exc))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
