"""Exact JSON encoding of instances, allocations, and audit reports.

Every number that matters travels as a fraction string -- "2/5", "0", "-3"
-- and anything else (floats, "0.4", exponents) is rejected outright, so a
file round-trips to the identical rationals it was written from.  Floats
appear only in clearly labeled ``*_float`` report fields rendered for
humans.  Serialization is canonical (sorted keys, fixed indentation): equal
objects produce byte-identical files.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .audit import PARAMS, AuditReport
from .cake import Instance, Interval, Piece, ValidationError, Valuation

_FRACTION_RE = re.compile(r"\A[+-]?\d+(?:/\d+)?\Z", re.ASCII)


def parse_fraction(text) -> Fraction:
    """Parse "p/q" or integer strings; anything else is a validation error.

    >>> parse_fraction("2/5")
    Fraction(2, 5)
    >>> parse_fraction("0.4")
    Traceback (most recent call last):
        ...
    cakecut.cake.ValidationError: not a fraction string: '0.4'
    """
    if not isinstance(text, str) or not _FRACTION_RE.match(text):
        raise ValidationError(f"not a fraction string: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator: {text!r}") from None
    except ValueError as exc:  # more digits than int() converts
        raise ValidationError(f"fraction string too long: {exc}") from None


def format_fraction(x: Fraction) -> str:
    return str(x if type(x) is Fraction else Fraction(x))


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def instance_to_obj(instance: Instance) -> dict:
    return {
        "agents": [{"valuation": vid} for vid in instance.agent_ids],
        "valuations": {
            vid: {
                "breakpoints": [format_fraction(b) for b in v.breakpoints],
                "densities": [format_fraction(d) for d in v.densities],
            }
            for vid, v in sorted(instance.valuations.items())
        },
    }


def instance_from_obj(obj) -> Instance:
    """Decode and fully validate an instance object."""
    if not isinstance(obj, dict):
        raise ValidationError("instance must be a JSON object")
    agents = obj.get("agents")
    valuations = obj.get("valuations")
    if not isinstance(agents, list) or not agents:
        raise ValidationError("'agents' must be a non-empty list")
    if not isinstance(valuations, dict) or not valuations:
        raise ValidationError("'valuations' must be a non-empty object")
    ids = []
    for k, entry in enumerate(agents):
        if not isinstance(entry, dict) or not isinstance(entry.get("valuation"), str):
            raise ValidationError(f"agent {k + 1}: expected {{'valuation': <id>}}")
        ids.append(entry["valuation"])
    parsed = {}
    for vid, spec in valuations.items():
        if not isinstance(spec, dict):
            raise ValidationError(f"valuation {vid!r} must be an object")
        bps = spec.get("breakpoints")
        dens = spec.get("densities")
        if not isinstance(bps, list) or not isinstance(dens, list):
            raise ValidationError(f"valuation {vid!r} needs 'breakpoints' and 'densities' lists")
        bps, dens = [parse_fraction(b) for b in bps], [parse_fraction(d) for d in dens]
        try:
            parsed[vid] = Valuation(bps, dens)
        except ValidationError as exc:
            raise ValidationError(f"valuation {vid!r}: {exc}") from None
    return Instance(parsed, ids)


def report_to_obj(report: AuditReport) -> dict:
    ratio = report.min_ratio
    return {
        "passed": report.passed,
        "max_envy": format_fraction(report.max_envy),
        "max_envy_float": float(report.max_envy),
        "min_mult_ratio": None if ratio is None else format_fraction(ratio),
        "min_mult_ratio_float": None if ratio is None else float(ratio),
        "values": [[format_fraction(x) for x in row] for row in report.values],
        "checks": [
            {"name": c.name, "passed": c.passed, "witness": c.witness}
            for c in report.checks
        ],
        "eval_queries": report.eval_count,
        "cut_queries": report.cut_count,
        "growth_iterations": report.phase1_iterations,
        "appending_iterations": report.phase2_iterations,
        "cycle_rotations": report.cycle_rotations,
    }


def allocation_to_obj(pieces: Sequence[Piece], params: dict[str, Fraction],
                      report: Optional[AuditReport] = None) -> dict:
    obj = {
        "pieces": [
            {"agent": i + 1, "lo": None, "hi": None} if p is None else
            {"agent": i + 1, "lo": format_fraction(p.lo), "hi": format_fraction(p.hi)}
            for i, p in enumerate(pieces)
        ],
    }
    for key, value in params.items():
        obj[key] = format_fraction(value)
    if report is not None:
        obj["audit"] = report_to_obj(report)
    return obj


def allocation_from_obj(obj) -> tuple[list[Piece], dict[str, Fraction]]:
    """Decode pieces (in agent order) and the solve parameters."""
    if not isinstance(obj, dict) or not isinstance(obj.get("pieces"), list):
        raise ValidationError("allocation must be an object with a 'pieces' list")
    rows = obj["pieces"]
    n = len(rows)
    pieces: list[Piece] = [None] * n
    seen = set()
    for row in rows:
        if not isinstance(row, dict) or type(row.get("agent")) is not int:  # JSON true is a bool
            raise ValidationError("each piece needs an integer 'agent' field")
        agent = row["agent"]
        if not (1 <= agent <= n) or agent in seen:
            raise ValidationError(f"agent numbers must cover 1..{n} once; got {agent}")
        seen.add(agent)
        lo, hi = row.get("lo"), row.get("hi")
        if lo is None and hi is None:
            continue
        lo, hi = parse_fraction(lo), parse_fraction(hi)
        if not (0 <= lo <= hi <= 1):
            raise ValidationError(f"agent {agent}: [{lo}, {hi}] is not a sub-interval of [0,1]")
        pieces[agent - 1] = Interval(lo, hi)
    params = {key: parse_fraction(obj[key]) for key in PARAMS if key in obj}
    return pieces, params


def read_json(path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ValidationError(f"{path} holds a number too long to read: {exc}") from None
    except RecursionError:
        raise ValidationError(f"{path} nests JSON too deeply") from None


def write_json(path, obj) -> None:
    try:
        Path(path).write_text(dumps_canonical(obj))
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None
