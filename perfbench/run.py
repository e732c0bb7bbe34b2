#!/usr/bin/env python3
"""The cakecut benchmark: one workload per invocation, one JSON line out.

    python3 perfbench/run.py --workload headline --seed 0 --seconds 10 --trace 0

Run from the repository root.  The benchmark imports ``cakecut`` from
``src/`` and drives it only through its public API: ``generate``, ``solve``,
``solve_mult``, ``solve_bounded``, the ``serialize`` functions and
``cakecut.cli.main(["audit", ...])``.

A run first sets up its inputs (generate, validate and write the instance
files), then works through the workload's instances in order, pass after
pass, until ``--seconds`` have elapsed and at least one pass is complete.
Each operation solves one instance, writes the allocation file(s) and
replays them through ``cakecut audit``.  Every output is checked; see
``Runner.operation`` for what makes an operation fail.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` the run makes one untraced and one traced pass and reports the
per-layer metrics of the traced pass (see ``tracer.py``).  Times are process
CPU seconds.  ``--smoke`` shrinks every workload to a few small instances.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned.json"
OUT = HERE / "out"

FAMILIES = ("random", "identical", "blocks", "grouped")


@dataclass(frozen=True)
class Workload:
    """A fixed list of instances and what one operation does with each.

    ``mode`` is ``"solve"`` (parameter delta) or ``"solve_mult"`` (parameter
    c).  ``bounded`` adds a ``solve_bounded`` call per instance at epsilon =
    (d+1)/n, the smallest epsilon whose precondition d <= epsilon*n - 1 holds.
    """

    name: str
    mode: str
    param: Fraction
    specs: tuple  # GeneratorSpec keyword dicts, seed offset already applied
    bounded: bool = False


def workload(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload ``name`` with generator seeds offset by ``seed``.

    Seed 0 reproduces the ROADMAP instances.  ``blocks`` instances do not
    depend on the generator seed, so ``headline`` is the same at every seed.
    """
    if name == "headline":
        n = 12 if smoke else 100
        return Workload(
            name, "solve", Fraction(1, 20),
            (dict(n=n, family="blocks", seed=7 + seed),))
    if name == "mult_sweep":
        count = 6 if smoke else 60
        return Workload(
            name, "solve_mult", Fraction(1, 10),
            tuple(dict(n=2 + k % 5, family=FAMILIES[k % 4], seed=1000 + k + count * seed)
                  for k in range(count)))
    if name == "grouped_replay":
        count, n = (2, 10) if smoke else (10, 50)
        return Workload(
            name, "solve", Fraction(1, 10),
            tuple(dict(n=n, family="grouped", distinct=2, seed=7 + k + count * seed)
                  for k in range(count)),
            bounded=True)
    raise KeyError(name)


WORKLOADS = ("headline", "mult_sweep", "grouped_replay")


def cpu() -> float:
    return time.process_time()


def pieces_digest(pieces) -> str:
    """sha256 of the canonical pieces list: only the lo/hi fraction strings."""
    rows = [None if p is None else [str(p.lo), str(p.hi)] for p in pieces]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(p, value) for the highest percentile with >= 10 samples beyond it, or None."""
    n = len(values)
    best = None
    for p in (90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(values, n=1000)[int(p * 10) - 1])
    return best


@dataclass
class Outcome:
    """Deterministic results of one operation, compared across repeats."""

    digests: tuple
    eval_queries: int = 0
    cut_queries: int = 0
    iterations: int = 0
    rotations: int = 0
    checks: int = 0
    max_envy: Fraction = Fraction(0)
    min_ratio: Fraction | None = None
    solve_eval: int = 0
    solve_cut: int = 0

    def key(self):
        return (self.digests, self.eval_queries, self.cut_queries, self.iterations,
                self.rotations, self.checks, self.max_envy, self.min_ratio)


@dataclass
class Timings:
    setup: list = field(default_factory=list)
    solve: list = field(default_factory=list)
    bounded: list = field(default_factory=list)
    replay: list = field(default_factory=list)          # solve / solve_mult files
    replay_bounded: list = field(default_factory=list)  # solve_bounded files
    loop: float = 0.0
    solver_calls: int = 0


class Runner:
    """Runs one workload against the ``cakecut`` package in ``src/``."""

    def __init__(self, wl: Workload, seed: int, smoke: bool, api):
        self.wl = wl
        self.api = api
        self.pinned = None
        if seed == 0 and not smoke:
            self.pinned = json.loads(PINNED.read_text())[wl.name]
        self.dir = OUT / f"{wl.name}-{seed}-{os.getpid()}"
        self.instances = []
        self.paths = []
        self.first: dict[int, Outcome] = {}
        self.last_replay = None
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    # -- set-up -------------------------------------------------------------
    def setup(self, timings: Timings) -> None:
        """Generate, validate and write every instance file; time it."""
        cc, ser = self.api.cakecut, self.api.serialize
        self.dir.mkdir(parents=True, exist_ok=True)
        started = cpu()
        instances, paths = [], []
        for k, spec in enumerate(self.wl.specs):
            instance = cc.generate(cc.GeneratorSpec(**spec))
            problem = instance.first_violation()
            if problem is not None:
                raise RuntimeError(f"generated instance {k} is invalid: {problem}")
            path = self.dir / f"instance-{k}.json"
            ser.write_json(path, ser.instance_to_obj(instance))
            instances.append(instance)
            paths.append(path)
        timings.setup.append(cpu() - started)
        if self.instances and [ser.instance_to_obj(i) for i in instances] != \
                [ser.instance_to_obj(i) for i in self.instances]:
            raise RuntimeError("set-up is not deterministic")
        self.instances, self.paths = instances, paths

    # -- one operation --------------------------------------------------------
    def _replay(self, timings: Timings, k: int, tag: str, pieces, params, report) -> None:
        ser, cli = self.api.serialize, self.api.cli
        if tag != "bounded":
            self.last_replay = (k, tag, pieces, params, report)
        started = cpu()
        path = self.dir / f"allocation-{k}-{tag}.json"
        ser.write_json(path, ser.allocation_to_obj(pieces, params, report))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["audit", str(self.paths[k]), str(path)])
        (timings.replay_bounded if tag == "bounded" else timings.replay).append(cpu() - started)
        if code != 0:
            raise RuntimeError(f"cakecut audit exited {code} on the {tag} allocation")

    def _solve(self, timings: Timings, k: int) -> Outcome:
        cc = self.api.cakecut
        wl, instance = self.wl, self.instances[k]
        started = cpu()
        if wl.mode == "solve":
            pieces, _, report = cc.solve(instance, cc.SolverConfig(delta=wl.param))
            params = {"delta": wl.param}
        else:
            pieces, _, report = cc.solve_mult(instance, wl.param)
            params = {"c": wl.param, "delta": wl.param / 8}
        timings.solve.append(cpu() - started)
        timings.solver_calls += 1
        if not report.passed:
            raise RuntimeError(f"{wl.mode} audit failed: {[c.name for c in report.failures()]}")
        out = Outcome(
            digests=(pieces_digest(pieces),),
            eval_queries=report.eval_count, cut_queries=report.cut_count,
            iterations=report.phase1_iterations + report.phase2_iterations,
            rotations=report.cycle_rotations, checks=len(report.checks),
            max_envy=report.max_envy, min_ratio=report.min_ratio,
            solve_eval=report.eval_count, solve_cut=report.cut_count)
        self._replay(timings, k, wl.mode, pieces, params, report)
        if wl.bounded:
            epsilon = Fraction(len(instance.distinct_ids()) + 1, instance.n)
            started = cpu()
            pieces, report = cc.solve_bounded(instance, epsilon)
            timings.bounded.append(cpu() - started)
            timings.solver_calls += 1
            if not report.passed:
                raise RuntimeError(f"solve_bounded audit failed: {[c.name for c in report.failures()]}")
            out.digests += (pieces_digest(pieces),)
            out.eval_queries += report.eval_count
            out.cut_queries += report.cut_count
            out.checks += len(report.checks)
            out.max_envy = max(out.max_envy, report.max_envy)
            self._replay(timings, k, "bounded", pieces, {"epsilon": epsilon}, report)
        return out

    def operation(self, timings: Timings, k: int) -> Outcome | None:
        """Solve instance k; None when the operation fails.

        It fails when it raises, when a report or an ``audit`` replay does
        not pass, when at seed 0 a pieces digest differs from the pinned one,
        or when its results differ from an earlier repeat in this run.
        """
        self.attempted += 1
        try:
            out = self._solve(timings, k)
            if self.pinned is not None and list(out.digests) != self.pinned[k]:
                raise RuntimeError(f"pieces digest {out.digests} differs from the pinned one")
            earlier = self.first.setdefault(k, out)
            if earlier.key() != out.key():
                raise RuntimeError("results differ from an earlier repeat")
        except Exception as exc:  # every failure is counted, the run goes on
            self.failed += 1
            self.errors.append(f"instance {k}: {type(exc).__name__}: {exc}")
            return None
        return out

    def replay_again(self, timings: Timings) -> None:
        """Replay the last solver allocation once more, as one more operation."""
        self.attempted += 1
        try:
            self._replay(timings, *self.last_replay)
        except Exception as exc:  # counted like any failed operation
            self.failed += 1
            self.errors.append(f"replay: {type(exc).__name__}: {exc}")

    def check(self, ok: bool, message: str) -> None:
        """Count a whole-run cross-check as one more operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)

    def run_pass(self, timings: Timings) -> list:
        return [self.operation(timings, k) for k in range(len(self.instances))]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def pass_totals(outcomes) -> dict:
    """Deterministic totals over one pass; None entries are failed operations."""
    done = [o for o in outcomes if o is not None]
    ratios = [o.min_ratio for o in done if o.min_ratio is not None]
    return {
        "eval_queries": sum(o.eval_queries for o in done),
        "cut_queries": sum(o.cut_queries for o in done),
        "iterations": sum(o.iterations for o in done),
        "rotations": sum(o.rotations for o in done),
        "checks": sum(o.checks for o in done),
        "max_envy": max((o.max_envy for o in done), default=Fraction(0)),
        "min_ratio": min(ratios) if ratios else None,
        "solve_eval": sum(o.solve_eval for o in done),
        "solve_cut": sum(o.solve_cut for o in done),
        "digests": [list(o.digests) if o else None for o in outcomes],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# Set-up is repeated at least SETUP_MIN times and until it has used
# SETUP_CPU_S seconds (at most SETUP_MAX times); setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_CPU_S = 11, 500, 0.5
# A pass of headline replays one file; replay it again up to this many samples.
REPLAY_MIN = 5


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced run: set-up repeats, then whole passes until ``seconds`` elapse.

    Only whole passes run, so every instance is solved equally often and the
    medians and the rate do not depend on where the time ran out.
    """
    timings = Timings()
    while len(timings.setup) < SETUP_MIN or \
            (sum(timings.setup) < SETUP_CPU_S and len(timings.setup) < SETUP_MAX):
        runner.setup(timings)
    started_wall, started_cpu = time.perf_counter(), cpu()
    first = runner.run_pass(timings)
    passes = 1
    while time.perf_counter() - started_wall < seconds:
        runner.run_pass(timings)
        passes += 1
    timings.loop = cpu() - started_cpu
    while len(timings.replay) < REPLAY_MIN and runner.last_replay is not None:
        runner.replay_again(timings)
    totals = pass_totals(first)
    metrics = {
        "setup_s": (median(timings.setup), "s"),
        "solve_s": (median(timings.solve), "s"),
        "replay_s": (median(timings.replay), "s"),
        "solves_per_s": (timings.solver_calls / timings.loop, "1/s"),
        "eval_queries": (totals["eval_queries"], "count"),
        "cut_queries": (totals["cut_queries"], "count"),
        "iterations": (totals["iterations"], "count"),
        "min_ratio": (float(totals["min_ratio"] or 0), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {"timings": timings, "totals": totals, "passes": passes}
    return metrics, info


def traced(runner: Runner) -> tuple[dict, dict]:
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    from tracer import Tracer

    phases = {"growth": [0, 0, 0, 0], "appending": [0, 0, 0, 0]}  # eval, cut, iters, rotations
    labels: dict[str, float] = {}
    sizes = {"bytes": 0, "grid_points": 0}

    def phase_hook(phase, counter_pos, iters_attr):
        def before(args, kwargs):
            counter = args[counter_pos] if len(args) > counter_pos else kwargs.get("counter")
            trace = args[counter_pos + 1] if len(args) > counter_pos + 1 else kwargs.get("trace")
            start = (counter.eval_count, counter.cut_count,
                     getattr(trace, iters_attr), trace.cycle_rotations)

            def after(_result):
                now = (counter.eval_count, counter.cut_count,
                       getattr(trace, iters_attr), trace.cycle_rotations)
                for i in range(4):
                    phases[phase][i] += now[i] - start[i]
            return after
        return before

    def invariants_hook(args, kwargs):
        label = args[3] if len(args) > 3 else kwargs["phase"]
        start = time.perf_counter()

        def after(_result):
            labels[label] = labels.get(label, 0.0) + time.perf_counter() - start
        return after

    def write_hook(args, kwargs):
        path = Path(args[0] if args else kwargs["path"])

        def after(_result):
            sizes["bytes"] += path.stat().st_size
        return after

    def grid_hook(_args, _kwargs):
        def after(grid):
            sizes["grid_points"] += len(grid)
        return after

    hooks = {
        "solver.phase_one": phase_hook("growth", 2, "phase1_iterations"),
        "solver.phase_two": phase_hook("appending", 3, "phase2_iterations"),
        "audit.check_phase_invariants": invariants_hook,
        "serialize.write": write_hook,
        "bounded.cut_point_grid": grid_hook,
    }

    base = Timings()
    runner.setup(base)
    untraced_pass = runner.run_pass(base)
    timings = Timings()
    with Tracer(hooks) as tracer:
        runner.setup(timings)
        traced_pass = runner.run_pass(timings)
    plain, seen = pass_totals(untraced_pass), pass_totals(traced_pass)
    runner.check(plain == seen, "traced pass differs from the untraced pass")
    runner.check((phases["growth"][0] + phases["appending"][0],
                  phases["growth"][1] + phases["appending"][1]) == (seen["solve_eval"], seen["solve_cut"]),
                 "per-phase query counts do not sum to the reports' totals")

    s = tracer.spans
    hat_cuts_growth = s["hatvalue.hat_cut"].scoped.get("phase_one", 0)
    growth, appending = phases["growth"], phases["appending"]
    solve_self = s["solver.solve"].self_time + s["solver.solve_mult"].self_time
    m = {}
    for name in ("cake.prefix", "cake.leftmost_reach", "cake.next_mass", "cake.value",
                 "hatvalue.hat_eval", "hatvalue.hat_cut", "hatvalue.is_bifurcating"):
        m[f"{name}.calls"] = (s[name].calls, "count")
        m[f"{name}.self_s"] = (s[name].self_time, "s")
    for name in ("cake.eval_query", "cake.cut_query"):
        m[f"{name}.counted"] = (s[name].counted, "count")
        m[f"{name}.uncounted"] = (s[name].calls - s[name].counted, "count")
    m.update({
        "solver.phase_one.total_s": (s["solver.phase_one"].total, "s"),
        "solver.phase_one.self_s": (s["solver.phase_one"].self_time, "s"),
        "solver.growth.iterations": (growth[2], "count"),
        "solver.growth.eval_queries": (growth[0], "count"),
        "solver.growth.cut_queries": (growth[1], "count"),
        "solver.growth.peeks": (s["cake.next_mass"].scoped.get("phase_one", 0), "count"),
        "solver.growth.claim_yield": (growth[2] / hat_cuts_growth if hat_cuts_growth else 0.0, "ratio"),
        "solver.phase_two.total_s": (s["solver.phase_two"].total, "s"),
        "solver.phase_two.self_s": (s["solver.phase_two"].self_time, "s"),
        "solver.appending.iterations": (appending[2], "count"),
        "solver.appending.eval_queries": (appending[0], "count"),
        "solver.appending.cut_queries": (appending[1], "count"),
        "solver.appending.rotations": (appending[3], "count"),
        "solver.merge_final.total_s": (s["solver.merge_final"].total, "s"),
        "solver.unattributed_s": (solve_self, "s"),
    })
    for name in ("hat_matrix", "envy_edges", "resolve_cycles", "unassigned_gaps"):
        m[f"allocation.{name}.calls"] = (s[f"allocation.{name}"].calls, "count")
        m[f"allocation.{name}.total_s"] = (s[f"allocation.{name}"].total, "s")
    for label in ("phase1_end", "phase2_end"):
        m[f"audit.check_phase_invariants.{label}.total_s"] = (labels.get(label, 0.0), "s")
    for name in ("check_theorem_bounds", "check_mult_bounds", "build_report"):
        m[f"audit.{name}.total_s"] = (s[f"audit.{name}"].total, "s")
    m.update({
        "audit.checks": (seen["checks"], "count"),
        "audit.hat_eval.calls": (s["hatvalue.hat_eval"].scoped.get("audit", 0), "count"),
        "audit.max_envy": (float(seen["max_envy"]), "share"),
        "bounded.solve_bounded.total_s": (s["bounded.solve_bounded"].total, "s"),
        "bounded.cut_point_grid.calls": (s["bounded.cut_point_grid"].calls, "count"),
        "bounded.cut_point_grid.total_s": (s["bounded.cut_point_grid"].total, "s"),
        "bounded.grid_points": (sizes["grid_points"], "count"),
        "serialize.write.total_s": (s["serialize.write"].total, "s"),
        "serialize.bytes": (sizes["bytes"], "bytes"),
        "serialize.instance_from_obj.total_s": (s["serialize.instance_from_obj"].total, "s"),
        "serialize.allocation_from_obj.total_s": (s["serialize.allocation_from_obj"].total, "s"),
        "serialize.parse_fraction.calls": (s["serialize.parse_fraction"].calls, "count"),
        "cli.audit.total_s": (s["cli.audit"].total, "s"),
        "generate.total_s": (s["generate"].total, "s"),
        "trace.solve_s": (median(timings.solve), "s"),
        "trace.overhead": (median(timings.solve) / median(base.solve), "ratio"),
    })
    return m, {}


def load_api():
    """Import ``cakecut`` from ``src/`` of this checkout, or exit with code 2."""
    if not (SRC / "cakecut" / "__init__.py").is_file():
        print(f"perfbench: no cakecut sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import cakecut
    import cakecut.cli
    import cakecut.serialize
    if Path(cakecut.__file__).resolve().parent != (SRC / "cakecut").resolve():
        print(f"perfbench: imported cakecut from {cakecut.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return argparse.Namespace(cakecut=cakecut, serialize=cakecut.serialize, cli=cakecut.cli)


def report(wl: Workload, metrics: dict, runner: Runner, info: dict, trace: bool) -> dict:
    """Print the human-readable table, then return the result object."""
    print(f"workload {wl.name}: {len(wl.specs)} instance(s) per pass, {wl.mode}")
    if not trace:
        t = info["timings"]
        print(f"passes: {info['passes']}; set-ups: {len(t.setup)}")
        for label, values in (("solve_s", t.solve), ("bounded_s", t.bounded), ("replay_s", t.replay),
                              ("replay_bounded_s", t.replay_bounded)):
            if values:
                extra = tail(values)
                extra = f", p{extra[0]:g} {extra[1]:.6f}" if extra else ""
                print(f"  {label:<16} median {median(values):.6f} s over {len(values)}{extra}")
        totals = info["totals"]
        print(f"  max_envy     {totals['max_envy']} (~{float(totals['max_envy']):.6f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    share = runner.failed / max(runner.attempted, 1)
    print(f"failed_share {share:g} ({runner.failed} of {runner.attempted} operations)")
    for error in runner.errors[:10]:
        print(f"  FAILED {error}")
    return {
        "correct": runner.failed == 0,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every generator seed; 0 gives the ROADMAP instances")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few small instances only")
    args = parser.parse_args(argv)

    api = load_api()
    wl = workload(args.workload, args.seed, args.smoke)
    runner = Runner(wl, args.seed, args.smoke, api)
    try:
        if args.trace:
            metrics, info = traced(runner)
        else:
            metrics, info = measure(runner, args.seconds)
    finally:
        runner.close()
    result = report(wl, metrics, runner, info, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
