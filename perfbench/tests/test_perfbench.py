"""Self-tests of the benchmark, on the tiny ``--smoke`` workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

API = run.load_api()
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bindings():
    """Every name bound in a cakecut module, plus the Valuation class dict."""
    state = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name == "cakecut" or name.startswith("cakecut.")}
    state["Valuation"] = dict(vars(API.cakecut.Valuation))
    return state


def run_main(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_pass_matches_untraced_pass(name):
    runner = run.Runner(run.workload(name, 0, smoke=True), 0, True, API)
    try:
        timings = run.Timings()
        runner.setup(timings)
        plain = run.pass_totals(runner.run_pass(timings))
        with Tracer():
            seen = run.pass_totals(runner.run_pass(run.Timings()))
    finally:
        runner.close()
    assert runner.failed == 0, runner.errors
    assert all(plain["digests"]) and plain == seen


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name):
    before = bindings()
    result = run_main("--workload", name, "--seed", "1", "--trace", "1", "--smoke")
    assert bindings() == before
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # The per-phase split adds up to the solver reports (also checked by the run).
    assert metrics["solver.growth.eval_queries"] + metrics["solver.appending.eval_queries"] \
        <= metrics["cake.eval_query.counted"]
    assert metrics["trace.overhead"] > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = run_main("--workload", name, "--seed", "2", "--seconds", "0", "--smoke")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name_, entry in result["metrics"].items():
        assert entry["unit"] == units[name_] and entry["value"] > 0


def test_tracer_restores_every_binding():
    before = bindings()
    with Tracer():
        during = bindings()
        assert during["cakecut.solver"]["hat_cut"] is not before["cakecut.solver"]["hat_cut"]
        assert during["cakecut.cli"]["instance_from_obj"] is not before["cakecut.cli"]["instance_from_obj"]
        assert during["cakecut"]["solve"] is not before["cakecut"]["solve"]
        assert during["Valuation"]["prefix"] is not before["Valuation"]["prefix"]
    assert bindings() == before


def test_tracer_restores_bindings_when_the_traced_code_raises():
    before = bindings()
    with pytest.raises(ValueError):
        with Tracer():
            API.cakecut.cut_query(API.cakecut.Valuation(["0", "1"], ["1"]), Fraction(0), Fraction(2))
    assert bindings() == before


def test_self_times_add_up_to_the_traced_solve():
    cc = API.cakecut
    instance = cc.generate(cc.GeneratorSpec(n=6, family="blocks"))
    with Tracer() as tracer:
        cc.solve(instance, cc.SolverConfig(delta=Fraction(1, 10)))
    spans = tracer.spans
    total = spans["solver.solve"].total
    # solve's own self time is the part no wrapped layer accounts for.
    attributed = sum(s.self_time for s in spans.values())
    assert total > 0 and attributed == pytest.approx(total, rel=1e-9, abs=1e-9)
    assert spans["cake.prefix"].calls > 0 and spans["solver.phase_one"].calls == 1


def test_counted_queries_need_a_counter():
    cc = API.cakecut
    v = cc.Valuation(["0", "1"], ["1"])
    with Tracer() as tracer:
        cc.eval_query(v, Fraction(0), Fraction(1, 2))
        cc.eval_query(v, Fraction(0), Fraction(1, 2), cc.QueryCounter())
        cc.cut_query(v, Fraction(0), Fraction(1, 2), counter=cc.QueryCounter())
    assert (tracer.spans["cake.eval_query"].calls, tracer.spans["cake.eval_query"].counted) == (2, 1)
    assert tracer.spans["cake.cut_query"].counted == 1


def test_incomplete_checkout_exits_nonzero_without_a_result():
    """A directory holding only BENCHMARK.json and perfbench/ has no program to run."""
    root = run.OUT / "incomplete-checkout"
    shutil.rmtree(root, ignore_errors=True)
    try:
        shutil.copytree(BENCH, root / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", root)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "headline", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
