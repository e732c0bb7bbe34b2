"""Every root-level BENCH_*.json carries the evidence a performance claim needs.

A BENCH file records alternating parent/change runs of ``perfbench/run.py``
on every workload of ``BENCHMARK.json``.  Its summaries must be the medians
and quartiles of the runs it lists, the deterministic counters must agree
between the two sides, and its claimed metric must win by the rule in
ROADMAP: at least nine pairs in ten, and a median gap wider than the
distance between the parent's quartiles.

A change that counts queries differently says so in a ``counts_change``
field: ``{"counters": [...], "why": "..."}``.  A counter it names may differ
between the sides, but only by being lower on the change side, in every
pair of every workload and of the hold-out.  ``iterations`` can never be
named: a counting change does not change what the solver does.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTERS = ("eval_queries", "cut_queries", "iterations")
SIDES = ("parent", "change")
FILES = sorted(ROOT.glob("BENCH_*.json"))


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def better(metric: str, a: float, b: float) -> bool:
    """True when ``a`` is strictly better than ``b``."""
    return a < b if METRICS[metric]["better"] == "lower" else a > b


def check_counters(bench: dict, pairs: list, name: str) -> None:
    """Counters equal on both sides, or lower on the change side where ``counts_change`` names them."""
    changed = set(bench.get("counts_change", {}).get("counters", ()))
    for k, pair in enumerate(pairs):
        for counter in COUNTERS:
            parent, change = pair["parent"]["metrics"][counter], pair["change"]["metrics"][counter]
            if counter in changed:
                assert change <= parent, (name, k, counter)
            else:
                assert change == parent, (name, k, counter)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_names_its_counting_change(path):
    bench = json.loads(path.read_text())
    if "counts_change" not in bench:
        return
    change = bench["counts_change"]
    assert set(change) == {"counters", "why"} and change["why"].strip()
    assert change["counters"] and set(change["counters"]) <= set(COUNTERS) - {"iterations"}
    if "holdout" in bench:
        check_counters(bench, bench["holdout"]["pairs"], "holdout")


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_records_both_sides_of_every_workload(path):
    bench = json.loads(path.read_text())
    claim = bench["claim"]
    assert claim["workload"] in WORKLOADS and claim["metric"] in METRICS
    assert set(bench["workloads"]) == set(WORKLOADS)
    for name, entry in bench["workloads"].items():
        pairs = entry["pairs"]
        assert len(pairs) >= (10 if name == claim["workload"] else 5), name
        # alternating which side runs first
        assert [p["first"] for p in pairs] == [SIDES[k % 2] for k in range(len(pairs))], name
        for k, pair in enumerate(pairs):
            for side in SIDES:
                assert set(pair[side]["metrics"]) == set(METRICS), (name, k, side)
                assert pair[side]["failed"] == 0, (name, k, side)
        check_counters(bench, pairs, name)
        for metric in METRICS:
            for side in SIDES:
                recorded = entry["summary"][metric][side]
                derived = summary([p[side]["metrics"][metric] for p in pairs])
                for key in ("median", "q1", "q3"):
                    assert math.isclose(recorded[key], derived[key], rel_tol=1e-9), \
                        (name, metric, side, key)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_claim_holds_and_nothing_regresses(path):
    bench = json.loads(path.read_text())
    workload, metric = bench["claim"]["workload"], bench["claim"]["metric"]
    pairs = bench["workloads"][workload]["pairs"]
    wins = sum(better(metric, p["change"]["metrics"][metric], p["parent"]["metrics"][metric])
               for p in pairs)
    assert wins >= math.ceil(0.9 * len(pairs)), f"{wins} wins in {len(pairs)} pairs"
    parent = bench["workloads"][workload]["summary"][metric]["parent"]
    change = bench["workloads"][workload]["summary"][metric]["change"]
    assert better(metric, change["median"], parent["median"])
    assert abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
    for name, entry in bench["workloads"].items():
        for m, spec in METRICS.items():
            before = entry["summary"][m]["parent"]["median"]
            after = entry["summary"][m]["change"]["median"]
            limit = before * (1 + spec["bound"]) if spec["better"] == "lower" \
                else before * (1 - spec["bound"])
            assert (after <= limit) if spec["better"] == "lower" else (after >= limit), (name, m)
