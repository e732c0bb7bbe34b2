#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads headline,mult_sweep] \
        [--trace] [--out perfbench/out/summary.json]

Runs ``perfbench/run.py`` once per workload and seed, one process at a time,
exactly as BENCHMARK.json's command does.  For every end-to-end metric it
prints the median, the quartiles and the spread -- the distance between the
quartiles as a share of the median -- next to the metric's bound, and flags
any spread above a third of it.  With ``--trace`` it adds one traced run per
workload and prints its per-layer metrics.  ``--out`` writes everything as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result = bench(workload, seed, 0)
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items()))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={result['wall_s']:.1f}s "
                  f"{values}", flush=True)
        entry = {"runs": runs, "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, share = spread(values)
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                                      "bound": bound}
            flag = "" if share < bound / 3 else "   <-- above a third of the bound"
            print(f"  {name:<14} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {share:.4f} (bound {bound}){flag}", flush=True)
        if args.trace:
            entry["traced"] = bench(workload, args.seeds[0], 1)
            for name, metric in sorted(entry["traced"]["metrics"].items()):
                print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}")
        summary[workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
