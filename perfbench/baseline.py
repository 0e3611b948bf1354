#!/usr/bin/env python3
"""Record the benchmark's baseline: medians and quartiles over many seeds.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload in BENCHMARK.json this runs `run.py --trace 0` once per
seed, as separate processes, and reports each end-to-end metric's median,
quartiles and spread (the distance between the quartiles as a share of the
median) next to the metric's bound.  It then runs `run.py --trace 1` three
times with the first seed; their call counts and other counts must be
identical (the determinism check).  Run metadata (revision, `src/` line
count, Python version, processor count) is recorded next to the numbers.
Exits 1 if any run is incorrect or any count differs between traced runs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_RUNS = 3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def metadata() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"revision": rev, "src_lines": src_lines, "python": platform.python_version(),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    report = {"metadata": metadata(), "run_seconds": seconds, "seeds": seeds,
              "workloads": {}}
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        ok &= all(r["correct"] for r in runs)
        e2e = {}
        for metric, bound in bounds.items():
            s = summary([r["metrics"][metric]["value"] for r in runs])
            s["bound"] = bound
            e2e[metric] = s
            flag = "ok" if s["spread"] < bound / 3 else "WIDE"
            print(f"{name} {metric}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f} bound {bound} {flag}")
        traced = [run_once(name, seeds[0], seconds, 1) for _ in range(TRACE_RUNS)]
        ok &= all(r["correct"] for r in traced)
        layer, differ = {}, []
        for metric, m in traced[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in traced]
            if m["unit"] in ("count", "ratio") and len(set(values)) > 1:
                differ.append(metric)
            layer[metric] = summary(values) | {"unit": m["unit"]}
        ok &= not differ
        print(f"{name} determinism over {TRACE_RUNS} traced runs: "
              + ("identical counts" if not differ else "DIFFER: " + ", ".join(differ)))
        report["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": e2e,
            "per_layer": layer,
            "counts_identical": not differ,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
