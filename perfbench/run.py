#!/usr/bin/env python3
"""End-to-end benchmark of the tautilt CLI.

One client in a closed loop: each op is a fresh `tautilt` child process,
started only after the previous one has exited, and its output is checked
against an exact oracle (see workloads.py).  The program is run from the
`src/` directory of the checkout that holds this file.

    python3 perfbench/run.py --workload hasse-a2-11 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --smoke --workload all --seconds 1 --trace 1

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics: `setup_s`, the median time of `tautilt validate` on the
workload's input (interpreter start, import, parse and path basis), `op_s`,
the median time of one op from spawn to exit, and `peak_rss_mb`, the median
of the child's maximum resident set size.  With --trace 1 it holds the
per-layer metrics: the op is run alternately as is and under
trace_child.py, which reports calls and self time per function.  With
`--workload all` each workload is run in turn and its metrics printed by
name and unit.

Every time is a wall time scaled to a reference machine speed: a short
fixed pure-Python workload (`calibrate`) runs before and after each child,
and the child's wall time is multiplied by CALIBRATION_REF_S over the mean
of the two.  On a shared machine whose speed drifts by tens of percent over
seconds to minutes, this keeps the figures of one program steady from run
to run.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from trace_child import RESULT_COUNTS, TRACED  # noqa: E402
from workloads import Result, Workload, workloads  # noqa: E402

# The console script `tautilt` does exactly this.
CLI = [sys.executable, "-c", "import sys; from tautilt.cli import main; sys.exit(main())"]
SETUP_REPEATS = 7
OP_TIMEOUT_S = 150.0
CALIBRATION_REF_S = 0.05


def calibrate() -> float:
    """Wall time of a fixed workload like the program's: Fraction sums and dict updates."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 4000):
        acc += Fraction(k, k + 1)
    buckets: dict[int, int] = {}
    for k in range(100_000):
        buckets[k % 997] = buckets.get(k % 997, 0) + k
    return time.perf_counter() - start


@dataclass
class Op:
    result: Result
    wall_s: float
    peak_rss_mb: float
    scale: float = 1.0  # CALIBRATION_REF_S over the calibration time around the op

    @property
    def time_s(self) -> float:
        return self.wall_s * self.scale


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "TAUTILT_"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], work: Path) -> Op:
    """Run one child to completion; wall time from spawn to exit, and its peak RSS."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=work, env=child_env())
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = Result(proc.returncode, out_path.read_text(encoding="utf-8"),
                    err_path.read_text(encoding="utf-8"))
    return Op(result, wall, usage.ru_maxrss / 1024.0)


def failure(check, op: Op) -> str | None:
    if "Traceback" in op.result.stderr:
        return "traceback on stderr: " + op.result.stderr.strip().splitlines()[-1]
    try:
        return check(op.result)
    except (OSError, ValueError, KeyError, IndexError) as exc:  # unreadable output
        return f"output not understood: {exc!r}"


class Runner:
    """Measures one workload for one seed."""

    def __init__(self, wl: Workload, seconds: float, work: Path):
        self.wl = wl
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.calibrations = [calibrate()]

    def run(self, argv: list[str], check) -> Op:
        op = spawn(argv, self.work)
        self.calibrations.append(calibrate())
        op.scale = 2 * CALIBRATION_REF_S / sum(self.calibrations[-2:])
        self.attempted += 1
        why = failure(check, op)
        if why:
            self.failures.append(why)
            print(f"{self.wl.name}: op failed: {why}", file=sys.stderr)
        return op

    def setup(self) -> float:
        """Median time of `tautilt validate`, after one untimed warm-up run."""
        argv = CLI + self.wl.setup_args()
        self.run(argv, self.wl.check_setup)
        return statistics.median(self.run(argv, self.wl.check_setup).time_s
                                 for _ in range(SETUP_REPEATS))

    def loop(self, one_round) -> None:
        """Call one_round() until the next round would overrun the measuring window."""
        start = time.perf_counter()
        walls: list[float] = []
        while True:
            begin = time.perf_counter()
            one_round()
            walls.append(time.perf_counter() - begin)
            if time.perf_counter() - start + statistics.median(walls) > self.seconds:
                return

    def end_to_end(self) -> dict:
        setup_s = self.setup()
        ops: list[Op] = []
        self.loop(lambda: ops.append(self.run(CLI + self.wl.op_args(), self.wl.check)))
        return {
            "setup_s": (setup_s, "s"),
            "op_s": (statistics.median(op.time_s for op in ops), "s"),
            "peak_rss_mb": (statistics.median(op.peak_rss_mb for op in ops), "MB"),
        }

    def per_layer(self) -> dict:
        trace_path = self.work / "trace.json"
        plain: list[Op] = []
        traced: list[tuple[Op, dict]] = []

        def one_round():
            plain.append(self.run(CLI + self.wl.op_args(), self.wl.check))
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "trace_child.py"), str(trace_path)]
            op = self.run(argv + self.wl.op_args(), self.wl.check)
            traced.append((op, json.loads(trace_path.read_text(encoding="utf-8"))))

        self.loop(one_round)
        first = traced[0][1]
        for _, tr in traced[1:]:
            if any(tr[k] != first[k] for k in ("calls", "counts", "edges")):
                self.failures.append("call counts differ between traced ops")
        out = layer_metrics(plain, traced)
        out["calibration_s"] = (statistics.median(self.calibrations), "s")
        return out


def layer_metrics(plain: list[Op], traced: list[tuple[Op, dict]]) -> dict:
    """Per-layer metrics: medians over the traced ops, plus derived ratios.

    Times measured in a traced child are scaled like the child's wall time.
    """
    def med(get) -> float:
        return statistics.median(op.scale * get(op, tr) for op, tr in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    first = traced[0][1]  # counts repeat exactly across traced ops
    out = {}
    for mod_name, names in TRACED.items():
        for qualname in names:
            span = f"{mod_name}.{qualname}"
            out[f"{span}.calls"] = (first["calls"].get(span, 0), "count")
            out[f"{span}.self_s"] = (
                med(lambda op, tr: tr["self_s"].get(span, 0.0)), "s")
    for name in RESULT_COUNTS:
        if not name.endswith(".hits"):
            out[name] = (first["counts"].get(name, 0), "count")
    plain_s = statistics.median(op.time_s for op in plain)
    pairs = out["tilting.pairs"][0]
    out["pairs_per_s"] = (pairs / plain_s, "1/s")
    out["tilting.enumerate_stau.us_per_pair"] = (
        med(lambda op, tr: ratio(1e6 * tr["total_s"].get("tilting.enumerate_stau", 0.0),
                                 pairs)), "us")
    out["catalog.find_index.iso_per_call"] = (
        ratio(first["edges"].get("catalog.Catalog.find_index>modules.iso", 0),
              first["calls"].get("catalog.Catalog.find_index", 0)), "ratio")
    out["tilting.is_tilting.hit_ratio"] = (
        ratio(first["counts"].get("tilting.is_tilting.hits", 0),
              first["calls"].get("tilting.is_tilting", 0)), "ratio")
    cache = first["opposite_algebra_cache"]
    out["algebra.opposite_algebra.hit_ratio"] = (
        ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio")
    out["process.outside_main_s"] = (
        med(lambda op, tr: op.wall_s - tr["main_s"]), "s")
    out["trace.overhead_s"] = (med(lambda op, tr: op.wall_s) - plain_s, "s")
    return out


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT))
    try:
        wl.prepare(random.Random(seed), work)
        runner = Runner(wl, seconds, work)
        metrics = runner.per_layer() if trace else runner.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)

    table = workloads(smoke=args.smoke)
    names = list(table) if args.workload == "all" else [args.workload]
    if any(n not in table for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(table)}, all")
    if not (SRC / "tautilt" / "cli.py").is_file():
        print(f"error: no tautilt sources at {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind so that the running child is killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    results = {}
    for name in names:
        results[name] = measure(table[name], args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            res = results[name]
            print(f"{name}: attempted {res['attempted']} failed {res['failed']}")
            for metric, m in res["metrics"].items():
                print(f"  {metric} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
