"""Smoke test of the benchmark at tiny sizes: every oracle and the tracer, end to end.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import Result, stau_count, tau_count, workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_all(trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", "--workload", "all",
                           "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_end_to_end_run_checks_every_oracle():
    results = run_all(0)
    assert set(results) == set(workloads(smoke=True))
    names = {m["name"] for m in BENCH["end_to_end"]}
    for res in results.values():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 9
        assert set(res["metrics"]) == names
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_runs_report_every_layer_and_repeat_their_counts():
    first, second = run_all(1), run_all(1)
    names = {m["name"] for m in BENCH["per_layer"]}
    for name, res in first.items():
        assert res["correct"] and second[name]["correct"]
        assert set(res["metrics"]) == names
        for metric, m in res["metrics"].items():
            if m["unit"] in ("count", "ratio"):
                assert m["value"] == second[name]["metrics"][metric]["value"], metric
        tilting_calls = res["metrics"]["tilting.is_tilting.calls"]["value"]
        assert (tilting_calls > 0) == name.startswith("verify-")


@pytest.mark.parametrize("name", list(workloads(smoke=True)))
def test_oracles_accept_the_real_output_and_reject_any_changed_digit(name, tmp_path):
    wl = workloads(smoke=True)[name]
    wl.prepare(random.Random(3), tmp_path)
    op = run.spawn(run.CLI + wl.op_args(), tmp_path)
    out = op.result.stdout
    assert wl.check(op.result) is None
    assert wl.check(Result(1, out, "")) is not None
    for i, ch in enumerate(out):
        if ch.isdigit():
            wrong = out[:i] + str((int(ch) + 1) % 10) + out[i + 1:]
            assert wl.check(Result(0, wrong, "")) is not None, wrong
    if name.startswith("hasse-"):
        lines = wl.dot_path.read_text(encoding="utf-8").splitlines(keepends=True)
        wl.dot_path.write_text("".join(lines[:-2] + lines[-1:]), encoding="utf-8")
        assert wl.check(op.result) is not None


def test_recorded_table_output_follows_the_recurrences():
    for path in (HERE / "expected").glob("tables-*.txt"):
        rows = {}
        family = None
        for line in path.read_text(encoding="utf-8").splitlines():
            words = line.split()
            if words[:1] == ["family"]:
                family = words[1]
            elif family and words and words[0] in ("n", "tau-tilt", "stau-tilt"):
                rows[(family, words[0])] = [int(w) for w in words[1:]]
        for kind in ("A2", "D2"):
            ns = rows[(kind, "n")]
            assert rows[(kind, "tau-tilt")] == [tau_count(kind, n) for n in ns]
            assert rows[(kind, "stau-tilt")] == [stau_count(kind, n) for n in ns]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "all",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
