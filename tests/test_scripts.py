"""`scripts/gen_family.py`, the family writer that the README documents, run as a
user runs it: a separate process on the source tree."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tautilt
from tautilt.algebra import algebra_to_dict, load_algebra
from tautilt.families import type_d_square

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "gen_family.py"


def run_gen_family(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(tautilt.__file__).parents[1]))
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=60)


def test_gen_family_writes_the_family_algebra(tmp_path):
    out = tmp_path / "d5.json"
    result = run_gen_family(tmp_path, "--kind", "D2", "--n", "5", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"wrote {out} (dim {type_d_square(5).dimension})\n"
    assert algebra_to_dict(load_algebra(out)) == algebra_to_dict(type_d_square(5))


@pytest.mark.parametrize("kind, n, least", [("D2", 2, 4), ("A2", 0, 1)])
def test_gen_family_rejects_an_out_of_range_n_with_one_error_line(tmp_path, kind, n, least):
    out = tmp_path / "alg.json"
    result = run_gen_family(tmp_path, "--kind", kind, "--n", str(n), "--out", str(out))
    assert result.returncode == 2
    assert [line for line in result.stderr.splitlines() if "error" in line.lower()] == [
        f"gen_family.py: error: argument --n: n must be at least {least}"]
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
    assert not out.exists()


def test_gen_family_reports_an_unwritable_out_in_one_line(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x.json"
    result = run_gen_family(tmp_path, "--kind", "A2", "--n", "3", "--out", str(out))
    assert result.returncode == 5
    assert result.stderr.splitlines() == [f"error: cannot write {out}: File exists"]
    assert result.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
