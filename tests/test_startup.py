"""Each command imports only the layers it runs.

Every case starts a fresh interpreter, runs one command the way the console
script does, and lists the `tautilt.*` modules loaded when the command ends.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import tautilt
from tautilt.algebra import serialize_algebra
from tautilt.cli import main
from tautilt.families import type_d_square
from tautilt.verify import CLAIMS

DATA = Path(__file__).resolve().parent / "data"
BASE = {"tautilt", "tautilt.algebra", "tautilt.cli", "tautilt.errors", "tautilt.util"}
ENGINE = {"tautilt.tilting", "tautilt.dags", "tautilt.verify"}
# What `enumerate` and `hasse` run: the catalog and its layers, and the enumeration.
ENUMERATION = BASE | {"tautilt.catalog", "tautilt.linalg", "tautilt.modules", "tautilt.tilting"}

# The console script, with the loaded modules written to argv[1] at exit.
SCRIPT = """
import atexit, json, pathlib, sys
out = pathlib.Path(sys.argv.pop(1))
atexit.register(lambda: out.write_text(json.dumps(sorted(sys.modules))))
from tautilt.cli import main
sys.exit(main())
"""


def modules_after(tmp_path: Path, *args: str) -> set[str]:
    out = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(Path(tautilt.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", SCRIPT, str(out), *args], cwd=tmp_path,
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(json.loads(out.read_text()))


def loaded_after(tmp_path: Path, *args: str) -> set[str]:
    return {m for m in modules_after(tmp_path, *args) if m.split(".")[0] == "tautilt"}


@pytest.mark.parametrize("args, expected", [
    (["validate", str(DATA / "hereditary_d8.json")], BASE),
    (["family", "--kind", "A2", "--n", "3", "--out", "a2.json"], BASE | {"tautilt.families"}),
    (["--help"], BASE),
    (["verify", "--help"], BASE),
], ids=["validate", "family", "help", "verify-help"])
def test_a_command_loads_exactly_what_it_runs(tmp_path, args, expected):
    assert loaded_after(tmp_path, *args) == expected


def test_extend_loads_only_the_algebra_layer(tmp_path):
    (tmp_path / "d2.json").write_text(serialize_algebra(type_d_square(5)))
    assert loaded_after(tmp_path, "extend", "d2.json", "--source", "5", "--out", "b.json") == BASE


@pytest.mark.parametrize("args, extra", [
    (["enumerate", "d2.json"], set()),
    (["enumerate", "--kind", "tilt", "d2.json"], set()),
    (["hasse", "d2.json"], set()),
    (["hasse", "--dot", "d2.dot", "d2.json"], {"tautilt.dags"}),
], ids=["enumerate", "enumerate-tilt", "hasse", "hasse-dot"])
def test_enumerate_and_hasse_load_no_verifier(tmp_path, args, extra):
    """No `verify`, `counting` or `families`; `dags` only for the DOT file."""
    (tmp_path / "d2.json").write_text(serialize_algebra(type_d_square(5)))
    assert loaded_after(tmp_path, *args) == ENUMERATION | extra


def test_catalog_loads_no_enumeration_and_no_verifier(tmp_path):
    loaded = loaded_after(tmp_path, "catalog", str(DATA / "hereditary_d8.json"))
    assert "tautilt.catalog" in loaded
    assert not loaded & ENGINE


def test_verify_help_shows_the_claims_of_verify():
    """`--claims` spells out its default so that `cli` need not load `verify`;
    it must stay the claim table's order."""
    result = CliRunner().invoke(main, ["verify", "--help"])
    assert result.exit_code == 0
    assert f"[default:{','.join(CLAIMS)}]" in "".join(result.output.split())


@pytest.mark.parametrize("args", [
    ["validate", str(DATA / "hereditary_d8.json")],
    ["catalog", str(DATA / "hereditary_d8.json")],
], ids=["validate", "catalog"])
def test_a_command_that_sorts_no_arrow_codes_loads_no_array_module(tmp_path, args):
    """`util.sorted_codes` imports `array` when it runs, so these commands map
    no extension module for it: its pages would lift their peak RSS."""
    assert "array" not in modules_after(tmp_path, *args)
