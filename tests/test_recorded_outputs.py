"""Each recorded CLI output is reproduced byte for byte.

The files under `tests/expected/` and `perfbench/expected/` were recorded
from earlier revisions of the package.  Each case runs one command through
the CLI, on a family algebra written as `tautilt family` writes it,
and compares stdout and every file the command writes with the recordings.
"""
from __future__ import annotations

from pathlib import Path

import pytest
from click.testing import CliRunner

from tautilt.algebra import serialize_algebra
from tautilt.cli import main
from tautilt.families import family

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "tests" / "expected"
DATA = ROOT / "tests" / "data"
TABLES = ROOT / "perfbench" / "expected"


def _family_file(work: Path, kind: str, n: int) -> str:
    path = work / f"{kind.lower()}_{n}.json"
    path.write_text(serialize_algebra(family(kind, n)), encoding="utf-8")
    return str(path)


# Case id -> (arguments, given the work directory; recorded stdout; written file -> recording).
CASES = {
    "tables-10": (lambda w: ["tables", "--nA", "10", "--nD", "10"], TABLES / "tables-10.txt", {}),
    "tables-5": (lambda w: ["tables", "--nA", "5", "--nD", "5"], TABLES / "tables-5.txt", {}),
    "catalog-hered-d8": (lambda w: ["catalog", str(DATA / "hereditary_d8.json")],
                         EXPECTED / "catalog-hered-d8.txt", {}),
    "catalog-hered-e8": (lambda w: ["catalog", str(DATA / "hereditary_e8.json")],
                         EXPECTED / "catalog-hered-e8.txt", {}),
    "hasse-a2-9": (lambda w: ["hasse", "--dot", str(w / "hasse.dot"), _family_file(w, "A2", 9)],
                   EXPECTED / "hasse-a2-9.txt", {"hasse.dot": EXPECTED / "hasse-a2-9.dot"}),
}
for _kind in ("stau", "tau", "tilt"):
    CASES[f"enumerate-{_kind}-d2-6"] = (
        lambda w, kind=_kind: ["enumerate", "--kind", kind, _family_file(w, "D2", 6)],
        EXPECTED / f"enumerate-{_kind}-d2-6.txt", {})
for _kind, _n in (("D2", 6), ("A2", 9), ("A2", 10), ("D2", 10)):
    _name = f"verify-{_kind.lower()}-{_n}"
    CASES[_name] = (
        lambda w, kind=_kind, n=_n: ["--out-dir", str(w), "verify", "--source", str(n),
                                     _family_file(w, kind, n)],
        EXPECTED / f"{_name}.txt", {"verify_report.json": EXPECTED / f"{_name}-report.json"})


@pytest.mark.parametrize("name", [pytest.param(name, marks=pytest.mark.slow)
                                  if name == "verify-d2-10" else name for name in CASES])
def test_recorded_output_is_reproduced(tmp_path, name):
    args, stdout, written = CASES[name]
    result = CliRunner().invoke(main, args(tmp_path))
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == stdout.read_bytes()
    for file, recorded in written.items():
        assert (tmp_path / file).read_bytes() == recorded.read_bytes(), file
