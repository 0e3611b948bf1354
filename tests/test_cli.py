import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import tautilt
from tautilt.algebra import (Arrow, Quiver, build_algebra, load_algebra,
                             one_point_extension, serialize_algebra)
from tautilt import cli, verify
from tautilt.catalog import build_catalog
from tautilt.cli import main
from tautilt.errors import InvariantViolation, PreconditionError
from tautilt.families import type_a_square, type_d_square

from oracles import algebra_equal_upto_relabel
from test_verify import flip_tau_hom_bit, reverse_one_extension_arrow


@pytest.fixture()
def runner():
    return CliRunner()


def write_algebra(path, algebra):
    path.write_text(serialize_algebra(algebra))
    return str(path)


def test_validate(runner, tmp_path, lambda3):
    f = write_algebra(tmp_path / "l3.json", lambda3)
    result = runner.invoke(main, ["validate", f])
    assert result.exit_code == 0
    assert "dim 5" in result.output


def test_validate_parse_error(runner, tmp_path):
    """An unknown arrow id, a file that is not UTF-8, and JSON nested past the
    recursion limit: each exits 2 with one `error:` line."""
    f = tmp_path / "bad.json"
    for content in (b'{"vertices": ["1"], "arrows": [], "relations": [["x"]]}',
                    b"\xff\xfe{}", b"[" * 100000):
        f.write_bytes(content)
        result = runner.invoke(main, ["validate", str(f)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1


def test_validate_infinite(runner, tmp_path):
    f = tmp_path / "loop.json"
    f.write_text(json.dumps({"vertices": ["1"],
                             "arrows": [{"id": "l", "from": "1", "to": "1"}],
                             "relations": []}))
    result = runner.invoke(main, ["validate", str(f)])
    assert result.exit_code == 3


def test_enumerate_counts(runner, tmp_path):
    f = write_algebra(tmp_path / "a6.json", type_a_square(6))
    result = runner.invoke(main, ["enumerate", f, "--kind", "stau"])
    assert result.exit_code == 0
    assert result.output.strip().splitlines()[-1] == "count 169"

    f4 = write_algebra(tmp_path / "d4.json", type_d_square(4))
    result = runner.invoke(main, ["enumerate", f4, "--kind", "tau"])
    assert result.output.strip().splitlines()[-1] == "count 6"

    f5 = write_algebra(tmp_path / "a5.json", type_a_square(5))
    result = runner.invoke(main, ["enumerate", f5, "--kind", "tilt"])
    assert result.output.strip().splitlines()[-1] == "count 2"


def test_enumerate_listing_is_json(runner, tmp_path, a2):
    f = write_algebra(tmp_path / "a2.json", a2)
    result = runner.invoke(main, ["enumerate", f])
    lines = result.output.strip().splitlines()
    pairs = [json.loads(line) for line in lines[:-1]]
    assert len(pairs) == 5
    assert all({"summands", "support_complement", "g"} == set(p) for p in pairs)


def test_hasse_output(runner, tmp_path, a2, lambda3):
    f = write_algebra(tmp_path / "a2.json", a2)
    dot = tmp_path / "h.dot"
    result = runner.invoke(main, ["hasse", f, "--dot", str(dot)])
    assert result.exit_code == 0
    assert "vertices 5 arrows 5" in result.output
    text = dot.read_text()
    assert text.startswith("digraph")
    assert text.count("->") == 5

    f3 = write_algebra(tmp_path / "l3.json", lambda3)
    result = runner.invoke(main, ["hasse", f3])
    assert "vertices 12" in result.output


def test_extend_round_trip(runner, tmp_path, a2, lambda3):
    f = write_algebra(tmp_path / "a2.json", a2)
    out = tmp_path / "b.json"
    result = runner.invoke(main, ["extend", f, "--source", "2", "--out", str(out)])
    assert result.exit_code == 0
    assert "new vertex 3" in result.output
    extended = load_algebra(out)
    vmap = {v: v for v in extended.quiver.vertices}
    amap = {"a1": "a1", "3to2": "a2"}
    assert algebra_equal_upto_relabel(extended, lambda3, vmap, amap)


@pytest.mark.parametrize("name", ["\u00b2", "--1"], ids=["superscript-two", "double-minus"])
def test_extend_names_a_new_vertex_beside_a_digit_like_one(runner, tmp_path, name):
    """"\u00b2" passes `str.isdigit` and "--1" passes it once its minus signs are
    stripped, but `int` rejects both: the new vertex is `a`."""
    f = write_algebra(tmp_path / "q.json", build_algebra(Quiver(["1", name], [
        Arrow("x", "1", name)])))
    result = runner.invoke(main, ["extend", f, "--source", "1",
                                  "--out", str(tmp_path / "b.json")])
    assert result.exit_code == 0, result.output
    assert result.output == "new vertex a\n"


@pytest.mark.parametrize("args", [
    ["hasse", "--dot", "{dir}"],
    ["extend", "--source", "2", "--out", "{dir}"],
    ["--out-dir", "{file}", "verify", "--source", "2"],
], ids=["hasse-dot-to-a-directory", "extend-out-to-a-directory", "out-dir-is-a-file"])
def test_unwritable_output_is_one_error_line_and_leaves_no_temp_file(runner, tmp_path, a2,
                                                                    args):
    f = write_algebra(tmp_path / "a2.json", a2)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    args = [a.format(dir=tmp_path / "dir", file=tmp_path / "file") for a in args]
    result = runner.invoke(main, args + [f])
    assert result.exit_code == 5
    assert result.stderr.startswith("error: cannot write ")
    assert ".tmp" not in result.stderr
    assert result.stderr.count("\n") == 1
    assert not list(tmp_path.rglob("*.tmp*"))


@pytest.mark.parametrize("args", [
    ["hasse", "--dot", "{dir}"],
    ["hasse", "--dot", "{file}/h.dot"],
    ["--out-dir", "{file}", "verify", "--source", "2"],
    ["verify", "--source", "2", "--report", "{dir}"],
], ids=["hasse-dot-to-a-directory", "hasse-dot-below-a-file", "out-dir-is-a-file",
        "verify-report-to-a-directory"])
def test_unwritable_output_fails_before_the_algebra_is_read(monkeypatch, runner, tmp_path,
                                                             a2, args):
    """The output path is checked first: exit 5 with the `cannot write` line,
    no output, and neither the algebra read nor an `Enumeration` built."""
    f = write_algebra(tmp_path / "a2.json", a2)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    args = [a.format(dir=tmp_path / "dir", file=tmp_path / "file") for a in args]
    monkeypatch.setattr(cli, "load_algebra", lambda *a: pytest.fail("the algebra was read"))
    monkeypatch.setattr(verify.Enumeration, "__init__",
                        lambda *a: pytest.fail("an Enumeration was built"))
    result = runner.invoke(main, args + [f])
    assert result.exit_code == 5
    assert result.stdout == ""
    assert result.stderr.startswith("error: cannot write ")
    assert result.stderr.count("\n") == 1
    assert not list(tmp_path.rglob("*.tmp*"))


def test_extend_at_sink_fails(runner, tmp_path, a2):
    f = write_algebra(tmp_path / "a2.json", a2)
    result = runner.invoke(main, ["extend", f, "--source", "1",
                                  "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 5


def test_verify_all_claims(runner, tmp_path, example_base):
    f = write_algebra(tmp_path / "fork.json", example_base)
    report = tmp_path / "report.json"
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "verify", f,
                                  "--source", "2", "--report", str(report)])
    assert result.exit_code == 0
    doc = json.loads(report.read_text())
    assert {r["claim"] for r in doc} == {"classification", "count-equations",
                                         "tilting-transfer", "hasse-gluing"}
    assert all(r["status"] == "pass" for r in doc)
    assert not list(tmp_path.glob("*.dot"))


def test_verify_writes_the_gluing_quivers_into_the_out_dir(runner, tmp_path, monkeypatch, a2):
    """A failed gluing: the CLI writes both DOT files beside the report, and the
    report's JSON has no `artifacts` key."""
    f = write_algebra(tmp_path / "a2.json", a2)
    out = tmp_path / "out"
    reverse_one_extension_arrow(monkeypatch, one_point_extension(a2, "2")[0])
    result = runner.invoke(main, ["--out-dir", str(out), "verify", f, "--source", "2"])
    assert result.exit_code == 1, result.output
    assert sorted(p.name for p in out.iterdir()) == [
        "hasse_extended.dot", "hasse_glued.dot", "verify_report.json"]
    assert all(p.read_text().startswith("digraph hasse {") for p in out.glob("*.dot"))
    doc = json.loads((out / "verify_report.json").read_text())
    assert [r["status"] for r in doc] == ["pass"] * 3 + ["fail"]
    assert all("artifacts" not in r for r in doc)


def test_verify_keeps_its_report_when_the_out_dir_cannot_be_written(
        runner, tmp_path, monkeypatch, a2):
    """A failed gluing with `--out-dir` below a plain file and `--report`
    elsewhere: the run still prints the gluing verdict and writes the report
    before the artifact write fails."""
    f = write_algebra(tmp_path / "a2.json", a2)
    (tmp_path / "plain").write_text("")
    report = tmp_path / "report.json"
    reverse_one_extension_arrow(monkeypatch, one_point_extension(a2, "2")[0])
    result = runner.invoke(main, ["--out-dir", str(tmp_path / "plain" / "out"), "verify", f,
                                  "--source", "2", "--report", str(report)])
    assert result.exit_code == 5, result.output
    assert "hasse-gluing: fail" in result.output
    assert [r["status"] for r in json.loads(report.read_text())] == ["pass"] * 3 + ["fail"]


def test_verify_selected_claims(runner, tmp_path):
    f = write_algebra(tmp_path / "a4.json", type_a_square(4))
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "verify", f,
                                  "--source", "4", "--claims", "count-equations"])
    assert result.exit_code == 0
    assert "count-equations: pass" in result.output


@pytest.mark.parametrize("claims, code", [
    (None, 0),
    ("classification, count-equations, tilting-transfer, hasse-gluing", 0),
    ("hasse-gluing,classification,count-equations,tilting-transfer", 0),
    ("tilting-transfer", 5),
])
def test_verify_at_a_sink_skips_tilting_unless_asked_alone(runner, tmp_path, claims, code):
    """At a sink the tilting claim does not apply: the full claim list skips it,
    however it is spelled and in any order, and naming it on its own is a
    precondition error."""
    f = write_algebra(tmp_path / "a1.json", type_a_square(1))
    args = ["--out-dir", str(tmp_path), "verify", f, "--source", "1"]
    result = runner.invoke(main, args + (["--claims", claims] if claims else []))
    assert result.exit_code == code, result.output
    if code == 0:
        assert "tilting-transfer: skipped" in result.output


def test_verify_bad_source(runner, tmp_path, lambda3):
    f = write_algebra(tmp_path / "l3.json", lambda3)
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "verify", f, "--source", "2"])
    assert result.exit_code == 5


def test_verify_unknown_claim(runner, tmp_path, a2):
    f = write_algebra(tmp_path / "a2.json", a2)
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "verify", f,
                                  "--source", "2", "--claims", "nonsense"])
    assert result.exit_code == 5
    assert result.stderr == "error: unknown claims: nonsense\n"


def test_verify_checks_the_claims_before_the_source(runner, tmp_path, a2):
    f = write_algebra(tmp_path / "a2.json", a2)
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "verify", f,
                                  "--source", "9", "--claims", "nonsense"])
    assert result.exit_code == 5
    assert result.stderr == "error: unknown claims: nonsense\n"


def test_verify_repeated_claim_is_one_error_line(runner, tmp_path, a2):
    f = write_algebra(tmp_path / "a2.json", a2)
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "verify", f, "--source", "2",
                                  "--claims", "classification,count-equations,classification"])
    assert result.exit_code == 5
    assert result.stdout == ""
    assert result.stderr == "error: repeated claims: classification\n"
    assert not (tmp_path / "verify_report.json").exists()


def test_verify_unknown_source_is_one_error_line(runner, tmp_path):
    f = write_algebra(tmp_path / "a2_3.json", type_a_square(3))
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "verify", f, "--source", "9"])
    assert result.exit_code == 5
    assert result.stderr == "error: unknown vertex '9'\n"


@pytest.mark.parametrize("claims", ["", ","])
def test_verify_with_no_claims_selected_fails(runner, tmp_path, a2, claims):
    f = write_algebra(tmp_path / "a2.json", a2)
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "verify", f,
                                  "--source", "2", "--claims", claims])
    assert result.exit_code == 5
    assert result.stderr == "error: no claims selected\n"
    assert not (tmp_path / "verify_report.json").exists()


def test_tables_truncated(runner):
    result = runner.invoke(main, ["tables", "--nA", "3", "--nD", "5"])
    assert result.exit_code == 0
    assert "1       2       3" in result.output
    assert "2       5      12" in result.output
    assert "warnings 0" in result.output


@pytest.mark.parametrize("n_a, n_d", [(0, 3), (0, 10), (10, 3)])
def test_tables_reject_an_empty_column_range(runner, n_a, n_d):
    result = runner.invoke(main, ["tables", "--nA", str(n_a), "--nD", str(n_d)])
    assert result.exit_code == 5
    assert result.stdout == ""
    assert result.stderr == ("error: the linear table starts at n = 1 and the fork table at "
                             f"n = 4; got the last columns {n_a} and {n_d}\n")


def test_tables_flags_one_reported_entry(runner):
    result = runner.invoke(main, ["tables", "--nA", "3", "--nD", "6"])
    assert result.exit_code == 0
    assert "reported 118, computed 188" in result.output
    assert "warnings 1" in result.output



def test_tables_exit_1_on_an_unexplained_closed_form(runner, monkeypatch):
    true_form = verify.closed_form
    monkeypatch.setattr(verify, "closed_form",
                        lambda kind, n: true_form(kind, n) + (kind == "tau_d" and n == 5))
    result = runner.invoke(main, ["tables", "--nA", "3", "--nD", "5"])
    assert result.exit_code == 1
    assert "D2 n=5 tau-closed-form: reported 12, computed 11 (UNEXPLAINED)" in result.stdout
    assert result.stdout.endswith("warnings 0\n")
    assert result.stderr == "hard failures 1\n"


def test_catalog_dump(runner, tmp_path, lambda3):
    f = write_algebra(tmp_path / "l3.json", lambda3)
    result = runner.invoke(main, ["catalog", f])
    assert result.exit_code == 0
    assert result.output.strip().splitlines()[-1] == "count 5"


NOT_DIRECTED = {
    # the closure leaves the bound on the coordinates
    "kronecker": build_algebra(Quiver(["1", "2"], [Arrow("a", "2", "1"),
                                                   Arrow("b", "2", "1")])),
    "euclidean-a3": build_algebra(Quiver(["1", "2", "3", "4"], [
        Arrow("a", "1", "2"), Arrow("b", "3", "2"), Arrow("c", "3", "4"),
        Arrow("d", "1", "4")])),
    # the closure ends, but the simples at 1 and 2 are never reached
    "gentle-a5-quotient": build_algebra(
        Quiver([str(k) for k in range(1, 7)], [
            Arrow("c0", "1", "2"), Arrow("c1", "2", "3"), Arrow("c2", "4", "3"),
            Arrow("c3", "5", "4"), Arrow("c4", "6", "5"), Arrow("c5", "6", "1")]),
        [("c0", "c1"), ("c5", "c0")]),
    # gentle and acyclic, but the module on the arrow 1 -> 5 has Ext^3(X, X) = k:
    # 0 -> P5 -> P4 -> P2 + P3 -> P1 -> X -> 0; the Euler form is 0 on it
    "gentle-ext3": build_algebra(
        Quiver([str(k) for k in range(1, 6)], [
            Arrow("d0", "4", "5"), Arrow("d1", "1", "2"), Arrow("d2", "1", "5"),
            Arrow("d3", "2", "4"), Arrow("d4", "1", "3")]),
        [("d1", "d3"), ("d3", "d0")]),
}


@pytest.mark.parametrize("name", sorted(NOT_DIRECTED))
def test_not_representation_directed_exits_4(runner, tmp_path, name):
    f = write_algebra(tmp_path / f"{name}.json", NOT_DIRECTED[name])
    result = runner.invoke(main, ["catalog", f])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert result.stderr.endswith("the algebra is not representation-directed\n")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.output


def test_out_dir_is_the_only_global_option(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    options = [line.split()[0] for line in result.output.splitlines()
               if line.startswith("  --")]
    assert options == ["--out-dir", "--help"]


def test_commands_are_byte_deterministic(runner, tmp_path, lambda3):
    f = write_algebra(tmp_path / "l3.json", lambda3)
    first = runner.invoke(main, ["enumerate", f]).output
    second = runner.invoke(main, ["enumerate", f]).output
    assert first == second
    t1 = runner.invoke(main, ["tables", "--nA", "3", "--nD", "4"]).output
    t2 = runner.invoke(main, ["tables", "--nA", "3", "--nD", "4"]).output
    assert t1 == t2


def test_unexpected_exception_is_one_line_exit_70(runner, tmp_path, monkeypatch, a2):
    def boom(path):
        raise RuntimeError("simulated\nfailure")

    monkeypatch.setattr("tautilt.cli.load_algebra", boom)
    f = write_algebra(tmp_path / "a2.json", a2)
    result = runner.invoke(main, ["validate", f])
    assert result.exit_code == 70
    assert result.stderr == "internal error: RuntimeError: simulated failure\n"
    assert "Traceback" not in result.output


def test_failed_internal_check_is_one_line_exit_70(runner, tmp_path, monkeypatch, a2):
    def broken(path):
        raise InvariantViolation("simulated")

    monkeypatch.setattr("tautilt.cli.load_algebra", broken)
    f = write_algebra(tmp_path / "a2.json", a2)
    result = runner.invoke(main, ["catalog", f])
    assert result.exit_code == 70
    assert result.stderr == "internal check failed: simulated\n"
    assert result.stdout == ""


@pytest.mark.parametrize("exc, code, stderr", [
    (RuntimeError("boom\nagain"), 70, "internal error: RuntimeError: boom again\n"),
    (PreconditionError("simulated"), 5, "error: simulated\n"),
], ids=["unexpected", "precondition"])
def test_a_command_added_later_is_inside_the_error_boundary(runner, exc, code, stderr):
    """The boundary sits on the group, so a new command needs no decorator of its own."""
    @main.command(name="throwaway")
    def throwaway():
        raise exc

    try:
        result = runner.invoke(main, ["throwaway"])
    finally:
        del main.commands["throwaway"]
    assert result.exit_code == code
    assert result.stderr == stderr
    assert "Traceback" not in result.output


def test_python_dash_m_is_inside_the_error_boundary():
    env = dict(os.environ, PYTHONPATH=str(Path(tautilt.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "tautilt.cli", "tables", "--nA", "0",
                             "--nD", "4"], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 5
    assert result.stdout == ""
    assert result.stderr == ("error: the linear table starts at n = 1 and the fork table at "
                             "n = 4; got the last columns 0 and 4\n")


@pytest.mark.slow
@pytest.mark.parametrize("kind, count", [("stau", 195025), ("tau", 610)])
def test_enumerate_a2_14_needs_no_cap(runner, tmp_path, kind, count):
    """The clique search visits 1,017,984 nodes on A2 n=14."""
    f = write_algebra(tmp_path / "a14.json", type_a_square(14))
    result = runner.invoke(main, ["enumerate", f, "--kind", kind])
    assert result.exit_code == 0, result.output
    assert result.output.rpartition("\n")[0].rpartition("\n")[2] == f"count {count}"


@pytest.mark.slow
@pytest.mark.parametrize("algebra, source", [
    (type_d_square(7), "7"), (type_a_square(8), "8"),
    (type_d_square(9), "9"), (type_a_square(9), "9"),
    (type_d_square(10), "10"), (type_a_square(10), "10"),
])
def test_verify_past_the_recursion_limit(tmp_path, algebra, source):
    """D2 n=7 and A2 n=8 extend to Hasse quivers of 1,096 and 2,378 vertices, more
    than the default recursion limit of 1,000; base n = 9 and 10 are the depth of
    the reported tables.  Run as `python -m`, as a user would."""
    f = write_algebra(tmp_path / "base.json", algebra)
    env = dict(os.environ, PYTHONPATH=str(Path(tautilt.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "tautilt.cli", "--out-dir", str(tmp_path),
                             "verify", f, "--source", source],
                            capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert [line.partition(" {")[0] for line in result.stdout.splitlines()] == [
        f"{claim}: pass" for claim in ("classification", "count-equations",
                                       "tilting-transfer", "hasse-gluing")]


def extension_without_its_new_relations(algebra, source_vertex):
    """`one_point_extension` that forgets the new arrow composed with each arrow
    out of the source."""
    extended, new_vertex = one_point_extension(algebra, source_vertex)
    (new_arrow,) = extended.quiver.arrows_from[new_vertex]
    kept = [r for r in extended.relations if r[0] != new_arrow.name]
    return build_algebra(extended.quiver, kept), new_vertex


@pytest.mark.parametrize("algebra, source", [(type_a_square(4), "4"), (type_d_square(5), "5")],
                         ids=["A2-4", "D2-5"])
def test_verify_exits_1_when_the_extension_forgets_its_relations(runner, tmp_path, monkeypatch,
                                                                  algebra, source):
    """Every claim fails, and the report names a counterexample for each."""
    monkeypatch.setattr(verify, "one_point_extension", extension_without_its_new_relations)
    f = write_algebra(tmp_path / "base.json", algebra)
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "verify", f, "--source", source])
    assert result.exit_code == 1, result.output
    statuses = [line.split()[1] for line in result.stdout.splitlines() if not line.startswith(" ")]
    assert statuses == ["fail"] * 4
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    assert [r["claim"] for r in doc] == list(verify.CLAIMS)
    assert all(r["status"] == "fail" and r["counterexample"] for r in doc)


def extension_with_one_new_relation(algebra, source_vertex):
    """`one_point_extension` of an algebra without relations that keeps only the
    new relation ending in the arrow b1."""
    extended, new_vertex = one_point_extension(algebra, source_vertex)
    kept = [r for r in extended.relations if r[-1] == "b1"]
    return build_algebra(extended.quiver, kept), new_vertex


def test_verify_exits_1_when_the_extension_drops_one_new_relation(runner, tmp_path, monkeypatch):
    """Over b1: 3 -> 1 and b2: 3 -> 2 extended at 3, only the composite with b2
    is left nonzero.  Every claim fails, each with its counts and counterexample."""
    base = build_algebra(Quiver(["1", "2", "3"], [Arrow("b1", "3", "1"), Arrow("b2", "3", "2")]))
    monkeypatch.setattr(verify, "one_point_extension", extension_with_one_new_relation)
    f = write_algebra(tmp_path / "base.json", base)
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "verify", f, "--source", "3"])
    assert result.exit_code == 1, result.output
    doc = {r["claim"]: r for r in json.loads((tmp_path / "verify_report.json").read_text())}
    assert [r["status"] for r in doc.values()] == ["fail"] * 4
    assert doc["classification"]["counts"] == {"tau_tilt_base": 5, "tau_tilt_quotient": 1,
                                               "tau_tilt_extended": 9}
    assert doc["classification"]["counterexample"].startswith(
        "images do not partition the enumeration: ")
    counts = doc["count-equations"]["counts"]
    assert (counts["stau_extended"], counts["stau_base"], counts["stau_quotient"]) == (37, 14, 4)
    assert doc["count-equations"]["counterexample"] == (
        "counting identity violated by independent enumeration")
    assert doc["tilting-transfer"]["counts"] == {"tilt_base": 5, "tilt_extended": 7}
    assert doc["tilting-transfer"]["counterexample"].startswith("tilting sets differ at ")
    assert doc["hasse-gluing"]["counterexample"] == (
        "the extension's quiver has 37 vertices, not 2 * 14 + 4")


def test_verify_prints_the_verdicts_reached_before_an_internal_error(runner, tmp_path,
                                                                     monkeypatch):
    """S_new made not tau-rigid in the extension's catalog: the first three claims
    reach a verdict, then the Hasse quiver's own check fires in hasse-gluing."""
    base = type_a_square(4)
    extended, new_vertex = one_point_extension(base, "4")

    def build_with_s_new_not_rigid(algebra):
        cat = build_catalog(algebra)
        if algebra == extended:
            s_new = cat.simple_index[new_vertex]
            flip_tau_hom_bit(cat, s_new, s_new)
        return cat

    monkeypatch.setattr(verify, "build_catalog", build_with_s_new_not_rigid)
    f = write_algebra(tmp_path / "base.json", base)
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "verify", f, "--source", "4"])
    assert result.exit_code == 70
    lines = result.stdout.splitlines()
    assert len(lines) == 5
    assert [line.partition(" {")[0] for line in lines[::2]] == [
        "classification: fail", "count-equations: fail", "tilting-transfer: pass"]
    assert lines[1].startswith("  transported module is not tau-tilting: ")
    assert lines[3] == "  counting identity violated by independent enumeration"
    assert result.stderr == "internal check failed: exchange graph is not n-regular\n"
    assert not (tmp_path / "verify_report.json").exists()
