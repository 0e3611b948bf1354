"""The CLI on drawn algebra documents, from well-formed to malformed.

Every command ends in one of the documented exit codes 0 to 5, a failure
prints one `error:` line, and nothing prints a traceback.  Loops and cycles,
cut by relations or not, are drawn on purpose, and each example has a
deadline rather than a tighter cap on its input: an uncut cycle must be
refused at once, not after listing every path up to the pumping bound.
"""
import json
from datetime import timedelta

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from tautilt.cli import main


def commands(path, source):
    return (["validate", path], ["catalog", path], ["enumerate", path], ["hasse", path],
            ["verify", path, "--source", source])


def _with_flaw(draw, doc):
    """`doc` as bytes, well-formed or with one drawn flaw."""
    arrows, relations = doc["arrows"], doc["relations"]
    flaw = draw(st.sampled_from([
        "none", "none", "none", "duplicate-vertex", "undeclared-vertex",
        "duplicate-arrow", "malformed-arrow", "unknown-arrow", "short-relation",
        "missing-key", "wrong-type", "not-an-object", "not-json", "not-utf8"]))
    if flaw == "duplicate-vertex":
        doc["vertices"].append(doc["vertices"][0])
    elif flaw == "undeclared-vertex":
        arrows.append({"id": "y", "from": "9", "to": doc["vertices"][0]})
    elif flaw == "duplicate-arrow" and arrows:
        arrows.append(dict(arrows[0]))
    elif flaw == "malformed-arrow":
        arrows.append(draw(st.sampled_from([{"id": 1, "from": "1", "to": "1"},
                                            {"id": "y"}, "y"])))
    elif flaw == "unknown-arrow":
        relations.append(["nowhere"] + [a["id"] for a in arrows[:1]])
    elif flaw == "short-relation" and arrows:
        relations.append([arrows[0]["id"]])
    elif flaw == "missing-key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif flaw == "wrong-type":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(st.sampled_from(["x", 1, None, [1], {}]))
    text = json.dumps([doc] if flaw == "not-an-object" else doc)
    if flaw == "not-json":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return (b"\xff" if flaw == "not-utf8" else b"") + text.encode()


@st.composite
def algebra_documents(draw):
    """An algebra document on at most 4 vertices and 5 arrows, loops and cycles
    allowed; each relation is a walk along the arrows or a word of arrow ids,
    composable or not.  Returns the document's bytes and a vertex to extend at."""
    vertices = draw(st.lists(st.sampled_from("1234"), min_size=1, max_size=4, unique=True))
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    arrows = [{"id": f"x{k}", "from": s, "to": t}
              for k, (s, t) in enumerate(draw(st.lists(ends, max_size=5)))]
    relations = []
    for _ in range(draw(st.integers(0, 3)) if arrows else 0):
        if draw(st.booleans()):
            word = [draw(st.sampled_from(arrows))]
            for _ in range(draw(st.integers(1, 3))):
                out = [a for a in arrows if a["from"] == word[-1]["to"]]
                if out:
                    word.append(draw(st.sampled_from(out)))
        else:
            word = draw(st.lists(st.sampled_from(arrows), min_size=2, max_size=3))
        relations.append([a["id"] for a in word])
    doc = {"vertices": vertices, "arrows": arrows, "relations": relations}
    return _with_flaw(draw, doc), draw(st.sampled_from(vertices + ["9"]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@given(algebra_documents())
@settings(max_examples=200, deadline=timedelta(seconds=3))
def test_every_command_ends_in_a_known_exit_code(workdir, drawn):
    data, source = drawn
    path = workdir / "algebra.json"
    path.write_bytes(data)
    runner = CliRunner()
    for command in commands(str(path), source):
        result = runner.invoke(main, ["--out-dir", str(workdir), *command])
        assert result.exit_code in {0, 1, 2, 3, 4, 5}, (command, result.output)
        assert "Traceback" not in result.output
        if result.exit_code == 0:
            assert result.stderr == ""
        elif result.exit_code == 1:
            # Only `verify` exits 1, when a claim fails; it prints the verdicts.
            assert command[0] == "verify" and ": fail" in result.stdout
        else:
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, (
                command, result.stderr)
