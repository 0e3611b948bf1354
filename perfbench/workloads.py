"""Seeded inputs, CLI operations and exact oracles for the four workloads.

Every input file is written here from the workload seed.  The seed picks a
random bijection of vertex names and of arrow ids and shuffles the order of
vertices, arrows and relations; the program receives only the file.  Every
oracle is invariant under that relabelling, so any seed must pass.

The expected values do not come from the program under test:

* pair counts follow the two-step recurrences s(n) = 2 s(n-1) + s(n-2) and
  t(n) = t(n-1) + t(n-2) from the paper's first columns;
* the Hasse quiver of n vertices is n-regular, so it has n * pairs / 2 arrows;
* the dimension vectors of a hereditary Dynkin algebra are its positive roots
  (Gabriel), found here as the solutions of the Tits form q(x) = 1;
* `tables` must print the bytes in `expected/`, recorded from the first
  commit of the package.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

# First two terms of each count sequence: (pairs, tau-tilting modules).
# A2 starts at n = 1; D2 starts at n = 3, where deleting the fork's far
# end leaves the hereditary A3 with a central source (14 pairs, 5 modules).
_STAU_START = {"A2": (1, 2, 5), "D2": (3, 14, 32)}
_TAU_START = {"A2": (1, 1, 2), "D2": (3, 5, 6)}


def _two_step(start: tuple[int, int, int], n: int, a: int) -> int:
    first_n, x, y = start
    if n < first_n:
        raise ValueError(f"sequence starts at n = {first_n}")
    if n == first_n:
        return x
    for _ in range(n - first_n - 1):
        x, y = y, a * y + x
    return y


def stau_count(kind: str, n: int) -> int:
    """Support tau-tilting pairs of the radical-square-zero family member."""
    return _two_step(_STAU_START[kind], n, 2)


def tau_count(kind: str, n: int) -> int:
    """Tau-tilting modules of the radical-square-zero family member."""
    return _two_step(_TAU_START[kind], n, 1)


# ---------------------------------------------------------------------------
# algebras, before relabelling: vertices "1".."n", arrows as (id, from, to)


@dataclass
class Algebra:
    vertices: list[str]
    arrows: list[tuple[str, str, str]]
    relations: list[tuple[str, ...]] = field(default_factory=list)


def linear_square_zero(n: int) -> Algebra:
    """A2 family: n -> n-1 -> ... -> 1, every length-2 path forbidden."""
    arrows = [(f"a{k}", str(k + 1), str(k)) for k in range(1, n)]
    relations = [(f"a{k + 1}", f"a{k}") for k in range(1, n - 1)]
    return Algebra([str(k) for k in range(1, n + 1)], arrows, relations)


def fork(n: int, square_zero: bool) -> Algebra:
    """Fork n -> ... -> 3 -> {1, 2}; the D2 family when square_zero, else hereditary D_n."""
    arrows = [("b1", "3", "1"), ("b2", "3", "2")]
    arrows += [(f"a{k}", str(k + 1), str(k)) for k in range(3, n)]
    relations = []
    if square_zero:
        relations = [("a3", "b1"), ("a3", "b2")]
        relations += [(f"a{k + 1}", f"a{k}") for k in range(3, n - 1)]
    return Algebra([str(k) for k in range(1, n + 1)], arrows, relations)


def path_count(alg: Algebra) -> int:
    """Dimension of the path algebra modulo length-2 monomial relations."""
    forbidden = set(alg.relations)
    out = {v: [a for a in alg.arrows if a[1] == v] for v in alg.vertices}
    total = 0
    stack = [(v, None) for v in alg.vertices]
    while stack:
        v, last = stack.pop()
        total += 1
        for a in out[v]:
            if last is None or (last, a[0]) not in forbidden:
                stack.append((a[2], a[0]))
    return total


def positive_roots(alg: Algebra) -> list[tuple[int, ...]]:
    """Vectors x >= 0, x != 0, with Tits form 1, over alg.vertices; entries at most 2."""
    pos = {v: i for i, v in enumerate(alg.vertices)}
    edges = [(pos[s], pos[t]) for _, s, t in alg.arrows]
    roots = []
    for x in itertools.product(range(3), repeat=len(alg.vertices)):
        if any(x) and sum(c * c for c in x) - sum(x[s] * x[t] for s, t in edges) == 1:
            roots.append(x)
    return roots


@dataclass
class Relabelled:
    """An algebra file as the program sees it, plus the seed's vertex bijection."""
    doc: dict
    vertex_name: dict[str, str]  # original vertex -> name in the file

    def write(self, path: Path) -> Path:
        path.write_text(json.dumps(self.doc, indent=1) + "\n", encoding="utf-8")
        return path


def relabel(alg: Algebra, rng: random.Random) -> Relabelled:
    names = rng.sample(range(10 ** 6), len(alg.vertices) + len(alg.arrows))
    vname = {v: f"v{names[i]}" for i, v in enumerate(alg.vertices)}
    aname = {a[0]: f"x{names[len(alg.vertices) + i]}" for i, a in enumerate(alg.arrows)}
    vertices = [vname[v] for v in alg.vertices]
    arrows = [{"id": aname[i], "from": vname[s], "to": vname[t]} for i, s, t in alg.arrows]
    relations = [[aname[a] for a in r] for r in alg.relations]
    for seq in (vertices, arrows, relations):
        rng.shuffle(seq)
    return Relabelled({"vertices": vertices, "arrows": arrows, "relations": relations}, vname)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Result:
    returncode: int
    stdout: str
    stderr: str


class Workload:
    """One CLI operation on a seeded input, with the check of its output.

    `prepare` writes the inputs into a work directory; `op_args` and
    `setup_args` are the argument lists given to `tautilt`; `check`
    returns None for a correct op and a reason otherwise.
    """

    name: str

    def prepare(self, rng: random.Random, work: Path) -> None:
        raise NotImplementedError

    def op_args(self) -> list[str]:
        raise NotImplementedError

    def check(self, res: Result) -> str | None:
        raise NotImplementedError

    def setup_args(self) -> list[str]:
        return ["validate", str(self.input_path)]

    def check_setup(self, res: Result) -> str | None:
        dim = path_count(self.algebra)
        return _expect_lines(res, [f"dim {dim}", f"paths {dim}"])


def _expect_lines(res: Result, lines: list[str]) -> str | None:
    if res.returncode != 0:
        return f"exit code {res.returncode}"
    got = res.stdout.splitlines()
    if got != lines:
        return f"expected {lines!r}, got {got[-4:]!r}"
    return None


class Tables(Workload):
    """`tautilt tables --nA n --nD n`: no input file; the seed only relabels the set-up file."""

    def __init__(self, n: int):
        self.name = f"tables-{n}"
        self.n = n
        self.expected = (EXPECTED / f"tables-{n}.txt").read_text(encoding="utf-8")

    def prepare(self, rng, work):
        self.algebra = linear_square_zero(self.n)
        self.input_path = relabel(self.algebra, rng).write(work / "setup.json")

    def op_args(self):
        return ["tables", "--nA", str(self.n), "--nD", str(self.n)]

    def check(self, res):
        if res.returncode != 0:
            return f"exit code {res.returncode}"
        if res.stdout != self.expected:
            return "stdout differs from the recorded table output"
        return None


class Hasse(Workload):
    """`tautilt hasse --dot` on the linear family: one large enumeration."""

    def __init__(self, n: int):
        self.name = f"hasse-a2-{n}"
        self.n = n
        self.pairs = stau_count("A2", n)
        self.arrows = n * self.pairs // 2

    def prepare(self, rng, work):
        self.algebra = linear_square_zero(self.n)
        self.input_path = relabel(self.algebra, rng).write(work / "input.json")
        self.dot_path = work / "hasse.dot"

    def op_args(self):
        self.dot_path.unlink(missing_ok=True)
        return ["hasse", str(self.input_path), "--dot", str(self.dot_path)]

    def check(self, res):
        bad = _expect_lines(res, [f"vertices {self.pairs} arrows {self.arrows}"])
        if bad:
            return bad
        nodes = edges = 0
        with open(self.dot_path, encoding="utf-8") as fh:
            for line in fh:
                if " -> " in line:
                    edges += 1
                elif "[label=" in line:
                    nodes += 1
        if (nodes, edges) != (self.pairs, self.arrows):
            return f"DOT file has {nodes} nodes and {edges} edges"
        return None


class Verify(Workload):
    """`tautilt verify` on the fork family at its far source: all four claims."""

    def __init__(self, n: int):
        self.name = f"verify-d2-{n}"
        self.n = n
        # Base is D2 n, the extension D2 n+1, the quotient D2 n-1; the doubled
        # algebra (base plus an isolated vertex) has twice the base's pairs.
        s = {k: stau_count("D2", n + k) for k in (-1, 0, 1)}
        t = {k: tau_count("D2", n + k) for k in (-1, 0, 1)}
        tau_tilt = {"tau_tilt_base": t[0], "tau_tilt_extended": t[1], "tau_tilt_quotient": t[-1]}
        self.expected = {
            "classification": tau_tilt,
            "count-equations": tau_tilt | {"stau_base": s[0], "stau_extended": s[1],
                                           "stau_quotient": s[-1]},
            "hasse-gluing": {"glued": s[1], "hasse_doubled": 2 * s[0],
                             "hasse_extended": s[1], "selected": s[-1]},
        }

    def prepare(self, rng, work):
        self.algebra = fork(self.n, square_zero=True)
        rel = relabel(self.algebra, rng)
        self.input_path = rel.write(work / "input.json")
        self.source = rel.vertex_name[str(self.n)]
        self.report_path = work / "verify_report.json"

    def op_args(self):
        return ["--out-dir", str(self.report_path.parent), "verify", str(self.input_path),
                "--source", self.source, "--report", str(self.report_path)]

    def check(self, res):
        if res.returncode != 0:
            return f"exit code {res.returncode}"
        reported = {}
        for line in res.stdout.splitlines():
            claim, _, rest = line.partition(": pass ")
            if not rest:
                return f"claim did not pass: {line!r}"
            reported[claim] = json.loads(rest)
        if list(reported) != ["classification", "count-equations", "tilting-transfer",
                              "hasse-gluing"]:
            return f"unexpected claims {list(reported)}"
        tilt = reported.pop("tilting-transfer")
        if tilt.get("tilt_base", 0) < 1 or tilt != {"tilt_base": tilt["tilt_base"],
                                                    "tilt_extended": tilt["tilt_base"]}:
            return f"tilting modules do not transfer one-to-one: {tilt}"
        if reported != self.expected:
            return f"claim counts {reported}, expected {self.expected}"
        return None


class HereditaryCatalog(Workload):
    """`tautilt catalog` on hereditary D_n: modules up to dimension 2 per vertex."""

    def __init__(self, n: int):
        self.name = f"catalog-hered-d{n}"
        self.n = n

    def prepare(self, rng, work):
        self.algebra = fork(self.n, square_zero=False)
        rel = relabel(self.algebra, rng)
        self.input_path = rel.write(work / "input.json")
        # Column of each original vertex in the file's vertex order.
        file_pos = {name: i for i, name in enumerate(rel.doc["vertices"])}
        self.columns = [file_pos[rel.vertex_name[v]] for v in self.algebra.vertices]
        self.roots = sorted(positive_roots(self.algebra))

    def op_args(self):
        return ["catalog", str(self.input_path)]

    def check(self, res):
        if res.returncode != 0:
            return f"exit code {res.returncode}"
        lines = res.stdout.splitlines()
        want = self.n * (self.n - 1)
        if not lines or lines[-1] != f"count {want}" or len(self.roots) != want:
            return f"expected count {want}, got {lines[-1:]!r}"
        dims = []
        for i, line in enumerate(lines[:-1]):
            head, _, vec = line.partition(": dims ")
            if head != str(i):
                return f"malformed catalog line {line!r}"
            in_file = json.loads(vec)
            dims.append(tuple(in_file[c] for c in self.columns))
        if sorted(dims) != self.roots:
            return "dimension vectors are not the positive roots"
        return None


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """The four workloads by name; smoke mode keeps their shape at tiny sizes."""
    if smoke:
        items = [Tables(5), Hasse(4), Verify(4), HereditaryCatalog(4)]
    else:
        items = [Tables(10), Hasse(11), Verify(6), HereditaryCatalog(8)]
    return {w.name: w for w in items}
