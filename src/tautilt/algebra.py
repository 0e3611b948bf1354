"""Quivers and monomial bound quiver algebras.

A path (a1, ..., ak) composes left to right: target(a_m) = source(a_{m+1}).
The path basis of an algebra consists of all paths, including the length-0
paths e_v, that contain no forbidden path as a contiguous subpath.  Every
file format and matrix convention in the package follows this orientation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Container, Sequence

from .errors import AlgebraFormatError, InfiniteDimensionalError, PreconditionError
from .util import topological_order


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """A composable arrow sequence; arrows == () encodes the idempotent e_source."""
    source: str
    arrows: tuple[str, ...]
    target: str


class Quiver:
    """A finite directed multigraph: unique vertex ids, and `Arrow`s with unique ids between them."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[Arrow]):
        vs = tuple(str(v) for v in vertices)
        ars = tuple(arrows)
        if len(set(vs)) != len(vs):
            raise AlgebraFormatError("duplicate vertex ids")
        names = [a.name for a in ars]
        if len(set(names)) != len(names):
            raise AlgebraFormatError("duplicate arrow ids")
        arrows_from: dict[str, list[Arrow]] = {v: [] for v in vs}
        for a in ars:
            if a.source not in arrows_from or a.target not in arrows_from:
                raise AlgebraFormatError(f"arrow {a.name!r} uses undeclared vertex")
            arrows_from[a.source].append(a)
        self.vertices = vs
        self.arrows = ars
        self.vertex_pos = {v: i for i, v in enumerate(vs)}
        self.arrow_pos = {a.name: i for i, a in enumerate(ars)}
        self.arrow_by_name = {a.name: a for a in ars}
        self.arrows_from = {v: tuple(out) for v, out in arrows_from.items()}

    def is_source(self, v: str) -> bool:
        return all(a.target != v for a in self.arrows)

    def is_sink(self, v: str) -> bool:
        return not self.arrows_from[v]

    def __repr__(self) -> str:
        return f"Quiver({list(self.vertices)}, {len(self.arrows)} arrows)"


class Algebra:
    """A monomial bound quiver algebra with its computed finite path basis.

    Use :func:`build_algebra`; the constructor normalizes the relation set
    (dropping relations containing a shorter one as a contiguous subpath)
    and enumerates the path basis, rejecting uncut cycles.
    """

    def __init__(self, quiver: Quiver, relations: Sequence[Sequence[str]]):
        self.quiver = quiver
        self.relations = _normalize_relations(quiver, relations)
        self.path_basis = _enumerate_paths(quiver, self.relations)
        self.dimension = len(self.path_basis)
        buckets: dict[tuple[str, str], list[Path]] = {}
        # (source, target, arrows) -> the path's index in paths_between(source, target)
        self._path_pos: dict[tuple[str, str, tuple[str, ...]], int] = {}
        for p in self.path_basis:
            paths = buckets.setdefault((p.source, p.target), [])
            self._path_pos[p.source, p.target, p.arrows] = len(paths)
            paths.append(p)
        self._paths_between = {k: tuple(v) for k, v in buckets.items()}

    def paths_between(self, v: str, w: str) -> tuple[Path, ...]:
        """Basis paths from v to w, in path-basis order."""
        return self._paths_between.get((v, w), ())

    def path_position(self, v: str, w: str, arrows: tuple[str, ...]) -> int | None:
        """Index of the path in paths_between(v, w), or None if not in the basis."""
        return self._path_pos.get((v, w, arrows))

    @property
    def n_vertices(self) -> int:
        return len(self.quiver.vertices)

    def _key(self):
        return (self.quiver.vertices, self.quiver.arrows, self.relations)

    def __eq__(self, other) -> bool:
        return isinstance(other, Algebra) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Algebra({len(self.quiver.vertices)} vertices, "
                f"{len(self.quiver.arrows)} arrows, dim {self.dimension})")


def _normalize_relations(quiver: Quiver, relations: Sequence[Sequence[str]]) -> tuple[tuple[str, ...], ...]:
    """The relations, sorted, less each one that has another relation as a
    contiguous subpath: one set lookup per subpath of a length some relation has."""
    rels = set()
    for rel in relations:
        r = tuple(str(x) for x in rel)
        if len(r) < 2:
            raise AlgebraFormatError(f"relation {r!r} shorter than two arrows")
        for name in r:
            if name not in quiver.arrow_by_name:
                raise AlgebraFormatError(f"relation uses unknown arrow {name!r}")
        for a, b in zip(r, r[1:]):
            if quiver.arrow_by_name[a].target != quiver.arrow_by_name[b].source:
                raise AlgebraFormatError(f"relation {r!r} is not composable at {a!r}->{b!r}")
        rels.add(r)
    lengths = {len(r) for r in rels}
    return tuple(sorted(r for r in rels if not any(
        r[i:i + n] in rels for n in lengths if n < len(r) for i in range(len(r) - n + 1))))


def _enumerate_paths(quiver: Quiver, relations: tuple[tuple[str, ...], ...]) -> tuple[Path, ...]:
    # A legal path's state is its end vertex and its longest suffix that is a proper
    # prefix of a relation.  The state alone decides which arrows may follow and the
    # next state, so the basis is finite iff the states reachable from the paths e_v
    # hold no cycle; then each path carries its last state only, and each state's
    # moves are worked out once.
    forbidden = set(relations)
    prefixes = {r[:k] for r in relations for k in range(len(r))} | {()}
    # State -> its moves (arrow, next state), for every state reachable from an e_v.
    moves: dict[tuple[str, tuple[str, ...]], list[tuple[Arrow, tuple]]] = {}
    todo = [(v, ()) for v in quiver.vertices]
    while todo:
        state = todo.pop()
        if state in moves:
            continue
        out = moves[state] = []
        for arrow in quiver.arrows_from[state[0]]:
            word = state[1] + (arrow.name,)
            if any(word[k:] in forbidden for k in range(len(word) - 1)):
                continue
            step = (arrow.target, next(word[k:] for k in range(len(word) + 1)
                                       if word[k:] in prefixes))
            out.append((arrow, step))
            todo.append(step)
    index = {state: k for k, state in enumerate(moves)}
    # Each move coded state * |states| + step, listed by state: the order `topological_order` reads.
    steps = [index[state] * len(index) + index[step]
             for state, out in moves.items() for _, step in out]
    if topological_order(len(index), steps)[0] is None:
        raise InfiniteDimensionalError(
            "path basis is infinite: the quiver has a cycle not cut by any relation")
    paths = [Path(v, (), v) for v in quiver.vertices]
    states = [(v, ()) for v in quiver.vertices]
    for p, state in zip(paths, states):  # both grow as they are read: shorter paths first
        for arrow, step in moves[state]:
            paths.append(Path(p.source, p.arrows + (arrow.name,), arrow.target))
            states.append(step)
    return tuple(paths)


def build_algebra(quiver: Quiver, relations: Sequence[Sequence[str]] = ()) -> Algebra:
    """Normalize relations and compute the path basis."""
    return Algebra(quiver, relations)


def _fresh_name(taken: Container[str], base: str, sep: str) -> str:
    """`base`, or the first of base<sep>1, base<sep>2, ... that is not in `taken`."""
    name, k = base, 0
    while name in taken:
        k += 1
        name = f"{base}{sep}{k}"
    return name


def _fresh_vertex(quiver: Quiver) -> str:
    """One more than the largest name if all are decimal and `int` and `str` convert
    both (4,300 digits by default), otherwise the first free name of a, a1, a2, ..."""
    if all(v.removeprefix("-").isdecimal() for v in quiver.vertices) and quiver.vertices:
        try:
            return str(max(int(v) for v in quiver.vertices) + 1)
        except ValueError:
            pass
    return _fresh_name(quiver.vertex_pos, "a", "")


def one_point_extension(algebra: Algebra, source_vertex: str) -> tuple[Algebra, str]:
    """Extend by the simple at a source vertex: one new vertex, one new arrow.

    Every composite of the new arrow with an arrow leaving `source_vertex`
    is forbidden, so the new indecomposable projective has total dimension 2
    with radical the simple at `source_vertex`.
    """
    q = algebra.quiver
    if source_vertex not in q.vertex_pos:
        raise PreconditionError(f"unknown vertex {source_vertex!r}")
    if not q.is_source(source_vertex):
        raise PreconditionError(f"vertex {source_vertex!r} is not a source")
    new_vertex = _fresh_vertex(q)
    new_arrow = _fresh_name(q.arrow_by_name, f"{new_vertex}to{source_vertex}", "_")
    quiver = Quiver(q.vertices + (new_vertex,),
                    q.arrows + (Arrow(new_arrow, new_vertex, source_vertex),))
    extra = [(new_arrow, a.name) for a in q.arrows_from[source_vertex]]
    return build_algebra(quiver, list(algebra.relations) + extra), new_vertex


def delete_vertex(algebra: Algebra, vertex: str) -> Algebra:
    """Quotient by the idempotent ideal at `vertex`: kill the vertex and all paths through it."""
    q = algebra.quiver
    if vertex not in q.vertex_pos:
        raise PreconditionError(f"unknown vertex {vertex!r}")
    keep_arrows = tuple(a for a in q.arrows if vertex not in (a.source, a.target))
    kept_names = {a.name for a in keep_arrows}
    quiver = Quiver(tuple(v for v in q.vertices if v != vertex), keep_arrows)
    rels = [r for r in algebra.relations if all(x in kept_names for x in r)]
    return build_algebra(quiver, rels)


@lru_cache(maxsize=None)
def opposite_algebra(algebra: Algebra) -> Algebra:
    """Reverse every arrow and every relation; arrow and vertex names are kept."""
    q = algebra.quiver
    quiver = Quiver(q.vertices, tuple(Arrow(a.name, a.target, a.source) for a in q.arrows))
    return build_algebra(quiver, [tuple(reversed(r)) for r in algebra.relations])


# ---------------------------------------------------------------------------
# file format


def serialize_algebra(algebra: Algebra) -> str:
    q = algebra.quiver
    arrows = [{"id": a.name, "from": a.source, "to": a.target} for a in q.arrows]
    return json.dumps({"vertices": list(q.vertices), "arrows": arrows,
                       "relations": [list(r) for r in algebra.relations]}, indent=2) + "\n"


def parse_algebra(text: str) -> Algebra:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int past 4,300 digits
        raise AlgebraFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise AlgebraFormatError("top-level document must be an object")
    for key in ("vertices", "arrows", "relations"):
        if key not in doc:
            raise AlgebraFormatError(f"missing key {key!r}")
    if not isinstance(doc["vertices"], list) or not all(isinstance(v, str) for v in doc["vertices"]):
        raise AlgebraFormatError("vertices must be a list of strings")
    arrows = []
    if not isinstance(doc["arrows"], list):
        raise AlgebraFormatError("arrows must be a list")
    for item in doc["arrows"]:
        if (not isinstance(item, dict)
                or not {"id", "from", "to"} <= set(item)
                or not all(isinstance(item[k], str) for k in ("id", "from", "to"))):
            raise AlgebraFormatError(f"malformed arrow entry {item!r}")
        arrows.append(Arrow(item["id"], item["from"], item["to"]))
    rels = doc["relations"]
    if not isinstance(rels, list) or not all(
            isinstance(r, list) and all(isinstance(x, str) for x in r) for r in rels):
        raise AlgebraFormatError("relations must be lists of arrow ids")
    # Ids reach output as UTF-8; an arrow's ends and a relation's entries must equal ids.
    for name in doc["vertices"] + [a.name for a in arrows]:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise AlgebraFormatError(f"id {name!r} cannot be encoded as UTF-8") from None
    quiver = Quiver(doc["vertices"], arrows)
    return build_algebra(quiver, [tuple(r) for r in rels])


def load_algebra(path) -> Algebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise AlgebraFormatError(f"not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise AlgebraFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse_algebra(text)
