"""Labeled acyclic quivers: doubling surgery, checking a vertex map, DOT export."""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvariantViolation, PreconditionError
from .tilting import HasseQuiver
from .util import sorted_codes


@dataclass(frozen=True)
class LabeledDag:
    """Arrows a -> b as the sorted codes a * size + b, as `tilting.hasse` keeps them;
    `label(k)` names vertex k only where text is written (a message, a DOT line)."""
    size: int
    arrows: array
    label: Callable[[int], str]


def hasse_to_dag(h: HasseQuiver) -> LabeledDag:
    """The quiver on the Hasse quiver's own arrow codes, each vertex named by its pair."""
    return LabeledDag(len(h.pairs), h.arrows, h.pairs.label)


def glue(dag: LabeledDag, subset: Iterable[int]) -> tuple[LabeledDag, dict[int, int]]:
    """Duplicate the subset into fresh plus-copies and reroute arrows; return the
    glued quiver and the vertex of each subset member's copy.

    Arrows inside the subset are copied onto the copies, arrows from the
    complement into the subset are redirected to the copies, arrows out of
    the subset survive unchanged, and every copy points at its original.  The
    k-th member's copy is vertex size + k, labeled with the member's label and "+".
    Distinct arrows go to distinct arrows, and an acyclic quiver stays acyclic.
    The new codes stream into `util.sorted_codes`, so no list of them is built.
    """
    n, members = dag.size, sorted(set(subset))
    if members and not (0 <= members[0] and members[-1] < n):
        raise PreconditionError("subset member out of range")
    plus, m = {v: n + k for k, v in enumerate(members)}, n + len(members)

    def codes() -> Iterator[int]:
        for v, copy in plus.items():
            yield copy * m + v
        for a, b in map(divmod, dag.arrows, repeat(n)):
            if b not in plus:
                yield a * m + b
            elif a in plus:
                yield plus[a] * m + plus[b]
                yield a * m + b
            else:
                yield a * m + plus[b]

    return LabeledDag(m, sorted_codes(codes(), m * m), lambda k: dag.label(k) if k < n
                      else dag.label(members[k - n]) + "+"), plus


def dag_iso(x: LabeledDag, y: LabeledDag, vertex_map: Sequence[int]) -> str | None:
    """None if `vertex_map` (vertex i of x to vertex_map[i] of y) is an isomorphism,
    otherwise the first reason it is not, naming vertices and arrows by label.

    The map must be a bijection that sends every arrow of x to an arrow of y.
    Both arrow arrays must be strictly increasing (`hasse` and `glue` make them
    so); then it is one iff the mapped codes, sorted by `util.sorted_codes`
    without a list of them all, are y's.  O(V + E log E).
    """
    n = y.size
    if x.size != n or len(vertex_map) != n:
        return f"the vertex map sends {len(vertex_map)} of {x.size} vertices onto {n}"
    preimage = [-1] * n
    for i, j in enumerate(vertex_map):
        if not 0 <= j < n:
            return f"{x.label(i)} maps to no vertex"
        if preimage[j] != -1:
            return f"{x.label(preimage[j])} and {x.label(i)} both map to {y.label(j)}"
        preimage[j] = i
    if len(x.arrows) != len(y.arrows):
        return f"{len(x.arrows)} arrows cannot map onto {len(y.arrows)}"
    if sorted_codes((vertex_map[a] * n + vertex_map[b]
                     for a, b in map(divmod, x.arrows, repeat(n))), n * n) == y.arrows:
        return None
    targets = set(y.arrows)
    for a, b in map(divmod, x.arrows, repeat(n)):
        if vertex_map[a] * n + vertex_map[b] not in targets:
            return (f"arrow {x.label(a)} -> {x.label(b)} maps to {y.label(vertex_map[a])} "
                    f"-> {y.label(vertex_map[b])}, which is not an arrow")
    raise InvariantViolation("dag_iso was given an arrow array that is not strictly increasing")


def to_dot(dag: LabeledDag) -> Iterator[str]:
    """Deterministic DOT text, line by line: one node line per vertex, then the
    arrows in code order, each made as it is written and never held whole."""
    size, label = dag.size, dag.label
    yield "digraph hasse {\n"
    for i in range(size):
        esc = label(i).replace("\\", "\\\\").replace('"', '\\"')
        yield f'  n{i} [label="{esc}"];\n'
    for a, b in map(divmod, dag.arrows, repeat(size)):
        yield f"  n{a} -> n{b};\n"
    yield "}\n"
