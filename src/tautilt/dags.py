"""Labeled acyclic quivers: doubling surgery, checking a vertex map, DOT export."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .errors import PreconditionError
from .tilting import HasseQuiver, pair_label


@dataclass(frozen=True)
class LabeledDag:
    """Labels and sorted arrows (i, j) by position; `tilting.hasse` checks each quiver it builds."""
    labels: tuple[str, ...]
    arrows: tuple[tuple[int, int], ...]


def _decoded(h: HasseQuiver) -> Iterator[tuple[int, int]]:
    return map(divmod, h.arrows, repeat(len(h.pairs)))


def hasse_to_dag(h: HasseQuiver) -> LabeledDag:
    """The quiver with its labels built and its arrow codes decoded, for gluing."""
    return LabeledDag(tuple(map(pair_label, h.pairs)), tuple(_decoded(h)))


def glue(dag: LabeledDag, subset: Iterable[int]) -> tuple[LabeledDag, dict[int, int]]:
    """Duplicate the subset into fresh plus-copies and reroute arrows; return the
    glued quiver and the vertex of each subset member's copy.

    Arrows inside the subset are copied onto the copies, arrows from the
    complement into the subset are redirected to the copies, arrows out of
    the subset survive unchanged, and every copy points at its original.
    Distinct arrows go to distinct arrows, and an acyclic quiver stays acyclic.
    """
    sub = frozenset(subset)
    n = len(dag.labels)
    if any(not (0 <= i < n) for i in sub):
        raise PreconditionError("subset member out of range")
    plus = {v: n + k for k, v in enumerate(sorted(sub))}
    labels = list(dag.labels) + [dag.labels[v] + "+" for v in plus]
    arrows: list[tuple[int, int]] = []
    for a, b in dag.arrows:
        if a in sub and b in sub:
            arrows.append((plus[a], plus[b]))
        arrows.append((a, plus[b]) if b in sub and a not in sub else (a, b))
    arrows.extend((copy, v) for v, copy in plus.items())
    return LabeledDag(tuple(labels), tuple(sorted(arrows))), plus


def dag_iso(x: LabeledDag, y: LabeledDag, vertex_map: Sequence[int]) -> str | None:
    """None if `vertex_map` (vertex i of x to vertex_map[i] of y) is an isomorphism,
    otherwise the first reason it is not, naming vertices and arrows by label.

    The map must be a bijection that sends every arrow of x to an arrow of y.
    Both arrow lists must be free of repeats (`hasse` guarantees it for a
    mutation quiver, and `glue` keeps it), so with equal arrow counts the map is
    then onto the arrows of y too.  O(V + E).
    """
    n = len(y.labels)
    if len(x.labels) != n or len(vertex_map) != n:
        return f"the vertex map sends {len(vertex_map)} of {len(x.labels)} vertices onto {n}"
    preimage = [-1] * n
    for i, j in enumerate(vertex_map):
        if not 0 <= j < n:
            return f"{x.labels[i]} maps to no vertex"
        if preimage[j] != -1:
            return f"{x.labels[preimage[j]]} and {x.labels[i]} both map to {y.labels[j]}"
        preimage[j] = i
    if len(x.arrows) != len(y.arrows):
        return f"{len(x.arrows)} arrows cannot map onto {len(y.arrows)}"
    targets = set(y.arrows)
    for a, b in x.arrows:
        if (vertex_map[a], vertex_map[b]) not in targets:
            return (f"arrow {x.labels[a]} -> {x.labels[b]} maps to {y.labels[vertex_map[a]]} "
                    f"-> {y.labels[vertex_map[b]]}, which is not an arrow")
    return None


def to_dot(quiver: LabeledDag | HasseQuiver) -> Iterator[str]:
    """Deterministic DOT text, line by line: one node line per vertex, then the
    arrows in order.  A Hasse quiver's labels and arrows are made as they are
    written, so neither they nor the text are ever held whole."""
    if isinstance(quiver, HasseQuiver):
        labels, arrows = map(pair_label, quiver.pairs), _decoded(quiver)
    else:
        labels, arrows = quiver.labels, quiver.arrows
    yield "digraph hasse {\n"
    for i, label in enumerate(labels):
        esc = label.replace("\\", "\\\\").replace('"', '\\"')
        yield f'  n{i} [label="{esc}"];\n'
    for a, b in arrows:
        yield f"  n{a} -> n{b};\n"
    yield "}\n"
