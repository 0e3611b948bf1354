"""Labeled acyclic quivers: doubling surgery, isomorphism testing, DOT export."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvariantViolation, PreconditionError
from .tilting import HasseQuiver, pair_label
from .util import topological_order


@dataclass(frozen=True)
class LabeledDag:
    labels: tuple[str, ...]
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise PreconditionError("duplicate vertex labels")
        seen = set()
        for a, b in self.arrows:
            if not (0 <= a < n and 0 <= b < n):
                raise PreconditionError("arrow endpoint out of range")
            if a == b:
                raise PreconditionError("self-loop")
            if (a, b) in seen:
                raise PreconditionError("parallel arrow")
            seen.add((a, b))
        if topological_order(n, self.arrows) is None:
            raise PreconditionError("quiver has a cycle")


def hasse_to_dag(h: HasseQuiver) -> LabeledDag:
    return LabeledDag(tuple(pair_label(p) for p in h.pairs), tuple(h.arrows))


def glue(dag: LabeledDag, subset: Iterable[int]) -> LabeledDag:
    """Duplicate the subset into fresh plus-copies and reroute arrows.

    Arrows inside the subset are copied onto the copies, arrows from the
    complement into the subset are redirected to the copies, arrows out of
    the subset survive unchanged, and every copy points at its original.
    """
    sub = frozenset(subset)
    n = len(dag.labels)
    if any(not (0 <= i < n) for i in sub):
        raise PreconditionError("subset member out of range")
    plus = {v: n + k for k, v in enumerate(sorted(sub))}
    labels = list(dag.labels) + [dag.labels[v] + "+" for v in sorted(sub)]
    arrows: list[tuple[int, int]] = []
    for a, b in dag.arrows:
        if a in sub and b in sub:
            arrows.append((a, b))
            arrows.append((plus[a], plus[b]))
        elif a in sub:
            arrows.append((a, b))
        elif b in sub:
            arrows.append((a, plus[b]))
        else:
            arrows.append((a, b))
    arrows.extend((plus[v], v) for v in sorted(sub))
    return LabeledDag(tuple(labels), tuple(sorted(arrows)))


def _adjacency(n: int, arrows: Sequence[tuple[int, int]]):
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for a, b in arrows:
        succ[a].append(b)
        pred[b].append(a)
    return succ, pred


def _levels(n: int, arrows: Sequence[tuple[int, int]], succ) -> list[int]:
    level = [0] * n
    order = topological_order(n, arrows)
    assert order is not None
    for i in order:
        for j in succ[i]:
            level[j] = max(level[j], level[i] + 1)
    return level


def _joint_colors(x: LabeledDag, y: LabeledDag) -> tuple[list[int], list[int]]:
    """Degree/level refinement on both graphs with a shared palette.

    The returned colorings are isomorphism invariants that correspond
    between the two graphs, so color classes bound the matching candidates.
    """
    n = len(x.labels)
    sx, px = _adjacency(n, x.arrows)
    sy, py = _adjacency(n, y.arrows)
    base: dict[tuple, int] = {}
    cx = [base.setdefault(k, len(base))
          for k in ((len(sx[i]), len(px[i]), lv) for i, lv in enumerate(_levels(n, x.arrows, sx)))]
    cy = [base.setdefault(k, len(base))
          for k in ((len(sy[i]), len(py[i]), lv) for i, lv in enumerate(_levels(n, y.arrows, sy)))]
    for _ in range(n):
        palette: dict[tuple, int] = {}
        nx = [palette.setdefault((cx[i], tuple(sorted(cx[j] for j in sx[i])),
                                  tuple(sorted(cx[j] for j in px[i]))), len(palette))
              for i in range(n)]
        ny = [palette.setdefault((cy[i], tuple(sorted(cy[j] for j in sy[i])),
                                  tuple(sorted(cy[j] for j in py[i]))), len(palette))
              for i in range(n)]
        stable = len(set(nx) | set(ny)) == len(set(cx) | set(cy))
        cx, cy = nx, ny
        if stable:
            break
    return cx, cy


def dag_iso(x: LabeledDag, y: LabeledDag) -> bool:
    """Arrow-preserving bijection test (labels are ignored).

    Backtracking over color classes on an explicit stack, so the depth is not
    bounded by the interpreter's recursion limit.  A vertex map found by the
    search is re-checked before True is returned.
    """
    n = len(x.labels)
    if n != len(y.labels) or len(x.arrows) != len(y.arrows):
        return False
    if n == 0:
        return True
    cx, cy = _joint_colors(x, y)
    if Counter(cx) != Counter(cy):
        return False
    xs = [set() for _ in range(n)]
    ys = [set() for _ in range(n)]
    xp = [set() for _ in range(n)]
    yp = [set() for _ in range(n)]
    for a, b in x.arrows:
        xs[a].add(b)
        xp[b].add(a)
    for a, b in y.arrows:
        ys[a].add(b)
        yp[b].add(a)
    by_color: dict[int, list[int]] = {}
    for j in range(n):
        by_color.setdefault(cy[j], []).append(j)
    # match scarce colors first
    vertex_order = sorted(range(n), key=lambda i: (len(by_color[cx[i]]), -len(xs[i]) - len(xp[i])))
    mapping = [-1] * n
    used = [False] * n
    # cursor[k]: position in its color class of the next candidate for vertex_order[k]
    cursor = [0] * n
    k = 0
    while 0 <= k < n:
        i = vertex_order[k]
        if mapping[i] != -1:  # back from depth k + 1: undo this choice
            used[mapping[i]] = False
            mapping[i] = -1
        cands = by_color[cx[i]]
        c = cursor[k]
        while c < len(cands):
            j = cands[c]
            c += 1
            if (not used[j]
                    and all(mapping[t] == -1 or mapping[t] in ys[j] for t in xs[i])
                    and all(mapping[t] == -1 or mapping[t] in yp[j] for t in xp[i])):
                cursor[k] = c
                mapping[i] = j
                used[j] = True
                k += 1
                break
        else:
            cursor[k] = 0
            k -= 1
    if k < 0:
        return False
    if sorted(mapping) != list(range(n)) or any(mapping[b] not in ys[mapping[a]]
                                                 for a, b in x.arrows):
        raise InvariantViolation("dag_iso found a vertex map that is not an isomorphism")
    return True


def to_dot(dag: LabeledDag) -> str:
    """Deterministic DOT text: one node line per vertex, then sorted edges."""
    lines = ["digraph hasse {"]
    for i, label in enumerate(dag.labels):
        esc = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{esc}"];')
    for a, b in sorted(dag.arrows):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
