"""Support tau-tilting pairs: rigidity predicates, enumeration, Hasse quiver.

Basic tau-rigid modules are exactly the cliques of the pairwise
compatibility graph on the catalog, so enumeration is a pruned DFS over
catalog indices.  A clique is kept as a support tau-tilting pair when its
summand count equals its support size; the projective half of the pair is
then the set of unsupported vertices.

Sets are Python ints.  Bit i of a catalog set stands for entry i, and bit k
of a vertex set for the k-th vertex.  `Catalog` holds one row per entry:
`compat_mask` (its compatible entries), `tors_mask` (the j with
Hom(E_i, tau E_j) = 0) and `support_mask` (its support).  A DFS node that
adds entry i carries its candidates `cand & compat_mask[i]`, the OR of the
support masks and the running g-vector of its modules, so keeping a clique
costs one `bit_count`.

`hasse` codes a pair as one int: the module bits first (bits 0 to
cat.size - 1), then the bits of the unsupported vertices (bit cat.size + k
for the k-th vertex).  Clearing one set bit of a code gives an almost
complete pair, the key of its bucket.  The module part of `lower` lies in
the torsion class of `upper` iff `upper.mods & ~tors[lower] == 0` and
`supp[lower] & upper.proj == 0`, where `tors` is the AND of `tors_mask` and
`supp` the OR of `support_mask` over the summands: the direction of each
arrow is decided in O(1).
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Sequence

from .catalog import Catalog, ModuleRef
from .errors import InvariantViolation, PreconditionError
from .util import topological_order


@dataclass(frozen=True)
class STauPair:
    """A support tau-tilting pair: catalog indices plus unsupported vertices."""
    modules: tuple[int, ...]
    proj_part: tuple[str, ...]
    g: tuple[int, ...]


@dataclass(frozen=True)
class HasseQuiver:
    """Left-mutation quiver on the enumerated pairs (vertices sorted by g-vector)."""
    pairs: tuple[STauPair, ...]
    arrows: tuple[tuple[int, int], ...]


def is_tau_rigid(cat: Catalog, ref: ModuleRef) -> bool:
    return all(cat.tors_mask[i] >> j & 1 for i in ref for j in ref)


def is_tau_tilting(cat: Catalog, ref: ModuleRef) -> bool:
    if len(set(ref)) != len(ref):
        raise PreconditionError("module is not basic")
    return len(ref) == cat.algebra.n_vertices and is_tau_rigid(cat, ref)


def is_tilting(cat: Catalog, ref: ModuleRef) -> bool:
    """Classical tilting test, read off the catalog tables.

    A tau-tilting module is tilting iff every summand has pd <= 1
    (Adachi-Iyama-Reiten, tau-tilting theory, 2014): for pd M <= 1,
    Ext^1(M, N) is dual to Hom(N, tau M).
    """
    if len(set(ref)) != len(ref):
        raise PreconditionError("module is not basic")
    return (len(ref) == cat.algebra.n_vertices and all(cat.pd_le_one[i] for i in ref)
            and is_tau_rigid(cat, ref))


def enumerate_stau(cat: Catalog) -> list[STauPair]:
    """All support tau-tilting pairs, canonically ordered by g-vector.

    The DFS visits cliques in lexicographic preorder.  The catalog is finite,
    so the search is too.  It runs on an explicit stack of
    (candidates, support, module g-vector, clique) nodes: a recursive inner
    function refers to itself, and that reference cycle keeps a finished
    search's pairs alive until the cyclic garbage collector runs.
    """
    vertices = cat.algebra.quiver.vertices
    all_vertices = (1 << len(vertices)) - 1
    compat, support_mask, g_rows = cat.compat_mask, cat.support_mask, cat.g_vectors
    pairs: list[STauPair] = []
    seen_g: dict[tuple[int, ...], tuple[int, ...]] = {}
    rigid = sum(1 << i for i, m in enumerate(cat.tors_mask) if m >> i & 1)
    stack = [(rigid, 0, (0,) * len(vertices), ())]
    while stack:
        candidates, support, g_modules, clique = stack.pop()
        if len(clique) == support.bit_count():
            unsupported = all_vertices & ~support
            g = tuple(c - (unsupported >> k & 1) for k, c in enumerate(g_modules))
            if g in seen_g:
                if seen_g[g] != clique:
                    raise InvariantViolation(f"distinct pairs share the g-vector {g}")
            else:
                seen_g[g] = clique
                proj = tuple(v for k, v in enumerate(vertices) if unsupported >> k & 1)
                pairs.append(STauPair(clique, proj, g))
        # Push from the highest candidate down, so the lowest is popped first.
        # A child's candidates are the candidates above it, ANDed with its row.
        above = 0
        while candidates:
            i = candidates.bit_length() - 1
            candidates ^= 1 << i
            stack.append((above & compat[i], support | support_mask[i],
                          tuple(map(add, g_modules, g_rows[i])), clique + (i,)))
            above |= 1 << i
    pairs.sort(key=lambda p: p.g)
    return pairs


def tau_tilting_modules(pairs: Sequence[STauPair]) -> list[ModuleRef]:
    return [p.modules for p in pairs if not p.proj_part]


def tilting_modules(cat: Catalog, pairs: Sequence[STauPair]) -> list[ModuleRef]:
    return [m for m in tau_tilting_modules(pairs) if is_tilting(cat, m)]


def hasse(cat: Catalog, pairs: Sequence[STauPair] | None = None) -> HasseQuiver:
    """Mutation arrows between pairs whose summand sets differ in one element."""
    if pairs is None:
        pairs = enumerate_stau(cat)
    pairs = list(pairs)
    n = cat.algebra.n_vertices
    pos = cat.algebra.quiver.vertex_pos
    every_entry = (1 << cat.size) - 1
    mods: list[int] = []
    proj: list[int] = []
    tors: list[int] = []
    supp: list[int] = []
    for p in pairs:
        m, t, s = 0, every_entry, 0
        for i in p.modules:
            m |= 1 << i
            t &= cat.tors_mask[i]
            s |= cat.support_mask[i]
        mods.append(m)
        tors.append(t)
        supp.append(s)
        proj.append(sum(1 << pos[v] for v in p.proj_part))
    buckets: dict[int, list[int]] = {}
    for idx, (m, q) in enumerate(zip(mods, proj)):
        code = rest = m | q << cat.size
        while rest:
            low = rest & -rest
            rest ^= low
            buckets.setdefault(code ^ low, []).append(idx)

    def in_torsion_class(lower: int, upper: int) -> bool:
        return not (mods[upper] & ~tors[lower] or supp[lower] & proj[upper])

    arrows: list[tuple[int, int]] = []
    neighbor_count = [0] * len(pairs)
    for members in buckets.values():
        if len(members) == 1:
            continue
        if len(members) > 2:
            raise InvariantViolation("more than two completions of an almost complete pair")
        a, b = members
        down_ab = in_torsion_class(b, a)
        if down_ab == in_torsion_class(a, b):
            raise InvariantViolation("mutation direction is not uniquely determined")
        arrows.append((a, b) if down_ab else (b, a))
        neighbor_count[a] += 1
        neighbor_count[b] += 1
    if any(c != n for c in neighbor_count):
        raise InvariantViolation("exchange graph is not n-regular")
    _assert_hasse_shape(cat, pairs, arrows)
    return HasseQuiver(tuple(pairs), tuple(sorted(arrows)))


def _assert_hasse_shape(cat: Catalog, pairs: list[STauPair],
                        arrows: list[tuple[int, int]]) -> None:
    if topological_order(len(pairs), arrows) is None:
        raise InvariantViolation("mutation quiver has a cycle")
    indeg = [0] * len(pairs)
    outdeg = [0] * len(pairs)
    for a, b in arrows:
        outdeg[a] += 1
        indeg[b] += 1
    sources = [i for i, d in enumerate(indeg) if d == 0]
    sinks = [i for i, d in enumerate(outdeg) if d == 0]
    if len(sources) != 1 or len(sinks) != 1:
        raise InvariantViolation("mutation quiver does not have unique source and sink")
    proj_all = tuple(sorted(cat.projective_index[v] for v in cat.algebra.quiver.vertices))
    if pairs[sources[0]].modules != proj_all or pairs[sources[0]].proj_part:
        raise InvariantViolation("source of the mutation quiver is not the regular pair")
    if pairs[sinks[0]].modules or set(pairs[sinks[0]].proj_part) != set(cat.algebra.quiver.vertices):
        raise InvariantViolation("sink of the mutation quiver is not the zero pair")


def pair_label(pair: STauPair) -> str:
    mods = ",".join(str(i) for i in pair.modules)
    proj = ",".join(pair.proj_part)
    return f"M[{mods}]|P[{proj}]"


def pair_to_dict(pair: STauPair) -> dict:
    return {"summands": list(pair.modules),
            "support_complement": list(pair.proj_part),
            "g": list(pair.g)}
