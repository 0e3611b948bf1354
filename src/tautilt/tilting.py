"""Support tau-tilting pairs: rigidity predicates, enumeration, Hasse quiver.

Basic tau-rigid modules are exactly the cliques of the pairwise
compatibility graph on the catalog, so enumeration is a pruned DFS over
catalog indices.  A clique is kept as a support tau-tilting pair when its
summand count equals its support size; the projective half of the pair is
then the set of unsupported vertices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .catalog import Catalog, ModuleRef
from .errors import CapExceededError, InvariantViolation, PreconditionError
from .modules import ext1, pd_at_most_one
from .util import topological_order


@dataclass(frozen=True)
class STauPair:
    """A support tau-tilting pair: catalog indices plus unsupported vertices."""
    modules: tuple[int, ...]
    proj_part: tuple[str, ...]
    g: tuple[int, ...]

    def tokens(self) -> frozenset:
        return frozenset([("m", i) for i in self.modules] +
                         [("p", v) for v in self.proj_part])


@dataclass(frozen=True)
class HasseQuiver:
    """Left-mutation quiver on the enumerated pairs (vertices sorted by g-vector)."""
    pairs: tuple[STauPair, ...]
    arrows: tuple[tuple[int, int], ...]
    n: int


def is_tau_rigid(cat: Catalog, ref: ModuleRef) -> bool:
    return all(cat.hom_tau_zero[i][j] for i in ref for j in ref)


def is_tau_tilting(cat: Catalog, ref: ModuleRef) -> bool:
    if len(set(ref)) != len(ref):
        raise PreconditionError("module is not basic")
    return len(ref) == cat.algebra.n_vertices and is_tau_rigid(cat, ref)


def is_support_tau_tilting(cat: Catalog, ref: ModuleRef) -> bool:
    if len(set(ref)) != len(ref):
        raise PreconditionError("module is not basic")
    return len(ref) == len(cat.support_of_ref(ref)) and is_tau_rigid(cat, ref)


def g_vector_of_module(cat: Catalog, ref: ModuleRef) -> tuple[int, ...]:
    g = [0] * cat.algebra.n_vertices
    for i in ref:
        for k, c in enumerate(cat.g_of_entry(i)):
            g[k] += c
    return tuple(g)


def g_vector_of_pair(cat: Catalog, modules: ModuleRef, proj_part: Iterable[str]) -> tuple[int, ...]:
    g = list(g_vector_of_module(cat, modules))
    pos = cat.algebra.quiver.vertex_pos
    for v in proj_part:
        g[pos[v]] -= 1
    return tuple(g)


def complete_to_pair(cat: Catalog, ref: ModuleRef) -> STauPair:
    """Attach the projectives on the unsupported vertices; requires a valid module part."""
    if not is_support_tau_tilting(cat, ref):
        raise PreconditionError("module part is not support tau-tilting")
    support = cat.support_of_ref(ref)
    proj = tuple(v for v in cat.algebra.quiver.vertices if v not in support)
    return STauPair(tuple(sorted(ref)), proj, g_vector_of_pair(cat, ref, proj))


def is_tilting(cat: Catalog, ref: ModuleRef) -> bool:
    """Classical tilting test: pd <= 1, no self-extensions, full summand count."""
    if len(set(ref)) != len(ref):
        raise PreconditionError("module is not basic")
    if len(ref) != cat.algebra.n_vertices:
        return False
    summands = [cat.entries[i] for i in ref]
    if not all(pd_at_most_one(s) for s in summands):
        return False
    return all(ext1(x, y) == 0 for x in summands for y in summands)


def enumerate_stau(cat: Catalog, cap: int = 1_000_000) -> list[STauPair]:
    """All support tau-tilting pairs, canonically ordered by g-vector."""
    rigid_singletons = [i for i in range(cat.size) if cat.self_rigid(i)]
    pairs: list[STauPair] = []
    seen_g: dict[tuple[int, ...], tuple[int, ...]] = {}
    count = 0

    def consider(clique: list[int]) -> None:
        ref = tuple(clique)
        support = cat.support_of_ref(ref)
        if len(ref) != len(support):
            return
        proj = tuple(v for v in cat.algebra.quiver.vertices if v not in support)
        g = g_vector_of_pair(cat, ref, proj)
        if g in seen_g:
            if seen_g[g] != ref:
                raise InvariantViolation(f"distinct pairs share the g-vector {g}")
            return
        seen_g[g] = ref
        pairs.append(STauPair(ref, proj, g))

    def extend(clique: list[int], candidates: list[int]) -> None:
        nonlocal count
        count += 1
        if count > cap:
            raise CapExceededError(f"tau-tilting infinite at this cap ({cap})")
        consider(clique)
        for k, i in enumerate(candidates):
            clique.append(i)
            extend(clique, [j for j in candidates[k + 1:] if cat.compatible(i, j)])
            clique.pop()

    extend([], rigid_singletons)
    pairs.sort(key=lambda p: p.g)
    return pairs


def tau_tilting_modules(pairs: Sequence[STauPair]) -> list[ModuleRef]:
    return [p.modules for p in pairs if not p.proj_part]


def tilting_modules(cat: Catalog, pairs: Sequence[STauPair]) -> list[ModuleRef]:
    return [m for m in tau_tilting_modules(pairs) if is_tilting(cat, m)]


def _generates(cat: Catalog, lower: STauPair, upper: STauPair) -> bool:
    """True iff the module part of `lower` lies in the torsion class of `upper`."""
    for x in lower.modules:
        for y in upper.modules:
            if not cat.hom_tau_zero[x][y]:
                return False
    pos = cat.algebra.quiver.vertex_pos
    for v in upper.proj_part:
        k = pos[v]
        for x in lower.modules:
            if cat.entries[x].dims[k]:
                return False
    return True


def hasse(cat: Catalog, pairs: Sequence[STauPair] | None = None,
          cap: int = 1_000_000) -> HasseQuiver:
    """Mutation arrows between pairs whose summand sets differ in one element."""
    if pairs is None:
        pairs = enumerate_stau(cat, cap=cap)
    pairs = list(pairs)
    n = cat.algebra.n_vertices
    tokens = [p.tokens() for p in pairs]
    buckets: dict[frozenset, list[int]] = {}
    for idx, toks in enumerate(tokens):
        for t in toks:
            buckets.setdefault(toks - {t}, []).append(idx)
    arrows: list[tuple[int, int]] = []
    neighbor_count = [0] * len(pairs)
    for key, members in sorted(buckets.items(), key=lambda kv: sorted(kv[1])):
        if len(members) == 1:
            continue
        if len(members) > 2:
            raise InvariantViolation("more than two completions of an almost complete pair")
        a, b = members
        down_ab = _generates(cat, pairs[b], pairs[a])
        down_ba = _generates(cat, pairs[a], pairs[b])
        if down_ab == down_ba:
            raise InvariantViolation("mutation direction is not uniquely determined")
        arrows.append((a, b) if down_ab else (b, a))
        neighbor_count[a] += 1
        neighbor_count[b] += 1
    if any(c != n for c in neighbor_count):
        raise InvariantViolation("exchange graph is not n-regular")
    _assert_hasse_shape(cat, pairs, arrows)
    return HasseQuiver(tuple(pairs), tuple(sorted(set(arrows))), n)


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
