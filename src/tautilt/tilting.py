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

The running g-vector is one int of n lanes, coordinate 0 in the most
significant lane, each lane a signed `width`-byte value offset by half its
range.  A child adds its entry's packed row: one int addition.  A kept pair
has at most n summands, so a lane never leaves its range, and the packed
ints sort as the g-vectors do.  Only a kept pair is decoded, by one
`struct` unpack of its bytes, and pairs of one unsupported-vertex set share
one projective-part tuple.

`hasse` codes a pair as one int: the module bits first (bits 0 to
cat.size - 1), then the bits of the unsupported vertices (bit cat.size + k
for the k-th vertex).  Clearing one set bit of a code gives an almost
complete pair, the key of one dict slot.  The slot holds the first
completion; the second decides the arrow at once and leaves -1, so a third
raises.  The module part of `lower` lies in the torsion class of `upper`
iff `upper.mods & ~tors[lower] == 0` and `supp[lower] & upper.proj == 0`,
where `tors` is the AND of `tors_mask` and `supp` the OR of `support_mask`
over the summands (Adachi-Iyama-Reiten, Thm 2.18).  Both tests are one AND
of `upper`'s code with `lower`'s `outside` mask, so the direction of each
arrow is decided in O(1).  An arrow (a, b) is coded a * |pairs| + b, and the
codes are sorted once.
"""
from __future__ import annotations

from dataclasses import dataclass
from struct import Struct
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
    return is_tau_tilting(cat, ref) and all(cat.pd_le_one[i] for i in ref)


def enumerate_stau(cat: Catalog) -> list[STauPair]:
    """All support tau-tilting pairs, canonically ordered by g-vector.

    The DFS grows each clique by catalog indices above its last one, so it
    meets every clique once, and the catalog is finite, so the search ends.
    It runs on an explicit stack of (candidates, support, packed module
    g-vector, clique) nodes: a recursive inner function refers to itself,
    and that reference cycle keeps a finished search's pairs alive until the
    cyclic garbage collector runs.
    """
    vertices = cat.algebra.quiver.vertices
    n = len(vertices)
    all_vertices = (1 << n) - 1
    compat, support_mask = cat.compat_mask, cat.support_mask
    # A kept pair has at most n summands, so |g_k| <= n * max|g entry| + 1 < bound:
    # signed lanes of `width` bytes hold it, and no lane carries into the next.
    bound = n * (max((abs(c) for g in cat.g_vectors for c in g), default=0) + 1) + 1
    width, lane_format = next((w, f) for w, f in ((1, "b"), (2, "h"), (4, "i"), (8, "q"))
                              if bound < 1 << 8 * w - 1)
    lane = [1 << 8 * width * (n - 1 - k) for k in range(n)]
    bias = sum(lane) << 8 * width - 1
    packed = [sum(c * u for c, u in zip(g, lane)) for g in cat.g_vectors]
    decode = Struct(f">{n}{lane_format}").unpack
    # Unsupported-vertex mask -> (projective part, its packed g-vector).
    proj_of: dict[int, tuple[tuple[str, ...], int]] = {}
    kept: list[tuple[int, tuple[int, ...], tuple[str, ...]]] = []
    rigid = sum(1 << i for i, m in enumerate(cat.tors_mask) if m >> i & 1)
    stack = [(rigid, 0, bias, ())]
    while stack:
        candidates, support, g_modules, clique = stack.pop()
        if len(clique) == support.bit_count():
            unsupported = all_vertices & ~support
            proj = proj_of.get(unsupported)
            if proj is None:
                proj = proj_of[unsupported] = (
                    tuple(v for k, v in enumerate(vertices) if unsupported >> k & 1),
                    sum(u for k, u in enumerate(lane) if unsupported >> k & 1))
            kept.append((g_modules - proj[1], clique, proj[0]))
        # A child takes one candidate i; its candidates are those above i, ANDed with its row.
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            stack.append((candidates & compat[i], support | support_mask[i],
                          g_modules + packed[i], clique + (i,)))
    # Biased lanes, coordinate 0 the most significant: int order is g-vector order.
    # Popped from the end of the reversed list, each kept node is freed as its pair is built.
    kept.sort(reverse=True)
    pairs: list[STauPair] = []
    previous = None
    while kept:
        key, clique, proj = kept.pop()
        if key == previous:
            raise InvariantViolation(f"distinct pairs share the g-vector {pairs[-1].g}")
        previous = key
        pairs.append(STauPair(clique, proj, decode((key ^ bias).to_bytes(n * width, "big"))))
    return pairs


def tau_tilting_modules(pairs: Sequence[STauPair]) -> list[ModuleRef]:
    return [p.modules for p in pairs if not p.proj_part]


def tilting_modules(cat: Catalog, pairs: Sequence[STauPair]) -> list[ModuleRef]:
    return [m for m in tau_tilting_modules(pairs) if is_tilting(cat, m)]


def hasse(cat: Catalog, pairs: Sequence[STauPair]) -> HasseQuiver:
    """Mutation arrows between pairs whose summand sets differ in one element."""
    pairs = tuple(pairs)
    n = cat.algebra.n_vertices
    pos = cat.algebra.quiver.vertex_pos
    size = cat.size
    every_entry = (1 << size) - 1
    tors_mask, support_mask = cat.tors_mask, cat.support_mask
    codes: list[int] = []
    outside: list[int] = []
    for p in pairs:
        m, t, s = 0, every_entry, 0
        for i in p.modules:
            m |= 1 << i
            t &= tors_mask[i]
            s |= support_mask[i]
        codes.append(m | sum(1 << pos[v] for v in p.proj_part) << size)
        outside.append(every_entry ^ t | s << size)
    # Almost complete pair -> its first completion, then -1 once a second one came.
    slot: dict[int, int] = {}
    arrow_codes: list[int] = []
    count = len(pairs)
    for b, code in enumerate(codes):
        rest = code
        while rest:
            low = rest & -rest
            rest ^= low
            a = slot.setdefault(code ^ low, b)
            if a == b:
                continue
            if a < 0:
                raise InvariantViolation("more than two completions of an almost complete pair")
            slot[code ^ low] = -1
            down_ab = not codes[a] & outside[b]
            if down_ab == (not code & outside[a]):
                raise InvariantViolation("mutation direction is not uniquely determined")
            arrow_codes.append(a * count + b if down_ab else b * count + a)
    # No pair has more neighbours than summands, so n summands each and
    # n * count / 2 arrows leave every pair exactly n neighbours.
    if 2 * len(arrow_codes) != n * count or any(c.bit_count() != n for c in codes):
        raise InvariantViolation("exchange graph is not n-regular")
    del slot, outside  # freed before the arrow tuples are built: a lower peak
    arrow_codes.sort()
    ids = list(range(count))  # one int object per vertex, shared by its arrows
    arrows = tuple(zip([ids[c // count] for c in arrow_codes],
                       [ids[c % count] for c in arrow_codes]))
    _assert_hasse_shape(cat, pairs, arrows)
    return HasseQuiver(pairs, arrows)


def _assert_hasse_shape(cat: Catalog, pairs: Sequence[STauPair],
                        arrows: Sequence[tuple[int, int]]) -> None:
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
