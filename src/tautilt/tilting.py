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
support masks, the running g-vector of its modules, the module bitmask
`mods | 1 << i` and its summand count, so keeping a clique costs one
`bit_count`; a child that no descendant can make a pair is not pushed.

The running g-vector is one int of n lanes, coordinate 0 in the most
significant lane, each lane a signed `width`-byte value offset by half its
range.  A child adds its entry's packed row: one int addition.  A kept pair
has at most n summands, so a lane never leaves its range, and the packed
ints sort as the g-vectors do.

A kept pair is one int: its biased packed g-vector, shifted above its code.
The code is the module bits first (bits 0 to cat.size - 1), then the bits of
the unsupported vertices (bit cat.size + k for the k-th vertex).  The ints
are sorted once, which sorts the pairs by g-vector; distinct pairs have
distinct g-vectors (Adachi-Iyama-Reiten, Thm 5.5), and two neighbours with
one g-vector raise.  A `PairTable` keeps the ints as they are, with the
catalog they index, so it is read without one at hand.  Its length, the
full-support modules, `hasse`'s codes, and each pair's unsupported-vertex
bits, label and g-vector are read off the ints: `g(k)` unpacks pair k's lanes
with one `struct` call, and `as_dict(k)`, the line `enumerate` prints, adds
the module bits and the unsupported vertices to it.  No other record of a
pair is built.

Where a per-entry value is folded over a pair's module bits, the fold is
read off per-byte tables instead of walked bit by bit: `_byte_rows` makes
one row for each 8 entries (256 cells, fewer for the last), cell c of row o
holding the fold over the entries 8 * o + b for the set bits b of c.  A pair then costs one
lookup per byte of module bits.  `PairTable.label` joins the cells that
hold comma-joined entry numbers; `hasse` ANDs the cells that hold torsion
rows.

`hasse` works on the codes, each read off its key as `key & code_mask`; no
list of them is built.  Clearing one set bit of a code gives an almost
complete pair.  Its completions add one module or one unsupported vertex, so
those of an almost complete pair with unsupported set U are pairs of U with
one module bit cleared and pairs of U + {v} with bit v cleared.  `hasse`
indexes the pairs by unsupported mask once: one `array` of pair indices
grouped by mask, and one of the offsets where each mask's run starts.  It
then visits each U in order with one dict, in which each almost complete
pair with set U is the key of one slot.  The slot holds the first
completion; the second decides
the arrow at once and leaves -1, so a third raises.  Each U's dict is freed
before the next (on A2 n=11 the largest holds 1,164 of the 76,230 slots),
and a direction that cannot be decided is reported after every U, so the
errors come in the order: third completion, undecided direction,
n-regularity.  The module part of `lower` lies in the torsion class of `upper`
iff `upper.mods & ~tors[lower] == 0` and `supp[lower] & upper.proj == 0`,
where `tors` is the AND of `tors_mask` over the summands, read off the
byte tables, and `supp`, the support, is the complement of the unsupported
bits (Adachi-Iyama-Reiten, Thm 2.18).  The table cells are the ANDs
themselves, so each `outside` mask is bit for bit the one the summands give.
Both tests are one AND of `upper`'s code with `lower`'s `outside` mask, so
the direction of each arrow is decided in O(1) from the whole torsion class;
the masks hold code bits only, so they AND a whole key as they AND its code.
An arrow a -> b is coded a * |pairs| + b and yielded, as it is decided, by
the generator `_arrow_codes`, which owns the byte tables, the masks and the
index, so they are freed when it ends, before `util.sorted_codes` sorts the
codes it streamed into buckets; no list of every code is built.
`HasseQuiver.arrows` keeps the sorted codes as they are, in one
`array('q')`: 8 bytes an arrow, and no (a, b) tuple is built.
`divmod(code, |pairs|)` gives the arrow back, and sorted codes are sorted by
tail, which is what `topological_order` reads.  The source and the sink are
checked on their codes too, so `hasse` decodes no pair.
"""
from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from struct import Struct
from typing import Iterator

from .catalog import Catalog, ModuleRef
from .errors import InvariantViolation, PreconditionError
from .util import sorted_codes, topological_order


# Lane width in bytes -> its `struct` format character.
_LANE_FORMAT = {1: "b", 2: "h", 4: "i", 8: "q"}


def _lanes(n: int, width: int) -> tuple[list[int], int]:
    """The unit of each of n lanes of `width` bytes, coordinate 0 the most
    significant, and the bias that offsets every lane by half its range."""
    units = [1 << 8 * width * (n - 1 - k) for k in range(n)]
    return units, sum(units) << 8 * width - 1


def _byte_rows(items: Sequence, unit, join) -> list[list]:
    """One row per 8 items: row o, column c folds `join` over items[8 * o + b]
    for the set bits b of byte c, ascending, starting from `unit`."""
    rows = []
    for o in range(0, len(items), 8):
        row = [unit]
        for item in items[o:o + 8]:
            row += [join(cell, item) for cell in row]
        rows.append(row)
    return rows


def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class PairTable:
    """The enumerated pairs of `catalog`, one int each, read-only: `keys[k]` is
    pair k's biased packed g-vector, in `width`-byte lanes, shifted above its
    code (module bits, which index `catalog`, then unsupported-vertex bits, in
    the order of its algebra's vertices).  `g(k)` unpacks pair k's g-vector,
    and `as_dict(k)` is pair k as `enumerate` prints it."""
    keys: tuple[int, ...]
    catalog: Catalog
    width: int

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        return self.catalog.algebra.quiver.vertices

    @cached_property
    def size(self) -> int:
        return self.catalog.size

    @cached_property
    def tau_tilt(self) -> list[ModuleRef]:
        """The modules of the full-support pairs, in table order, read off the ints."""
        every_entry = (1 << self.size) - 1
        proj_bits = (1 << len(self.vertices)) - 1 << self.size
        return [_bits(key & every_entry) for key in self.keys if not key & proj_bits]

    def __len__(self) -> int:
        return len(self.keys)

    @cached_property
    def _layout(self) -> tuple[int, int, Struct, dict[int, tuple[str, ...]]]:
        """(code bits, lane bias, g-vector unpacker, and the projective part of
        each unsupported-vertex mask met so far: pairs of one mask share it)."""
        n = len(self.vertices)
        return (self.size + n, _lanes(n, self.width)[1],
                Struct(f">{n}{_LANE_FORMAT[self.width]}"), {})

    def _proj_part(self, key: int) -> tuple[str, ...]:
        """The unsupported vertices of `key`, one tuple per vertex mask."""
        proj_of = self._layout[3]
        unsupported = key >> self.size & (1 << len(self.vertices)) - 1
        proj = proj_of.get(unsupported)
        if proj is None:
            proj = proj_of[unsupported] = tuple(
                v for k, v in enumerate(self.vertices) if unsupported >> k & 1)
        return proj

    def g(self, k: int) -> tuple[int, ...]:
        """Pair k's g-vector: its key's lanes, unbiased, in one `struct` unpack."""
        code_bits, bias, g_struct, _ = self._layout
        return g_struct.unpack((self.keys[k] >> code_bits ^ bias).to_bytes(g_struct.size, "big"))

    def as_dict(self, k: int) -> dict:
        """Pair k as `enumerate` prints it: summands, unsupported vertices, g-vector."""
        key = self.keys[k]
        return {"summands": list(_bits(key & (1 << self.size) - 1)),
                "support_complement": list(self._proj_part(key)), "g": list(self.g(k))}

    @cached_property
    def _label_rows(self) -> list[list[str]]:
        """Row o, column c: the comma-joined entry numbers of the set bits of byte c."""
        return _byte_rows([str(i) for i in range(self.size)], "",
                          lambda cell, i: f"{cell},{i}" if cell else i)

    def label(self, k: int) -> str:
        """Pair k as `M[modules]|P[unsupported vertices]`, read off its key
        one byte of module bits at a time, with no g-vector."""
        key = self.keys[k]
        mods = (key & (1 << self.size) - 1).to_bytes(self.size + 7 >> 3, "little")
        return (f"M[{','.join([row[b] for row, b in zip(self._label_rows, mods) if b])}]"
                f"|P[{','.join(self._proj_part(key))}]")

    def unsupported_masks(self) -> list[int]:
        """Each pair's unsupported-vertex bits: bit k for the k-th vertex."""
        all_vertices = (1 << len(self.vertices)) - 1
        return [key >> self.size & all_vertices for key in self.keys]


@dataclass(frozen=True)
class HasseQuiver:
    """Left-mutation quiver on the enumerated pairs (vertices sorted by g-vector).

    `pairs` is the enumeration's `PairTable`, and vertex k is its pair k.
    `arrows` holds the arrow a -> b as the code a * len(pairs) + b, the codes
    strictly increasing; `dags.hasse_to_dag` wraps these codes as they are.
    """
    pairs: PairTable
    arrows: array


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


def enumerate_stau(cat: Catalog) -> PairTable:
    """All support tau-tilting pairs, canonically ordered by g-vector.

    The DFS grows each clique by catalog indices above its last one, so it
    meets every clique once, and the catalog is finite, so the search ends.
    It runs on an explicit stack of (candidates, support, packed module
    g-vector, module bits, summand count) nodes: a recursive inner function
    refers to itself, and that reference cycle keeps a finished search's
    pairs alive until the cyclic garbage collector runs.  Each descendant of
    a node adds one summand and never shrinks the support, so a child with
    fewer summands and candidates together than supported vertices leads to
    no kept pair and is not pushed.
    """
    n, size = cat.algebra.n_vertices, cat.size
    all_vertices = (1 << n) - 1
    compat, support_mask = cat.compat_mask, cat.support_mask
    # A kept pair has at most n summands, so |g_k| <= n * max|g entry| + 1 < bound:
    # signed lanes of `width` bytes hold it, and no lane carries into the next.
    bound = n * (max((abs(c) for g in cat.g_vectors for c in g), default=0) + 1) + 1
    width = next(w for w in _LANE_FORMAT if bound < 1 << 8 * w - 1)
    lane, bias = _lanes(n, width)
    packed = [sum(c * u for c, u in zip(g, lane)) for g in cat.g_vectors]
    code_bits = size + n
    # Unsupported-vertex mask -> the packed g-vector of its projectives.
    proj_of: dict[int, int] = {}
    kept: list[int] = []
    rigid = sum(1 << i for i, m in enumerate(cat.tors_mask) if m >> i & 1)
    stack = [(rigid, 0, bias, 0, 0)]
    while stack:
        candidates, support, g_modules, mods, depth = stack.pop()
        if depth == support.bit_count():
            unsupported = all_vertices ^ support
            g_proj = proj_of.get(unsupported)
            if g_proj is None:
                g_proj = proj_of[unsupported] = sum(
                    u for k, u in enumerate(lane) if unsupported >> k & 1)
            kept.append((g_modules - g_proj) << code_bits | unsupported << size | mods)
        # A child takes one candidate i; its candidates are those above i, ANDed with its row.
        depth += 1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            child, child_support = candidates & compat[i], support | support_mask[i]
            if depth + child.bit_count() >= child_support.bit_count():
                stack.append((child, child_support, g_modules + packed[i], mods | low, depth))
    # Biased lanes, coordinate 0 the most significant: int order is g-vector order.
    kept.sort()
    pairs = PairTable(tuple(kept), cat, width)
    keys = pairs.keys
    for k in range(1, len(keys)):
        if keys[k - 1] >> code_bits == keys[k] >> code_bits:
            raise InvariantViolation(f"distinct pairs share the g-vector {pairs.g(k)}")
    return pairs


def tilting_modules(pairs: PairTable) -> list[ModuleRef]:
    """The tilting modules among the full-support modules of `pairs`."""
    return [m for m in pairs.tau_tilt if is_tilting(pairs.catalog, m)]


def hasse(pairs: PairTable) -> HasseQuiver:
    """Mutation arrows between pairs whose summand sets differ in one element:
    `_arrow_codes` finds them, and `util.sorted_codes` sorts them once it ends."""
    cat = pairs.catalog
    n, count = cat.algebra.n_vertices, len(pairs)
    arrows = sorted_codes(_arrow_codes(pairs), count * count)
    # No pair has more neighbours than summands, so n summands each and
    # n * count / 2 arrows leave every pair exactly n neighbours.
    code_mask = (1 << cat.size + n) - 1
    if 2 * len(arrows) != n * count or any((key & code_mask).bit_count() != n
                                           for key in pairs.keys):
        raise InvariantViolation("exchange graph is not n-regular")
    _assert_hasse_shape(cat, pairs.keys, arrows)
    return HasseQuiver(pairs, arrows)


def _arrow_codes(pairs: PairTable) -> Iterator[int]:
    """The code a * len(pairs) + b of each mutation arrow a -> b, as it is
    decided, found with one slot table per unsupported-vertex set U of an
    almost complete pair, each freed before the next U is visited.  The byte
    tables, the `outside` masks and the index are locals of this generator, so
    they are freed when it ends."""
    cat = pairs.catalog
    n, size = cat.algebra.n_vertices, cat.size
    keys, count = pairs.keys, len(pairs)
    every_entry = (1 << size) - 1
    all_vertices = (1 << n) - 1
    code_mask = (1 << size + n) - 1
    # Row o, column c: the AND of the torsion rows of the entries 8 * o + b, b a set bit of c.
    tors_rows = _byte_rows(cat.tors_mask, every_entry, int.__and__)
    n_bytes = size + 7 >> 3
    # A kept pair's support is the complement of its unsupported bits.
    outside: list[int] = []
    # start[u + 1] counts the pairs with unsupported mask u, then is summed up to it.
    # Each of the 2^n masks is a pair's, (A/<e_U>, e_U A)'s, so there are no more masks than pairs.
    start = array("q", [0]) * (all_vertices + 2)
    for key in keys:
        t = every_entry
        for row, byte in zip(tors_rows, (key & every_entry).to_bytes(n_bytes, "little")):
            t &= row[byte]
        unsupported = key >> size & all_vertices
        outside.append(every_entry ^ t | (all_vertices ^ unsupported) << size)
        start[unsupported + 1] += 1
    start = array("q", accumulate(start))
    # The pair indices grouped by unsupported mask: mask u's are index[start[u]:start[u + 1]].
    index, fill = array("q", [0]) * count, start[:-1]
    for b, key in enumerate(keys):
        unsupported = key >> size & all_vertices
        index[fill[unsupported]] = b
        fill[unsupported] += 1
    # Vertex v's bit in an unsupported mask, and in a code.
    vertex_bits = [(1 << v, 1 << size + v) for v in range(n)]
    undecided = False  # raised after every table: a third completion is reported first
    for u in range(all_vertices + 1):
        # The completions of an almost complete pair with unsupported mask u: the
        # pairs of u with one module bit cleared, those of u + {v} with bit v cleared.
        groups = [(index[start[u]:start[u + 1]], every_entry)]
        groups += [(index[start[u | vb]:start[(u | vb) + 1]], cb)
                   for vb, cb in vertex_bits if not u & vb]
        # Almost complete pair -> its first completion, then -1 once a second one came.
        slot: dict[int, int] = {}
        for members, bits in groups:
            for b in members:
                code = keys[b] & code_mask
                rest = code & bits
                while rest:
                    low = rest & -rest
                    rest ^= low
                    almost = code ^ low
                    a = slot.setdefault(almost, b)
                    if a == b:
                        continue
                    if a < 0:
                        raise InvariantViolation(
                            "more than two completions of an almost complete pair")
                    slot[almost] = -1
                    down_ab = not keys[a] & outside[b]
                    if down_ab == (not code & outside[a]):
                        undecided = True
                    else:
                        yield a * count + b if down_ab else b * count + a
    if undecided:
        raise InvariantViolation("mutation direction is not uniquely determined")


def _assert_hasse_shape(cat: Catalog, codes: Sequence[int], arrows: Sequence[int]) -> None:
    """`codes` are the pairs' keys, or ints whose low bits are their codes:
    only the code bits are read.  `arrows` are codes a * len(codes) + b,
    sorted."""
    order, indeg, outdeg = topological_order(len(codes), arrows)
    if order is None:
        raise InvariantViolation("mutation quiver has a cycle")
    sources = [i for i, d in enumerate(indeg) if d == 0]
    sinks = [i for i, d in enumerate(outdeg) if d == 0]
    if len(sources) != 1 or len(sinks) != 1:
        raise InvariantViolation("mutation quiver does not have unique source and sink")
    n, size = cat.algebra.n_vertices, cat.size
    code_mask = (1 << size + n) - 1
    if codes[sources[0]] & code_mask != sum(1 << i for i in cat.projective_index.values()):
        raise InvariantViolation("source of the mutation quiver is not the regular pair")
    if codes[sinks[0]] & code_mask != (1 << n) - 1 << size:
        raise InvariantViolation("sink of the mutation quiver is not the zero pair")

