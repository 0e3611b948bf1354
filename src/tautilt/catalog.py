"""The indecomposable catalog of a representation-directed algebra.

The catalog is the closure of the indecomposable injectives under the AR
translate tau.  It is complete for the representation-directed algebras this
package targets, where every indecomposable is tau^k of an injective (Ringel,
LNM 1099, 2.4), and such an algebra is tau-tilting finite, so no later
search needs a cap.

Over a representation-directed algebra an indecomposable is determined by
its dimension vector, and no coordinate of that vector exceeds 6 (Ringel,
LNM 1099, 2.4).  Entries are keyed by `dims`.  Two non-isomorphic modules
with one vector, a coordinate above 6, a projective or simple module the
closure never reaches, or an oriented cycle in the quiver raise
`NotDirectedError`.  Every entry must have dim End E = 1, read off the
diagonal of the Hom table, and Euler form chi(dim E) = 1, and every pair must
satisfy the AR formula, which ties the g-vectors and `tau_index` to the ranks.

The closure computes each entry's minimal presentation P1 -p-> P0 -> E_j -> 0
once, and the rest is read off it: tau E_j (the kernel of the Nakayama
functor on p), whether E_j is P(v) (P1 = 0), the g-vector, pd E_j <= 1, and,
for every entry E_i, one rank of Hom(p, E_i): the corank is dim Hom(E_j, E_i),
and full row rank means Hom(E_i, tau E_j) = 0 (Adachi-Iyama-Reiten,
Compositio 2014, Prop. 2.4).  No Hom space is solved for, and the tau-Hom
relation is kept only as the bit rows `tors_mask` and `compat_mask`.
"""
from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .algebra import Algebra
from .errors import InvariantViolation, NotDirectedError, PreconditionError
from .linalg import QMatrix, invert, solve
from .modules import (MinPresentation, PathActions, Representation, direct_sum,
                      injective, iso, min_presentation, presentation_hom, projective,
                      tau_of_entry)
from .util import topological_order

ModuleRef = tuple[int, ...]
"""A finite multiset of catalog indices, stored sorted."""

NOT_DIRECTED = "the algebra is not representation-directed"

# The support algebra of a directing module is sincere and directed, so its
# Tits form is weakly positive (Ringel, LNM 1099, 2.4; Bongartz), and the
# positive roots of a weakly positive unit form have coordinates at most 6
# (Ovsienko).  Hereditary E8 reaches 6.
MAX_DIRECTED_COORDINATE = 6


def _bits(flags) -> int:
    """The int whose bit k is set iff the k-th flag is truthy."""
    return sum(1 << k for k, f in enumerate(flags) if f)


class Catalog:
    """Ordered list of all indecomposables with pairwise tau-Hom tables.

    `presentations[j]` is the minimal presentation of E_j and `tau_index[j]` the
    index of tau E_j, or None when E_j is projective; `build_catalog` makes both.
    """

    def __init__(self, algebra: Algebra, entries: Sequence[Representation],
                 presentations: Sequence[MinPresentation], tau_index: Sequence[int | None]):
        self.algebra = algebra
        self.entries = tuple(entries)
        self.presentations = list(presentations)
        self.size = len(self.entries)
        self.tau_index = list(tau_index)
        self.index_by_dims = {e.dims: i for i, e in enumerate(self.entries)}
        if len(self.index_by_dims) != self.size:
            raise NotDirectedError(f"two catalog entries share a dimension vector; "
                                   f"{NOT_DIRECTED}")
        vertices = algebra.quiver.vertices
        self.g_vectors = [tuple(p.p0_vertices.count(v) - p.p1_vertices.count(v) for v in vertices)
                          for p in self.presentations]
        # pd E <= 1 iff the syzygy, of dimension dim P0 - dim E, is its own cover P1.
        dim_p = {v: projective(algebra, v).total_dim for v in vertices}
        self.pd_le_one = [sum(dim_p[u] for u in p.p1_vertices)
                          == sum(dim_p[v] for v in p.p0_vertices) - e.total_dim
                          for e, p in zip(self.entries, self.presentations)]
        # homs[i][j] = (dim Hom(E_j, E_i), Hom(E_i, tau E_j) = 0): one rank per pair,
        # with the path actions on E_i computed once and dropped after this loop.
        homs = [[presentation_hom(pres, act) for pres in self.presentations]
                for act in map(PathActions, self.entries)]
        # A directing module has End = k (Ringel, LNM 1099, 2.4): the diagonal reads 1.
        for i, e in enumerate(self.entries):
            if homs[i][i][0] != 1:
                raise InvariantViolation(f"dim End is {homs[i][i][0]} on the catalog entry with "
                                         f"dims {list(e.dims)}, not 1")
        # Bit j of tors_mask[i]: Hom(E_i, tau E_j) = 0, so E_i is tau-rigid iff bit i
        # is set.  compat_mask[i] keeps the j with Hom(E_j, tau E_i) = 0 as well;
        # bit k of support_mask[i]: dims[k] != 0.
        self.tors_mask = [_bits(zero for _, zero in row) for row in homs]
        self.compat_mask = [m & _bits(row[i][1] for row in homs)
                            for i, m in enumerate(self.tors_mask)]
        self.support_mask = [_bits(e.dims) for e in self.entries]
        # P(v) is the entry presented by P(v) alone; S_v the entry of dimension vector e_v.
        presented = {pres.p0_vertices[0]: i for i, pres in enumerate(self.presentations)
                     if not pres.p1_vertices}
        units = {v: tuple(int(w == v) for w in vertices) for v in vertices}
        missing = [v for v, e in units.items() if v not in presented or e not in self.index_by_dims]
        if missing:
            raise NotDirectedError(f"the projective or simple module at vertex {missing[0]} is "
                                   f"missing from the catalog; {NOT_DIRECTED}")
        self.projective_index = {v: presented[v] for v in units}
        self.simple_index = {v: self.index_by_dims[e] for v, e in units.items()}
        _check_euler_form(algebra, self.entries)
        # The AR formula <g(E_j), dim E_i> = dim Hom(E_j, E_i) - dim Hom(E_i, tau E_j)
        # is the alternating sum of 0 -> Hom(E_j, E_i) -> Hom(P0, E_i) -> Hom(P1, E_i)
        # -> D Hom(E_i, tau E_j) -> 0; its last term is another rank, on tau E_j's row.
        for j, (g, t) in enumerate(zip(self.g_vectors, self.tau_index)):
            for i, e in enumerate(self.entries):
                pairing = sum(a * b for a, b in zip(g, e.dims))
                if pairing != homs[i][j][0] - (0 if t is None else homs[t][i][0]):
                    raise InvariantViolation(f"the AR formula fails on the catalog entries with "
                                             f"dims {list(self.entries[j].dims)} and {list(e.dims)}")

    def find_index(self, rep: Representation) -> int | None:
        """Index of the entry isomorphic to `rep`: the dims key, confirmed by `iso`."""
        i = self.index_by_dims.get(rep.dims)
        return i if i is not None and iso(self.entries[i], rep) else None

    @cached_property
    def hom_dims(self) -> QMatrix:
        """dim Hom(E_i, E_k) at row i, column k: the ranks of `__init__`, redone on first read."""
        acts = [PathActions(e) for e in self.entries]
        return QMatrix(self.size, self.size, [presentation_hom(pres, act)[0]
                                              for pres in self.presentations for act in acts])

    def decompose(self, rep: Representation) -> ModuleRef:
        """Multiplicities m_k solving sum_k dim Hom(E_i, E_k) m_k = dim Hom(E_i, rep).

        Over a representation-finite algebra a module is fixed by these Hom
        dimensions (Auslander), so the exact solution is the decomposition;
        one `iso` against the direct sum it names confirms it.
        """
        if rep.algebra != self.algebra:
            raise PreconditionError("representation over a different algebra")
        act = PathActions(rep)
        mult = solve(self.hom_dims, [presentation_hom(pres, act)[0]
                                     for pres in self.presentations])
        if mult is None or any(m.denominator != 1 or m < 0 for m in mult):
            raise InvariantViolation("Hom dimensions match no sum of catalog entries")
        ref = tuple(k for k, m in enumerate(mult) for _ in range(int(m)))
        summed, _ = direct_sum(self.algebra, [self.entries[k] for k in ref])
        if not iso(summed, rep):
            raise InvariantViolation("module is not the sum its Hom dimensions name")
        return ref


def _check_acyclic(algebra: Algebra) -> None:
    """An arrow v -> w is a radical map P(w) -> P(v): a cycle of arrows is one of projectives."""
    q = algebra.quiver
    n = len(q.vertices)
    codes = sorted(q.vertex_pos[a.source] * n + q.vertex_pos[a.target] for a in q.arrows)
    if topological_order(n, codes)[0] is None:
        raise NotDirectedError(f"the quiver has an oriented cycle; {NOT_DIRECTED}")


def _check_euler_form(algebra: Algebra, entries: Sequence[Representation]) -> None:
    """chi(dim E) = x^T C^-1 x = 1 for every entry; C[i][j] counts the paths i -> j.

    Over an acyclic quiver C is invertible, the global dimension is finite and
    chi(dim X) = sum over t of (-1)^t dim Ext^t(X, X).  Entries have End = k, so
    another value is a self-extension: X is not directing, and the algebra is
    not representation-directed (Ringel, LNM 1099, 2.4).  The caller,
    `build_catalog`, has checked the quiver with `_check_acyclic`.
    """
    q = algebra.quiver
    inverse = invert(QMatrix.from_rows([[len(algebra.paths_between(v, w)) for w in q.vertices]
                                        for v in q.vertices], cols=len(q.vertices))).to_rows()
    for e in entries:
        x = e.dims
        support = [k for k, d in enumerate(x) if d]
        chi = sum(x[a] * inverse[a][b] * x[b] for a in support for b in support)
        if chi != 1:
            raise NotDirectedError(f"the Euler form is {chi} on the dimension vector "
                                   f"{list(x)} of a catalog entry, not 1; {NOT_DIRECTED}")


def build_catalog(algebra: Algebra) -> Catalog:
    """Close the injectives under tau, with one minimal presentation per entry.

    `add` computes each new entry's presentation, and the tau step reads
    tau E_i off it.  tau is injective into the non-injectives, so an image
    whose dimension vector is taken raises: non-isomorphic, the algebra is not
    directed; isomorphic, the image is an injective or the tau of another
    entry.  The loop ends on every input: `add` admits one entry per vector and
    raises on a coordinate above MAX_DIRECTED_COORDINATE, and only finitely
    many vectors stay within that bound.  The bound never drops a module.
    """
    _check_acyclic(algebra)
    entries: list[Representation] = []
    presentations: list[MinPresentation] = []
    index_by_dims: dict[tuple[int, ...], int] = {}
    tau_of: dict[int, int] = {}

    def add(rep: Representation) -> None:
        if max(rep.dims) > MAX_DIRECTED_COORDINATE:
            raise NotDirectedError(f"the dimension vector {list(rep.dims)} has a coordinate "
                                   f"above {MAX_DIRECTED_COORDINATE}; {NOT_DIRECTED}")
        i = index_by_dims.get(rep.dims)
        if i is not None and not iso(entries[i], rep):
            raise NotDirectedError(f"two non-isomorphic modules share the dimension "
                                   f"vector {list(rep.dims)}; {NOT_DIRECTED}")
        if i is not None:
            raise InvariantViolation(f"a tau step lands on the entry with dims "
                                     f"{list(rep.dims)}: an injective or the tau of another entry")
        index_by_dims[rep.dims] = len(entries)
        entries.append(rep)
        presentations.append(min_presentation(rep))

    for v in algebra.quiver.vertices:
        add(injective(algebra, v))
    for i, pres in enumerate(presentations):  # runs on over the entries the loop adds
        if pres.p1_vertices:
            tau_of[i] = len(entries)
            add(tau_of_entry(entries[i], pres))
    order = sorted(range(len(entries)), key=lambda i: (entries[i].total_dim, entries[i].dims))
    new_index = {old: new for new, old in enumerate(order)}
    return Catalog(algebra, [entries[i] for i in order], [presentations[i] for i in order],
                   [new_index[tau_of[i]] if i in tau_of else None for i in order])
