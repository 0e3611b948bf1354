"""The indecomposable catalog of a representation-directed algebra.

The catalog is the closure of the indecomposable projectives under the
inverse AR translate, deduplicated up to isomorphism.  It is complete
exactly for the representation-directed algebras this package targets, and
such an algebra is tau-tilting finite, so no later search needs a cap.

Over a representation-directed algebra an indecomposable is determined by
its dimension vector, and no coordinate of that vector exceeds 6 (Ringel,
LNM 1099, 2.4).  Entries are keyed by `dims`.  Two non-isomorphic modules
with one vector, a coordinate above 6, or a standard module the closure
never reaches raise `NotDirectedError`.
"""
from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .algebra import Algebra
from .errors import InvariantViolation, NotDirectedError, PreconditionError
from .linalg import QMatrix, solve
from .modules import (Representation, direct_sum, end_reduced_dim, hom_dim, iso,
                      min_presentation, projective, simple, tau_inverse)

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

    `tau_index[j]` is the index of tau E_j, or None when E_j is projective;
    `build_catalog` reads it off its own inverse-translate steps.
    """

    def __init__(self, algebra: Algebra, entries: Sequence[Representation],
                 tau_index: Sequence[int | None]):
        self.algebra = algebra
        self.entries = tuple(entries)
        self.size = len(self.entries)
        self.tau_index = list(tau_index)
        self.index_by_dims = {e.dims: i for i, e in enumerate(self.entries)}
        if len(self.index_by_dims) != self.size:
            raise NotDirectedError(f"two catalog entries share a dimension vector; "
                                   f"{NOT_DIRECTED}")
        pos = algebra.quiver.vertex_pos
        self.g_vectors: list[tuple[int, ...]] = []
        # pd E <= 1 iff the syzygy, of dimension dim P0 - dim E, is its own cover P1.
        self.pd_le_one: list[bool] = []
        for e in self.entries:
            pres = min_presentation(e)
            g = [0] * algebra.n_vertices
            for v in pres.p0_vertices:
                g[pos[v]] += 1
            for v in pres.p1_vertices:
                g[pos[v]] -= 1
            self.g_vectors.append(tuple(g))
            self.pd_le_one.append(pres.p1.total_dim == pres.p0.total_dim - e.total_dim)
        self.hom_tau_zero = [[t is None or hom_dim(e, self.entries[t]) == 0
                              for t in self.tau_index]
                             for e in self.entries]
        # Bit j of tors_mask[i]: Hom(E_i, tau E_j) = 0.  compat_mask[i] keeps the j
        # with Hom(E_j, tau E_i) = 0 as well; bit k of support_mask[i]: dims[k] != 0.
        self.tors_mask = [_bits(row) for row in self.hom_tau_zero]
        self.compat_mask = [m & _bits(row[i] for row in self.hom_tau_zero)
                            for i, m in enumerate(self.tors_mask)]
        self.support_mask = [_bits(e.dims) for e in self.entries]
        self.projective_index = {v: self._required_index(projective(algebra, v))
                                 for v in algebra.quiver.vertices}
        self.simple_index = {v: self._required_index(simple(algebra, v))
                             for v in algebra.quiver.vertices}

    def _required_index(self, rep: Representation) -> int:
        idx = self.find_index(rep)
        if idx is None:
            raise NotDirectedError(f"standard module with dims {list(rep.dims)} missing "
                                   f"from catalog; {NOT_DIRECTED}")
        return idx

    def find_index(self, rep: Representation) -> int | None:
        """Index of the entry isomorphic to `rep`: the dims key, confirmed by `iso`."""
        i = self.index_by_dims.get(rep.dims)
        return i if i is not None and iso(self.entries[i], rep) else None

    def compatible(self, i: int, j: int) -> bool:
        return self.hom_tau_zero[i][j] and self.hom_tau_zero[j][i]

    def self_rigid(self, i: int) -> bool:
        return self.hom_tau_zero[i][i]

    def dims_of_ref(self, ref: ModuleRef) -> tuple[int, ...]:
        dims = [0] * self.algebra.n_vertices
        for i in ref:
            for k, d in enumerate(self.entries[i].dims):
                dims[k] += d
        return tuple(dims)

    def support_of_ref(self, ref: ModuleRef) -> frozenset[str]:
        dims = self.dims_of_ref(ref)
        return frozenset(v for v, d in zip(self.algebra.quiver.vertices, dims) if d)

    def g_of_entry(self, i: int) -> tuple[int, ...]:
        """[P0] - [P1] of the minimal presentation, over the vertex basis."""
        return self.g_vectors[i]

    @cached_property
    def hom_dims(self) -> QMatrix:
        """dim Hom(E_i, E_k) at row i, column k."""
        return QMatrix.from_rows([[hom_dim(x, y) for y in self.entries] for x in self.entries],
                                 cols=self.size)

    def decompose(self, rep: Representation) -> ModuleRef:
        """Multiplicities m_k solving sum_k dim Hom(E_i, E_k) m_k = dim Hom(E_i, rep).

        Over a representation-finite algebra a module is fixed by these Hom
        dimensions (Auslander), so the exact solution is the decomposition;
        one `iso` against the direct sum it names confirms it.
        """
        if rep.algebra != self.algebra:
            raise PreconditionError("representation over a different algebra")
        mult = solve(self.hom_dims, [hom_dim(e, rep) for e in self.entries])
        if mult is None or any(m.denominator != 1 or m < 0 for m in mult):
            raise InvariantViolation("Hom dimensions match no sum of catalog entries")
        ref = tuple(k for k, m in enumerate(mult) for _ in range(int(m)))
        summed, _ = direct_sum(self.algebra, [self.entries[k] for k in ref])
        if not iso(summed, rep):
            raise InvariantViolation("module is not the sum its Hom dimensions name")
        return ref

    def dump_lines(self) -> list[str]:
        return [f"{i}: dims {list(e.dims)}" for i, e in enumerate(self.entries)]


def build_catalog(algebra: Algebra) -> Catalog:
    """Close the projectives under the inverse AR translate, deduplicating by dims and iso.

    Each step records tau: when tau^-1 E_i is E_j, then tau E_j is E_i.  The
    loop ends on every input: `add` admits one entry per dimension vector and
    raises on a coordinate above MAX_DIRECTED_COORDINATE, and only finitely
    many vectors stay within that bound.  The bound only raises; it never
    drops a module.
    """
    entries: list[Representation] = []
    index_by_dims: dict[tuple[int, ...], int] = {}
    tau_of: dict[int, int] = {}

    def add(rep: Representation) -> int:
        if max(rep.dims) > MAX_DIRECTED_COORDINATE:
            raise NotDirectedError(f"the dimension vector {list(rep.dims)} has a coordinate "
                                   f"above {MAX_DIRECTED_COORDINATE}; {NOT_DIRECTED}")
        i = index_by_dims.get(rep.dims)
        if i is not None:
            if not iso(entries[i], rep):
                raise NotDirectedError(f"two non-isomorphic modules share the dimension "
                                       f"vector {list(rep.dims)}; {NOT_DIRECTED}")
            return i
        if end_reduced_dim(rep) != 1:
            raise InvariantViolation("non-local endomorphism ring in catalog closure; "
                                     "the base field assumption fails for this algebra")
        entries.append(rep)
        index_by_dims[rep.dims] = len(entries) - 1
        return len(entries) - 1

    for v in algebra.quiver.vertices:
        add(projective(algebra, v))
    n_projectives = len(entries)
    pending = 0
    while pending < len(entries):
        t = tau_inverse(entries[pending])
        if t.total_dim:
            j = add(t)
            if j < n_projectives or j in tau_of:
                raise InvariantViolation(f"tau^-1 of the entry with dims "
                                         f"{list(entries[pending].dims)} is projective or "
                                         f"the tau^-1 of another entry")
            tau_of[j] = pending
        pending += 1
    order = sorted(range(len(entries)),
                   key=lambda i: (entries[i].total_dim, entries[i].dims, i))
    new_index = {old: new for new, old in enumerate(order)}
    return Catalog(algebra, [entries[i] for i in order],
                   [new_index[tau_of[i]] if i in tau_of else None for i in order])
