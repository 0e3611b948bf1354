"""The indecomposable catalog of a representation-directed algebra.

The catalog is the closure of the indecomposable projectives under the
inverse AR translate, deduplicated up to isomorphism.  It is complete
exactly for the representation-directed algebras this package targets; the
iteration cap turns anything else into a clean error instead of a loop.

Over a representation-directed algebra an indecomposable is determined by
its dimension vector (Ringel, LNM 1099, 2.4), so entries are keyed by
`dims`.  Two non-isomorphic modules with one vector raise
`InvariantViolation`: the algebra is then not representation-directed.
"""
from __future__ import annotations

from typing import Sequence

from .algebra import Algebra
from .errors import CapExceededError, InvariantViolation, PreconditionError
from .modules import (Representation, end_reduced_dim, hom_dim, iso, min_presentation,
                      projective, simple, split_indecomposables, tau_inverse,
                      tau_of_presentation)

ModuleRef = tuple[int, ...]
"""A finite multiset of catalog indices, stored sorted."""

NOT_DIRECTED = "the algebra is not representation-directed"


def _bits(flags) -> int:
    """The int whose bit k is set iff the k-th flag is truthy."""
    return sum(1 << k for k, f in enumerate(flags) if f)


def default_catalog_cap(algebra: Algebra) -> int:
    return max(10 * algebra.n_vertices ** 2, 1)


class Catalog:
    """Ordered list of all indecomposables with pairwise tau-Hom tables."""

    def __init__(self, algebra: Algebra, entries: Sequence[Representation]):
        self.algebra = algebra
        self.entries = tuple(entries)
        self.size = len(self.entries)
        self.index_by_dims = {e.dims: i for i, e in enumerate(self.entries)}
        if len(self.index_by_dims) != self.size:
            raise InvariantViolation(f"two catalog entries share a dimension vector; "
                                     f"{NOT_DIRECTED}")
        pos = algebra.quiver.vertex_pos
        self.tau_reps: list[Representation] = []
        self.g_vectors: list[tuple[int, ...]] = []
        for e in self.entries:
            pres = min_presentation(e)
            self.tau_reps.append(tau_of_presentation(pres))
            g = [0] * algebra.n_vertices
            for v in pres.p0_vertices:
                g[pos[v]] += 1
            for v in pres.p1_vertices:
                g[pos[v]] -= 1
            self.g_vectors.append(tuple(g))
        self.tau_index: list[int | None] = []
        for t in self.tau_reps:
            if t.total_dim == 0:
                self.tau_index.append(None)
            else:
                idx = self.find_index(t)
                if idx is None:
                    raise InvariantViolation("tau of a catalog entry escaped the catalog")
                self.tau_index.append(idx)
        self.hom_tau_zero = [[t.total_dim == 0 or hom_dim(e, t) == 0 for t in self.tau_reps]
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
            raise InvariantViolation("standard module missing from catalog")
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

    def decompose(self, rep: Representation) -> ModuleRef:
        """Split into indecomposables and resolve each piece to a catalog index."""
        if rep.algebra != self.algebra:
            raise PreconditionError("representation over a different algebra")
        pieces = split_indecomposables(rep)
        out = []
        for p in pieces:
            if end_reduced_dim(p) != 1:
                raise InvariantViolation("summand with non-local endomorphism ring")
            idx = self.find_index(p)
            if idx is None:
                raise InvariantViolation("summand matches no catalog entry")
            out.append(idx)
        ref = tuple(sorted(out))
        if self.dims_of_ref(ref) != rep.dims:
            raise InvariantViolation("decomposition does not preserve dimension vectors")
        return ref

    def dump_lines(self) -> list[str]:
        return [f"{i}: dims {list(e.dims)}" for i, e in enumerate(self.entries)]


def build_catalog(algebra: Algebra, cap: int = 0) -> Catalog:
    """Close the projectives under the inverse AR translate, deduplicating by dims and iso."""
    if cap <= 0:
        cap = default_catalog_cap(algebra)
    entries: list[Representation] = []
    by_dims: dict[tuple[int, ...], Representation] = {}

    def add(rep: Representation) -> None:
        known = by_dims.get(rep.dims)
        if known is not None:
            if not iso(known, rep):
                raise InvariantViolation(f"two non-isomorphic modules share the dimension "
                                         f"vector {list(rep.dims)}; {NOT_DIRECTED}")
            return
        if end_reduced_dim(rep) != 1:
            raise InvariantViolation("non-local endomorphism ring in catalog closure; "
                                     "the base field assumption fails for this algebra")
        entries.append(rep)
        by_dims[rep.dims] = rep

    for v in algebra.quiver.vertices:
        add(projective(algebra, v))
    pending = 0
    iterations = 0
    while pending < len(entries):
        rep = entries[pending]
        pending += 1
        iterations += 1
        if iterations > cap:
            raise CapExceededError(f"not representation-directed at this cap ({cap})")
        t = tau_inverse(rep)
        if t.total_dim:
            add(t)
    order = sorted(range(len(entries)),
                   key=lambda i: (entries[i].total_dim, entries[i].dims, i))
    return Catalog(algebra, [entries[i] for i in order])
