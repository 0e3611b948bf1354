"""Representations of a monomial bound quiver algebra and their functors.

A representation assigns a rational vector space to every vertex and a
matrix of shape dims[target] x dims[source] to every arrow; a path acts by
composing its arrow matrices in order, so a forbidden path must act as the
zero matrix.  The AR translate is computed as the kernel of the Nakayama
functor applied to a minimal projective presentation, and its inverse by
dualizing into the opposite algebra.  Ext^1 and pd <= 1 are read off the
dimensions of Hom spaces and of the syzygy and its projective cover.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .algebra import Algebra, Path, opposite_algebra
from .errors import InvariantViolation, PreconditionError
from .linalg import QMatrix, grid_points, kernel_basis, rank, rref


class Representation:
    """Immutable quiver representation; every relation is checked at build."""

    __slots__ = ("algebra", "dims", "arrow_maps", "total_dim")

    def __init__(self, algebra: Algebra, dims: Sequence[int],
                 arrow_maps: Sequence[QMatrix]):
        dims = tuple(int(d) for d in dims)
        arrow_maps = tuple(arrow_maps)
        q = algebra.quiver
        if len(dims) != len(q.vertices) or any(d < 0 for d in dims):
            raise ValueError("bad dimension vector")
        if len(arrow_maps) != len(q.arrows):
            raise ValueError("one matrix per arrow required")
        for a, m in zip(q.arrows, arrow_maps):
            want = (dims[q.vertex_pos[a.target]], dims[q.vertex_pos[a.source]])
            if (m.rows, m.cols) != want:
                raise ValueError(f"arrow {a.name!r}: matrix is {m.rows}x{m.cols}, expected {want}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "arrow_maps", arrow_maps)
        object.__setattr__(self, "total_dim", sum(dims))
        _check_relations(self)

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    def map_of(self, arrow_name: str) -> QMatrix:
        return self.arrow_maps[self.algebra.quiver.arrow_pos[arrow_name]]

    def __repr__(self) -> str:
        return f"Representation(dims={self.dims})"


def _check_relations(rep: Representation) -> None:
    for rel in rep.algebra.relations:
        m = path_matrix(rep, Path(rep.algebra.quiver.arrow_by_name[rel[0]].source, rel,
                                  rep.algebra.quiver.arrow_by_name[rel[-1]].target))
        if not m.is_zero():
            raise InvariantViolation(f"relation {rel!r} not satisfied")


def path_matrix(rep: Representation, path: Path) -> QMatrix:
    """Action of a path: the composite M_{a_k} ... M_{a_1}."""
    if not path.arrows:
        return QMatrix.identity(rep.dims[rep.algebra.quiver.vertex_pos[path.source]])
    m = rep.map_of(path.arrows[0])
    for name in path.arrows[1:]:
        m = rep.map_of(name) * m
    return m


class Morphism:
    """A vertex-indexed family of blocks; the intertwining is checked at build."""

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: Representation, target: Representation,
                 blocks: Sequence[QMatrix]):
        blocks = tuple(blocks)
        q = source.algebra.quiver
        if source.algebra != target.algebra:
            raise PreconditionError("morphism endpoints live over different algebras")
        if len(blocks) != len(q.vertices):
            raise ValueError("one block per vertex required")
        for i, b in enumerate(blocks):
            if (b.rows, b.cols) != (target.dims[i], source.dims[i]):
                raise ValueError(f"block {i}: shape {(b.rows, b.cols)}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "blocks", blocks)
        for a in q.arrows:
            s, t = q.vertex_pos[a.source], q.vertex_pos[a.target]
            if target.map_of(a.name) * blocks[s] != blocks[t] * source.map_of(a.name):
                raise InvariantViolation(f"blocks do not intertwine arrow {a.name!r}")

    def __setattr__(self, name, value):
        raise AttributeError("Morphism is immutable")

    def __repr__(self) -> str:
        return f"Morphism({self.source.dims} -> {self.target.dims})"


# ---------------------------------------------------------------------------
# standard modules
#
# `projective` and `injective` are memoised per (algebra, vertex), as
# `opposite_algebra` is: a Representation is immutable, so covers, Nakayama
# steps and the catalog share one checked copy of each.

def zero_rep(algebra: Algebra) -> Representation:
    q = algebra.quiver
    return Representation(algebra, [0] * len(q.vertices),
                          [QMatrix.zeros(0, 0) for _ in q.arrows])


def _standard_module(algebra: Algebra, v: str, fiber, image) -> Representation:
    """The module with basis `fiber(w)` at each vertex w, where arrow a sends
    basis path p to basis path `image(a, p)` of `fiber(a.target)`, or to 0 if None."""
    q = algebra.quiver
    if v not in q.vertex_pos:
        raise PreconditionError(f"unknown vertex {v!r}")
    maps = []
    for a in q.arrows:
        src_paths = fiber(a.source)
        m = [[0] * len(src_paths) for _ in fiber(a.target)]
        for c, p in enumerate(src_paths):
            pos = image(a, p)
            if pos is not None:
                m[pos][c] = 1
        maps.append(QMatrix.from_rows(m, cols=len(src_paths)))
    return Representation(algebra, [len(fiber(w)) for w in q.vertices], maps)


@lru_cache(maxsize=None)
def projective(algebra: Algebra, v: str) -> Representation:
    """Fiber at w is spanned by the basis paths v -> w; arrows append on the right."""
    return _standard_module(
        algebra, v, lambda w: algebra.paths_between(v, w),
        lambda a, p: algebra.path_position(v, a.target, p.arrows + (a.name,)))


@lru_cache(maxsize=None)
def injective(algebra: Algebra, v: str) -> Representation:
    """Fiber at w is spanned by the basis paths w -> v; arrows strip on the left."""
    return _standard_module(
        algebra, v, lambda w: algebra.paths_between(w, v),
        lambda a, p: algebra.path_position(a.target, v, p.arrows[1:])
        if p.arrows[:1] == (a.name,) else None)


def direct_sum(algebra: Algebra, reps: Sequence[Representation]) -> tuple[Representation, list[list[int]]]:
    """Block sum; also returns offsets[s][vertex_pos] of each summand's fiber."""
    q = algebra.quiver
    dims = [0] * len(q.vertices)
    offsets: list[list[int]] = []
    for r in reps:
        offsets.append(list(dims))
        dims = [d + rd for d, rd in zip(dims, r.dims)]
    maps = []
    for ai, a in enumerate(q.arrows):
        s, t = q.vertex_pos[a.source], q.vertex_pos[a.target]
        rows = [[0] * dims[s] for _ in range(dims[t])]
        for k, r in enumerate(reps):
            blk = r.arrow_maps[ai]
            ro, co = offsets[k][t], offsets[k][s]
            for i in range(blk.rows):
                rows[ro + i][co:co + blk.cols] = list(blk.row(i))
        maps.append(QMatrix.from_rows(rows, cols=dims[s]))
    return Representation(algebra, dims, maps), offsets


# ---------------------------------------------------------------------------
# hom spaces

def hom_basis(x: Representation, y: Representation) -> list[Morphism]:
    """Echelonized basis of the intertwiner space Hom(x, y)."""
    if x.algebra != y.algebra:
        raise PreconditionError("hom between representations over different algebras")
    q = x.algebra.quiver
    nv = len(q.vertices)
    offs = [0] * nv
    total = 0
    for i in range(nv):
        offs[i] = total
        total += y.dims[i] * x.dims[i]
    if total == 0:
        return []
    rows: list[list[Fraction]] = []
    for ai, a in enumerate(q.arrows):
        s, t = q.vertex_pos[a.source], q.vertex_pos[a.target]
        X, Y = x.arrow_maps[ai], y.arrow_maps[ai]
        for i in range(y.dims[t]):
            for j in range(x.dims[s]):
                row = [0] * total
                # (Y f_s - f_t X)[i, j] = 0
                for c in range(y.dims[s]):
                    if Y.entry(i, c) != 0:
                        row[offs[s] + c * x.dims[s] + j] += Y.entry(i, c)
                for r in range(x.dims[t]):
                    if X.entry(r, j) != 0:
                        row[offs[t] + i * x.dims[t] + r] -= X.entry(r, j)
                if any(e != 0 for e in row):
                    rows.append(row)
    out = []
    for vec in kernel_basis(QMatrix.from_rows(rows, cols=total)):
        blocks = []
        for i in range(nv):
            seg = vec[offs[i]: offs[i] + y.dims[i] * x.dims[i]]
            blocks.append(QMatrix(y.dims[i], x.dims[i], seg))
        out.append(Morphism(x, y, blocks))
    return out


# ---------------------------------------------------------------------------
# subobjects and kernels

def _echelon_basis(vectors: Sequence[Sequence[Fraction | int]], dim: int
                   ) -> tuple[list[tuple[Fraction, ...]], tuple[int, ...]]:
    """The echelon basis of the span of `vectors` in k^dim: (rows, pivots)."""
    if not vectors:
        return [], ()
    red, pivots = rref(QMatrix.from_rows(vectors, cols=dim))
    return [red.row(r) for r in range(len(pivots))], pivots


def _coordinates(rows: Sequence[Sequence[Fraction | int]], pivots: Sequence[int],
                 vec: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """Coordinates of the arrow image `vec` in the echelon basis (rows, pivots).

    Row r is 1 at pivot r and 0 at the other pivots, so a vector in the span has
    its pivot entries as its coordinates; if they do not recombine to `vec`, it
    lies outside the span, which is then not closed under the arrow action.
    """
    coords = tuple(vec[p] for p in pivots)
    if any(sum(c * row[k] for c, row in zip(coords, rows)) != e for k, e in enumerate(vec)):
        raise InvariantViolation("span not closed under arrow action")
    return coords


def sub_representation(rep: Representation, spans: Sequence[Sequence[Sequence[Fraction | int]]]
                       ) -> tuple[Representation, Morphism]:
    """The subrepresentation spanned at each vertex by the given vectors.

    The spans must already be closed under the arrow action: the image of
    every spanning vector under an arrow lies in the span at its target.  A
    span that is not closed raises `InvariantViolation`; nothing is added to
    close it.  Each fiber gets the echelon basis of its span, and an arrow's
    matrix holds the coordinates of the images of the basis at its source, read
    off the pivots at its target (`_coordinates`).  Returns the subobject and
    its inclusion, whose block at each vertex has the echelon rows as columns.
    """
    q = rep.algebra.quiver
    bases = [_echelon_basis(vectors, d) for vectors, d in zip(spans, rep.dims)]
    dims = [len(rows) for rows, _ in bases]
    maps = []
    for ai, a in enumerate(q.arrows):
        s, t = q.vertex_pos[a.source], q.vertex_pos[a.target]
        cols = [_coordinates(*bases[t], rep.arrow_maps[ai].apply(row)) for row in bases[s][0]]
        maps.append(QMatrix(dims[t], dims[s], [c[i] for i in range(dims[t]) for c in cols]))
    sub = Representation(rep.algebra, dims, maps)
    incl_blocks = [QMatrix(d, len(rows), [row[i] for i in range(d) for row in rows])
                   for (rows, _), d in zip(bases, rep.dims)]
    return sub, Morphism(sub, rep, incl_blocks)


def kernel_of(f: Morphism) -> tuple[Representation, Morphism]:
    return sub_representation(f.source, [kernel_basis(b) for b in f.blocks])


def _top_coordinates(radical: Sequence[Sequence[Fraction | int]], dim: int) -> list[int]:
    """The coordinates k whose unit vectors e_k extend `radical`, a spanning set of
    a subspace of k^dim, to a basis: the pivots past C of rref([C | I]), where C
    has the vectors of `radical` as its columns."""
    n = len(radical)
    flat: list[Fraction | int] = []
    for r in range(dim):
        flat.extend(v[r] for v in radical)
        flat.extend(int(r == k) for k in range(dim))
    _, pivots = rref(QMatrix(dim, n + dim, flat))
    return [p - n for p in pivots if p >= n]


def _top_generators(rep: Representation) -> list[tuple[str, int]]:
    """Standard-basis lifts of a basis of top(rep): pairs (vertex, coordinate).

    At vertex v the radical is spanned by the columns of the incoming arrow
    maps, and `_top_coordinates` extends them to a basis.
    """
    q = rep.algebra.quiver
    gens = []
    for v, d in zip(q.vertices, rep.dims):
        radical = [m.col(j) for a, m in zip(q.arrows, rep.arrow_maps) if a.target == v
                   for j in range(m.cols)]
        gens.extend((v, k) for k in _top_coordinates(radical, d))
    return gens


def projective_cover(rep: Representation) -> tuple[Representation, Morphism, tuple[str, ...], list[list[int]]]:
    """Minimal projective cover P -> rep.

    Returns (P, cover, summand vertices, fiber offsets of the summands).
    """
    if rep.total_dim == 0:
        raise PreconditionError("the zero module has no projective cover")
    algebra = rep.algebra
    q = algebra.quiver
    gens = _top_generators(rep)
    verts = tuple(v for v, _ in gens)
    summands = [projective(algebra, v) for v in verts]
    P, offsets = direct_sum(algebra, summands)
    blocks = []
    for i, w in enumerate(q.vertices):
        cols: list[tuple[Fraction, ...]] = []
        for (v, coord) in gens:
            for p in algebra.paths_between(v, w):
                m = path_matrix(rep, p)
                cols.append(m.col(coord))
        blocks.append(QMatrix(rep.dims[i], len(cols),
                              [cols[j][r] for r in range(rep.dims[i]) for j in range(len(cols))])
                      if cols else QMatrix.zeros(rep.dims[i], 0))
    cover = Morphism(P, rep, blocks)
    for i in range(len(q.vertices)):
        if rank(cover.blocks[i]) != rep.dims[i]:
            raise InvariantViolation("projective cover is not surjective")
    return P, cover, verts, offsets


def syzygy(rep: Representation) -> tuple[Representation, Representation]:
    """Kernel of the projective cover P -> rep: (omega, P)."""
    P, cover, _, _ = projective_cover(rep)
    return kernel_of(cover)[0], P


@dataclass(frozen=True)
class MinPresentation:
    """Minimal presentation P1 -> P0 -> M -> 0 with P0 = sum P(v_i), P1 = sum P(u_j).

    entries[i][j] expresses the component P(u_j) -> P(v_i) as a rational
    combination of basis paths v_i -> u_j; a projective M has no u_j.
    """
    p0_vertices: tuple[str, ...]
    p1_vertices: tuple[str, ...]
    entries: tuple[tuple[dict, ...], ...]


def min_presentation(rep: Representation) -> MinPresentation:
    """The projective cover P0 -> M, and the generators of its kernel Omega read in P0.

    Neither Omega nor its cover P1 is built.  The fiber of Omega at u is the
    echelon basis of the kernel of the cover block at u, the basis `kernel_of`
    gives it.  rad Omega_u is spanned by the images of the basis at s under
    P0's arrows s -> u, whose coordinates `_coordinates` reads off the pivots at
    u, checking that each image lies in Omega_u.  `_top_coordinates` then picks
    the basis rows that `_top_generators` picks on a built Omega.  The j-th
    pick, at u_j, spans the summand P(u_j) of P1, and its echelon row is its
    image in P0; entries[i][j] reads that row in the summand P(v_i).
    """
    if rep.total_dim == 0:
        raise PreconditionError("the zero module has no presentation")
    algebra = rep.algebra
    q = algebra.quiver
    P0, cover, verts0, offs0 = projective_cover(rep)
    omega = [_echelon_basis(kernel_basis(b), b.cols) for b in cover.blocks]
    gens: list[tuple[str, tuple[Fraction, ...]]] = []
    for u, (rows, pivots) in zip(q.vertices, omega):
        radical = [_coordinates(rows, pivots, P0.arrow_maps[ai].apply(row))
                   for ai, a in enumerate(q.arrows) if a.target == u
                   for row in omega[q.vertex_pos[a.source]][0]]
        gens.extend((u, rows[k]) for k in _top_coordinates(radical, len(rows)))
    if not gens:
        return MinPresentation(verts0, (), ())
    entries = []
    for i, v in enumerate(verts0):
        row = []
        for u, image in gens:
            start = offs0[i][q.vertex_pos[u]]
            row.append({p: image[start + k]
                        for k, p in enumerate(algebra.paths_between(v, u))
                        if image[start + k] != 0})
        entries.append(tuple(row))
    return MinPresentation(verts0, tuple(u for u, _ in gens), tuple(entries))


class PathActions(dict):
    """The matrix of each basis path acting on `rep`, computed on first lookup."""

    def __init__(self, rep: Representation):
        super().__init__()
        self.rep = rep

    def __missing__(self, path: Path) -> QMatrix:
        m = self[path] = path_matrix(self.rep, path)
        return m


def presentation_hom(pres: MinPresentation, y: PathActions) -> tuple[int, bool]:
    """(dim Hom(M, Y), Hom(Y, tau M) = 0) from the presentation P1 -p-> P0 -> M -> 0.

    Hom(P(v), Y) = Y_v, so Hom(p, Y): Hom(P0, Y) -> Hom(P1, Y) is one block
    matrix; block (j, i) is the action on Y of the path combination
    entries[i][j].  Its kernel is Hom(M, Y), and it is onto iff
    Hom(Y, tau M) = 0 (Adachi-Iyama-Reiten, Prop. 2.4).
    """
    dims, pos = y.rep.dims, y.rep.algebra.quiver.vertex_pos
    col_offs = list(accumulate((dims[pos[v]] for v in pres.p0_vertices), initial=0))
    row_offs = list(accumulate((dims[pos[u]] for u in pres.p1_vertices), initial=0))
    n_cols, n_rows = col_offs[-1], row_offs[-1]
    if n_rows == 0 or n_cols == 0:
        return n_cols, n_rows == 0
    flat = [0] * (n_rows * n_cols)
    for i, row in enumerate(pres.entries):
        for j, combo in enumerate(row):
            for path, c in combo.items():
                m = y[path]
                for a in range(m.rows):
                    base = (row_offs[j] + a) * n_cols + col_offs[i]
                    for b, e in enumerate(m.row(a)):
                        if e:
                            flat[base + b] += c * e
    r = rank(QMatrix(n_rows, n_cols, flat))
    return n_cols - r, r == n_rows


def nakayama_of_presentation(pres: MinPresentation, algebra: Algebra) -> Morphism:
    """Transport a map between projectives to the corresponding injectives.

    A path p: v -> u acting as P(u) -> P(v) by left-appending becomes the
    map I(u) -> I(v) that strips p off the tail of a basis path when it ends
    with p and kills it otherwise.
    """
    q = algebra.quiver
    I1, offs1 = direct_sum(algebra, [injective(algebra, v) for v in pres.p1_vertices])
    I0, offs0 = direct_sum(algebra, [injective(algebra, v) for v in pres.p0_vertices])
    blocks = []
    for widx, w in enumerate(q.vertices):
        rows = [[0] * I1.dims[widx] for _ in range(I0.dims[widx])]
        for i, v in enumerate(pres.p0_vertices):
            for j, u in enumerate(pres.p1_vertices):
                combo = pres.entries[i][j]
                if not combo:
                    continue
                v_paths = algebra.paths_between(w, v)
                for p, c in combo.items():
                    for sidx, s in enumerate(v_paths):
                        tail = s.arrows + p.arrows
                        tpos = algebra.path_position(w, u, tail)
                        if tpos is not None:
                            rows[offs0[i][widx] + sidx][offs1[j][widx] + tpos] += c
        blocks.append(QMatrix.from_rows(rows, cols=I1.dims[widx]))
    return Morphism(I1, I0, blocks)


def tau(rep: Representation) -> Representation:
    """Auslander-Reiten translate; zero on projectives."""
    if rep.total_dim == 0:
        return zero_rep(rep.algebra)
    pres = min_presentation(rep)
    if not pres.p1_vertices:
        return zero_rep(rep.algebra)
    return tau_of_entry(rep, pres)


def tau_of_entry(rep: Representation, pres: MinPresentation) -> Representation:
    """tau E = ker(nu p: nu P1 -> nu P0) for the minimal presentation p of a non-projective E."""
    return kernel_of(nakayama_of_presentation(pres, rep.algebra))[0]


def dual_representation(rep: Representation) -> Representation:
    """The vector-space dual, a representation of the opposite algebra."""
    aop = opposite_algebra(rep.algebra)
    maps = [rep.map_of(a.name).transpose() for a in aop.quiver.arrows]
    return Representation(aop, rep.dims, maps)


def tau_inverse(rep: Representation) -> Representation:
    """Inverse AR translate; zero on injectives.  Computed dually over the opposite,
    whose opposite compares equal to `rep.algebra`."""
    if rep.total_dim == 0:
        return zero_rep(rep.algebra)
    return dual_representation(tau(dual_representation(rep)))


def extend_by_zero(rep: Representation, target: Algebra) -> Representation:
    """View a module over a vertex- and arrow-subalgebra as one over `target`.

    Fibers over vertices the source algebra does not have are zero, so every
    relation involving new arrows holds trivially.
    """
    src = rep.algebra.quiver
    tq = target.quiver
    if not set(src.vertices) <= set(tq.vertices):
        raise PreconditionError("target algebra does not contain the source vertices")
    dims = [rep.dims[src.vertex_pos[v]] if v in src.vertex_pos else 0 for v in tq.vertices]
    maps = []
    for a in tq.arrows:
        if a.name in src.arrow_by_name:
            old = src.arrow_by_name[a.name]
            if (old.source, old.target) != (a.source, a.target):
                raise PreconditionError(f"arrow {a.name!r} changed endpoints")
            maps.append(rep.map_of(a.name))
        else:
            maps.append(QMatrix.zeros(dims[tq.vertex_pos[a.target]],
                                      dims[tq.vertex_pos[a.source]]))
    return Representation(target, dims, maps)


# ---------------------------------------------------------------------------
# homological invariants

def ext1(m: Representation, n: Representation) -> int:
    """dim Ext^1(m, n) off 0 -> Hom(m, n) -> Hom(P0, n) -> Hom(omega, n) -> Ext^1(m, n) -> 0,
    Hom(-, n) on 0 -> omega -> P0 -> m -> 0 (exact at the end, as Ext^1(P0, n) = 0)."""
    if m.algebra != n.algebra:
        raise PreconditionError("ext between representations over different algebras")
    if m.total_dim == 0 or n.total_dim == 0:
        return 0
    omega, P0 = syzygy(m)
    return len(hom_basis(omega, n)) - len(hom_basis(P0, n)) + len(hom_basis(m, n))


def pd_at_most_one(rep: Representation) -> bool:
    """True iff the first syzygy is projective: as large as its cover, sum P(v) over its top."""
    if rep.total_dim == 0:
        return True
    omega, _ = syzygy(rep)
    return omega.total_dim == sum(projective(rep.algebra, v).total_dim
                                  for v, _ in _top_generators(omega))


# ---------------------------------------------------------------------------
# isomorphism

def iso(x: Representation, y: Representation) -> bool:
    """Exact isomorphism test by scanning for a generic hom with invertible blocks.

    The determinant of sum(c_i f_i) over a hom basis (f_i) is a polynomial
    of degree at most the total dimension in each c_i, so it vanishes
    identically iff it vanishes on the full integer grid of that size.  Each
    nonzero vertex's block of sum(c_i f_i) is built in one pass over the basis
    blocks' entries; it is singular iff its rank falls short of its size.
    """
    if x.algebra != y.algebra:
        raise PreconditionError("iso between representations over different algebras")
    if x.dims != y.dims:
        return False
    if x.total_dim == 0:
        return True
    fs = hom_basis(x, y)
    if not fs:
        return False
    # Per nonzero vertex: its size, and the basis blocks' entries, one tuple per position.
    blocks = [(d, list(zip(*(f.blocks[i].entries for f in fs))))
              for i, d in enumerate(x.dims) if d]
    return any(all(rank(QMatrix(d, d, [sum(c * e for c, e in zip(coeffs, col)) for col in cols])) == d
                   for d, cols in blocks)
               for coeffs in grid_points(len(fs), x.total_dim))

