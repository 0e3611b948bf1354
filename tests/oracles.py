"""Reference forms of the row reduction, the catalog closure, the minimal
presentation, the catalog's Hom tables, the clique search, the Hasse bucketing,
the tilting test and the Hasse gluing.

These are the direct algorithms that the package replaced with faster ones:
- `paths_to_pumping_bound`: every legal path listed up to the pumping bound
  (`algebra._enumerate_paths` stops a path when it meets one of its own
  states in the relation automaton again);
- `rref_fraction`: Gauss–Jordan on `Fraction` rows (`tautilt.linalg.rref`
  eliminates on integer rows);
- `tau_inverse_closure`: the projectives closed under `modules.tau_inverse`
  (through the opposite algebra), with the projectives and simples found by
  `iso` (`build_catalog` closes the injectives under tau, one minimal
  presentation per entry);
- `composed_presentation`: the presentation read off the composite
  `incl ∘ cover1`: P1 -> P0 of two projective covers, and pd <= 1 off the
  dimensions of the built P0 and P1 (`min_presentation` builds neither the
  syzygy nor P1: it reads the syzygy's top off the echelon basis of each
  cover block's kernel, in P0 coordinates, and keeps only the vertex lists
  and the path combinations);
- `tau_hom_table` and `hom_dim_table`: one intertwiner kernel (`hom_dim`)
  per pair of entries, against tau E_j from `tau_index` (the catalog reads
  both tables off one rank per pair on each entry's minimal presentation);
- `end_reduced_dim`: dim End/rad End from a Gram matrix on a solved
  End(E) (the catalog reads dim End(E_i) = 1 off its Hom table's diagonal);
- `radical_top_generators`: the top read off a built `radical` submodule and
  its inclusion (`modules._top_generators` stacks the incoming arrow maps);
- `all_rigid_cliques`: a DFS over lists of catalog indices that tests one
  bit of `Catalog.compat_mask` for every candidate;
- `reference_arrows`: buckets keyed by frozensets of tokens, and a torsion
  test (`generates`) that reads one bit of `Catalog.tors_mask` and the
  dimension vectors entry by entry;
- `ext1_tilting_test`: a tilting test that computes syzygies and Ext^1
  (`is_tilting` reads the catalog's pd <= 1 table);
- `dag_iso_search`: a backtracking isomorphism search over degree and level
  color classes (`verify_hasse_gluing` checks the one vertex map that the
  classification names, read off the g-vectors);
- `searched_doubled_hasse`: the doubled quiver as the Hasse quiver of the
  base with an isolated vertex adjoined (`add_isolated_vertex`), searched in
  its own catalog (`verify_hasse_gluing` glues the base's quiver along all of
  its vertices, the product rule).
They share no code with the fast forms, so the tests can compare the two
exactly; the last one runs the package's own search, on another algebra.

It also keeps the builders and references that only tests use:
`add_isolated_vertex`, `simple`, `hom_dim` (the length of an intertwiner
basis), `radical`, `dims_of_ref`, `support_of_ref`, `g_vector_of_pair`
(summed entry g-vectors, minus e_v per unsupported vertex) and
`algebra_equal_upto_relabel`.
"""
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from typing import Sequence

from tautilt.algebra import Path, Quiver, _fresh_vertex, build_algebra, opposite_algebra
from tautilt.catalog import build_catalog
from tautilt.dags import LabeledDag, glue, hasse_to_dag
from tautilt.errors import InfiniteDimensionalError, InvariantViolation, PreconditionError
from tautilt.linalg import QMatrix, hstack, rank, rref
from tautilt.modules import (Representation, _top_generators, compose, ext1, hom_basis, iso,
                             kernel_of, pd_at_most_one, projective, projective_cover,
                             sub_representation, syzygy, tau_inverse)
from tautilt.tilting import STauPair, enumerate_stau, hasse
from tautilt.util import topological_order


def add_isolated_vertex(algebra):
    """Adjoin a disconnected vertex, listed last; the dimension grows by exactly one."""
    q = algebra.quiver
    new_vertex = _fresh_vertex(q)
    quiver = Quiver(q.vertices + (new_vertex,), q.arrows)
    return build_algebra(quiver, algebra.relations), new_vertex


def simple(algebra, v):
    """The simple module at vertex v."""
    q = algebra.quiver
    if v not in q.vertex_pos:
        raise PreconditionError(f"unknown vertex {v!r}")
    dims = [1 if w == v else 0 for w in q.vertices]
    maps = [QMatrix.zeros(dims[q.vertex_pos[a.target]], dims[q.vertex_pos[a.source]])
            for a in q.arrows]
    return Representation(algebra, dims, maps)


def hom_dim(x, y):
    return len(hom_basis(x, y))


def radical(rep):
    """The arrow-ideal submodule, the sum of the incoming images at each vertex,
    with its inclusion."""
    q = rep.algebra.quiver
    spans = [[] for _ in q.vertices]
    for ai, a in enumerate(q.arrows):
        m = rep.arrow_maps[ai]
        spans[q.vertex_pos[a.target]].extend(m.col(j) for j in range(m.cols))
    return sub_representation(rep, spans)


def dims_of_ref(cat, ref):
    """Dimension vector of the direct sum of the entries in `ref`."""
    dims = [0] * cat.algebra.n_vertices
    for i in ref:
        for k, d in enumerate(cat.entries[i].dims):
            dims[k] += d
    return tuple(dims)


def support_of_ref(cat, ref):
    return frozenset(v for v, d in zip(cat.algebra.quiver.vertices, dims_of_ref(cat, ref)) if d)


def g_vector_of_pair(cat, modules, proj_part):
    """Sum of the entries' g-vectors, minus e_v for each unsupported vertex v."""
    g = [0] * cat.algebra.n_vertices
    for i in modules:
        for k, c in enumerate(cat.g_vectors[i]):
            g[k] += c
    pos = cat.algebra.quiver.vertex_pos
    for v in proj_part:
        g[pos[v]] -= 1
    return tuple(g)


def algebra_equal_upto_relabel(a, b, vertex_map, arrow_map):
    """True iff the maps transport quiver and normalized relations of a onto b exactly."""
    if set(vertex_map.keys()) != set(a.quiver.vertices):
        raise PreconditionError("vertex map keys must be the vertices of the first algebra")
    if set(arrow_map.keys()) != {ar.name for ar in a.quiver.arrows}:
        raise PreconditionError("arrow map keys must be the arrows of the first algebra")
    if (len(set(vertex_map.values())) != len(vertex_map)
            or len(set(arrow_map.values())) != len(arrow_map)):
        raise PreconditionError("relabeling maps must be injective")
    if set(vertex_map.values()) != set(b.quiver.vertices):
        return False
    b_arrows = {ar.name: (ar.source, ar.target) for ar in b.quiver.arrows}
    if set(arrow_map.values()) != set(b_arrows):
        return False
    for ar in a.quiver.arrows:
        if b_arrows[arrow_map[ar.name]] != (vertex_map[ar.source], vertex_map[ar.target]):
            return False
    mapped_rels = {tuple(arrow_map[x] for x in r) for r in a.relations}
    return mapped_rels == set(b.relations)


def paths_to_pumping_bound(quiver, relations):
    """The path basis, every legal path listed up to the pumping bound
    |V| + sum(len(r) - 1); a legal path longer than that makes it infinite."""
    max_len = len(quiver.vertices) + sum(len(r) - 1 for r in relations)
    basis = [Path(v, (), v) for v in quiver.vertices]
    frontier = list(basis)
    length = 0
    while frontier:
        length += 1
        if length > max_len:
            raise InfiniteDimensionalError(
                "path basis is infinite: the quiver has a cycle not cut by any relation")
        new = []
        for p in frontier:
            for arrow in quiver.arrows_from[p.target]:
                cand = p.arrows + (arrow.name,)
                if any(len(r) <= len(cand) and cand[-len(r):] == r for r in relations):
                    continue
                new.append(Path(p.source, cand, arrow.target))
        basis.extend(new)
        frontier = new
    return tuple(basis)


def rref_fraction(m):
    """Reduced row echelon form and the pivot column indices."""
    rows = m.to_rows()
    pivots: list[int] = []
    pr = 0
    for pc in range(m.cols):
        ir = next((r for r in range(pr, m.rows) if rows[r][pc] != 0), None)
        if ir is None:
            continue
        rows[pr], rows[ir] = rows[ir], rows[pr]
        inv = Fraction(1) / rows[pr][pc]
        rows[pr] = [e * inv for e in rows[pr]]
        for r in range(m.rows):
            if r != pr and rows[r][pc] != 0:
                f = rows[r][pc]
                rows[r] = [e - f * p for e, p in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return QMatrix.from_rows(rows, cols=m.cols), tuple(pivots)


def tau_inverse_closure(algebra):
    """(entry dims in catalog order, tau_index, projective_index, simple_index).

    Each tau^-1 E_i = E_j gives tau E_j = E_i; entries are keyed by dims and
    deduplicated by `iso`, and sorted by total dimension, then dims.
    """
    entries, tau_of = [], {}

    def index(rep):
        return next((i for i, e in enumerate(entries) if e.dims == rep.dims and iso(e, rep)),
                    None)

    def add(rep):
        i = index(rep)
        if i is None:
            assert all(e.dims != rep.dims for e in entries), "shared dimension vector"
            entries.append(rep)
            i = len(entries) - 1
        return i

    vertices = algebra.quiver.vertices
    for v in vertices:
        add(projective(algebra, v))
    pending = 0
    while pending < len(entries):
        t = tau_inverse(entries[pending])
        if t.total_dim:
            tau_of[add(t)] = pending
        pending += 1
    order = sorted(range(len(entries)), key=lambda i: (entries[i].total_dim, entries[i].dims))
    new = {old: k for k, old in enumerate(order)}
    return ([entries[i].dims for i in order],
            [new[tau_of[i]] if i in tau_of else None for i in order],
            {v: new[index(projective(algebra, v))] for v in vertices},
            {v: new[index(simple(algebra, v))] for v in vertices})


def assert_catalog_matches_tau_inverse_closure(cat):
    """Entry dims in order, `tau_index`, `projective_index` and `simple_index`
    equal the tau^-1 closure of the projectives."""
    dims, tau_index, projective_index, simple_index = tau_inverse_closure(cat.algebra)
    assert [e.dims for e in cat.entries] == dims
    assert cat.tau_index == tau_index
    assert cat.projective_index == projective_index
    assert cat.simple_index == simple_index


def composed_presentation(rep):
    """(p0_vertices, p1_vertices, entries, pd <= 1) of `rep`, read off d1 = incl ∘ cover1.

    Column offs1[j][u] of d1 at vertex u is the image of the generator e_u of
    the j-th summand P(u) of P1; its rows in the i-th summand P(v) of P0 are the
    basis paths v -> u.  pd <= 1 iff dim P1 = dim P0 - dim rep.
    """
    q = rep.algebra.quiver
    P0, cover, verts0, offs0 = projective_cover(rep)
    omega, incl = kernel_of(cover)
    if omega.total_dim == 0:
        return verts0, (), (), P0.total_dim == rep.total_dim
    P1, cover1, verts1, offs1 = projective_cover(omega)
    d1 = compose(incl, cover1)
    entries = []
    for i, v in enumerate(verts0):
        row = []
        for j, u in enumerate(verts1):
            upos = q.vertex_pos[u]
            combo = {}
            for k, p in enumerate(rep.algebra.paths_between(v, u)):
                c = d1.blocks[upos].entry(offs0[i][upos] + k, offs1[j][upos])
                if c != 0:
                    combo[p] = c
            row.append(combo)
        entries.append(tuple(row))
    return verts0, verts1, tuple(entries), P1.total_dim == P0.total_dim - rep.total_dim


def assert_presentations_match_oracle(cat):
    """Every entry's presentation and pd <= 1 equal the composed-map route exactly."""
    for e, pres, pd in zip(cat.entries, cat.presentations, cat.pd_le_one):
        assert (pres.p0_vertices, pres.p1_vertices, pres.entries, pd) == composed_presentation(e)


def tau_hom_table(cat):
    """Hom(E_i, tau E_j) = 0 at row i, column j, with tau E_j = 0 for a projective E_j."""
    return [[t is None or hom_dim(e, cat.entries[t]) == 0 for t in cat.tau_index]
            for e in cat.entries]


def hom_dim_table(cat):
    """dim Hom(E_i, E_k) at row i, column k."""
    return [[hom_dim(x, y) for y in cat.entries] for x in cat.entries]


def assert_hom_tables_match_oracle(cat):
    """`tors_mask`, `compat_mask` and `hom_dims` equal the Hom-space route exactly."""
    table = tau_hom_table(cat)
    for i in range(cat.size):
        for j in range(cat.size):
            assert bool(cat.tors_mask[i] >> j & 1) == table[i][j]
            assert bool(cat.compat_mask[i] >> j & 1) == (table[i][j] and table[j][i])
    assert cat.hom_dims == QMatrix.from_rows(hom_dim_table(cat), cols=cat.size)


def end_reduced_dim(rep):
    """dim End/rad End, via the radical of the trace form (characteristic zero)."""
    if rep.total_dim == 0:
        return 0
    E = hom_basis(rep, rep)
    gram = []
    for f in E:
        row = []
        for g in E:
            tr = Fraction(0)
            for bf, bg in zip(f.blocks, g.blocks):
                prod = bf * bg
                tr += sum((prod.entry(i, i) for i in range(prod.rows)), Fraction(0))
            row.append(tr)
        gram.append(row)
    return rank(QMatrix.from_rows(gram, cols=len(E)))


def radical_top_generators(rep):
    """(vertex, coordinate) lifts of a basis of top(rep), from the inclusion of `radical`."""
    _, incl = radical(rep)
    gens = []
    for i, v in enumerate(rep.algebra.quiver.vertices):
        C = incl.blocks[i]
        _, pivots = rref(hstack([C, QMatrix.identity(rep.dims[i])]))
        gens.extend((v, p - C.cols) for p in pivots if p >= C.cols)
    return gens


def assert_presentation_shortcuts_match_oracle(algebra):
    """On `algebra` and its opposite (a fork's has a vertex with two incoming
    arrows): `_top_generators` equals `radical_top_generators` on every entry
    and its syzygy, and the Hom diagonal equals `end_reduced_dim`, which is 1."""
    for alg in (algebra, opposite_algebra(algebra)):
        cat = build_catalog(alg)
        for i, e in enumerate(cat.entries):
            omega = syzygy(e)[0]
            for rep in (e, omega) if omega.total_dim else (e,):
                assert _top_generators(rep) == radical_top_generators(rep)
            assert cat.hom_dims.entry(i, i) == end_reduced_dim(e) == 1


def all_rigid_cliques(cat):
    """Every clique of the compatibility graph on the self-rigid entries, in DFS preorder.

    One clique per DFS node, so the length of the list is the number of
    nodes `enumerate_stau` visits.
    """
    singles = [i for i in range(cat.size) if cat.tors_mask[i] >> i & 1]
    found = []

    def extend(clique, candidates):
        found.append(tuple(clique))
        for k, i in enumerate(candidates):
            clique.append(i)
            extend(clique, [j for j in candidates[k + 1:] if cat.compat_mask[i] >> j & 1])
            clique.pop()

    extend([], singles)
    return found


def reference_pairs(cat):
    """Cliques whose summand count equals their support size, completed and sorted by g."""
    vertices = cat.algebra.quiver.vertices
    pairs = []
    for ref in all_rigid_cliques(cat):
        support = support_of_ref(cat, ref)
        if len(ref) != len(support):
            continue
        proj = tuple(v for v in vertices if v not in support)
        pairs.append(STauPair(ref, proj, g_vector_of_pair(cat, ref, proj)))
    pairs.sort(key=lambda p: p.g)
    return pairs


def tokens(pair):
    return frozenset([("m", i) for i in pair.modules] + [("p", v) for v in pair.proj_part])


def generates(cat, lower, upper):
    """True iff the module part of `lower` lies in the torsion class of `upper`."""
    for x in lower.modules:
        for y in upper.modules:
            if not cat.tors_mask[x] >> y & 1:
                return False
    pos = cat.algebra.quiver.vertex_pos
    for v in upper.proj_part:
        k = pos[v]
        for x in lower.modules:
            if cat.entries[x].dims[k]:
                return False
    return True


def reference_arrows(cat, pairs):
    """Sorted mutation arrows: frozenset-token buckets, direction by `generates`."""
    toks = [tokens(p) for p in pairs]
    buckets = {}
    for idx, t in enumerate(toks):
        for x in t:
            buckets.setdefault(t - {x}, []).append(idx)
    arrows = set()
    for members in buckets.values():
        if len(members) == 1:
            continue
        if len(members) > 2:
            raise InvariantViolation("more than two completions of an almost complete pair")
        a, b = members
        down_ab = generates(cat, pairs[b], pairs[a])
        if down_ab == generates(cat, pairs[a], pairs[b]):
            raise InvariantViolation("mutation direction is not uniquely determined")
        arrows.add((a, b) if down_ab else (b, a))
    return sorted(arrows)


def assert_matches_oracle(cat):
    """`enumerate_stau` and `hasse` equal the reference forms exactly; returns the pairs."""
    pairs = enumerate_stau(cat)
    assert pairs == reference_pairs(cat)
    assert list(hasse(cat, pairs).arrows) == reference_arrows(cat, pairs)
    return pairs


def ext1_tilting_test(cat):
    """The classical tilting test on `cat`: pd <= 1, no self-extensions, full summand count.

    Returns a predicate on basic catalog refs; pd and Ext^1 are computed once
    per entry and per pair of entries.
    """
    pd = cache(lambda i: pd_at_most_one(cat.entries[i]))
    ext = cache(lambda i, j: ext1(cat.entries[i], cat.entries[j]))

    def is_tilting(ref):
        if len(set(ref)) != len(ref):
            raise PreconditionError("module is not basic")
        if len(ref) != cat.algebra.n_vertices:
            return False
        if not all(pd(i) for i in ref):
            return False
        return all(ext(i, j) == 0 for i in ref for j in ref)

    return is_tilting


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


def dag_iso_search(x: LabeledDag, y: LabeledDag) -> bool:
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
        raise InvariantViolation("dag_iso_search found a vertex map that is not an isomorphism")
    return True


@lru_cache(maxsize=1)
def searched_doubled_hasse(base):
    """The Hasse quiver of the base with an isolated vertex adjoined, from its own
    catalog, and the catalog index of the isolated simple.  The two checks below
    run on one base in turn, so the last search is kept."""
    doubled, isolated = add_isolated_vertex(base)
    cat = build_catalog(doubled)
    return hasse(cat, enumerate_stau(cat)), cat.simple_index[isolated]


def assert_doubled_quiver_matches_search(ctx):
    """The doubled quiver `verify_hasse_gluing` glues from the base's quiver is the
    searched one: base pair k and its plus-copy N + k are the searched pairs 2k
    and 2k + 1, with g-vectors (g, -1) and (g, +1), and the arrows agree."""
    h_base = ctx.enum("base").hasse()
    n = len(h_base.pairs)
    product, _ = glue(hasse_to_dag(h_base), range(n))
    searched, _ = searched_doubled_hasse(ctx.base)
    assert [p.g for p in searched.pairs] == [p.g + (c,) for p in h_base.pairs for c in (-1, 1)]
    renumber = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    assert sorted((renumber[a], renumber[b]) for a, b in product.arrows) == list(searched.arrows)


def gluing_search_agrees(ctx):
    """`dag_iso_search` on the extension's Hasse quiver and the searched doubled
    one glued along the pairs that hold the isolated simple and have the source
    in their projective part: the check `verify_hasse_gluing` makes with the
    product rule and the g-vector map, made with neither."""
    h_dbl, s_iso = searched_doubled_hasse(ctx.base)
    subset = [k for k, p in enumerate(h_dbl.pairs)
              if s_iso in p.modules and ctx.source_vertex in p.proj_part]
    glued, _ = glue(hasse_to_dag(h_dbl), subset)
    return dag_iso_search(hasse_to_dag(ctx.enum("extended").hasse()), glued)
