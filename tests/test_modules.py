from fractions import Fraction

import pytest

from tautilt import modules
from tautilt.algebra import one_point_extension
from tautilt.catalog import Catalog
from tautilt.errors import InvariantViolation, PreconditionError
from tautilt.families import type_a_square
from tautilt.linalg import QMatrix, hstack, invert, rank, rref
from tautilt.modules import (Morphism, Representation, _top_generators, direct_sum,
                             dual_representation, ext1, extend_by_zero, hom_basis, injective,
                             iso, min_presentation, nakayama_of_presentation, pd_at_most_one,
                             projective, projective_cover, sub_representation, tau, tau_inverse,
                             zero_rep)

from oracles import hom_dim, radical, simple


def quotient_by(rep, inclusion):
    """Quotient of rep by the image of an injective inclusion, with the projection."""
    q = rep.algebra.quiver
    projections, sections, dims = [], [], []
    for C in inclusion.blocks:
        d, k = C.rows, C.cols
        _, pivots = rref(hstack([C, QMatrix.identity(d)]))
        comp = [p - k for p in pivots if p >= k]
        dims.append(len(comp))
        E = QMatrix(d, len(comp),
                    [1 if r == comp[j] else 0 for r in range(d) for j in range(len(comp))])
        Tinv = invert(hstack([C, E])) if d else QMatrix.zeros(0, 0)
        projections.append(QMatrix.from_rows([list(Tinv.row(r)) for r in range(k, d)], cols=d))
        sections.append(E)
    maps = [projections[q.vertex_pos[a.target]] * rep.arrow_maps[ai]
            * sections[q.vertex_pos[a.source]] for ai, a in enumerate(q.arrows)]
    quot = Representation(rep.algebra, dims, maps)
    return quot, Morphism(rep, quot, projections)


def dims_of(rep):
    return rep.dims


def test_projective_dimension_vectors(lambda3):
    assert projective(lambda3, "3").dims == (0, 1, 1)
    assert projective(lambda3, "2").dims == (1, 1, 0)
    assert projective(lambda3, "1").dims == (1, 0, 0)


def test_simple_is_one_hot(lambda3):
    for i, v in enumerate(lambda3.quiver.vertices):
        s = simple(lambda3, v)
        assert s.total_dim == 1 and s.dims[i] == 1


def test_new_projective_is_injective_at_old_source(lambda3):
    # the extension point's projective coincides with the injective at the source
    assert iso(projective(lambda3, "3"), injective(lambda3, "2"))


def test_relation_violation_is_caught(lambda3):
    q = lambda3.quiver
    dims = [1, 1, 1]
    maps = [QMatrix.from_rows([[1]], cols=1), QMatrix.from_rows([[1]], cols=1)]
    with pytest.raises(InvariantViolation, match=r"^relation \('a2', 'a1'\) not satisfied$"):
        Representation(lambda3, dims, maps)


def test_hom_from_projective_reads_the_fiber(lambda3, cat_lambda3):
    for m in cat_lambda3.entries:
        for k, v in enumerate(lambda3.quiver.vertices):
            assert hom_dim(projective(lambda3, v), m) == m.dims[k]


def test_hom_between_distinct_simples_vanishes(lambda3):
    assert hom_dim(simple(lambda3, "1"), simple(lambda3, "2")) == 0
    assert hom_dim(projective(lambda3, "2"), simple(lambda3, "2")) == 1


def test_hom_rejects_algebra_mismatch(lambda3, a2):
    with pytest.raises(PreconditionError):
        hom_basis(simple(lambda3, "1"), simple(a2, "1"))


def test_top_and_radical(lambda3):
    p3 = projective(lambda3, "3")
    assert _top_generators(p3) == [("3", 0)]
    rad, _ = radical(p3)
    assert rad.dims == (0, 1, 0)
    semi, _ = direct_sum(lambda3, [simple(lambda3, "1"), simple(lambda3, "2")])
    rad2, _ = radical(semi)
    assert rad2.total_dim == 0


def test_sub_representation_rejects_a_span_that_is_not_closed(lambda3):
    """P_3 over 3 -> 2 -> 1 has dims (0, 1, 1), and the arrow 3 -> 2 sends its
    generator to a nonzero vector: the generator's span alone is not closed."""
    p3 = projective(lambda3, "3")
    with pytest.raises(InvariantViolation, match="span not closed under arrow action"):
        sub_representation(p3, [[], [], [(1,)]])
    sub, _ = sub_representation(p3, [[], [(1,)], [(1,)]])
    assert sub.dims == p3.dims


def test_a_cover_that_misses_a_top_generator_is_not_surjective(monkeypatch, lambda3):
    """S_1 + S_2 has a top of dimension 2; a cover by the first generator alone
    misses S_2."""
    semi, _ = direct_sum(lambda3, [simple(lambda3, "1"), simple(lambda3, "2")])
    top = _top_generators(semi)
    assert len(top) == 2
    monkeypatch.setattr(modules, "_top_generators", lambda rep: top[:-1])
    with pytest.raises(InvariantViolation, match="projective cover is not surjective"):
        projective_cover(semi)


def test_a_morphism_with_a_wrong_block_does_not_intertwine(lambda3):
    """The identity of P_3 over 3 -> 2 -> 1 with its block at 2 replaced by zero
    fails on the arrow a2: 3 -> 2."""
    p3 = projective(lambda3, "3")
    blocks = [QMatrix.identity(d) for d in p3.dims]
    assert Morphism(p3, p3, blocks).blocks == tuple(blocks)
    blocks[lambda3.quiver.vertex_pos["2"]] = QMatrix.zeros(1, 1)
    with pytest.raises(InvariantViolation, match="blocks do not intertwine arrow 'a2'"):
        Morphism(p3, p3, blocks)


def test_radical_of_extension_projective(a2):
    b, new_vertex = one_point_extension(a2, "2")
    rad, _ = radical(projective(b, new_vertex))
    assert iso(rad, simple(b, "2"))


def test_projective_cover_of_projective_is_itself(lambda3):
    p = projective(lambda3, "2")
    pres = min_presentation(p)
    assert pres.p1_vertices == ()
    assert pres.p0_vertices == ("2",)


def test_min_presentation_of_simples(lambda3):
    # kernel of P3 ->> S3 is S2, covered by P2
    pres = min_presentation(simple(lambda3, "3"))
    assert pres.p0_vertices == ("3",)
    assert pres.p1_vertices == ("2",)
    pres2 = min_presentation(simple(lambda3, "2"))
    assert pres2.p0_vertices == ("2",)
    assert pres2.p1_vertices == ("1",)


def test_cover_requires_nonzero(lambda3):
    with pytest.raises(PreconditionError):
        projective_cover(zero_rep(lambda3))


def test_nakayama_sends_projectives_to_injectives(lambda3):
    for v in lambda3.quiver.vertices:
        pres = min_presentation(projective(lambda3, v))
        nu = nakayama_of_presentation(pres, lambda3)
        assert nu.target.dims == injective(lambda3, v).dims
        assert nu.source.total_dim == 0


def test_nakayama_of_simple_presentation_is_nonzero(lambda3):
    pres = min_presentation(simple(lambda3, "3"))
    nu = nakayama_of_presentation(pres, lambda3)
    assert nu.source.dims == injective(lambda3, "2").dims
    assert nu.target.dims == injective(lambda3, "3").dims
    assert not all(b.is_zero() for b in nu.blocks)


def test_tau_of_extension_simple(lambda3):
    # over the extension, tau of the new simple is the simple at the old source
    assert iso(tau(simple(lambda3, "3")), simple(lambda3, "2"))


def test_tau_kills_projectives(lambda3, cat_lambda3):
    for v in lambda3.quiver.vertices:
        assert tau(projective(lambda3, v)).total_dim == 0


def test_tau_inverse_kills_injectives(lambda3):
    for v in lambda3.quiver.vertices:
        assert tau_inverse(injective(lambda3, v)).total_dim == 0


def test_tau_on_a2(a2):
    assert iso(tau(simple(a2, "2")), simple(a2, "1"))
    assert iso(tau_inverse(simple(a2, "1")), simple(a2, "2"))


def test_tau_additive_on_sums(lambda3):
    s3, p2 = simple(lambda3, "3"), projective(lambda3, "2")
    summed, _ = direct_sum(lambda3, [s3, p2])
    assert tau(summed).dims == tau(s3).dims


def test_almost_split_start(a2):
    # 0 -> S_i -> P_new -> S_new -> 0 at the extension point
    b, new_vertex = one_point_extension(a2, "2")
    s_i = simple(b, "2")
    p_new = projective(b, new_vertex)
    maps = hom_basis(s_i, p_new)
    assert len(maps) == 1
    # rad P_new = S_i, so the map is injective: every block has full column rank
    assert all(rank(b) == b.cols for b in maps[0].blocks)
    coker, _ = quotient_by(p_new, maps[0])
    assert iso(coker, simple(b, new_vertex))
    assert iso(tau(simple(b, new_vertex)), s_i)


def test_ext_vanishes_on_projectives(lambda3, cat_lambda3):
    for v in lambda3.quiver.vertices:
        for m in cat_lambda3.entries:
            assert ext1(projective(lambda3, v), m) == 0


def test_ext_between_simples_counts_arrows(lambda3, d4):
    for alg in (lambda3, d4):
        arrows = {(a.source, a.target) for a in alg.quiver.arrows}
        for v in alg.quiver.vertices:
            for w in alg.quiver.vertices:
                expected = sum(1 for a in alg.quiver.arrows
                               if (a.source, a.target) == (v, w))
                assert ext1(simple(alg, v), simple(alg, w)) == expected


def test_ext_example(lambda3):
    assert ext1(simple(lambda3, "3"), simple(lambda3, "2")) == 1


def test_pd_at_most_one(lambda3, example_b, a2):
    for v in lambda3.quiver.vertices:
        assert pd_at_most_one(projective(lambda3, v))
    # extension simple has depth-two resolution when the source is not a sink
    assert not pd_at_most_one(simple(example_b, "1"))
    # but has projective syzygy when the source was a sink
    b, new_vertex = one_point_extension(type_a_square(1), "1")
    assert pd_at_most_one(simple(b, new_vertex))


def test_ar_pairing_on_catalog(cat_lambda3):
    cat = cat_lambda3
    for n in cat.entries:
        if not pd_at_most_one(n):
            continue
        tn = tau(n)
        for m in cat.entries:
            lhs = ext1(n, m)
            rhs = hom_dim(m, tn) if tn.total_dim else 0
            assert lhs == rhs


def test_decompose_block_sum(lambda3, cat_lambda3):
    p2, s3 = projective(lambda3, "2"), simple(lambda3, "3")
    summed, _ = direct_sum(lambda3, [p2, s3])
    ref = cat_lambda3.decompose(summed)
    assert ref == tuple(sorted((cat_lambda3.find_index(p2), cat_lambda3.find_index(s3))))


def test_decompose_regular_module(lambda3, cat_lambda3):
    reps = [projective(lambda3, v) for v in lambda3.quiver.vertices]
    summed, _ = direct_sum(lambda3, reps)
    ref = cat_lambda3.decompose(summed)
    assert ref == tuple(sorted(cat_lambda3.projective_index[v]
                               for v in lambda3.quiver.vertices))


def test_decompose_repeated_summand(lambda3, cat_lambda3):
    s2 = simple(lambda3, "2")
    summed, _ = direct_sum(lambda3, [s2, s2])
    ref = cat_lambda3.decompose(summed)
    assert ref == (cat_lambda3.simple_index["2"],) * 2


def test_decompose_zero_module(lambda3, cat_lambda3):
    assert cat_lambda3.decompose(zero_rep(lambda3)) == ()


def test_decompose_repeated_non_simple_non_projective_summand(d4, cat_d4):
    standard = set(cat_d4.projective_index.values()) | set(cat_d4.simple_index.values())
    k = next(i for i in range(cat_d4.size) if i not in standard)
    e, s = cat_d4.entries[k], simple(d4, d4.quiver.vertices[0])
    summed, _ = direct_sum(d4, [e, s, e])
    assert cat_d4.decompose(summed) == tuple(sorted((k, k, cat_d4.find_index(s))))


def test_decompose_over_another_algebra(a2, cat_lambda3):
    with pytest.raises(PreconditionError):
        cat_lambda3.decompose(simple(a2, "1"))


def test_decompose_outside_the_catalog_raises(d4, cat_d4):
    # Drop one non-projective entry; its module then matches no sum of the rest.
    k = next(i for i in range(cat_d4.size) if cat_d4.tau_index[i] is not None
             and i not in cat_d4.simple_index.values())
    keep = [i for i in range(cat_d4.size) if i != k]
    new = {old: pos for pos, old in enumerate(keep)}
    partial = Catalog(d4, [cat_d4.entries[i] for i in keep],
                      [cat_d4.presentations[i] for i in keep],
                      [new.get(cat_d4.tau_index[i]) for i in keep])
    with pytest.raises(InvariantViolation, match="^Hom dimensions match no sum of catalog entries$"):
        partial.decompose(cat_d4.entries[k])


def test_iso_basics(lambda3):
    s1 = simple(lambda3, "1")
    assert iso(s1, s1)
    assert not iso(s1, simple(lambda3, "2"))


def test_iso_of_two_constructions(lambda3):
    # the quotient of P3 by its radical against the simple built directly
    p3 = projective(lambda3, "3")
    _, incl = radical(p3)
    quot, _ = quotient_by(p3, incl)
    assert iso(quot, simple(lambda3, "3"))


def test_iso_rescaled_arrow_matrix(a2):
    p2 = projective(a2, "2")
    twisted = Representation(a2, p2.dims, [m.scale(Fraction(7, 3)) for m in p2.arrow_maps])
    assert iso(p2, twisted)


def test_dual_round_trip(lambda3):
    p3 = projective(lambda3, "3")
    back = dual_representation(dual_representation(p3))
    assert back.dims == p3.dims


def test_translates_are_mutually_inverse(cat_d4):
    for e in cat_d4.entries:
        t = tau(e)
        if t.total_dim:
            assert iso(tau_inverse(t), e)
        ti = tau_inverse(e)
        if ti.total_dim:
            assert iso(tau(ti), e)


def test_hom_into_injective_reads_the_fiber(cat_d4, d4):
    for m in cat_d4.entries:
        for k, v in enumerate(d4.quiver.vertices):
            assert hom_dim(m, injective(d4, v)) == m.dims[k]


def test_extend_by_zero(a2):
    b, _ = one_point_extension(a2, "2")
    moved = extend_by_zero(projective(a2, "2"), b)
    assert moved.dims == (1, 1, 0)
    assert iso(moved, projective(b, "2"))
