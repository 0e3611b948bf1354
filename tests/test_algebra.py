import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautilt.algebra import (Arrow, Quiver, _normalize_relations, build_algebra,
                             delete_vertex, load_algebra, one_point_extension,
                             opposite_algebra, parse_algebra, serialize_algebra)
from tautilt.errors import AlgebraFormatError, InfiniteDimensionalError, PreconditionError
from tautilt.families import type_a_square, type_d_square

from oracles import add_isolated_vertex, algebra_equal_upto_relabel, paths_to_pumping_bound

DATA = Path(__file__).parent / "data"


def linear(n, relations=()):
    vertices = [str(k) for k in range(1, n + 1)]
    arrows = [Arrow(f"a{k}", str(k + 1), str(k)) for k in range(1, n)]
    return build_algebra(Quiver(vertices, arrows), relations)


def test_build_lambda3():
    a = linear(3, [("a2", "a1")])
    assert a.dimension == 5
    lengths = sorted(len(p.arrows) for p in a.path_basis)
    assert lengths == [0, 0, 0, 1, 1]
    # idempotents come first, one per vertex
    assert [p.source for p in a.path_basis[:3]] == ["1", "2", "3"]


def test_build_no_relations():
    assert linear(2).dimension == 3


def test_uncut_loop_is_rejected():
    with pytest.raises(InfiniteDimensionalError):
        build_algebra(Quiver(["1"], [Arrow("l", "1", "1")]))


def test_cut_loop_is_finite():
    a = build_algebra(Quiver(["1"], [Arrow("l", "1", "1")]), [("l", "l")])
    assert a.dimension == 2


def test_relation_validation():
    q = Quiver(["1", "2"], [Arrow("a", "2", "1")])
    with pytest.raises(AlgebraFormatError):
        build_algebra(q, [("a",)])  # too short
    with pytest.raises(AlgebraFormatError):
        build_algebra(q, [("a", "a")])  # not composable
    with pytest.raises(AlgebraFormatError):
        build_algebra(q, [("a", "z")])  # unknown arrow


def test_relation_normalization_drops_supersets():
    q = Quiver(["1", "2", "3", "4"],
               [Arrow("a", "4", "3"), Arrow("b", "3", "2"), Arrow("c", "2", "1")])
    alg = build_algebra(q, [("a", "b", "c"), ("a", "b")])
    assert alg.relations == (("a", "b"),)


def test_extension_of_a2_is_lambda3():
    a2 = type_a_square(2)
    b, new_vertex = one_point_extension(a2, "2")
    assert new_vertex == "3"
    assert b.dimension == 5
    lam3 = type_a_square(3)
    vmap = {v: v for v in b.quiver.vertices}
    amap = {"a1": "a1", f"{new_vertex}to2": "a2"}
    assert algebra_equal_upto_relabel(b, lam3, vmap, amap)


def test_extension_of_fork(example_base, example_b):
    b, new_vertex = one_point_extension(example_base, "2")
    assert b.dimension == example_b.dimension == 7
    vmap = {"2": "2", "3": "3", "4": "4", new_vertex: "1"}
    amap = {"b": "b", "c": "c", f"{new_vertex}to2": "a"}
    assert algebra_equal_upto_relabel(b, example_b, vmap, amap)


def test_extension_requires_source(lambda3):
    with pytest.raises(PreconditionError):
        one_point_extension(lambda3, "2")


def test_extension_grows_dimension_by_two():
    for alg, v in ((type_a_square(4), "4"), (type_d_square(5), "5")):
        b, new_vertex = one_point_extension(alg, v)
        assert b.dimension == alg.dimension + 2
        from tautilt.modules import projective
        assert projective(b, new_vertex).total_dim == 2


def test_delete_source_of_lambda3(lambda3, a2):
    quot = delete_vertex(lambda3, "3")
    assert algebra_equal_upto_relabel(quot, a2, {"1": "1", "2": "2"}, {"a1": "a1"})


def test_delete_middle_vertex_disconnects():
    quot = delete_vertex(linear(3), "2")
    assert quot.quiver.vertices == ("1", "3")
    assert quot.quiver.arrows == ()
    assert quot.dimension == 2


def test_delete_source_of_d_family():
    for n in (5, 6):
        big = type_d_square(n)
        small = type_d_square(n - 1)
        quot = delete_vertex(big, str(n))
        vmap = {v: v for v in quot.quiver.vertices}
        amap = {a.name: a.name for a in quot.quiver.arrows}
        assert algebra_equal_upto_relabel(quot, small, vmap, amap)


def test_delete_unknown_vertex(lambda3):
    with pytest.raises(PreconditionError):
        delete_vertex(lambda3, "9")


def test_deleted_basis_is_a_sub_multiset(lambda3):
    quot = delete_vertex(lambda3, "3")
    old = {(p.source, p.arrows) for p in lambda3.path_basis}
    assert all((p.source, p.arrows) in old for p in quot.path_basis)


def test_add_isolated_vertex(a2):
    bigger, v = add_isolated_vertex(a2)
    assert bigger.dimension == a2.dimension + 1
    assert len(bigger.quiver.vertices) == 3
    assert bigger.quiver.is_source(v) and bigger.quiver.is_sink(v)
    again, w = add_isolated_vertex(bigger)
    assert again.dimension == bigger.dimension + 1
    assert w not in bigger.quiver.vertex_pos


def test_relabel_identity(lambda3):
    vmap = {v: v for v in lambda3.quiver.vertices}
    amap = {a.name: a.name for a in lambda3.quiver.arrows}
    assert algebra_equal_upto_relabel(lambda3, lambda3, vmap, amap)


def test_relabel_dimension_mismatch(a2, lambda3):
    with pytest.raises(PreconditionError):
        # map keys must match; a wrong-size map is a precondition failure
        algebra_equal_upto_relabel(a2, lambda3, {"1": "1"}, {})


def test_relabel_detects_structural_differences():
    bound = linear(3, [("a2", "a1")])
    free = linear(3)
    vmap = {v: v for v in bound.quiver.vertices}
    amap = {a.name: a.name for a in bound.quiver.arrows}
    # same quiver, different relation sets
    assert not algebra_equal_upto_relabel(bound, free, vmap, amap)
    # same sizes, different arrow endpoints
    other = build_algebra(Quiver(["1", "2", "3"],
                                 [Arrow("a1", "2", "1"), Arrow("a2", "2", "3")]))
    assert not algebra_equal_upto_relabel(free, other, vmap, amap)


def test_add_isolated_to_single_vertex(single_vertex):
    doubled, w = add_isolated_vertex(single_vertex)
    assert doubled.dimension == 2
    assert doubled.quiver.arrows == ()
    assert len(doubled.quiver.vertices) == 2
    assert w != single_vertex.quiver.vertices[0]


def test_family_extension_chain():
    for n in (3, 4, 5):
        base = type_a_square(n - 1)
        b, new = one_point_extension(base, str(n - 1))
        target = type_a_square(n)
        vmap = {v: v for v in base.quiver.vertices}
        vmap[new] = str(n)
        amap = {a.name: a.name for a in base.quiver.arrows}
        amap[f"{new}to{n - 1}"] = f"a{n - 1}"
        assert algebra_equal_upto_relabel(b, target, vmap, amap)


def test_vertex_roles(lambda3):
    q = lambda3.quiver
    assert q.is_source("3")
    assert not q.is_sink("3")
    assert q.is_sink("1")
    assert not q.is_source("2") and not q.is_sink("2")


def test_opposite_is_involutive(lambda3):
    assert opposite_algebra(opposite_algebra(lambda3)) == lambda3


def test_file_round_trip_is_bit_exact(example_b, tmp_path):
    text = serialize_algebra(example_b)
    again = parse_algebra(text)
    assert serialize_algebra(again) == text
    assert again == example_b
    path = tmp_path / "b.json"
    path.write_text(text)
    assert load_algebra(path) == example_b


def test_parse_rejects_malformed():
    with pytest.raises(AlgebraFormatError):
        parse_algebra("not json")
    with pytest.raises(AlgebraFormatError):
        parse_algebra('{"vertices": ["1"]}')
    with pytest.raises(AlgebraFormatError):
        parse_algebra('{"vertices": ["1"], "arrows": [{"id": "a"}], "relations": []}')


@st.composite
def quivers_with_cycles(draw):
    """At most 3 vertices and 5 arrows, loops and cycles allowed, and relations
    drawn as walks of 2 to 4 arrows.  The pumping bound |V| + sum(len(r) - 1) is
    at most 9, and (largest out-degree)^bound at most 20,000, so that the oracle,
    which lists the legal paths up to that length, stays fast."""
    vertices = [str(k) for k in range(draw(st.integers(1, 3)))]
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                         max_size=5))
    quiver = Quiver(vertices, [Arrow(f"x{k}", s, t) for k, (s, t) in enumerate(ends)])
    out_degree = max(len(out) for out in quiver.arrows_from.values())
    relations, bound = [], len(vertices)
    for _ in range(draw(st.integers(0, 4)) if quiver.arrows else 0):
        walk = [draw(st.sampled_from(quiver.arrows))]
        for _ in range(draw(st.integers(1, 3))):
            out = quiver.arrows_from[walk[-1].target]
            if out:
                walk.append(draw(st.sampled_from(out)))
        if len(walk) > 1 and bound + len(walk) - 1 <= 9 and (
                out_degree ** (bound + len(walk) - 1) <= 20_000):
            relations.append(tuple(a.name for a in walk))
            bound += len(walk) - 1
    return quiver, relations


@given(quivers_with_cycles())
@settings(max_examples=300, deadline=None)
def test_path_basis_matches_the_pumping_bound_oracle(drawn):
    """The automaton's verdict and basis are those of listing every path up to the
    pumping bound, on quivers with loops and cycles."""
    quiver, relations = drawn
    try:
        expected = paths_to_pumping_bound(quiver, _normalize_relations(quiver, relations))
    except InfiniteDimensionalError as exc:
        with pytest.raises(InfiniteDimensionalError) as got:
            build_algebra(quiver, relations)
        assert str(got.value) == str(exc)
    else:
        assert build_algebra(quiver, relations).path_basis == expected


def test_six_loops_with_four_relations_are_infinite_at_once():
    """Six loops cut by abc, bcd, cde and def still pump (a loop on its own, say);
    the automaton says so without listing every legal path up to the bound of 9."""
    start = time.perf_counter()
    with pytest.raises(InfiniteDimensionalError, match="path basis is infinite"):
        load_algebra(DATA / "six_loops_infinite.json")
    assert time.perf_counter() - start < 0.5
