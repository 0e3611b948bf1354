import itertools
import re
from collections import Counter
from fractions import Fraction

import pytest

from oracles import (add_isolated_vertex, assert_catalog_matches_tau_inverse_closure,
                     assert_hom_tables_match_oracle,
                     assert_presentation_shortcuts_match_oracle,
                     assert_presentations_match_oracle, dims_of_ref, end_reduced_dim,
                     rref_fraction, simple, support_of_ref)
from tautilt import catalog, linalg, modules
from tautilt.algebra import Arrow, Quiver, build_algebra
from tautilt.catalog import Catalog, build_catalog
from tautilt.errors import InvariantViolation, NotDirectedError
from tautilt.families import family, type_a_square, type_d_square
from tautilt.linalg import QMatrix
from tautilt.modules import Representation, direct_sum, iso, projective, tau, tau_inverse


def test_a2_catalog(cat_a2, a2):
    assert cat_a2.size == 3
    dims = sorted(e.dims for e in cat_a2.entries)
    assert dims == [(0, 1), (1, 0), (1, 1)]


def test_lambda3_catalog(cat_lambda3):
    assert cat_lambda3.size == 5
    assert sorted(e.dims for e in cat_lambda3.entries) == [
        (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_linear_family_catalog_count(n):
    # n projectives plus n-1 non-projective simples
    cat = build_catalog(type_a_square(n))
    assert cat.size == 2 * n - 1


def test_hereditary_d6_catalog(monkeypatch, hereditary_d):
    """Hereditary D6 (6 -> 5 -> 4 -> 3 -> {1, 2}) has modules of dimension 2 at a vertex."""
    n = 6
    cat = build_catalog(hereditary_d(n))
    assert cat.size == n * (n - 1)
    # Gabriel: the indecomposables are the positive roots, the x >= 0 with Tits form 1
    # (every positive root of D_n has coefficients at most 2).
    q = cat.algebra.quiver
    edges = [(q.vertex_pos[a.source], q.vertex_pos[a.target]) for a in q.arrows]
    roots = {x for x in itertools.product(range(4), repeat=n)
             if sum(c * c for c in x) - sum(x[s] * x[t] for s, t in edges) == 1}
    assert {e.dims for e in cat.entries} == roots
    assert max(max(e.dims) for e in cat.entries) == 2
    monkeypatch.setattr(linalg, "rref", rref_fraction)
    monkeypatch.setattr(modules, "rref", rref_fraction)
    reference = build_catalog(hereditary_d(n))
    assert [e.dims for e in reference.entries] == [e.dims for e in cat.entries]
    assert reference.tors_mask == cat.tors_mask
    assert reference.compat_mask == cat.compat_mask
    assert reference.hom_dims == cat.hom_dims


@pytest.mark.parametrize("kind, n", [("A2", n) for n in range(1, 8)]
                         + [("D2", n) for n in range(4, 8)] + [("D", 6), ("D", 8)])
def test_catalog_matches_the_tau_inverse_closure(hereditary_d, kind, n):
    """The injectives closed under tau list the same catalog as the projectives
    closed under tau^-1, with the same tau, projectives and simples."""
    algebra = {"A2": type_a_square, "D2": type_d_square, "D": hereditary_d}[kind](n)
    assert_catalog_matches_tau_inverse_closure(build_catalog(algebra))


def d4_into_the_branch(n):
    """Hereditary D4 with every arrow into the branch vertex: 1 -> 3, 2 -> 3, 4 -> 3.
    The entry of dimension vector (1, 1, 1, 1) has P1 = P(3) + P(3), two summands
    of the second cover generated at one vertex."""
    assert n == 4
    return build_algebra(Quiver(["1", "2", "3", "4"], [
        Arrow("b1", "1", "3"), Arrow("b2", "2", "3"), Arrow("b4", "4", "3")]))


@pytest.mark.parametrize("kind, n", [("A2", n) for n in range(1, 8)]
                         + [("D2", n) for n in range(4, 8)] + [("D", 6), ("D", 8)]
                         + [("D-in", 4)])
def test_presentations_match_the_composed_map(hereditary_d, kind, n):
    """Each entry's path combinations and pd <= 1 equal those read off the
    composite of the kernel inclusion and the second projective cover."""
    algebra = {"A2": type_a_square, "D2": type_d_square, "D": hereditary_d,
               "D-in": d4_into_the_branch}[kind](n)
    assert_presentations_match_oracle(build_catalog(algebra))


def test_hereditary_d8_hom_tables_match_the_hom_space_route(hereditary_d):
    """The catalog-hered-d8 benchmark algebra: 56 entries, one rank per pair."""
    cat = build_catalog(hereditary_d(8))
    assert cat.size == 56
    assert_hom_tables_match_oracle(cat)


@pytest.mark.parametrize("kind, n", [("D2", 6), ("D", 8)])
def test_catalog_builds_no_syzygy_and_no_second_cover(monkeypatch, hereditary_d, kind, n):
    """`projective_cover` runs once per entry, for P0 -> E, and `sub_representation`
    once per tau step, for the kernel of the Nakayama map: the presentation
    builds neither the syzygy nor its cover P1."""
    calls = Counter()

    def count(name):
        original = getattr(modules, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(modules, name, counted)
    count("projective_cover")
    count("sub_representation")
    cat = build_catalog({"D2": type_d_square, "D": hereditary_d}[kind](n))
    assert calls["projective_cover"] == cat.size
    assert calls["sub_representation"] == sum(t is not None for t in cat.tau_index)


def test_catalog_entries_are_local(cat_example_b):
    """The Hom table's diagonal dim End(E_i) is 1, as is the trace-form dim End/rad End."""
    for i, e in enumerate(cat_example_b.entries):
        assert cat_example_b.hom_dims.entry(i, i) == end_reduced_dim(e) == 1


@pytest.mark.parametrize("kind, n", [("A2", n) for n in range(1, 8)]
                         + [("D2", n) for n in range(4, 8)] + [("D", 6), ("D", 8)])
def test_presentation_shortcuts_match_the_radical_and_trace_form_routes(hereditary_d, kind, n):
    algebra = {"A2": type_a_square, "D2": type_d_square, "D": hereditary_d}[kind](n)
    assert_presentation_shortcuts_match_oracle(algebra)


def test_decomposable_entry_is_rejected_by_the_hom_diagonal(monkeypatch):
    """Over 4 -> 3 -> 2 -> 1 (radical square zero) S_1 + S_4 has the fresh dimension
    vector (1, 0, 0, 1) and Euler form 1.  Stand-in tau steps S_2 -> S_1 + S_4 -> S_1
    keep every projective and simple in the closure, so only dim End = 2 is wrong."""
    algebra = type_a_square(4)
    s1_s4, _ = direct_sum(algebra, [simple(algebra, "1"), simple(algebra, "4")])
    steps = {(0, 1, 0, 0): s1_s4, (1, 0, 0, 1): simple(algebra, "1")}
    real = catalog.tau_of_entry
    monkeypatch.setattr(catalog, "tau_of_entry",
                        lambda rep, pres: steps[rep.dims] if rep.dims in steps else real(rep, pres))
    with pytest.raises(InvariantViolation,
                       match=r"dim End is 2 on the catalog entry with dims \[1, 0, 0, 1\]"):
        build_catalog(algebra)


def test_catalog_closed_under_tau_inverse(cat_lambda3):
    for e in cat_lambda3.entries:
        t = tau_inverse(e)
        if t.total_dim:
            assert cat_lambda3.find_index(t) is not None


def test_catalog_tau_index_consistency(cat_d4):
    for i, idx in enumerate(cat_d4.tau_index):
        t = tau(cat_d4.entries[i])
        if idx is None:
            assert t.total_dim == 0
        else:
            assert iso(cat_d4.entries[idx], t)


def test_catalog_determinism(lambda3):
    a = build_catalog(lambda3)
    b = build_catalog(lambda3)
    assert [e.dims for e in a.entries] == [e.dims for e in b.entries]
    assert a.projective_index == b.projective_index


def test_shared_dimension_vector_is_rejected(monkeypatch):
    """Radical square zero on the 2-cycle: P1 and P2 both have dims (1, 1), but
    the oriented cycle is rejected first, before any module is built."""
    two_cycle = build_algebra(
        Quiver(["1", "2"], [Arrow("x", "1", "2"), Arrow("y", "2", "1")]),
        [("x", "y"), ("y", "x")])
    monkeypatch.setattr(catalog, "injective", lambda *args: pytest.fail("closure started"))
    with pytest.raises(NotDirectedError, match="oriented cycle"):
        build_catalog(two_cycle)


def test_non_isomorphic_modules_with_one_dimension_vector_are_rejected(monkeypatch, a2):
    """A stand-in tau step sends S_2 to S_1 + S_2, which has the dims (1, 1) of I_1 = P_2."""
    s1_s2, _ = direct_sum(a2, [simple(a2, "1"), simple(a2, "2")])
    monkeypatch.setattr(catalog, "tau_of_entry", lambda rep, pres: s1_s2)
    with pytest.raises(NotDirectedError, match=r"share the dimension vector \[1, 1\]"):
        build_catalog(a2)


@pytest.mark.parametrize("image", ["2", "3"])
def test_tau_must_be_injective_into_non_injectives(monkeypatch, lambda3, image):
    """Over 3 -> 2 -> 1 the non-projectives are S_3 and S_2.  A stand-in tau step
    that sends both to S_2 hits S_2 twice; one that sends S_3 to S_3 lands on an
    injective."""
    monkeypatch.setattr(catalog, "tau_of_entry", lambda rep, pres: simple(lambda3, image))
    with pytest.raises(InvariantViolation, match="an injective or the tau of another entry"):
        build_catalog(lambda3)


def test_catalog_rejects_an_entry_listed_twice(cat_a2, a2):
    k = cat_a2.size - 1
    with pytest.raises(NotDirectedError, match="^two catalog entries share a dimension "
                                               "vector; the algebra is not representation-"
                                               "directed$"):
        catalog.Catalog(a2, [*cat_a2.entries, cat_a2.entries[k]],
                        [*cat_a2.presentations, cat_a2.presentations[k]],
                        [*cat_a2.tau_index, cat_a2.tau_index[k]])


def test_catalog_without_a_projective_is_rejected(cat_lambda3, lambda3):
    """Over 3 -> 2 -> 1 the projective P_3, of dims (0, 1, 1), is not simple."""
    k = cat_lambda3.projective_index["3"]
    keep = [i for i in range(cat_lambda3.size) if i != k]
    new = {old: pos for pos, old in enumerate(keep)}
    with pytest.raises(NotDirectedError, match="^the projective or simple module at vertex 3 "
                                               "is missing from the catalog; "):
        catalog.Catalog(lambda3, [cat_lambda3.entries[i] for i in keep],
                        [cat_lambda3.presentations[i] for i in keep],
                        [new.get(cat_lambda3.tau_index[i]) for i in keep])


def test_decompose_confirms_the_solved_sum_by_iso(monkeypatch, cat_lambda3):
    """A wrong solution of the Hom system names another entry, which `iso` rejects."""
    s = cat_lambda3.simple_index["1"]
    other = cat_lambda3.simple_index["2"]
    monkeypatch.setattr(catalog, "solve", lambda m, b: tuple(
        Fraction(int(k == other)) for k in range(cat_lambda3.size)))
    with pytest.raises(InvariantViolation,
                       match="^module is not the sum its Hom dimensions name$"):
        cat_lambda3.decompose(cat_lambda3.entries[s])


def test_find_index_confirms_the_dims_key_by_iso(cat_a2, a2):
    s1_s2, _ = direct_sum(a2, [simple(a2, "1"), simple(a2, "2")])
    p2 = cat_a2.projective_index["2"]
    assert cat_a2.entries[p2].dims == s1_s2.dims == (1, 1)
    assert cat_a2.find_index(s1_s2) is None
    assert cat_a2.find_index(cat_a2.entries[p2]) == p2


def test_doubled_catalog_has_isolated_simple(a2):
    doubled, isolated = add_isolated_vertex(a2)
    cat = build_catalog(doubled)
    assert cat.size == 4
    assert cat.simple_index[isolated] == cat.projective_index[isolated]


def test_representation_infinite_type_hits_cap():
    """The Kronecker preinjectives grow without end; the closure stops at the
    first dimension vector with a coordinate above 6, with no iteration cap."""
    kronecker = build_algebra(
        Quiver(["1", "2"], [Arrow("a", "2", "1"), Arrow("b", "2", "1")]))
    with pytest.raises(NotDirectedError, match=r"\[7, 8\] has a coordinate above 6"):
        build_catalog(kronecker)


def test_hereditary_e8_reaches_the_coordinate_bound(cat_hereditary_e8):
    """Hereditary E8 has 120 indecomposables, and its highest root has a 6: the
    bound the closure checks is reached, so it is not too small."""
    cat = cat_hereditary_e8
    assert cat.size == 120
    assert max(max(e.dims) for e in cat.entries) == 6
    # the same count from one Hom-space kernel per pair (the oracle route)
    assert sum(m.bit_count() for m in cat.tors_mask) == 9395


def test_entry_off_the_euler_form_is_rejected(monkeypatch):
    """Over the Kronecker algebra (C = [[1, 0], [2, 1]]) the regular module of
    dims (1, 1) has a local endomorphism ring but Euler form 1 + 1 - 2 = 0.
    Stand-in tau steps I_1 -> (1, 1) -> P_1 and S_2 -> P_2 reach every standard
    module, so every other check passes; Euler form 0 means Ext^1 = k, so the
    algebra is not representation-directed."""
    kronecker = build_algebra(
        Quiver(["1", "2"], [Arrow("a", "2", "1"), Arrow("b", "2", "1")]))
    one = QMatrix.identity(1)
    regular = Representation(kronecker, (1, 1), (one, one))
    steps = {(1, 2): regular, (1, 1): simple(kronecker, "1"),
             (0, 1): projective(kronecker, "2")}
    monkeypatch.setattr(catalog, "tau_of_entry", lambda rep, pres: steps[rep.dims])
    with pytest.raises(NotDirectedError, match=r"Euler form is 0 on the dimension vector \[1, 1\]"):
        build_catalog(kronecker)


AR_MUTANT_ALGEBRAS = [("A2", 5), ("D2", 6)]


@pytest.mark.parametrize("kind, n", AR_MUTANT_ALGEBRAS)
def test_ar_formula_rejects_every_misplaced_tau(kind, n):
    """tau E_j pointed at any other entry, for every non-projective E_j: the
    AR formula reads Hom(E_i, tau E_j) off the wrong row for some E_i."""
    cat = build_catalog(family(kind, n))
    mutants = 0
    for j, t in enumerate(cat.tau_index):
        for k in range(cat.size):
            if t is not None and k != t:
                tau_index = cat.tau_index[:j] + [k] + cat.tau_index[j + 1:]
                with pytest.raises(InvariantViolation, match="the AR formula fails on the "
                                                             "catalog entries with dims"):
                    Catalog(cat.algebra, cat.entries, cat.presentations, tau_index)
                mutants += 1
    assert mutants == {"A2": 32, "D2": 66}[kind]


@pytest.mark.parametrize("kind, n", AR_MUTANT_ALGEBRAS + [("A2", 6), ("D2", 5)])
def test_ar_formula_rejects_every_g_vector_off_by_one_in_one_lane(kind, n):
    """One lane of one entry's g-vector moved by +1 or -1: the pairing with the
    simple at that lane moves too, while both Hom dimensions stay."""
    cat = build_catalog(family(kind, n))
    mutants = list(itertools.product(range(cat.size), range(n), (1, -1)))

    class Mutant(Catalog):  # shifts lane `lane` of E_j's g-vector as __init__ stores it
        @property
        def g_vectors(self):
            return self._g

        @g_vectors.setter
        def g_vectors(self, gs):
            self._g = [tuple(x + delta * (m == j and k == lane) for k, x in enumerate(g))
                       for m, g in enumerate(gs)]

    for j, lane, delta in mutants:
        named = re.escape(f"the AR formula fails on the catalog entries with dims "
                          f"{list(cat.entries[j].dims)} and ")
        with pytest.raises(InvariantViolation, match=named):
            Mutant(cat.algebra, cat.entries, cat.presentations, cat.tau_index)
    assert len(mutants) == {("A2", 5): 90, ("A2", 6): 132, ("D2", 5): 100, ("D2", 6): 144}[kind, n]


def test_singular_cartan_matrix_is_not_directed(monkeypatch):
    # radical square zero on the 2-cycle: one path between any two vertices, C = [[1, 1], [1, 1]];
    # build_catalog rejects the quiver before the Euler form would invert C
    two_cycle = build_algebra(
        Quiver(["1", "2"], [Arrow("x", "1", "2"), Arrow("y", "2", "1")]),
        [("x", "y"), ("y", "x")])
    monkeypatch.setattr(catalog, "_check_euler_form",
                        lambda *args: pytest.fail("the Euler form was checked"))
    with pytest.raises(NotDirectedError, match="oriented cycle"):
        build_catalog(two_cycle)


def test_closure_over_an_oriented_cycle_is_not_directed():
    """3 -> 4 -> 2 -> 1 -> 4 with the paths 3 -> 4 -> 2, 4 -> 2 -> 1 and 2 -> 1 -> 4
    zero: the closure meets every standard module and no shared dimension
    vector, but x^T C^-1 x is 0 on S_4.  A directed algebra has an acyclic quiver."""
    algebra = build_algebra(
        Quiver(["1", "2", "3", "4"], [Arrow("x0", "4", "2"), Arrow("x1", "3", "4"),
                                      Arrow("x2", "1", "4"), Arrow("x3", "2", "1")]),
        [("x0", "x3"), ("x1", "x0"), ("x3", "x2")])
    with pytest.raises(NotDirectedError, match="oriented cycle"):
        build_catalog(algebra)


def test_dims_and_support_of_refs(cat_lambda3):
    p2 = cat_lambda3.projective_index["2"]
    s3 = cat_lambda3.simple_index["3"]
    ref = tuple(sorted((p2, s3)))
    assert dims_of_ref(cat_lambda3, ref) == (1, 1, 1)
    assert support_of_ref(cat_lambda3, ref) == {"1", "2", "3"}
    assert dims_of_ref(cat_lambda3, ()) == (0, 0, 0)


def test_g_vectors_of_entries(cat_a2):
    p1 = cat_a2.projective_index["1"]
    p2 = cat_a2.projective_index["2"]
    s2 = cat_a2.simple_index["2"]
    assert cat_a2.g_vectors[p1] == (1, 0)
    assert cat_a2.g_vectors[p2] == (0, 1)
    assert cat_a2.g_vectors[s2] == (-1, 1)


def test_empty_algebra_catalog():
    empty = build_algebra(Quiver([], []))
    cat = build_catalog(empty)
    assert cat.size == 0
