"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 3 is implemented twice: once exactly as stated (expected
red: its stated pair count at n=8 contradicts the counting identity that
criterion 4 checks and the closed form that criterion 8 checks), and once
against the arithmetic forced by those identities.
"""
import time
from contextlib import contextmanager

import pytest

from tautilt.algebra import Arrow, Quiver, build_algebra, one_point_extension
from tautilt.catalog import build_catalog
from tautilt.counting import closed_form
from tautilt.families import type_a_square, type_d_square
from tautilt.modules import ext1, pd_at_most_one, tau
from tautilt.tilting import enumerate_stau, hasse, is_tau_rigid, tilting_modules
from tautilt.verify import (ExtensionContext, reproduce_tables, verify_classification,
                            verify_count_equations, verify_hasse_gluing)

from oracles import (all_rigid_cliques, assert_doubled_quiver_matches_search, decode,
                     decoded_arrows, dims_of_ref, gluing_search_agrees, hom_dim)


@contextmanager
def criterion(label, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"{label} took {elapsed:.1f}s"
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def a_counts():
    out = {}
    for n in range(1, 9):
        cat = build_catalog(type_a_square(n))
        pairs = enumerate_stau(cat)
        out[n] = (len(pairs.tau_tilt), len(pairs))
    return out


@pytest.fixture(scope="module")
def d_counts():
    out = {}
    for n in range(4, 9):
        cat = build_catalog(type_d_square(n))
        pairs = enumerate_stau(cat)
        out[n] = (len(pairs.tau_tilt), len(pairs))
    return out


def fork_base():
    return build_algebra(Quiver(["2", "3", "4"],
                                [Arrow("b", "2", "3"), Arrow("c", "2", "4")]))


def test_criterion_1_worked_example():
    with criterion("1 worked-example", budget_seconds=5):
        b = build_algebra(
            Quiver(["1", "2", "3", "4"],
                   [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "2", "4")]),
            [("a", "b"), ("a", "c")])
        cat = build_catalog(b)
        pairs = enumerate_stau(cat)
        assert len(pairs.tau_tilt) == 6
        assert len(tilting_modules(pairs)) == 5
        ctx = ExtensionContext(fork_base(), "2")
        rep = verify_classification(ctx)
        assert rep.status == "pass"
        assert rep.counts == {"tau_tilt_base": 5, "tau_tilt_quotient": 1,
                              "tau_tilt_extended": 6}


def test_criterion_2_linear_table(a_counts):
    with criterion("2 linear-family-table", budget_seconds=120):
        assert [a_counts[n][0] for n in range(1, 9)] == [1, 2, 3, 5, 8, 13, 21, 34]
        assert [a_counts[n][1] for n in range(1, 9)] == [2, 5, 12, 29, 70, 169, 408, 985]


@pytest.mark.xfail(
    strict=True,
    reason="the reported pair count 1026 at n=8 propagates the misprinted n=6 "
           "entry (2*454 + 118 = 1026); enumeration, the counting identity of "
           "criterion 4 and the closed form of criterion 8 all force 1096, so "
           "a second row must be flagged alongside n=6")
def test_criterion_3_fork_table_as_stated(d_counts):
    """Criterion 3 verbatim, kept failing on purpose.

    The expected row below reproduces the previously reported counts with
    only the n=6 entry corrected.  That row is not attainable: the identity
    `pairs(n) = 2*pairs(n-1) + pairs(n-2)` forces 2*454 + 188 = 1096 at
    n=8, and the exact closed form agrees, so 'exactly one discrepancy'
    cannot hold either.  The strict marker keeps this assertion checked in
    both directions; see the ground-truth variant below for the values the
    cross-checks force.
    """
    with criterion("3 fork-family-table-as-stated", budget_seconds=180):
        assert [d_counts[n][0] for n in range(4, 9)] == [6, 11, 17, 28, 45]
        result = reproduce_tables(1, 8)
        flagged = [d for d in result.discrepancies if not d.row.endswith("closed-form")]
        assert len(flagged) == 1, (
            f"expected exactly one flagged entry, got {[(d.n, d.row) for d in flagged]}")
        assert (flagged[0].family, flagged[0].n, flagged[0].reported) == ("D2", 6, 118)
        assert [d_counts[n][1] for n in range(4, 9)] == [32, 78, 188, 454, 1026]


def test_criterion_3_fork_table_ground_truth(d_counts):
    """Criterion 3 with the pair count at n=8 replaced by the value the
    package's own cross-checks force; both reported-table mismatches are
    flagged and both are corroborated by recurrence and closed form."""
    with criterion("3 fork-family-table-ground-truth", budget_seconds=180):
        assert [d_counts[n][0] for n in range(4, 9)] == [6, 11, 17, 28, 45]
        assert [d_counts[n][1] for n in range(4, 9)] == [32, 78, 188, 454, 1096]
        assert d_counts[8][1] == 2 * d_counts[7][1] + d_counts[6][1]
        result = reproduce_tables(1, 8)
        flagged = {(d.n, d.row): d for d in result.discrepancies}
        assert set(flagged) == {(6, "stau"), (8, "stau")}
        assert flagged[(6, "stau")].reported == 118
        assert flagged[(6, "stau")].computed == 188
        assert flagged[(8, "stau")].reported == 1026
        assert flagged[(8, "stau")].computed == 1096
        assert all(d.corroborated for d in result.discrepancies)
        assert result.hard_failures == 0


def test_criterion_4_count_equations():
    with criterion("4 count-equations", budget_seconds=300):
        contexts = [(type_a_square(n), str(n)) for n in range(2, 9)]
        contexts += [(type_d_square(n), str(n)) for n in range(5, 9)]
        contexts += [(fork_base(), "2"), (type_a_square(2), "2")]
        for algebra, v in contexts:
            rep = verify_count_equations(ExtensionContext(algebra, v))
            assert rep.status == "pass", (v, rep.counts)


def test_criterion_5_hasse_figures():
    with criterion("5 hasse-figures", budget_seconds=60):
        cat2 = build_catalog(type_a_square(2))
        h2 = hasse(enumerate_stau(cat2))
        assert len(h2.pairs) == 5 and len(h2.arrows) == 5
        indeg = {i: 0 for i in range(5)}
        outdeg = {i: 0 for i in range(5)}
        for a, b in decoded_arrows(h2):
            outdeg[a] += 1
            indeg[b] += 1
        (source,) = [i for i in indeg if indeg[i] == 0]
        (sink,) = [i for i in outdeg if outdeg[i] == 0]
        regular = tuple(sorted(cat2.projective_index.values()))
        pairs = decode(h2.pairs)
        assert pairs[source].modules == regular and pairs[source].proj_part == ()
        assert pairs[sink].modules == () and set(pairs[sink].proj_part) == {"1", "2"}
        cat3 = build_catalog(type_a_square(3))
        h3 = hasse(enumerate_stau(cat3))
        assert len(h3.pairs) == 12


def test_criterion_6_gluing_isomorphisms():
    bases = [(type_a_square(n), str(n)) for n in range(1, 6)]
    bases.append((fork_base(), "2"))
    for algebra, v in bases:
        label = f"6 hasse-gluing-{algebra.n_vertices}v-{v}"
        with criterion(label, budget_seconds=60):
            ctx = ExtensionContext(algebra, v)
            rep = verify_hasse_gluing(ctx)
            assert rep.status == "pass", rep.detail
            assert_doubled_quiver_matches_search(ctx)
            assert gluing_search_agrees(ctx)


def test_criterion_7a_extension_projective_rigidity():
    with criterion("7a extension-projective-rigidity", budget_seconds=120):
        for base, v in ((type_a_square(2), "2"), (fork_base(), "2"),
                        (type_d_square(4), "4")):
            b, new_vertex = one_point_extension(base, v)
            cat = build_catalog(b)
            p_new = cat.projective_index[new_vertex]
            for ref in all_rigid_cliques(cat):
                if not is_tau_rigid(cat, ref):
                    continue
                joined = tuple(sorted(set(ref) | {p_new}))
                assert is_tau_rigid(cat, joined)
            pairs = enumerate_stau(cat)
            for m in pairs.tau_tilt:
                assert p_new in m


def test_criterion_7b_exchange_regularity():
    with criterion("7b exchange-regularity", budget_seconds=120):
        algebras = [type_a_square(n) for n in range(1, 7)]
        algebras += [type_d_square(n) for n in (4, 5, 6)]
        algebras.append(fork_base())
        for algebra in algebras:
            cat = build_catalog(algebra)
            h = hasse(enumerate_stau(cat))  # raises on any regularity or shape violation
            degree = [0] * len(h.pairs)
            for a, b in decoded_arrows(h):
                degree[a] += 1
                degree[b] += 1
            assert all(d == algebra.n_vertices for d in degree)


def test_criterion_7c_ar_pairing():
    with criterion("7c ar-pairing", budget_seconds=120):
        checked = 0
        fork_b = build_algebra(
            Quiver(["1", "2", "3", "4"],
                   [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "2", "4")]),
            [("a", "b"), ("a", "c")])
        for algebra in (type_a_square(3), fork_b, type_d_square(4)):
            cat = build_catalog(algebra)
            for n_mod in cat.entries:
                if not pd_at_most_one(n_mod):
                    continue
                tn = tau(n_mod)
                for m_mod in cat.entries:
                    lhs = ext1(n_mod, m_mod)
                    rhs = hom_dim(m_mod, tn) if tn.total_dim else 0
                    assert lhs == rhs
                    checked += 1
        assert checked > 100


def test_criterion_7d_g_vector_injectivity():
    with criterion("7d g-vector-injectivity", budget_seconds=120):
        algebras = [type_a_square(n) for n in range(1, 7)]
        algebras += [type_d_square(n) for n in (4, 5)]
        algebras.append(fork_base())
        for algebra in algebras:
            pairs = enumerate_stau(build_catalog(algebra))
            gs = [pairs.g(k) for k in range(len(pairs))]
            assert len(set(gs)) == len(gs)


def test_criterion_7e_relations_after_functors():
    with criterion("7e relations-after-functors", budget_seconds=120):
        from tautilt.modules import _check_relations, tau_inverse
        for algebra in (type_a_square(4), type_d_square(5)):
            cat = build_catalog(algebra)
            for e in cat.entries:
                for image in (tau(e), tau_inverse(e)):
                    _check_relations(image)  # raises on any violated relation
                ref = cat.decompose(e)
                assert dims_of_ref(cat, ref) == e.dims


def test_criterion_8_closed_forms(a_counts, d_counts):
    with criterion("8 closed-forms", budget_seconds=120):
        for n in range(1, 9):
            assert closed_form("tau_a", n) == a_counts[n][0]
            # the pair-count formula lags the table by one index
            assert closed_form("stau_a", n + 1) == a_counts[n][1]
            assert closed_form("stau_a", n) != a_counts[n][1] or n == 0
        for n in range(4, 9):
            assert closed_form("tau_d", n) == d_counts[n][0]
            assert closed_form("stau_d", n) == d_counts[n][1]
        result = reproduce_tables(2, 4)
        assert any("n+1" in note for note in result.notes)
