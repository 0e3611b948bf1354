import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautilt.dags import LabeledDag, dag_iso, glue, hasse_to_dag, to_dot
from tautilt.errors import InvariantViolation, PreconditionError
from tautilt.tilting import enumerate_stau, hasse
from tautilt.util import topological_order

from oracles import (ReferenceDag, as_labeled_dag, dag_iso_search, reference_dag,
                     reference_glue)


def dag(labels, arrows):
    """The package's quiver with these labels and (a, b) arrows."""
    return as_labeled_dag(ReferenceDag(tuple(labels), tuple(arrows)))


def labels_of(d):
    return tuple(map(d.label, range(d.size)))


def arrows_of(d):
    return [divmod(c, d.size) for c in d.arrows]


def test_glue_schematic():
    # four vertices a1 -> {a2, n1}, n1 -> n2 -> a2 glued along {n1, n2}
    d = dag(("a1", "n1", "n2", "a2"), ((0, 3), (0, 1), (1, 2), (2, 3)))
    g, plus = glue(d, {1, 2})
    assert labels_of(g) == ("a1", "n1", "n2", "a2", "n1+", "n2+")
    assert plus == {1: 4, 2: 5}
    expected = {
        (0, 3),          # a1 -> a2 inside the complement
        (0, 4),          # a1 -> n1 redirected to the copy
        (4, 1), (5, 2),  # copies point at their originals
        (4, 5),          # copied internal arrow
        (1, 2),          # original internal arrow survives
        (2, 3),          # arrow out of the subset survives
    }
    assert arrows_of(g) == sorted(expected)


def test_glue_empty_subset_is_identity():
    d = dag(("x", "y"), ((0, 1),))
    g, plus = glue(d, ())
    assert labels_of(g) == ("x", "y") and g.arrows == d.arrows and plus == {}


def test_glue_rejects_bad_subset():
    with pytest.raises(PreconditionError):
        glue(dag(("x",), ()), {4})
    with pytest.raises(PreconditionError):
        glue(dag(("x",), ()), {-1})


@st.composite
def small_dags(draw):
    n = draw(st.integers(0, 7))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    return ReferenceDag(tuple(f"v{i}" for i in range(n)), tuple(edges))


@given(small_dags(), st.data())
@settings(max_examples=60, deadline=None)
def test_glue_counts_and_acyclicity(ref, data):
    d, n = as_labeled_dag(ref), len(ref.labels)
    subset = frozenset(data.draw(st.sets(st.integers(0, n - 1)))) if n else frozenset()
    g, plus = glue(d, subset)
    assert g.size == n + len(subset)
    assert sorted(plus) == sorted(subset) and sorted(plus.values()) == list(range(n, g.size))
    assert all(g.label(plus[v]) == d.label(v) + "+" for v in subset)
    inside = sum(1 for a, b in ref.arrows if a in subset and b in subset)
    into = sum(1 for a, b in ref.arrows if a not in subset and b in subset)
    assert len(g.arrows) == len(ref.arrows) + inside + len(subset)
    # family bookkeeping: arrows into the subset were redirected, not dropped
    assert sum(1 for a, b in arrows_of(g) if b >= n) == into + inside
    assert all(x < y for x, y in zip(g.arrows, g.arrows[1:]))
    assert topological_order(g.size, g.arrows)[0] is not None


@given(small_dags(), st.data())
@settings(max_examples=60, deadline=None)
def test_glue_matches_the_reference(ref, data):
    """The code-level `glue` and the tuple `reference_glue` agree on the size,
    the arrows, the plus map and every label, glued once and glued again."""
    d, n = as_labeled_dag(ref), len(ref.labels)
    for _ in range(2):
        subset = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
        g, plus = glue(d, subset)
        ref, ref_plus = reference_glue(ref, subset)
        n = len(ref.labels)
        assert (g.size, arrows_of(g), plus, labels_of(g)) == (n, list(ref.arrows), ref_plus, ref.labels)
        d = g


@given(small_dags(), st.randoms())
@settings(max_examples=60, deadline=None)
def test_dag_iso_under_relabeling(d, rng):
    n = len(d.labels)
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = ReferenceDag(tuple(f"w{i}" for i in range(n)),
                             tuple(sorted((perm[a], perm[b]) for a, b in d.arrows)))
    assert dag_iso(as_labeled_dag(d), as_labeled_dag(relabeled), perm) is None
    assert dag_iso_search(d, relabeled)


def test_dag_iso_rejects_a_vertex_map_that_is_not_a_bijection():
    chain = dag(("a", "b", "c"), ((0, 1), (1, 2)))
    assert dag_iso(chain, chain, [0, 1, 1]) == "b and c both map to b"
    assert dag_iso(chain, chain, [0, 1]) == "the vertex map sends 2 of 3 vertices onto 3"
    assert dag_iso(chain, chain, [0, 1, 3]) == "c maps to no vertex"


def test_dag_iso_names_the_arrow_that_maps_to_no_arrow():
    x = dag(("a", "b", "c"), ((0, 1), (1, 2)))
    y = dag(("p", "q", "r"), ((0, 1), (0, 2)))
    assert dag_iso(x, y, [0, 1, 2]) == "arrow b -> c maps to q -> r, which is not an arrow"
    assert dag_iso(x, dag(labels_of(y), ((0, 1),)), [0, 1, 2]) == (
        "2 arrows cannot map onto 1")


def test_dag_iso_refuses_a_repeated_arrow():
    """Equal counts, every arrow of x mapped onto an arrow of y, and still not
    onto: only a repeated code does that, and `hasse` and `glue` make none."""
    twice = LabeledDag(2, array("q", [1, 1]), "ab".__getitem__)
    both_ways = dag("ab", ((0, 1), (1, 0)))
    with pytest.raises(InvariantViolation, match="not strictly increasing"):
        dag_iso(twice, both_ways, [0, 1])


def test_dag_iso_accepts_a_relabelled_copy():
    x = dag(("a", "b", "c", "d"), ((0, 1), (0, 2), (1, 3), (2, 3)))
    # a -> 3, b -> 1, c -> 0, d -> 2
    y = dag(("w", "x", "y", "z"), ((0, 2), (1, 2), (3, 0), (3, 1)))
    assert dag_iso(x, y, [3, 1, 0, 2]) is None
    assert dag_iso(x, y, [3, 0, 1, 2]) is None
    assert dag_iso(x, y, [0, 1, 3, 2]) == "arrow a -> b maps to w -> x, which is not an arrow"
    assert dag_iso(dag((), ()), dag((), ()), []) is None


def test_dag_iso_search_trivial_cases():
    chain = ReferenceDag(("a", "b"), ((0, 1),))
    antichain = ReferenceDag(("a", "b"), ())
    assert dag_iso_search(chain, chain)
    assert not dag_iso_search(chain, antichain)
    assert dag_iso_search(ReferenceDag((), ()), ReferenceDag((), ()))


def test_dag_iso_search_same_degrees_different_shape():
    # two graphs with equal degree sequences but different reachability
    x = ReferenceDag(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 3)))
    y = ReferenceDag(("a", "b", "c", "d"), ((0, 1), (2, 1), (2, 3)))
    assert not dag_iso_search(x, y)


def test_dag_iso_search_deeper_than_the_recursion_limit():
    # more matched vertices than the interpreter allows nested calls
    n = sys.getrecursionlimit() + 500
    chain = ReferenceDag(tuple(f"c{i}" for i in range(n)), tuple((i, i + 1) for i in range(n - 1)))
    reversed_names = ReferenceDag(chain.labels,
                                  tuple(sorted((n - 1 - b, n - 1 - a) for a, b in chain.arrows)))
    assert dag_iso_search(chain, reversed_names)
    # n/2 disjoint arrows: two color classes of n/2 vertices each
    m = n // 2
    pairs = ReferenceDag(tuple(f"p{i}" for i in range(2 * m)), tuple((2 * i, 2 * i + 1) for i in range(m)))
    split = ReferenceDag(pairs.labels, tuple((i, 2 * m - 1 - i) for i in range(m)))
    assert dag_iso_search(pairs, split)


def test_to_dot_empty():
    assert list(to_dot(dag((), ()))) == ["digraph hasse {\n", "}\n"]


def test_to_dot_of_a2_quiver(cat_a2):
    h = hasse(enumerate_stau(cat_a2))
    lines = list(to_dot(hasse_to_dag(h)))
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
    assert len([l for l in lines if "label=" in l]) == 5
    assert len([l for l in lines if "->" in l]) == 5
    # the codes and the decoded arrows agree
    assert lines == list(to_dot(as_labeled_dag(reference_dag(h))))
    again = hasse(enumerate_stau(cat_a2))
    assert lines == list(to_dot(hasse_to_dag(again)))  # byte-identical across runs


def test_dot_escapes_quotes():
    d = dag(('say "hi"',), ())
    assert '\\"hi\\"' in "".join(to_dot(d))
