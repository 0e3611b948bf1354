import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautilt.dags import LabeledDag, dag_iso, glue, hasse_to_dag, to_dot
from tautilt.errors import PreconditionError
from tautilt.tilting import enumerate_stau, hasse
from tautilt.util import topological_order

from oracles import dag_iso_search


def test_glue_schematic():
    # four vertices a1 -> {a2, n1}, n1 -> n2 -> a2 glued along {n1, n2}
    d = LabeledDag(("a1", "n1", "n2", "a2"),
                   ((0, 3), (0, 1), (1, 2), (2, 3)))
    g, plus = glue(d, {1, 2})
    assert g.labels == ("a1", "n1", "n2", "a2", "n1+", "n2+")
    assert plus == {1: 4, 2: 5}
    expected = {
        (0, 3),          # a1 -> a2 inside the complement
        (0, 4),          # a1 -> n1 redirected to the copy
        (4, 1), (5, 2),  # copies point at their originals
        (4, 5),          # copied internal arrow
        (1, 2),          # original internal arrow survives
        (2, 3),          # arrow out of the subset survives
    }
    assert set(g.arrows) == expected


def test_glue_empty_subset_is_identity():
    d = LabeledDag(("x", "y"), ((0, 1),))
    g, plus = glue(d, ())
    assert g.labels == d.labels and set(g.arrows) == set(d.arrows) and plus == {}


def test_glue_rejects_bad_subset():
    with pytest.raises(PreconditionError):
        glue(LabeledDag(("x",), ()), {4})


@st.composite
def small_dags(draw):
    n = draw(st.integers(0, 7))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    return LabeledDag(tuple(f"v{i}" for i in range(n)), tuple(edges))


@given(small_dags(), st.data())
@settings(max_examples=60, deadline=None)
def test_glue_counts_and_acyclicity(d, data):
    n = len(d.labels)
    subset = frozenset(data.draw(st.sets(st.integers(0, n - 1)))) if n else frozenset()
    g, plus = glue(d, subset)
    assert len(g.labels) == n + len(subset)
    assert sorted(plus) == sorted(subset) and sorted(plus.values()) == list(range(n, len(g.labels)))
    assert all(g.labels[plus[v]] == d.labels[v] + "+" for v in subset)
    inside = sum(1 for a, b in d.arrows if a in subset and b in subset)
    into = sum(1 for a, b in d.arrows if a not in subset and b in subset)
    assert len(g.arrows) == len(d.arrows) + inside + len(subset)
    # family bookkeeping: arrows into the subset were redirected, not dropped
    assert sum(1 for a, b in g.arrows if b >= n) == into + inside
    assert len(set(g.arrows)) == len(g.arrows)
    assert topological_order(len(g.labels), g.arrows) is not None


@given(small_dags(), st.randoms())
@settings(max_examples=60, deadline=None)
def test_dag_iso_under_relabeling(d, rng):
    n = len(d.labels)
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = LabeledDag(tuple(f"w{i}" for i in range(n)),
                           tuple(sorted((perm[a], perm[b]) for a, b in d.arrows)))
    assert dag_iso(d, relabeled, perm) is None
    assert dag_iso_search(d, relabeled)


def test_dag_iso_rejects_a_vertex_map_that_is_not_a_bijection():
    chain = LabeledDag(("a", "b", "c"), ((0, 1), (1, 2)))
    assert dag_iso(chain, chain, [0, 1, 1]) == "b and c both map to b"
    assert dag_iso(chain, chain, [0, 1]) == "the vertex map sends 2 of 3 vertices onto 3"
    assert dag_iso(chain, chain, [0, 1, 3]) == "c maps to no vertex"


def test_dag_iso_names_the_arrow_that_maps_to_no_arrow():
    x = LabeledDag(("a", "b", "c"), ((0, 1), (1, 2)))
    y = LabeledDag(("p", "q", "r"), ((0, 1), (0, 2)))
    assert dag_iso(x, y, [0, 1, 2]) == "arrow b -> c maps to q -> r, which is not an arrow"
    assert dag_iso(x, LabeledDag(y.labels, ((0, 1),)), [0, 1, 2]) == (
        "2 arrows cannot map onto 1")


def test_dag_iso_accepts_a_relabelled_copy():
    x = LabeledDag(("a", "b", "c", "d"), ((0, 1), (0, 2), (1, 3), (2, 3)))
    # a -> 3, b -> 1, c -> 0, d -> 2
    y = LabeledDag(("w", "x", "y", "z"), ((0, 2), (1, 2), (3, 0), (3, 1)))
    assert dag_iso(x, y, [3, 1, 0, 2]) is None
    assert dag_iso(x, y, [3, 0, 1, 2]) is None
    assert dag_iso(x, y, [0, 1, 3, 2]) == "arrow a -> b maps to w -> x, which is not an arrow"
    assert dag_iso(LabeledDag((), ()), LabeledDag((), ()), []) is None


def test_dag_iso_search_trivial_cases():
    chain = LabeledDag(("a", "b"), ((0, 1),))
    antichain = LabeledDag(("a", "b"), ())
    assert dag_iso_search(chain, chain)
    assert not dag_iso_search(chain, antichain)
    assert dag_iso_search(LabeledDag((), ()), LabeledDag((), ()))


def test_dag_iso_search_same_degrees_different_shape():
    # two graphs with equal degree sequences but different reachability
    x = LabeledDag(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 3)))
    y = LabeledDag(("a", "b", "c", "d"), ((0, 1), (2, 1), (2, 3)))
    assert not dag_iso_search(x, y)


def test_dag_iso_search_deeper_than_the_recursion_limit():
    # more matched vertices than the interpreter allows nested calls
    n = sys.getrecursionlimit() + 500
    chain = LabeledDag(tuple(f"c{i}" for i in range(n)), tuple((i, i + 1) for i in range(n - 1)))
    reversed_names = LabeledDag(chain.labels,
                                tuple(sorted((n - 1 - b, n - 1 - a) for a, b in chain.arrows)))
    assert dag_iso_search(chain, reversed_names)
    # n/2 disjoint arrows: two color classes of n/2 vertices each
    m = n // 2
    pairs = LabeledDag(tuple(f"p{i}" for i in range(2 * m)), tuple((2 * i, 2 * i + 1) for i in range(m)))
    split = LabeledDag(pairs.labels, tuple((i, 2 * m - 1 - i) for i in range(m)))
    assert dag_iso_search(pairs, split)


def test_to_dot_empty():
    text = to_dot(LabeledDag((), ()))
    assert text == "digraph hasse {\n}\n"


def test_to_dot_of_a2_quiver(cat_a2):
    h = hasse(cat_a2, enumerate_stau(cat_a2))
    text = to_dot(hasse_to_dag(h))
    lines = text.strip().splitlines()
    assert len([l for l in lines if "label=" in l]) == 5
    assert len([l for l in lines if "->" in l]) == 5
    again = hasse(cat_a2, enumerate_stau(cat_a2))
    assert text == to_dot(hasse_to_dag(again))  # byte-identical across runs


def test_dot_escapes_quotes():
    d = LabeledDag(('say "hi"',), ())
    assert '\\"hi\\"' in to_dot(d)
