"""The bitmask clique search and Hasse bucketing against their reference forms.

`oracles.py` keeps the list-based DFS, the frozenset-token buckets and the
entry-by-entry torsion test; pairs and arrows must agree exactly.  The golden
hashes pin what the CLI prints for two families.  They were recorded from
the list-based implementation.
"""
import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest

from tautilt.algebra import Arrow, Quiver, build_algebra
from tautilt.catalog import build_catalog
from tautilt.counting import REPORTED_D
from tautilt.dags import hasse_to_dag, to_dot
from tautilt.errors import InvariantViolation
from tautilt.families import family, type_a_square
from tautilt.tilting import _assert_hasse_shape, enumerate_stau, hasse
from tautilt.verify import family_rows

from oracles import (Pair, arrow_codes, as_labeled_dag, assert_matches_oracle,
                     assert_orthant_counts_match, decode, decoded_arrows, hom_orthogonal_subsets,
                     orthant_count, pair_label, pairs_per_orthant, reference_arrows,
                     reference_dag)


def hereditary_d(n):
    """The fork n -> ... -> 3 -> {1, 2} without relations."""
    arrows = [Arrow("b1", "3", "1"), Arrow("b2", "3", "2")]
    arrows += [Arrow(f"a{k}", str(k + 1), str(k)) for k in range(3, n)]
    return build_algebra(Quiver([str(k) for k in range(1, n + 1)], arrows))


def named_catalog(request, name):
    """The catalog of "hereditary-D8", "hereditary-E8" (the session fixture) or a
    family member such as "A2-9"."""
    if name == "hereditary-E8":
        return request.getfixturevalue("cat_hereditary_e8")
    if name == "hereditary-D8":
        return build_catalog(hereditary_d(8))
    kind, n = name.split("-")
    return build_catalog(family(kind, int(n)))


@pytest.mark.parametrize("kind,n", [("A2", n) for n in range(1, 8)] +
                                   [("D2", n) for n in range(4, 8)])
def test_families_match_oracle(kind, n):
    assert_matches_oracle(build_catalog(family(kind, n)))


@pytest.mark.parametrize("kind,n", [("A2", n) for n in range(2, 11)] +
                                   [("D2", n) for n in range(4, 11)])
def test_pairs_per_orthant_count_the_tilting_modules_of_q_eps(kind, n):
    """A second count of the pair column, per sign vector of the g-vectors."""
    algebra = family(kind, n)
    assert_orthant_counts_match(algebra, enumerate_stau(build_catalog(algebra)))


def test_orthant_count_components():
    """On D2 n=5 (5 -> 4 -> 3 -> {1, 2}), eps = (-, -, +, -, +) keeps the fork
    1 <- 3 -> 2 (5 tilting modules) and the arrow 5 -> 4 (2), 10 in all, and
    -eps keeps only 4 -> 3; a g-vector with a zero coordinate is refused."""
    algebra = family("D2", 5)
    assert orthant_count(algebra, (-1, -1, 1, -1, 1)) == 10
    assert orthant_count(algebra, (1, 1, -1, 1, -1)) == 2
    with pytest.raises(InvariantViolation, match="with a zero"):
        pairs_per_orthant([Pair((0,), (), (1, 1, 1, 1, 1)),
                           Pair((1,), (), (1, 0, 1, 1, 1))])


@pytest.mark.parametrize("name, total", [("A2-3", 12), ("A2-6", 169), ("A2-10", 5741),
                                         ("D2-4", 32), ("D2-8", 1096), ("D2-10", 6388),
                                         ("hereditary-D8", 9438), ("hereditary-E8", 25080)])
def test_hom_orthogonal_subsets_count_the_pairs_by_out_and_in_degree(request, name, total):
    """A tau-free count of the pair column: the semibricks, by size, are as many
    as the pairs with that many arrows out, and as the pairs with that many in."""
    cat = named_catalog(request, name)
    by_size = Counter()
    for (size, _), count in hom_orthogonal_subsets(cat).items():
        by_size[size] += count
    pairs = enumerate_stau(cat)
    arrows = decoded_arrows(hasse(pairs))
    out_degree, in_degree = Counter(a for a, _ in arrows), Counter(b for _, b in arrows)
    assert sum(by_size.values()) == len(pairs) == total
    assert by_size == Counter(out_degree[k] for k in range(len(pairs)))
    assert by_size == Counter(in_degree[k] for k in range(len(pairs)))


@pytest.mark.parametrize("kind, first", [("A2", 1), ("D2", 4)])
def test_hom_orthogonal_subsets_read_every_table_row_off_one_search(kind, first):
    """Row n counts the semibricks of member 10 supported on the vertices 1 .. n,
    those of its quotient member n: the pair column of `family_rows`, with
    D2 n=8 at 1,096 where the paper prints 1,026."""
    found = hom_orthogonal_subsets(build_catalog(family(kind, 10)))
    rows = {n: sum(c for (_, support), c in found.items() if support < 1 << n)
            for n in range(first, 11)}
    assert rows == {row.n: row.stau for row in family_rows(kind, first, 10)}
    if kind == "D2":
        assert (rows[8], REPORTED_D[8][1]) == (1096, 1026)


def test_hereditary_d5_matches_oracle():
    pairs = assert_matches_oracle(build_catalog(hereditary_d(5)))
    assert len(pairs) == 182  # the clusters of type D5


@pytest.mark.parametrize("name", ["A2-9", "D2-8", "hereditary-D8", "hereditary-E8"])
def test_labels_read_off_the_keys_match_the_decoded_pairs(request, name):
    """Module bits fill two bytes on D2 n=8 (16 entries), three on A2 n=9 (17),
    seven on hereditary D8 (56) and fifteen on hereditary E8 (120)."""
    cat = named_catalog(request, name)
    pairs = enumerate_stau(cat)
    assert [pairs.label(k) for k in range(len(pairs))] == list(map(pair_label, decode(pairs)))


def test_hasse_agrees_with_the_reference_on_every_flipped_torsion_bit(monkeypatch):
    """Each single tors_mask bit flipped after enumeration, on A2 n=4 and 6 and
    D2 n=5 and 6 (7, 11, 10 and 12 entries: 414 mutants): `hasse` gives the
    reference's arrows or raises its message.  Every one of them raises, so a
    direction test that reads less than the whole torsion class shows here."""
    outcomes = []

    def outcome(build):
        try:
            return build()
        except InvariantViolation as exc:
            return str(exc)

    for kind, n in [("A2", 4), ("A2", 6), ("D2", 5), ("D2", 6)]:
        cat = build_catalog(family(kind, n))
        pairs = enumerate_stau(cat)
        reference = decode(pairs)
        tors = cat.tors_mask
        for i in range(cat.size):
            for j in range(cat.size):
                monkeypatch.setattr(cat, "tors_mask", tors[:i] + [tors[i] ^ 1 << j] + tors[i + 1:])
                got = outcome(lambda: decoded_arrows(hasse(pairs)))
                assert got == outcome(lambda: reference_arrows(cat, reference)), (kind, n, i, j)
                outcomes.append(got)
    assert outcomes == ["mutation direction is not uniquely determined"] * 414


GOLDEN = {
    ("A2", 8): (985, 3940,
                "879909b26871bd93ac33e1058f7398ac79b7011c2ee8575a17f9b5b538add6ac",
                "f602ea8e6a54ec0420543a16793063c903fff5ff0806b1889dafffb1faa0c824"),
    ("D2", 7): (454, 1589,
                "ae8e1eb8ae8a914384d2cf79fdda6bcbd6012bc5c60d4e37d8c2c1eb2e0adff0",
                "5bf40138422de8b9f4d1bde7419a41db3a9e298438bf0c80e33018674299e973"),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("kind,n", sorted(GOLDEN))
def test_golden_dot_and_pair_lines(kind, n):
    n_pairs, n_arrows, dot_hash, pairs_hash = GOLDEN[(kind, n)]
    cat = build_catalog(family(kind, n))
    pairs = enumerate_stau(cat)
    h = hasse(pairs)
    assert (len(pairs), len(h.arrows)) == (n_pairs, n_arrows)
    dot = "".join(to_dot(hasse_to_dag(h)))
    assert sha256(dot) == dot_hash
    assert "".join(to_dot(as_labeled_dag(reference_dag(h)))) == dot
    lines = "".join(json.dumps(pairs.as_dict(k), sort_keys=True) + "\n"
                    for k in range(len(pairs)))
    assert sha256(lines) == pairs_hash


@pytest.fixture(scope="module")
def a2_6():
    cat = build_catalog(type_a_square(6))
    return cat, enumerate_stau(cat)


def test_hasse_rejects_a_missing_pair(a2_6):
    cat, pairs = a2_6
    with pytest.raises(InvariantViolation, match="exchange graph is not n-regular"):
        hasse(replace(pairs, keys=pairs.keys[:-1]))


def test_hasse_rejects_a_cycle(a2_6):
    # `hasse` is the one place a mutation quiver is checked acyclic; the arrows
    # plus one of them reversed close a 2-cycle.
    cat, pairs = a2_6
    arrows = decoded_arrows(hasse(pairs))
    a, b = arrows[0]
    with pytest.raises(InvariantViolation, match="mutation quiver has a cycle"):
        _assert_hasse_shape(cat, pairs.keys, arrow_codes(len(pairs), arrows + [(b, a)]))


def test_hasse_rejects_a_third_completion(a2_6):
    cat, pairs = a2_6
    with pytest.raises(InvariantViolation,
                       match="more than two completions of an almost complete pair"):
        hasse(replace(pairs, keys=pairs.keys + pairs.keys[-1:]))
