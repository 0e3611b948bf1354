"""The bitmask clique search and Hasse bucketing against their reference forms.

`oracles.py` keeps the list-based DFS, the frozenset-token buckets and the
entry-by-entry torsion test; pairs and arrows must agree exactly.  The golden
hashes pin what the CLI prints for two families.  They were recorded from
the list-based implementation.
"""
import hashlib
import json

import pytest

from tautilt.algebra import Arrow, Quiver, build_algebra
from tautilt.catalog import build_catalog
from tautilt.dags import hasse_to_dag, to_dot
from tautilt.errors import InvariantViolation
from tautilt.families import family, type_a_square
from tautilt.tilting import _assert_hasse_shape, enumerate_stau, hasse, pair_to_dict

from oracles import assert_matches_oracle


def hereditary_d(n):
    """The fork n -> ... -> 3 -> {1, 2} without relations."""
    arrows = [Arrow("b1", "3", "1"), Arrow("b2", "3", "2")]
    arrows += [Arrow(f"a{k}", str(k + 1), str(k)) for k in range(3, n)]
    return build_algebra(Quiver([str(k) for k in range(1, n + 1)], arrows))


@pytest.mark.parametrize("kind,n", [("A2", n) for n in range(1, 8)] +
                                   [("D2", n) for n in range(4, 8)])
def test_families_match_oracle(kind, n):
    assert_matches_oracle(build_catalog(family(kind, n)))


def test_hereditary_d5_matches_oracle():
    pairs = assert_matches_oracle(build_catalog(hereditary_d(5)))
    assert len(pairs) == 182  # the clusters of type D5


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
    h = hasse(cat, pairs)
    assert (len(pairs), len(h.arrows)) == (n_pairs, n_arrows)
    assert sha256(to_dot(hasse_to_dag(h))) == dot_hash
    lines = "".join(json.dumps(pair_to_dict(p), sort_keys=True) + "\n" for p in pairs)
    assert sha256(lines) == pairs_hash


@pytest.fixture(scope="module")
def a2_6():
    cat = build_catalog(type_a_square(6))
    return cat, enumerate_stau(cat)


def test_hasse_rejects_a_missing_pair(a2_6):
    cat, pairs = a2_6
    with pytest.raises(InvariantViolation, match="exchange graph is not n-regular"):
        hasse(cat, pairs[:-1])


def test_hasse_rejects_a_cycle(a2_6):
    # `hasse` is the one place a mutation quiver is checked acyclic; the arrows
    # plus one of them reversed close a 2-cycle.
    cat, pairs = a2_6
    arrows = list(hasse(cat, pairs).arrows)
    a, b = arrows[0]
    with pytest.raises(InvariantViolation, match="mutation quiver has a cycle"):
        _assert_hasse_shape(cat, pairs, arrows + [(b, a)])


def test_hasse_rejects_a_third_completion(a2_6):
    cat, pairs = a2_6
    with pytest.raises(InvariantViolation,
                       match="more than two completions of an almost complete pair"):
        hasse(cat, pairs + [pairs[0]])
