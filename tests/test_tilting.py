from dataclasses import replace
from math import comb

import pytest

from tautilt.algebra import Arrow, Quiver, build_algebra
from tautilt.catalog import build_catalog
from tautilt.errors import InvariantViolation
from tautilt.families import type_a_square
from tautilt.tilting import (_assert_hasse_shape, enumerate_stau, hasse, is_tau_rigid,
                             is_tau_tilting, is_tilting, tilting_modules)

from oracles import Pair, arrow_codes, decode, decoded_arrows


def ref_of(cat, *dim_vectors):
    out = []
    for dv in dim_vectors:
        matches = [i for i, e in enumerate(cat.entries) if e.dims == dv]
        assert len(matches) == 1, f"ambiguous dim vector {dv}"
        out.append(matches[0])
    return tuple(sorted(out))


def test_regular_module_is_tau_rigid(cat_lambda3):
    ref = tuple(sorted(cat_lambda3.projective_index.values()))
    assert is_tau_rigid(cat_lambda3, ref)
    assert is_tau_tilting(cat_lambda3, ref)
    assert is_tilting(cat_lambda3, ref)


def test_incompatible_simples(cat_a2):
    ref = ref_of(cat_a2, (1, 0), (0, 1))
    assert not is_tau_rigid(cat_a2, ref)


def test_every_entry_of_linear_family_is_rigid():
    for n in (2, 3, 4, 5):
        cat = build_catalog(type_a_square(n))
        assert all(m >> i & 1 for i, m in enumerate(cat.tors_mask))


def test_zero_module_pair(cat_lambda3):
    zero = [p for p in decode(enumerate_stau(cat_lambda3)) if not p.modules]
    assert zero == [Pair((), ("1", "2", "3"), (-1, -1, -1))]


def test_example_tau_tilting_membership(cat_example_b):
    cat = cat_example_b
    # P1 + new simple + the two fork simples
    ref = ref_of(cat, (1, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert is_tau_tilting(cat, ref)
    assert not is_tilting(cat, ref)


def test_example_base_tau_tilt_set(example_base):
    # The five full-support modules over the hereditary fork, frozen by
    # dimension-vector multisets (vertex order 2, 3, 4).  Oracle: the AR
    # meshes give tau([2/3]) = S4, tau([2/4]) = S3 and tau(S2) = P2, so the
    # compatibility graph forbids exactly {S2, P2}, {S3, [2/4]}, {S4, [2/3]}
    # and the simple pairs {S_i, S2}; its size-3 cliques are the set below.
    cat = build_catalog(example_base)
    pairs = enumerate_stau(cat)
    tau_tilt = pairs.tau_tilt
    got = {tuple(sorted(cat.entries[i].dims for i in m)) for m in tau_tilt}
    expected = {
        tuple(sorted([(0, 1, 0), (0, 0, 1), (1, 1, 1)])),  # S3 + S4 + P2
        tuple(sorted([(0, 0, 1), (1, 0, 1), (1, 1, 1)])),  # S4 + [2/4] + P2
        tuple(sorted([(0, 1, 0), (1, 1, 0), (1, 1, 1)])),  # S3 + [2/3] + P2
        tuple(sorted([(1, 1, 0), (1, 0, 1), (1, 1, 1)])),  # [2/3] + [2/4] + P2
        tuple(sorted([(1, 0, 0), (1, 1, 0), (1, 0, 1)])),  # S2 + [2/3] + [2/4]
    }
    assert got == expected
    # hereditary: the same five modules are the tilting modules
    tilt = tilting_modules(pairs)
    assert len(tilt) == 5
    got_tilt = {tuple(sorted(cat.entries[i].dims for i in m)) for m in tilt}
    assert got_tilt == expected


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 5), (3, 12), (4, 29),
                                        (5, 70), (6, 169), (7, 408), (8, 985)])
def test_linear_family_pair_counts(n, expected):
    cat = build_catalog(type_a_square(n))
    assert len(enumerate_stau(cat)) == expected


def test_single_vertex_enumeration(single_vertex):
    cat = build_catalog(single_vertex)
    pairs = enumerate_stau(cat)
    assert len(pairs) == 2


def test_tilting_counts_linear_family():
    for n in (2, 3, 4, 5):
        cat = build_catalog(type_a_square(n))
        pairs = enumerate_stau(cat)
        assert len(tilting_modules(pairs)) == 2


def test_g_vector_examples(cat_a2, a2):
    s2 = cat_a2.simple_index["2"]
    by_g = {p.g: p for p in decode(enumerate_stau(cat_a2))}
    assert by_g[(-2, 1)] == Pair((s2,), ("1",), (-2, 1))
    regular = tuple(sorted(cat_a2.projective_index.values()))
    assert by_g[(1, 1)] == Pair(regular, (), (1, 1))


def test_g_vectors_injective_and_pairs_sorted(cat_example_b):
    pairs = decode(enumerate_stau(cat_example_b))
    gs = [p.g for p in pairs]
    assert len(set(gs)) == len(gs)
    assert gs == sorted(gs)


def test_tau_tilting_subset_matches_predicate(cat_d4):
    pairs = enumerate_stau(cat_d4)
    via_pairs = set(pairs.tau_tilt)
    via_predicate = {p.modules for p in decode(pairs) if is_tau_tilting(cat_d4, p.modules)
                     and not p.proj_part}
    assert via_pairs == via_predicate
    for p in decode(pairs):
        assert (not p.proj_part) == is_tau_tilting(cat_d4, p.modules)


def test_maximality_of_tau_tilting_modules(cat_example_b):
    pairs = enumerate_stau(cat_example_b)
    for m in pairs.tau_tilt:
        others = set(range(cat_example_b.size)) - set(m)
        for extra in others:
            assert not is_tau_rigid(cat_example_b, tuple(sorted(m + (extra,))))


def freeze_pair(cat, pair):
    mods = tuple(sorted(cat.entries[i].dims for i in pair.modules))
    return (mods, tuple(sorted(pair.proj_part)))


def test_hasse_of_a2_matches_figure(cat_a2):
    h = hasse(enumerate_stau(cat_a2))
    assert len(h.pairs) == 5 and len(h.arrows) == 5
    key = {freeze_pair(cat_a2, p): i for i, p in enumerate(decode(h.pairs))}
    P1, P2, S1, S2 = (1, 0), (1, 1), (1, 0), (0, 1)
    regular = key[((P1, P2) if (P1, P2) == tuple(sorted([P1, P2])) else (P2, P1), ())]
    p2s2 = key[(tuple(sorted([P2, S2])), ())]
    s1 = key[(((1, 0),), ("2",))]
    s2 = key[(((0, 1),), ("1",))]
    zero = key[((), ("1", "2"))]
    expected = {(regular, s1), (regular, p2s2), (p2s2, s2), (s1, zero), (s2, zero)}
    assert set(decoded_arrows(h)) == expected


def test_hasse_of_lambda3(cat_lambda3):
    h = hasse(enumerate_stau(cat_lambda3))
    assert len(h.pairs) == 12


def test_hasse_single_vertex(single_vertex):
    cat = build_catalog(single_vertex)
    h = hasse(enumerate_stau(cat))
    assert len(h.pairs) == 2 and len(h.arrows) == 1


def test_hasse_regularity_and_boundary(cat_example_b, example_b):
    h = hasse(enumerate_stau(cat_example_b))
    n = example_b.n_vertices
    degree = {i: 0 for i in range(len(h.pairs))}
    indeg = {i: 0 for i in range(len(h.pairs))}
    outdeg = {i: 0 for i in range(len(h.pairs))}
    for a, b in decoded_arrows(h):
        degree[a] += 1
        degree[b] += 1
        outdeg[a] += 1
        indeg[b] += 1
    assert all(d == n for d in degree.values())
    sources = [i for i in range(len(h.pairs)) if indeg[i] == 0]
    sinks = [i for i in range(len(h.pairs)) if outdeg[i] == 0]
    assert len(sources) == 1 and len(sinks) == 1
    pairs = decode(h.pairs)
    assert pairs[sources[0]].proj_part == ()
    assert pairs[sinks[0]].modules == ()


def assert_catalan_counts(n):
    """Hereditary linear A_n (n -> n-1 -> ... -> 1) has C(n+1) support tau-tilting
    pairs and C(n) tau-tilting modules, all of them tilting (Ingalls-Thomas,
    Compositio 2009); the counts do not depend on the orientation."""
    alg = build_algebra(Quiver([str(i) for i in range(1, n + 1)],
                               [Arrow(f"a{k}", str(k + 1), str(k)) for k in range(1, n)]))
    cat = build_catalog(alg)
    assert cat.size == n * (n + 1) // 2
    pairs = enumerate_stau(cat)
    assert len(pairs) == comb(2 * n + 2, n + 1) // (n + 2)
    tau_tilt = pairs.tau_tilt
    assert len(tau_tilt) == comb(2 * n, n) // (n + 1)
    assert tilting_modules(pairs) == tau_tilt


def test_hereditary_linear_counts_are_catalan():
    for n in range(1, 9):
        assert_catalan_counts(n)


@pytest.mark.slow
def test_hereditary_linear_a10_counts_are_catalan():
    assert_catalan_counts(10)  # 58,786 pairs


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_hereditary_d_counts_are_cluster_counts(hereditary_d, n):
    """Fomin-Zelevinsky: type D_n has (3n-2)/n C(2n-2, n-1) clusters, the support
    tau-tilting pairs, and (3n-4)/n C(2n-3, n-1) positive clusters, the tilting
    modules; both are orientation-independent."""
    pairs_num = (3 * n - 2) * comb(2 * n - 2, n - 1)
    tilt_num = (3 * n - 4) * comb(2 * n - 3, n - 1)
    assert pairs_num % n == 0 and tilt_num % n == 0
    cat = build_catalog(hereditary_d(n))
    assert cat.size == n * (n - 1)
    pairs = enumerate_stau(cat)
    assert len(pairs) == pairs_num // n
    assert len(pairs.tau_tilt) == tilt_num // n
    assert len(tilting_modules(pairs)) == tilt_num // n


def test_hereditary_e8_counts_are_cluster_counts(cat_hereditary_e8):
    """Fomin-Zelevinsky: with exponents e_1..e_8 = 1, 7, 11, 13, 17, 19, 23, 29 and
    Coxeter number h = 30, type E8 has prod (h + e_i + 1)/(e_i + 1) = 25,080
    clusters, the support tau-tilting pairs, and prod (h + e_i - 1)/(e_i + 1)
    = 17,342 positive clusters, the tilting modules."""
    pairs = enumerate_stau(cat_hereditary_e8)
    assert len(pairs) == 25_080
    assert len(pairs.tau_tilt) == 17_342


def test_empty_algebra_enumeration():
    empty = build_algebra(Quiver([], []))
    cat = build_catalog(empty)
    pairs = enumerate_stau(cat)
    assert len(pairs) == 1
    (only,) = decode(pairs)
    assert only.modules == () and only.proj_part == ()
    h = hasse(pairs)
    assert len(h.arrows) == 0


# At scale 40 the lane bound is 165: past a signed byte, within an unsigned one.
@pytest.mark.parametrize("scale,width", [(1, 1), (40, 2), (100, 2), (10 ** 6, 4), (10 ** 12, 8)])
def test_packed_g_vectors_are_exact_at_every_lane_width(monkeypatch, scale, width):
    """Scaled g-vector rows widen the lanes to `width` bytes; every pair's
    g-vector is still the sum of its rows minus its unsupported vertices, and
    `hasse` and `PairTable.label`, which read the code bits below the lanes,
    give the arrows and labels of the 1-byte table, pair by pair."""
    cat = build_catalog(type_a_square(4))
    narrow = enumerate_stau(cat)
    assert narrow.width == 1
    # Decoded before the rows are scaled: `decode` checks each g-vector against them.
    narrow_ids = [(p.modules, p.proj_part) for p in decode(narrow)]
    rows = [tuple(scale * c for c in g) for g in cat.g_vectors]
    bound = 4 * (max(abs(c) for g in rows for c in g) + 1) + 1
    # `width` bytes hold the lane bound, and half as many (4 * width bits) do not.
    assert bound < 1 << 8 * width - 1 and (width == 1 or bound >= 1 << 4 * width - 1)
    monkeypatch.setattr(cat, "g_vectors", rows)
    pairs = enumerate_stau(cat)
    assert pairs.width == width
    decoded = decode(pairs)
    ids = [(p.modules, p.proj_part) for p in decoded]
    assert set(ids) == set(narrow_ids)
    vertices = cat.algebra.quiver.vertices
    for p in decoded:
        assert p.g == tuple(sum(rows[i][k] for i in p.modules) - (v in p.proj_part)
                            for k, v in enumerate(vertices))
    assert [p.g for p in decoded] == sorted(p.g for p in decoded)

    def arrows_and_labels(table, ids):
        return ({(ids[a], ids[b]) for a, b in decoded_arrows(hasse(table))},
                {ids[k]: table.label(k) for k in range(len(table))})

    assert arrows_and_labels(pairs, ids) == arrows_and_labels(narrow, narrow_ids)


def test_shared_g_vector_is_rejected(monkeypatch, cat_a2):
    """With every g-vector row zero, the two pairs of full support share g = 0."""
    monkeypatch.setattr(cat_a2, "g_vectors", [(0, 0)] * cat_a2.size)
    with pytest.raises(InvariantViolation,
                       match=r"^distinct pairs share the g-vector \(0, 0\)$"):
        enumerate_stau(cat_a2)


def test_third_completion_is_rejected(cat_lambda3):
    """The last pair's int repeated: the repeat is a third completion of each of
    its almost complete pairs."""
    pairs = enumerate_stau(cat_lambda3)
    with pytest.raises(InvariantViolation,
                       match="^more than two completions of an almost complete pair$"):
        hasse(replace(pairs, keys=pairs.keys + pairs.keys[-1:]))


def test_undecided_mutation_direction_is_rejected(monkeypatch, cat_lambda3):
    """With no tau-Hom vanishing, no torsion class holds another pair's modules."""
    pairs = enumerate_stau(cat_lambda3)
    monkeypatch.setattr(cat_lambda3, "tors_mask", [0] * cat_lambda3.size)
    with pytest.raises(InvariantViolation,
                       match="^mutation direction is not uniquely determined$"):
        hasse(pairs)


def test_a_third_completion_is_reported_before_an_undecided_direction(monkeypatch, cat_lambda3):
    """Both faults at once: the direction of each arrow is judged only after
    every pass, so the repeated pair's third completion is what is reported."""
    pairs = enumerate_stau(cat_lambda3)
    monkeypatch.setattr(cat_lambda3, "tors_mask", [0] * cat_lambda3.size)
    with pytest.raises(InvariantViolation,
                       match="^more than two completions of an almost complete pair$"):
        hasse(replace(pairs, keys=pairs.keys + pairs.keys[-1:]))


def test_missing_pair_breaks_regularity(cat_lambda3):
    """Without the zero pair's int, each of its n neighbours has n - 1 neighbours."""
    pairs = enumerate_stau(cat_lambda3)
    kept = tuple(key for key, p in zip(pairs.keys, decode(pairs)) if p.modules)
    assert len(kept) == len(pairs) - 1
    with pytest.raises(InvariantViolation, match="^exchange graph is not n-regular$"):
        hasse(replace(pairs, keys=kept))


def test_second_source_is_rejected(cat_lambda3):
    """Without the arrows into one vertex, that vertex is a second source."""
    h = hasse(enumerate_stau(cat_lambda3))
    n = len(h.pairs)
    head = h.arrows[0] % n
    with pytest.raises(InvariantViolation,
                       match="^mutation quiver does not have unique source and sink$"):
        _assert_hasse_shape(cat_lambda3, h.pairs.keys, [c for c in h.arrows if c % n != head])


def test_reversed_quiver_is_rejected_at_its_source(cat_lambda3):
    """Every arrow reversed: the source is the zero pair."""
    h = hasse(enumerate_stau(cat_lambda3))
    with pytest.raises(InvariantViolation,
                       match="^source of the mutation quiver is not the regular pair$"):
        _assert_hasse_shape(cat_lambda3, h.pairs.keys,
                            arrow_codes(len(h.pairs), ((b, a) for a, b in decoded_arrows(h))))


def test_sink_must_be_the_zero_pair(cat_lambda3):
    """The sink's code replaced by one with no summands and no projective part."""
    h = hasse(enumerate_stau(cat_lambda3))
    codes = list(h.pairs.keys)
    (sink,) = set(range(len(codes))) - {a for a, _ in decoded_arrows(h)}
    assert decode(h.pairs)[sink] == Pair((), ("1", "2", "3"), (-1, -1, -1))
    codes[sink] = 0
    with pytest.raises(InvariantViolation,
                       match="^sink of the mutation quiver is not the zero pair$"):
        _assert_hasse_shape(cat_lambda3, codes, h.arrows)


@pytest.mark.slow
def test_hasse_of_linear_family_a14_finishes_in_process():
    """The counts come from s(n) = 2 s(n-1) + s(n-2), s(1) = 2, s(2) = 5, and
    from n-regularity: n * s(n) / 2 arrows."""
    s = [2, 5]
    while len(s) < 14:
        s.append(2 * s[-1] + s[-2])
    assert s[-1] == 195_025
    cat = build_catalog(type_a_square(14))
    h = hasse(enumerate_stau(cat))
    assert len(h.pairs) == s[-1]
    assert len(h.arrows) == 14 * s[-1] // 2 == 1_365_175
