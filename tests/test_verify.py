import json
from dataclasses import replace
from functools import cached_property

import pytest

from tautilt import verify
from tautilt.algebra import Arrow, Quiver, build_algebra, one_point_extension
from tautilt.catalog import Catalog, build_catalog
from tautilt.counting import REPORTED_D
from tautilt.dags import to_dot
from tautilt.errors import InvariantViolation, PreconditionError
from tautilt.families import type_a_square, type_d_square
from tautilt.tilting import HasseQuiver, PairTable, enumerate_stau
from tautilt.verify import (ExtensionContext, TableRow, family_rows,
                            reports_to_json, reproduce_tables, run_claims, select_claims,
                            select_doubled_subset,
                            verify_classification, verify_count_equations,
                            verify_hasse_gluing, verify_tilting_transfer)

from oracles import (arrow_codes, as_labeled_dag, assert_doubled_quiver_matches_search,
                     decode, decoded_arrows, family_counts, gluing_search_agrees, pair_key,
                     pair_label, reference_dag, reference_glue)


@pytest.fixture(scope="module")
def fork_ctx(example_base):
    return ExtensionContext(example_base, "2")


@pytest.fixture(scope="module")
def single_ctx(single_vertex):
    return ExtensionContext(single_vertex, "1")


@pytest.fixture(scope="module")
def a2_ctx(a2):
    return ExtensionContext(a2, "2")


def test_context_construction(fork_ctx):
    assert fork_ctx.extended.n_vertices == 4
    assert fork_ctx.quotient.n_vertices == 2
    assert fork_ctx.extended.quiver.is_source(fork_ctx.new_vertex)


def test_context_requires_source(lambda3):
    with pytest.raises(PreconditionError):
        ExtensionContext(lambda3, "2")


def test_classification_on_fork(fork_ctx):
    rep = verify_classification(fork_ctx)
    assert rep.status == "pass"
    assert rep.counts == {"tau_tilt_base": 5, "tau_tilt_quotient": 1,
                          "tau_tilt_extended": 6}


def test_classification_on_single_vertex(single_ctx):
    rep = verify_classification(single_ctx)
    assert rep.status == "pass"
    # the zero-vertex quotient contributes exactly the empty module
    assert rep.counts == {"tau_tilt_base": 1, "tau_tilt_quotient": 1,
                          "tau_tilt_extended": 2}


def test_classification_on_a2(a2_ctx):
    rep = verify_classification(a2_ctx)
    assert rep.status == "pass"
    assert rep.counts["tau_tilt_extended"] == 3


def test_count_equations_examples(fork_ctx, a2_ctx):
    rep = verify_count_equations(a2_ctx)
    assert rep.status == "pass"
    assert rep.counts["stau_extended"] == 12
    assert rep.counts["stau_base"] == 5
    assert rep.counts["stau_quotient"] == 2
    rep2 = verify_count_equations(fork_ctx)
    assert rep2.status == "pass"
    assert rep2.counts["stau_extended"] == 32 == 2 * 14 + 4


def family_algebra(kind, n):
    return type_a_square(n) if kind == "A2" else type_d_square(n)


def test_count_equations_on_families():
    for kind, ns in (("A2", (2, 3, 4)), ("D2", (5, 6))):
        for n in ns:
            ctx = ExtensionContext(family_algebra(kind, n), str(n))
            assert verify_count_equations(ctx).status == "pass"


def test_tilting_transfer(fork_ctx, a2_ctx):
    assert verify_tilting_transfer(fork_ctx).status == "pass"
    assert verify_tilting_transfer(a2_ctx).status == "pass"


def test_tilting_transfer_requires_non_sink(single_ctx):
    with pytest.raises(PreconditionError):
        verify_tilting_transfer(single_ctx)


def test_tilting_counts_along_families():
    # the linear family keeps two tilting modules, the fork family five
    for n in (3, 4, 5):
        ctx = ExtensionContext(type_a_square(n), str(n))
        rep = verify_tilting_transfer(ctx)
        assert rep.status == "pass" and rep.counts["tilt_extended"] == 2
    for n in (5, 6):
        ctx = ExtensionContext(type_d_square(n), str(n))
        rep = verify_tilting_transfer(ctx)
        assert rep.status == "pass" and rep.counts["tilt_extended"] == 5


def radical_square_zero_e(n):
    """E_n with arrows k -> k+1 along the chain 1 ... n-1 and 3 -> n, every
    length-2 path zero."""
    arrows = [Arrow(f"a{k}", str(k), str(k + 1)) for k in range(1, n - 1)]
    arrows.append(Arrow("b", "3", str(n)))
    composable = [(x.name, y.name) for x in arrows for y in arrows if x.target == y.source]
    return build_algebra(Quiver([str(k) for k in range(1, n + 1)], arrows), composable)


@pytest.mark.parametrize("n,base,extended", [(6, (16, 185), (25, 446)),
                                             (7, (27, 448), (42, 1080)),
                                             (8, (43, 1081), (67, 2606))])
def test_radical_square_zero_e_claims_at_every_source(n, base, extended):
    """(tau-tilt, s-tau-tilt) counts of E6, E7 and E8 and of their extension at
    vertex 1, the only source, where every claim holds."""
    algebra = radical_square_zero_e(n)
    q = algebra.quiver
    assert [v for v in q.vertices if q.is_source(v)] == ["1"]
    reports = list(run_claims(ExtensionContext(algebra, "1")))
    assert [r.status for r in reports] == ["pass"] * 4
    counts = reports[1].counts
    assert (counts["tau_tilt_base"], counts["stau_base"]) == base
    assert (counts["tau_tilt_extended"], counts["stau_extended"]) == extended


def test_selected_subset_on_a2(a2_ctx):
    subset = select_doubled_subset(a2_ctx)
    base = a2_ctx.enum("base")
    n = len(base)
    assert len(subset) == 2 and all(n <= k < 2 * n for k in subset)
    pairs = decode(base)
    picked = {pairs[k - n].modules for k in subset}
    # the plus-copies (with the isolated simple) of 0 and of the old sink simple
    assert picked == {(), (base.catalog.simple_index["1"],)}


def test_hasse_gluing_small(fork_ctx, single_ctx, a2_ctx):
    for ctx in (single_ctx, a2_ctx, fork_ctx):
        rep = verify_hasse_gluing(ctx)
        assert rep.status == "pass"
        assert rep.counts["glued"] == rep.counts["hasse_extended"]
        assert_doubled_quiver_matches_search(ctx)
        assert gluing_search_agrees(ctx)


def mutate_extension_arrows(monkeypatch, extended, mutate):
    """Make `verify.hasse` replace the (a, b) arrows of the Hasse quiver of
    `extended`, in code order, by `mutate(arrows)`, and leave every other
    algebra's quiver as it is.  Returns the true `verify.hasse`."""
    true_hasse = verify.hasse

    def mutated_hasse(pairs):
        h = true_hasse(pairs)
        if pairs.catalog.algebra != extended:
            return h
        return HasseQuiver(h.pairs, arrow_codes(len(h.pairs), mutate(decoded_arrows(h))))

    monkeypatch.setattr(verify, "hasse", mutated_hasse)
    return true_hasse


def reverse_one_extension_arrow(monkeypatch, extended):
    """Turn round the first arrow of the Hasse quiver of `extended`."""
    return mutate_extension_arrows(monkeypatch, extended,
                                   lambda arrows: reverse_the_first_arrow(arrows)[0])


def reference_glued(ctx):
    """The doubled quiver glued along the selected subset, by `reference_glue`."""
    h_base = verify.hasse(ctx.enum("base"))
    doubled, _ = reference_glue(reference_dag(h_base), range(len(h_base.pairs)))
    return reference_glue(doubled, select_doubled_subset(ctx))


def gluing_dot_texts(ctx):
    """The DOT texts of the extension's quiver and of the glued doubled quiver,
    both built by the reference from the decoded arrows and every label."""
    extended = reference_dag(verify.hasse(ctx.enum("extended")))
    glued, _ = reference_glued(ctx)
    return {"hasse_extended.dot": "".join(to_dot(as_labeled_dag(extended))),
            "hasse_glued.dot": "".join(to_dot(as_labeled_dag(glued)))}


def test_hasse_gluing_names_a_reversed_arrow(monkeypatch, a2):
    """One arrow of the extension's Hasse quiver turned round: the map check
    names it by both labels and carries both quivers as DOT text, and the
    search finds no isomorphism either."""
    ctx = ExtensionContext(a2, "2")
    true_hasse = reverse_one_extension_arrow(monkeypatch, ctx.extended)
    a, b = decoded_arrows(true_hasse(ctx.enum("extended")))[0]
    pairs = decode(ctx.enum("extended"))
    rep = verify_hasse_gluing(ctx)
    assert rep.status == "fail"
    assert rep.detail.startswith(f"arrow {pair_label(pairs[b])} -> {pair_label(pairs[a])} maps to ")
    assert rep.detail.endswith(", which is not an arrow")
    assert rep.artifacts == gluing_dot_texts(ctx)
    assert not gluing_search_agrees(ctx)


def test_run_claims_hands_back_the_gluing_quivers_and_writes_no_file(monkeypatch, tmp_path, a2):
    """A failed gluing returns both DOT texts in its report, leaves them out of
    the report's JSON, and writes nothing; the passing claims carry none."""
    monkeypatch.chdir(tmp_path)
    ctx = ExtensionContext(a2, "2")
    reverse_one_extension_arrow(monkeypatch, ctx.extended)
    *passed, gluing = run_claims(ctx)
    assert [r.status for r in passed] == ["pass"] * 3
    assert all(r.artifacts == {} for r in passed)
    assert (gluing.claim, gluing.status) == ("hasse-gluing", "fail")
    assert gluing.artifacts == gluing_dot_texts(ctx)
    assert all(text.startswith("digraph hasse {") for text in gluing.artifacts.values())
    assert "artifacts" not in gluing.to_dict()
    assert list(tmp_path.iterdir()) == []


def test_hasse_gluing_names_a_pair_without_an_image(monkeypatch, a2):
    """A pair whose g-vector names no doubled pair fails the claim by its label."""
    ctx = ExtensionContext(a2, "2")
    true_hasse = verify.hasse

    def hasse_with_one_g_vector_moved(pairs):
        h = true_hasse(pairs)
        if pairs.catalog.algebra is not ctx.extended:
            return h
        first = decode(h.pairs)[0]
        moved = pair_key(h.pairs, first._replace(g=(99,) * len(first.g)))
        return HasseQuiver(replace(h.pairs, keys=(moved,) + h.pairs.keys[1:]), h.arrows)

    monkeypatch.setattr(verify, "hasse", hasse_with_one_g_vector_moved)
    rep = verify_hasse_gluing(ctx)
    assert rep.status == "fail"
    assert rep.detail == f"{pair_label(decode(ctx.enum('extended'))[0])} maps to no vertex"


def test_hasse_gluing_checks_the_extension_vertex_count(monkeypatch, a2):
    """An extension quiver one vertex short fails |stau B| = 2 |stau A| + |stau A/i|
    with the counts, before any vertex is mapped."""
    ctx = ExtensionContext(a2, "2")
    true_hasse = verify.hasse

    def hasse_without_the_last_pair(pairs):
        h = true_hasse(pairs)
        if pairs.catalog.algebra is not ctx.extended:
            return h
        last = len(h.pairs) - 1
        return HasseQuiver(replace(h.pairs, keys=h.pairs.keys[:last]),
                           arrow_codes(last, (a for a in decoded_arrows(h) if last not in a)))

    monkeypatch.setattr(verify, "hasse", hasse_without_the_last_pair)
    monkeypatch.setattr(verify, "_glued_vertex_map",
                        lambda *args: pytest.fail("the vertex map was built"))
    rep = verify_hasse_gluing(ctx)
    assert rep.status == "fail"
    assert rep.detail == "the extension's quiver has 11 vertices, not 2 * 5 + 2"
    assert rep.counts["hasse_extended"] == 11 and rep.counts["glued"] == 12


def test_run_claims_skips_tilting_at_sink(single_ctx):
    reports = list(run_claims(single_ctx))
    by_claim = {r.claim: r for r in reports}
    assert by_claim["tilting-transfer"].status == "skipped"
    assert all(r.status == "pass" for r in reports if r.claim != "tilting-transfer")


def test_reports_serialize(fork_ctx):
    reports = list(run_claims(fork_ctx, claims=("count-equations",)))
    doc = json.loads(reports_to_json(reports))
    assert doc[0]["claim"] == "count-equations"
    assert doc[0]["status"] == "pass"


@pytest.mark.parametrize("claims, message", [
    (("classification", "nonsense", "x"), "unknown claims: nonsense, x"),
    (("count-equations", "classification", "count-equations"), "repeated claims: count-equations"),
    ((), "no claims selected")])
def test_run_claims_validates_through_select_claims(monkeypatch, a2_ctx, claims, message):
    monkeypatch.setattr(verify, "verify_classification",
                        lambda ctx: pytest.fail("a claim ran before the list was checked"))
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        select_claims(claims)
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        run_claims(a2_ctx, claims)


@pytest.mark.parametrize("name, new_vertex", [
    ("1" * 5000, "a"), ("9" * 4300, "a"), ("9" * 4299, "1" + "0" * 4299)],
    ids=["5000-digits", "4300-nines", "4299-nines"])
def test_context_names_a_fresh_vertex_beside_a_long_decimal_name(name, new_vertex):
    """A decimal name within `int`'s 4,300 digits keeps its successor, even one
    of 4,300 digits; past that the new vertex is `a`, and every claim runs."""
    ctx = ExtensionContext(build_algebra(Quiver(["1", name], [Arrow("x", name, "1")])), name)
    assert ctx.new_vertex == new_vertex
    assert [r.status for r in run_claims(ctx)] == ["pass"] * 4


def test_transport_requires_every_zero_extension_in_the_catalog(monkeypatch, a2):
    monkeypatch.setattr(Catalog, "find_index", lambda self, rep: None)
    with pytest.raises(InvariantViolation,
                       match="^transported module missing from the larger catalog$"):
        verify_classification(ExtensionContext(a2, "2"))


def test_gluing_requires_the_extension_to_list_the_base_vertices_first(monkeypatch, a2):
    """An extension that lists its new vertex first has the same pairs and the
    same quiver, but its g-vectors no longer end in the doubled coordinate."""
    def new_vertex_first(algebra, source_vertex):
        ext, new = one_point_extension(algebra, source_vertex)
        q = ext.quiver
        return build_algebra(Quiver((new,) + q.vertices[:-1], q.arrows), ext.relations), new

    monkeypatch.setattr(verify, "one_point_extension", new_vertex_first)
    ctx = ExtensionContext(a2, "2")
    assert ctx.extended.quiver.vertices == ("3", "1", "2")
    with pytest.raises(InvariantViolation,
                       match="^the extension does not list the base's vertices first$"):
        verify_hasse_gluing(ctx)


def test_gluing_requires_one_lane_width(monkeypatch, a2):
    """A base table packed in wider lanes than the extension's: its keys no
    longer line up with the extension's, lane for lane."""
    ctx = ExtensionContext(a2, "2")
    true_hasse = verify.hasse

    def hasse_with_wide_base_lanes(pairs):
        h = true_hasse(pairs)
        if pairs.catalog.algebra is not ctx.base:
            return h
        return HasseQuiver(replace(h.pairs, width=2 * h.pairs.width), h.arrows)

    monkeypatch.setattr(verify, "hasse", hasse_with_wide_base_lanes)
    with pytest.raises(InvariantViolation, match="^the extension packs g-vectors in 1-byte "
                                                 "lanes, the base in 2-byte lanes$"):
        verify_hasse_gluing(ctx)


def test_run_claims_builds_three_catalogs(monkeypatch):
    """The base, the extension and the quotient: the doubled quiver is glued
    from the base's, not searched in a catalog of its own."""
    built = []

    def counting_build_catalog(algebra):
        built.append(algebra)
        return build_catalog(algebra)

    monkeypatch.setattr(verify, "build_catalog", counting_build_catalog)
    ctx = ExtensionContext(type_a_square(4), "4")
    assert [r.status for r in run_claims(ctx)] == ["pass"] * 4
    assert len(built) == 3
    assert {id(a) for a in built} == {id(ctx.base), id(ctx.extended), id(ctx.quotient)}


def test_run_claims_decodes_the_full_support_modules_once_per_enumeration(monkeypatch):
    """Four claims read the full-support modules of three enumerations, and
    each table is scanned for them once."""
    scanned = []
    true_tau_tilt = PairTable.tau_tilt.func

    def counting_tau_tilt(pairs):
        scanned.append(id(pairs))
        return true_tau_tilt(pairs)

    counted = cached_property(counting_tau_tilt)
    counted.__set_name__(PairTable, "tau_tilt")
    monkeypatch.setattr(PairTable, "tau_tilt", counted)
    ctx = ExtensionContext(type_a_square(4), "4")
    assert [r.status for r in run_claims(ctx)] == ["pass"] * 4
    tables = [id(ctx.enum(which)) for which in ("base", "extended", "quotient")]
    assert sorted(scanned) == sorted(tables)


def count_g_vector_reads(monkeypatch) -> list[int]:
    """Make `PairTable.g`, the one reader of a pair's g-vector lanes, record the
    index of each pair it reads; returns the record."""
    read = []
    true_g = PairTable.g

    def counting_g(self, k):
        read.append(k)
        return true_g(self, k)

    monkeypatch.setattr(PairTable, "g", counting_g)
    return read


def test_gluing_decodes_no_base_pair_for_the_subset(monkeypatch):
    """`select_doubled_subset` reads the source's bit off the base table's ints,
    a passing gluing builds no label, and the vertex map reads both tables'
    keys, so on D2 n=6 `run_claims` unpacks no pair's g-vector (decoding the
    454 extension pairs and the 188 base pairs for the map read 642); decoding
    one pair is counted, so the count is live."""
    read = count_g_vector_reads(monkeypatch)
    ctx = ExtensionContext(type_d_square(6), "6")
    assert (len(ctx.enum("base")), len(ctx.enum("extended"))) == (188, 454)
    subset = select_doubled_subset(ctx)
    assert len(subset) == len(ctx.enum("quotient")) == 78
    assert read == []
    assert [r.status for r in run_claims(ctx)] == ["pass"] * 4
    assert read == []
    ctx.enum("base").as_dict(7)
    assert read == [7]


FAULT_CASES = pytest.mark.parametrize("base, source", [(type_a_square(4), "4"),
                                                       (type_d_square(5), "5")],
                                      ids=["A2-4", "D2-5"])


def claim_outcomes(ctx):
    """Each claim's status, or the message of the internal check it raises."""
    outcomes = []
    for claim in verify.CLAIMS:
        try:
            outcomes.append(list(run_claims(ctx, (claim,)))[0].status)
        except InvariantViolation as exc:
            outcomes.append(str(exc))
    return outcomes


@FAULT_CASES
def test_shape_images_with_p_new_and_s_new_swapped_fail_two_claims(monkeypatch, base, source):
    """Shape one becomes S_new + M1 (shape two holds both and stays).  Only the
    claims that read the shapes see it; the counts and the gluing do not."""
    true_images = verify._shape_images

    def swapped_images(ctx, base_modules, quotient_modules):
        cat = ctx.enum("extended").catalog
        p_new, s_new = cat.projective_index[ctx.new_vertex], cat.simple_index[ctx.new_vertex]
        swap = {p_new: s_new, s_new: p_new}
        return tuple({tuple(sorted(swap.get(k, k) for k in ref)) for ref in image}
                     for image in true_images(ctx, base_modules, quotient_modules))

    monkeypatch.setattr(verify, "_shape_images", swapped_images)
    ctx = ExtensionContext(base, source)
    reports = list(run_claims(ctx))
    assert [r.status for r in reports] == ["fail", "pass", "fail", "pass"]
    assert reports[0].detail.startswith("transported module is not tau-tilting: ")
    assert reports[2].detail.startswith("tilting sets differ at ")


def flip_tau_hom_bit(cat, i, j):
    """Flip "Hom(E_i, tau E_j) = 0" in both bit tables of `cat`."""
    cat.tors_mask[i] ^= 1 << j
    t = cat.tors_mask
    cat.compat_mask = [t[a] & sum(1 << b for b in range(cat.size) if t[b] >> a & 1)
                       for a in range(cat.size)]


@FAULT_CASES
@pytest.mark.parametrize("bit, outcomes", [
    # S_new is no longer tau-rigid: every pair holding it is gone.
    (("S_new", "S_new"), ["fail", "fail", "pass", "exchange graph is not n-regular"]),
    # S_i and S_new change compatibility: only pairs without full support move.
    (("S_i", "S_new"), ["pass", "fail", "pass",
                        "more than two completions of an almost complete pair"]),
    # The pairs stay; only the torsion order between two of them is lost.
    (("S_new", "S_i"), ["pass", "pass", "pass", "mutation direction is not uniquely determined"]),
], ids=["S_new-not-rigid", "compatibility", "torsion-order"])
def test_one_flipped_tau_hom_bit_is_caught(monkeypatch, base, source, bit, outcomes):
    """One bit of the extension's tau-Hom table flipped: the claims that catch it
    fail, and the Hasse quiver's own checks raise."""
    ctx = ExtensionContext(base, source)
    vertex = {"S_new": ctx.new_vertex, "S_i": ctx.source_vertex}

    def build_with_one_bit_flipped(algebra):
        cat = build_catalog(algebra)
        if algebra is ctx.extended:
            flip_tau_hom_bit(cat, *(cat.simple_index[vertex[b]] for b in bit))
        return cat

    monkeypatch.setattr(verify, "build_catalog", build_with_one_bit_flipped)
    assert claim_outcomes(ctx) == outcomes


def reverse_the_first_arrow(arrows):
    return [arrows[0][::-1]] + arrows[1:], arrows[0][::-1]


def move_the_head_of_an_arrow_out_of_the_source(arrows):
    """The first arrow s -> b out of the quiver's one source now ends at the
    first vertex c that s has no arrow to; nothing reaches s, so no cycle is made."""
    heads = {b for _, b in arrows}
    s = next(a for a, _ in arrows if a not in heads)
    out = {b for a, b in arrows if a == s}
    c = next(v for v in range(len(heads) + 1) if v != s and v not in out)
    first = next(k for k, (a, _) in enumerate(arrows) if a == s)
    return arrows[:first] + [(s, c)] + arrows[first + 1:], (s, c)


def drop_the_first_arrow(arrows):
    return arrows[1:], None


@FAULT_CASES
@pytest.mark.parametrize("mutation", [reverse_the_first_arrow,
                                      move_the_head_of_an_arrow_out_of_the_source,
                                      drop_the_first_arrow],
                         ids=["reversed", "head-moved", "dropped"])
def test_gluing_check_and_search_agree_on_a_faulty_extension_quiver(monkeypatch, base, source,
                                                                    mutation):
    """One arrow of the extension's Hasse quiver reversed, moved to another head,
    or dropped: the map check fails and names the new arrow by the labels of its
    ends and of their images (or counts the arrows), and the search finds no
    isomorphism either."""
    ctx = ExtensionContext(base, source)
    h_base = verify.hasse(ctx.enum("base"))
    h_ext = verify.hasse(ctx.enum("extended"))
    arrows = decoded_arrows(h_ext)
    glued, plus = reference_glued(ctx)
    vertex_map = verify._glued_vertex_map(ctx, h_ext, h_base, plus)
    assert verify_hasse_gluing(ctx).status == "pass"
    _, changed = mutation(arrows)
    mutate_extension_arrows(monkeypatch, ctx.extended, lambda arrows: mutation(arrows)[0])
    rep = verify_hasse_gluing(ctx)
    assert rep.status == "fail"
    if changed is None:
        assert rep.detail == f"{len(arrows) - 1} arrows cannot map onto {len(arrows)}"
    else:
        a, b = changed
        label = reference_dag(h_ext).labels
        assert rep.detail == (f"arrow {label[a]} -> {label[b]} maps to "
                              f"{glued.labels[vertex_map[a]]} -> {glued.labels[vertex_map[b]]}, "
                              "which is not an arrow")
    assert rep.artifacts == gluing_dot_texts(ctx)
    assert not gluing_search_agrees(ctx)


def assert_two_step_recurrences(counts):
    """t_n = t_{n-1} + t_{n-2} and s_n = 2 s_{n-1} + s_{n-2} along a list of (t, s)."""
    for (t2, s2), (t1, s1), (t0, s0) in zip(counts, counts[1:], counts[2:]):
        assert (t0, s0) == (t1 + t2, 2 * s1 + s2)


def test_recurrences_linear():
    counts = [family_counts("A2", n) for n in range(1, 7)]
    assert_two_step_recurrences(counts)
    assert counts[-1][1] == 169


def test_recurrences_fork():
    counts = [family_counts("D2", n) for n in range(4, 8)]
    assert_two_step_recurrences(counts)
    # n = 5 has no two predecessors: it is the extension of n = 4 at its source
    rep = verify_count_equations(ExtensionContext(type_d_square(4), "4"))
    assert rep.status == "pass"
    assert (rep.counts["tau_tilt_extended"], rep.counts["stau_extended"]) == counts[1]
    assert counts[1] == (11, 78)


@pytest.mark.parametrize("kind, first, n_max", [("A2", 1, 8), ("D2", 4, 8)])
def test_family_rows_match_per_member_enumeration(kind, first, n_max):
    """Every row read off the largest member's pairs, through the quotient by
    the idempotents of the vertices past n, is the row of member n enumerated
    in its own catalog."""
    assert [(r.n, r.tau_tilt, r.stau) for r in family_rows(kind, first, n_max)] == [
        (n, *family_counts(kind, n)) for n in range(first, n_max + 1)]


def test_reproduce_tables_small():
    result = reproduce_tables(4, 5)
    assert [r.tau_tilt for r in result.rows["A2"]] == [1, 2, 3, 5]
    assert [r.stau for r in result.rows["A2"]] == [2, 5, 12, 29]
    assert [r.tau_tilt for r in result.rows["D2"]] == [6, 11]
    assert [r.stau for r in result.rows["D2"]] == [32, 78]
    assert result.discrepancies == []
    assert result.hard_failures == 0


def test_reproduce_tables_builds_no_pair_record(monkeypatch):
    """The tables read the pair counts and the full-support modules off the
    enumeration's ints, so not one pair's g-vector is unpacked; decoding a
    pair unpacks one, so the count below is live."""
    read = count_g_vector_reads(monkeypatch)
    result = reproduce_tables(5, 5)
    assert [(r.tau_tilt, r.stau) for r in result.rows["A2"] + result.rows["D2"]] == [
        (1, 2), (2, 5), (3, 12), (5, 29), (8, 70), (6, 32), (11, 78)]
    assert read == []
    enumerate_stau(build_catalog(type_a_square(2))).as_dict(0)
    assert read == [0]


def test_reproduce_tables_flags_reported_misprint():
    result = reproduce_tables(3, 6)
    flagged = [d for d in result.discrepancies]
    assert len(flagged) == 1
    d = flagged[0]
    assert (d.family, d.n, d.row) == ("D2", 6, "stau")
    assert d.reported == REPORTED_D[6][1] == 118
    assert d.computed == 188
    assert d.corroborated
    assert result.hard_failures == 0
    assert "118" in result.render() and "188" in result.render()


def test_reproduce_tables_is_idempotent():
    assert reproduce_tables(3, 5).render() == reproduce_tables(3, 5).render()


def test_reproduce_tables_checks_columns_past_the_reported_tables(monkeypatch):
    """A closed form off by one from n = 11 on is caught in the columns that have
    no reported value, and at A2 n = 10, whose pair count reads its form at n + 1."""
    true_form = verify.closed_form
    monkeypatch.setattr(verify, "closed_form", lambda kind, n: true_form(kind, n) + (n >= 11))
    result = reproduce_tables(12, 5)
    assert [(d.family, d.n, d.row) for d in result.discrepancies] == [
        ("A2", 10, "stau-closed-form"),
        ("A2", 11, "tau-closed-form"), ("A2", 11, "stau-closed-form"),
        ("A2", 12, "tau-closed-form"), ("A2", 12, "stau-closed-form")]
    assert result.hard_failures == 5
    assert [r.stau for r in result.rows["A2"][-2:]] == [13860, 33461]
    assert "A2 n=12 tau-closed-form: reported 234, computed 233 (UNEXPLAINED)" in result.render()


def test_reproduce_tables_needs_increasing_family_counts(monkeypatch):
    monkeypatch.setattr(verify, "family_rows", lambda kind, first, n_max: [
        TableRow(n, 1, 2) for n in range(first, n_max + 1)])
    with pytest.raises(InvariantViolation, match="family counts must be positive and increasing"):
        reproduce_tables(2, 4)
