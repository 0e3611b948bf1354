"""End-to-end verifiers for the classification claims and counting identities.

Each verifier enumerates every side of its claim independently and compares;
reports carry the counts and, on failure, a concrete counterexample.  Table
reproduction diffs enumeration against the previously reported values and
flags mismatches without ever patching them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from .algebra import Algebra, delete_vertex, one_point_extension
from .catalog import Catalog, ModuleRef, build_catalog
from .counting import (REPORTED_A, REPORTED_D, STAU_A_INDEX_SHIFT, closed_form)
from .dags import dag_iso, glue, hasse_to_dag, to_dot
from .errors import InvariantViolation, PreconditionError
from .families import family
from .modules import extend_by_zero
from .tilting import (HasseQuiver, enumerate_stau, hasse, is_tau_tilting,
                      tau_tilting_modules, tilting_modules)


@dataclass
class ClaimReport:
    claim: str
    status: str  # pass | fail | skipped
    counts: dict[str, int] = field(default_factory=dict)
    detail: str | None = None
    # File name -> text of a failure artifact, for the caller to write; not in `to_dict`.
    artifacts: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"claim": self.claim, "status": self.status, "counts": self.counts}
        if self.detail is not None:
            out["counterexample"] = self.detail
        return out


class Enumeration:
    """Catalog plus canonical pair list for one algebra."""

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.catalog = build_catalog(algebra)
        self.pairs = enumerate_stau(self.catalog)

    def tau_tilt(self) -> list[ModuleRef]:
        return tau_tilting_modules(self.pairs)

    def tilt(self) -> list[ModuleRef]:
        return tilting_modules(self.catalog, self.pairs)

    def hasse(self) -> HasseQuiver:
        return hasse(self.catalog, self.pairs)


class ExtensionContext:
    """Base algebra, its extension at a source, and the vertex-deletion quotient."""

    def __init__(self, base: Algebra, source_vertex: str):
        self.base = base
        self.source_vertex = source_vertex
        self.extended, self.new_vertex = one_point_extension(base, source_vertex)
        self.quotient = delete_vertex(base, source_vertex)
        self._enums: dict[str, Enumeration] = {}

    def enum(self, which: str) -> Enumeration:
        if which not in self._enums:
            algebra = {"base": self.base, "extended": self.extended,
                       "quotient": self.quotient}[which]
            self._enums[which] = Enumeration(algebra)
        return self._enums[which]

    @cached_property
    def transport(self) -> tuple[dict[int, int], dict[int, int]]:
        """`_transport_table` from the base and from the quotient into the extension."""
        cat_b = self.enum("extended").catalog
        return (_transport_table(self.enum("base").catalog, cat_b),
                _transport_table(self.enum("quotient").catalog, cat_b))


def _transport_table(src: Catalog, dst: Catalog) -> dict[int, int]:
    """Catalog indices of the zero-extensions of every source-catalog entry."""
    table = {}
    for i, entry in enumerate(src.entries):
        moved = extend_by_zero(entry, dst.algebra)
        idx = dst.find_index(moved)
        if idx is None:
            raise InvariantViolation("transported module missing from the larger catalog")
        table[i] = idx
    return table


def _ref_detail(cat: Catalog, ref: ModuleRef) -> str:
    return " + ".join(str(list(cat.entries[i].dims)) for i in ref) or "0"


def _shape_images(ctx: ExtensionContext, base_modules: Iterable[ModuleRef],
                  quotient_modules: Iterable[ModuleRef]) -> tuple[set[ModuleRef], set[ModuleRef]]:
    """Shape-one images P_new + M1 of base modules and shape-two images
    P_new + S_new + M2 of quotient modules, in the extension's catalog."""
    cat_b = ctx.enum("extended").catalog
    p_new = cat_b.projective_index[ctx.new_vertex]
    s_new = cat_b.simple_index[ctx.new_vertex]
    t_base, t_quot = ctx.transport
    shape_one = {tuple(sorted([t_base[i] for i in m] + [p_new])) for m in base_modules}
    shape_two = {tuple(sorted([t_quot[i] for i in m] + [p_new, s_new]))
                 for m in quotient_modules}
    return shape_one, shape_two


def verify_classification(ctx: ExtensionContext) -> ClaimReport:
    """Full-support modules over the extension are exactly the two transported shapes.

    Shape one adds the new projective to a full module over the base; shape
    two adds the new projective and the new simple to a full module over the
    quotient.  The two images must be disjoint and cover everything.
    """
    ext = ctx.enum("extended")
    base = ctx.enum("base")
    quot = ctx.enum("quotient")
    cat_b = ext.catalog
    image_one, image_two = _shape_images(ctx, base.tau_tilt(), quot.tau_tilt())
    counts = {"tau_tilt_base": len(base.tau_tilt()),
              "tau_tilt_quotient": len(quot.tau_tilt()),
              "tau_tilt_extended": len(ext.tau_tilt())}
    for img in list(image_one) + list(image_two):
        if not is_tau_tilting(cat_b, img):
            return ClaimReport("classification", "fail", counts,
                               f"transported module is not tau-tilting: {_ref_detail(cat_b, img)}")
    if image_one & image_two:
        bad = next(iter(image_one & image_two))
        return ClaimReport("classification", "fail", counts,
                           f"images overlap at {_ref_detail(cat_b, bad)}")
    enumerated = set(ext.tau_tilt())
    if image_one | image_two != enumerated:
        missing = enumerated - (image_one | image_two)
        extra = (image_one | image_two) - enumerated
        sample = next(iter(missing or extra))
        return ClaimReport("classification", "fail", counts,
                           f"images do not partition the enumeration: {_ref_detail(cat_b, sample)}")
    return ClaimReport("classification", "pass", counts)


def verify_count_equations(ctx: ExtensionContext) -> ClaimReport:
    """Both counting identities, each side enumerated independently."""
    counts = {
        "tau_tilt_extended": len(ctx.enum("extended").tau_tilt()),
        "tau_tilt_base": len(ctx.enum("base").tau_tilt()),
        "tau_tilt_quotient": len(ctx.enum("quotient").tau_tilt()),
        "stau_extended": len(ctx.enum("extended").pairs),
        "stau_base": len(ctx.enum("base").pairs),
        "stau_quotient": len(ctx.enum("quotient").pairs),
    }
    ok_tau = counts["tau_tilt_extended"] == counts["tau_tilt_base"] + counts["tau_tilt_quotient"]
    ok_stau = counts["stau_extended"] == 2 * counts["stau_base"] + counts["stau_quotient"]
    if ok_tau and ok_stau:
        return ClaimReport("count-equations", "pass", counts)
    return ClaimReport("count-equations", "fail", counts,
                       "counting identity violated by independent enumeration")


def verify_tilting_transfer(ctx: ExtensionContext) -> ClaimReport:
    """Tilting modules transfer one-to-one onto shape-one images; shape two never tilts."""
    if ctx.base.quiver.is_sink(ctx.source_vertex):
        raise PreconditionError("tilting transfer requires the source vertex not to be a sink")
    ext = ctx.enum("extended")
    base = ctx.enum("base")
    quot = ctx.enum("quotient")
    cat_b = ext.catalog
    image, shape_two = _shape_images(ctx, base.tilt(), quot.tau_tilt())
    enumerated = set(ext.tilt())
    counts = {"tilt_base": len(image), "tilt_extended": len(enumerated)}
    if image != enumerated:
        sample = next(iter(image.symmetric_difference(enumerated)))
        return ClaimReport("tilting-transfer", "fail", counts,
                           f"tilting sets differ at {_ref_detail(cat_b, sample)}")
    if shape_two & enumerated:
        sample = next(iter(shape_two & enumerated))
        return ClaimReport("tilting-transfer", "fail", counts,
                           f"shape-two image is tilting: {_ref_detail(cat_b, sample)}")
    return ClaimReport("tilting-transfer", "pass", counts)


def select_doubled_subset(ctx: ExtensionContext) -> frozenset[int]:
    """Vertices of the doubled quiver carrying the isolated simple with the
    remaining summands supported away from the extension source.

    The doubled quiver is the Hasse quiver of A x k, the base with an isolated
    vertex adjoined.  Pairs and mutations over a product are taken factor by
    factor (Adachi-Iyama-Reiten), so it is Hasse(A) times the arrow
    (k, 0) -> (0, k): `glue` of Hasse(A) along every vertex.  With N = |stau A|,
    vertex k is base pair k with the isolated vertex unsupported, g-vector
    (g, -1), and its plus-copy N + k adds the isolated simple, g-vector (g, +1).
    The selected vertices are the N + k whose base pair has the source in its
    projective part."""
    pairs = ctx.enum("base").pairs
    return frozenset(len(pairs) + k for k, pair in enumerate(pairs)
                     if ctx.source_vertex in pair.proj_part)


def _glued_vertex_map(ctx: ExtensionContext, h_ext: HasseQuiver, h_base: HasseQuiver,
                      plus: dict[int, int]) -> list[int]:
    """The vertex of `glue(doubled quiver, subset)` that the classification names
    for each pair of the extension, read off its g-vector; -1 where there is none.

    The new and the isolated vertex share a name and the last position, so the
    g-vectors of both algebras compare coordinate by coordinate.  With
    g(S_new) = e_new - e_i, a pair without S_new goes to the doubled pair of the
    same g-vector, S_new without P_new to that of g + e_i (a selected original),
    and P_new + S_new to the plus-copy (`plus`, from `glue`) of that of g - e_new.
    """
    cat = ctx.enum("extended").catalog
    if cat.algebra.quiver.vertices != ctx.base.quiver.vertices + (ctx.new_vertex,):
        raise InvariantViolation("the extension does not list the base's vertices first")
    p_new, s_new = cat.projective_index[ctx.new_vertex], cat.simple_index[ctx.new_vertex]
    pos = cat.algebra.quiver.vertex_pos
    i, new = pos[ctx.source_vertex], pos[ctx.new_vertex]
    n_base = len(h_base.pairs)
    by_g = {p.g + (c,): k + n_base * (c > 0) for k, p in enumerate(h_base.pairs) for c in (-1, 1)}
    images = []
    for pair in h_ext.pairs:
        g = list(pair.g)
        if s_new not in pair.modules:
            images.append(by_g.get(pair.g, -1))
        elif p_new not in pair.modules:
            g[i] += 1
            images.append(by_g.get(tuple(g), -1))
        else:
            g[new] -= 1
            images.append(plus.get(by_g.get(tuple(g)), -1))
    return images


def verify_hasse_gluing(ctx: ExtensionContext) -> ClaimReport:
    """The extension's mutation quiver is the doubled quiver glued along the
    selected subset, under the vertex map the classification names.  A failed
    map check carries both quivers as DOT artifacts."""
    base = ctx.enum("base")
    quot = ctx.enum("quotient")
    h_ext = ctx.enum("extended").hasse()
    dag_ext = hasse_to_dag(h_ext)
    h_base = base.hasse()
    dag_dbl, _ = glue(hasse_to_dag(h_base), range(len(h_base.pairs)))
    subset = select_doubled_subset(ctx)
    glued, plus = glue(dag_dbl, subset)
    counts = {
        "hasse_extended": len(dag_ext.labels),
        "hasse_doubled": len(dag_dbl.labels),
        "selected": len(subset),
        "glued": len(glued.labels),
    }
    if len(subset) != len(quot.pairs):
        return ClaimReport("hasse-gluing", "fail", counts,
                           "selected subset size differs from the quotient enumeration")
    if len(h_ext.pairs) != 2 * len(base.pairs) + len(quot.pairs):
        return ClaimReport("hasse-gluing", "fail", counts,
                           f"the extension's quiver has {len(h_ext.pairs)} vertices, not "
                           f"2 * {len(base.pairs)} + {len(quot.pairs)}")
    reason = dag_iso(dag_ext, glued, _glued_vertex_map(ctx, h_ext, h_base, plus))
    if reason is not None:
        return ClaimReport("hasse-gluing", "fail", counts, reason,
                           {"hasse_extended.dot": to_dot(dag_ext),
                            "hasse_glued.dot": to_dot(glued)})
    return ClaimReport("hasse-gluing", "pass", counts)


# Claim name -> its verifier, in the default order.  The lambdas look each
# verifier up by name when it runs, so a `verify_*` rebound on this module is
# the one called.
CLAIMS = {
    "classification": lambda ctx: verify_classification(ctx),
    "count-equations": lambda ctx: verify_count_equations(ctx),
    "tilting-transfer": lambda ctx: verify_tilting_transfer(ctx),
    "hasse-gluing": lambda ctx: verify_hasse_gluing(ctx),
}


def select_claims(claims: Iterable[str]) -> tuple[str, ...]:
    """`claims` as a tuple, once every name is known, none repeats and there is one."""
    wanted = tuple(claims)
    unknown = [c for c in wanted if c not in CLAIMS]
    if unknown:
        raise PreconditionError(f"unknown claims: {', '.join(unknown)}")
    repeated = [c for c in CLAIMS if wanted.count(c) > 1]
    if repeated:
        raise PreconditionError(f"repeated claims: {', '.join(repeated)}")
    if not wanted:
        raise PreconditionError("no claims selected")
    return wanted


def run_claims(ctx: ExtensionContext, claims: Iterable[str] = tuple(CLAIMS)
               ) -> Iterator[ClaimReport]:
    """Run `claims` in order, each when its report is asked for, so the reports
    before an internal error are kept; the list is checked at the call.  At a
    sink the full list, in any order, skips tilting-transfer."""
    claims = select_claims(claims)
    skip_transfer = ctx.base.quiver.is_sink(ctx.source_vertex) and set(claims) == set(CLAIMS)
    return (ClaimReport(claim, "skipped", {}, "source vertex is a sink")
            if skip_transfer and claim == "tilting-transfer" else CLAIMS[claim](ctx)
            for claim in claims)


# ---------------------------------------------------------------------------
# family recurrences and tables


def family_counts(kind: str, n: int) -> tuple[int, int]:
    """(full-support count, pair count) for one family member, by enumeration."""
    enum = Enumeration(family(kind, n))
    return len(enum.tau_tilt()), len(enum.pairs)


@dataclass
class TableRow:
    n: int
    tau_tilt: int
    stau: int


@dataclass
class CountTable:
    family: str
    rows: list[TableRow]

    def __post_init__(self):
        for prev, cur in zip(self.rows, self.rows[1:]):
            if not (0 < prev.tau_tilt < cur.tau_tilt and 0 < prev.stau < cur.stau):
                raise InvariantViolation("family counts must be positive and increasing")


@dataclass
class TableDiscrepancy:
    family: str
    n: int
    row: str
    reported: int
    computed: int
    corroborated: bool  # recurrence and closed form both agree with the computation


@dataclass
class TableReproduction:
    table_a: CountTable
    table_d: CountTable
    discrepancies: list[TableDiscrepancy]
    notes = ("pair-count closed form for the linear family is evaluated at n+1; "
             "at its printed index it gives the previous column",)

    @property
    def hard_failures(self) -> int:
        return sum(1 for d in self.discrepancies if not d.corroborated)

    def render(self) -> str:
        out = []
        for table in (self.table_a, self.table_d):
            ns = [r.n for r in table.rows]
            out.append(f"family {table.family}")
            out.append("  n          " + "  ".join(f"{n:>6}" for n in ns))
            out.append("  tau-tilt   " + "  ".join(f"{r.tau_tilt:>6}" for r in table.rows))
            out.append("  stau-tilt  " + "  ".join(f"{r.stau:>6}" for r in table.rows))
        if self.discrepancies:
            out.append("discrepancies against the reported tables:")
            for d in self.discrepancies:
                tag = "corroborated" if d.corroborated else "UNEXPLAINED"
                out.append(f"  {d.family} n={d.n} {d.row}: reported {d.reported}, "
                           f"computed {d.computed} ({tag})")
        else:
            out.append("no discrepancies against the reported tables")
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out) + "\n"


# family -> (first n, reported (tau-tilting, pair) counts by n,
#            (closed form, index shift) for the tau-tilting and for the pair column)
_TABLES = {
    "A2": (1, REPORTED_A, (("tau_a", 0), ("stau_a", STAU_A_INDEX_SHIFT))),
    "D2": (4, REPORTED_D, (("tau_d", 0), ("stau_d", 0))),
}

# row name, `TableRow` field and recurrence weight w of each column: c_n = w c_{n-1} + c_{n-2}
_COLUMNS = (("tau", "tau_tilt", 1), ("stau", "stau", 2))


def _count_table(kind: str, n_max: int, discrepancies: list[TableDiscrepancy]) -> CountTable:
    """`kind`'s rows up to n_max.  Every column is checked against its closed form;
    a reported value that differs is corroborated when the closed form and the
    two-step recurrence both agree with the computation."""
    first, reported, forms = _TABLES[kind]
    rows = [TableRow(n, *family_counts(kind, n)) for n in range(first, n_max + 1)]
    for k, row in enumerate(rows):
        for (name, attr, weight), (form, shift), rep in zip(_COLUMNS, forms,
                                                          reported.get(row.n, (None, None))):
            comp = getattr(row, attr)
            closed = closed_form(form, row.n + shift)
            if rep is not None and rep != comp:
                recur_ok = k >= 2 and comp == (weight * getattr(rows[k - 1], attr)
                                               + getattr(rows[k - 2], attr))
                discrepancies.append(TableDiscrepancy(
                    kind, row.n, name, rep, comp, corroborated=(closed == comp and recur_ok)))
            if closed != comp:
                discrepancies.append(TableDiscrepancy(
                    kind, row.n, name + "-closed-form", closed, comp, corroborated=False))
    return CountTable(kind, rows)


def reproduce_tables(n_max_a: int, n_max_d: int) -> TableReproduction:
    """Both family tables, the linear one for n = 1 .. n_max_a and the fork one
    for n = 4 .. n_max_d, diffed against the reported values."""
    if n_max_a < 1 or n_max_d < 4:
        raise PreconditionError(f"the linear table starts at n = 1 and the fork table at "
                                f"n = 4; got the last columns {n_max_a} and {n_max_d}")
    discrepancies: list[TableDiscrepancy] = []
    table_a = _count_table("A2", n_max_a, discrepancies)
    table_d = _count_table("D2", n_max_d, discrepancies)
    return TableReproduction(table_a, table_d, discrepancies)


def reports_to_json(reports: list[ClaimReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
