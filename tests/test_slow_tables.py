"""Full published-table columns (n = 9, 10); excluded from the default run."""
import pytest

from tautilt.catalog import build_catalog
from tautilt.counting import closed_form
from tautilt.families import type_a_square, type_d_square
from tautilt.tilting import enumerate_stau, hasse, tau_tilting_modules
from tautilt.verify import ExtensionContext, reproduce_tables, verify_count_equations

pytestmark = pytest.mark.slow


def counts(algebra):
    pairs = enumerate_stau(build_catalog(algebra))
    return len(tau_tilting_modules(pairs)), len(pairs)


def test_linear_family_full_columns():
    assert counts(type_a_square(9)) == (55, 2378)
    assert counts(type_a_square(10)) == (89, 5741)


def test_fork_family_full_columns():
    # full-support counts match the reported row; pair counts continue the
    # recurrence past the misprinted entries
    assert counts(type_d_square(9)) == (73, 2646)
    assert counts(type_d_square(10)) == (118, 6388)
    assert closed_form("stau_d", 9) == 2646
    assert closed_form("stau_d", 10) == 6388


def test_full_table_reproduction_flags():
    result = reproduce_tables(10, 10)
    assert [r.stau for r in result.table_a.rows][-2:] == [2378, 5741]
    assert [r.tau_tilt for r in result.table_d.rows][-2:] == [73, 118]
    flagged = {(d.n, d.row): (d.reported, d.computed) for d in result.discrepancies}
    assert flagged == {
        (6, "stau"): (118, 188),
        (8, "stau"): (1026, 1096),
        (9, "stau"): (2506, 2646),
        (10, "stau"): (6038, 6388),
    }
    assert all(d.corroborated for d in result.discrepancies)
    assert result.hard_failures == 0


def test_count_equations_at_depth_nine():
    rep = verify_count_equations(ExtensionContext(type_d_square(9), "9"))
    assert rep.status == "pass"
    assert rep.counts["stau_extended"] == 6388
    rep2 = verify_count_equations(ExtensionContext(type_a_square(9), "9"))
    assert rep2.status == "pass"
    assert rep2.counts["stau_extended"] == 5741 == 2 * 2378 + 985


def test_exchange_regularity_at_depth_ten():
    cat = build_catalog(type_a_square(10))
    h = hasse(cat, enumerate_stau(cat))
    assert len(h.pairs) == 5741
    assert 2 * len(h.arrows) == 10 * 5741
