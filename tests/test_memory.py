"""Memory bounds of the arrow-code layers, as `tracemalloc` peaks over the bytes
of the arrow array each call returns.  Peaks, not timings: they do not move
with the machine's load."""
import tracemalloc

import pytest

from tautilt.catalog import build_catalog
from tautilt.dags import dag_iso, glue, hasse_to_dag
from tautilt.families import type_a_square
from tautilt.tilting import enumerate_stau, hasse
from tautilt.verify import ExtensionContext, _glued_vertex_map, select_doubled_subset


def traced_peak(call, *args):
    """What `call(*args)` returns, and the peak bytes it allocated on top of what was live."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        out = call(*args)
        return out, tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def gluing_a2_10():
    """The A2 n=10 extension at vertex 10, as `verify_hasse_gluing` builds it:
    the extension's quiver, the doubled quiver, the selected subset and the
    extension pairs' vertices under the classification's map."""
    ctx = ExtensionContext(type_a_square(10), "10")
    h_ext, h_base = hasse(ctx.enum("extended")), hasse(ctx.enum("base"))
    doubled, _ = glue(hasse_to_dag(h_base), range(len(h_base.pairs)))
    subset = select_doubled_subset(ctx)
    glued, plus = glue(doubled, subset)
    return hasse_to_dag(h_ext), doubled, subset, glued, _glued_vertex_map(ctx, h_ext, h_base, plus)


def test_hasse_peaks_below_three_times_its_arrows():
    """One slot table per unsupported-vertex set, no list of the pairs' codes,
    the per-pair masks freed before the arrow codes are sorted, and the Kahn
    sort's row starts in 8 bytes a vertex: the peak, set by the Kahn sort, is
    about 2.85 times.  One slot table per projective-summand count took 5.7."""
    pairs = enumerate_stau(build_catalog(type_a_square(10)))
    h, peak = traced_peak(hasse, pairs)
    assert len(h.arrows) == 10 * len(pairs) // 2
    assert peak <= 3 * h.arrows.itemsize * len(h.arrows)


def test_glue_peaks_below_six_times_its_arrows(gluing_a2_10):
    _, doubled, subset, expected, _ = gluing_a2_10
    (glued, _), peak = traced_peak(glue, doubled, subset)
    assert glued.arrows == expected.arrows
    assert peak <= 6 * glued.arrows.itemsize * len(glued.arrows)


def test_dag_iso_peaks_below_three_times_the_arrows_it_matches(gluing_a2_10):
    dag_ext, _, _, glued, vertex_map = gluing_a2_10
    reason, peak = traced_peak(dag_iso, dag_ext, glued, vertex_map)
    assert reason is None
    assert peak <= 3 * glued.arrows.itemsize * len(glued.arrows)
