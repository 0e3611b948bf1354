"""Run the tautilt CLI with a span around each public function of each layer.

Usage: python3 perfbench/trace_child.py TRACE_JSON [tautilt arguments ...]

Each traced function is rebound, by identity, under every name that any
loaded `tautilt.*` module holds for it, so calls between modules go through
the span too.  A span stack gives each span its parent, from which self time
(own time minus the time of child spans) and parent -> child call counts
follow.  Spans are aggregated in memory and written to TRACE_JSON when the
CLI exits; the exit code of the CLI is kept.
"""
from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from functools import wraps
from time import perf_counter

# The public functions of each layer that the benchmark reports.
TRACED = {
    "algebra": ["load_algebra"],
    "linalg": ["rref"],
    "modules": ["hom_basis", "min_presentation", "tau", "tau_inverse", "ext1",
                "pd_at_most_one", "iso", "extend_by_zero"],
    "catalog": ["build_catalog", "Catalog.__init__", "Catalog.find_index",
                "Catalog.decompose"],
    "tilting": ["enumerate_stau", "hasse", "is_tilting"],
    "dags": ["dag_iso", "glue", "hasse_to_dag", "to_dot"],
    "verify": ["reproduce_tables", "verify_classification", "verify_count_equations",
               "verify_tilting_transfer", "verify_hasse_gluing"],
    "util": ["write_text_atomic"],
}

# Sizes of results, summed over calls: name of the count -> (span, measure).
RESULT_COUNTS = {
    "catalog.entries": ("catalog.build_catalog", lambda cat: cat.size),
    "tilting.pairs": ("tilting.enumerate_stau", len),
    "tilting.hasse.arrows": ("tilting.hasse", lambda h: len(h.arrows)),
    "tilting.is_tilting.hits": ("tilting.is_tilting", bool),
}


class Tracer:
    def __init__(self):
        self.stack: list[tuple[str, list[float]]] = []  # (span name, [child seconds])
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.edges: Counter = Counter()  # "parent>child" -> calls
        self.counts: Counter = Counter()
        self._measures = {span: (count, fn) for count, (span, fn) in RESULT_COUNTS.items()}

    def wrap(self, name: str, fn):
        stack = self.stack
        measure = self._measures.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            self.edges[f"{stack[-1][0] if stack else 'main'}>{name}"] += 1
            child = [0.0]
            stack.append((name, child))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - child[0]
                if stack:
                    stack[-1][1][0] += elapsed
            if measure is not None:
                self.counts[measure[0]] += measure[1](result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, names in TRACED.items():
            module = importlib.import_module(f"tautilt.{mod_name}")
            for qualname in names:
                span = f"{mod_name}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    setattr(owner, attr, self.wrap(span, getattr(owner, attr)))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(span, original)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("tautilt"):
                        for key, value in list(vars(loaded).items()):
                            if value is original:
                                setattr(loaded, key, wrapper)

    def report(self, main_s: float) -> dict:
        from tautilt.algebra import opposite_algebra
        info = opposite_algebra.cache_info()
        return {
            "main_s": main_s,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "edges": dict(self.edges),
            "counts": dict(self.counts),
            "opposite_algebra_cache": {"hits": info.hits, "misses": info.misses},
        }


def main() -> None:
    trace_path, cli_args = sys.argv[1], sys.argv[2:]
    import tautilt.cli  # every tautilt module is loaded before rebinding
    tracer = Tracer()
    tracer.install()
    start = perf_counter()
    try:
        tautilt.cli.main.main(args=cli_args, prog_name="tautilt")
    finally:
        main_s = perf_counter() - start
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(main_s), fh)


if __name__ == "__main__":
    main()
