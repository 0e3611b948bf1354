"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 parse error,
3 infinite-dimensional algebra, 4 not representation-directed,
5 precondition violated, 70 internal error (a failed internal check, or any
exception that is not a TautiltError).
"""
from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from .algebra import load_algebra, one_point_extension, serialize_algebra
from .catalog import build_catalog
from .dags import hasse_to_dag, to_dot
from .errors import (AlgebraFormatError, InfiniteDimensionalError, InvariantViolation,
                     NotDirectedError, PreconditionError, TautiltError)
from .tilting import pair_to_dict
from .verify import (CLAIMS, Enumeration, ExtensionContext, reports_to_json,
                     reproduce_tables, run_claims, select_claims)
from .util import check_writable, write_text_atomic

EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_INFINITE = 3
EXIT_NOT_DIRECTED = 4
EXIT_PRECONDITION = 5
EXIT_INTERNAL = 70

# Package error type -> (stderr prefix, exit code).
ERROR_EXITS = {
    AlgebraFormatError: ("error", EXIT_PARSE),
    InfiniteDimensionalError: ("error", EXIT_INFINITE),
    NotDirectedError: ("error", EXIT_NOT_DIRECTED),
    PreconditionError: ("error", EXIT_PRECONDITION),
    InvariantViolation: ("internal check failed", EXIT_INTERNAL),
}


def _guarded(command):
    """Turn any exception of `command` into one stderr line and its exit code."""
    @functools.wraps(command)
    def guarded(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except TautiltError as exc:
            prefix, code = next((v for cls, v in ERROR_EXITS.items() if isinstance(exc, cls)),
                                ("internal error", EXIT_INTERNAL))
            click.echo(f"{prefix}: {exc}", err=True)
            sys.exit(code)
        except Exception as exc:
            message = str(exc).replace("\n", " ")
            click.echo(f"internal error: {type(exc).__name__}: {message}", err=True)
            sys.exit(EXIT_INTERNAL)
    return guarded


class GuardedGroup(click.Group):
    """`Group.main` runs under `_guarded`: one error boundary for every command and
    every entry point (the console script, `python -m` and `CliRunner`)."""

    main = _guarded(click.Group.main)


@click.group(cls=GuardedGroup)
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("."),
              show_default=True, help="Directory for report and failure artifacts.")
@click.pass_context
def main(ctx, out_dir):
    """Support tau-tilting computations over monomial bound quiver algebras."""
    ctx.obj = out_dir


@main.command()
@click.argument("file", type=click.Path(exists=True, path_type=Path))
def validate(file):
    """Parse, normalize and size-check an algebra file."""
    algebra = load_algebra(file)
    click.echo(f"dim {algebra.dimension}")
    click.echo(f"paths {len(algebra.path_basis)}")


@main.command(name="enumerate")
@click.argument("file", type=click.Path(exists=True, path_type=Path))
@click.option("--kind", type=click.Choice(["stau", "tau", "tilt"]), default="stau",
              show_default=True)
def enumerate_cmd(file, kind):
    """List modules of the requested kind; the final line carries the count."""
    algebra = load_algebra(file)
    enum = Enumeration(algebra)
    if kind == "stau":
        items = [pair_to_dict(p) for p in enum.pairs]
    elif kind == "tau":
        items = [{"summands": list(m)} for m in enum.tau_tilt()]
    else:
        items = [{"summands": list(m)} for m in enum.tilt()]
    for item in items:
        click.echo(json.dumps(item, sort_keys=True))
    click.echo(f"count {len(items)}")


@main.command(name="hasse")
@click.argument("file", type=click.Path(exists=True, path_type=Path))
@click.option("--dot", "dot_path", type=click.Path(path_type=Path), default=None,
              help="Write the quiver as DOT to this path.")
def hasse_cmd(file, dot_path):
    """Build the left-mutation quiver and report its size."""
    if dot_path is not None:
        check_writable(dot_path)
    algebra = load_algebra(file)
    enum = Enumeration(algebra)
    h = enum.hasse()
    if dot_path is not None:
        write_text_atomic(dot_path, to_dot(hasse_to_dag(h)))
    click.echo(f"vertices {len(h.pairs)} arrows {len(h.arrows)}")


@main.command()
@click.argument("file", type=click.Path(exists=True, path_type=Path))
@click.option("--source", "source_vertex", required=True, help="Source vertex to extend at.")
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
def extend(file, source_vertex, out_path):
    """Write the one-point extension at a source vertex to a new algebra file."""
    algebra = load_algebra(file)
    extended, new_vertex = one_point_extension(algebra, source_vertex)
    write_text_atomic(out_path, serialize_algebra(extended))
    click.echo(f"new vertex {new_vertex}")


@main.command()
@click.argument("file", type=click.Path(exists=True, path_type=Path))
@click.option("--source", "source_vertex", required=True, help="Source vertex to extend at.")
@click.option("--claims", default=",".join(CLAIMS), show_default=True,
              help="Comma-separated claim list.")
@click.option("--report", "report_path", type=click.Path(path_type=Path), default=None,
              help="Report file (default: out-dir/verify_report.json).")
@click.pass_obj
def verify(out_dir, file, source_vertex, claims, report_path):
    """Run the selected claim verifiers on the extension context of FILE."""
    path = report_path or (out_dir / "verify_report.json")
    check_writable(path)
    algebra = load_algebra(file)
    wanted = select_claims(c.strip() for c in claims.split(",") if c.strip())
    ctx = ExtensionContext(algebra, source_vertex)
    # Each verdict is printed when it is reached, so an internal error in a later
    # claim keeps the earlier lines. The report is written after the last claim
    # and before the artifacts, so an unwritable out-dir cannot lose it.
    reports = []
    for rep in run_claims(ctx, wanted):
        reports.append(rep)
        line = f"{rep.claim}: {rep.status}"
        if rep.counts:
            line += " " + json.dumps(rep.counts, sort_keys=True)
        click.echo(line)
        if rep.detail:
            click.echo(f"  {rep.detail}")
    write_text_atomic(path, reports_to_json(reports))
    for rep in reports:
        for name, text in rep.artifacts.items():
            write_text_atomic(out_dir / name, text)
    if any(r.status == "fail" for r in reports):
        sys.exit(EXIT_VERIFY)


@main.command()
@click.option("--nA", "n_a", type=int, default=10, show_default=True)
@click.option("--nD", "n_d", type=int, default=10, show_default=True)
def tables(n_a, n_d):
    """Reproduce both family tables and diff them against the reported values."""
    result = reproduce_tables(n_a, n_d)
    click.echo(result.render(), nl=False)
    warnings = sum(1 for d in result.discrepancies if d.corroborated)
    click.echo(f"warnings {warnings}")
    if result.hard_failures:
        click.echo(f"hard failures {result.hard_failures}", err=True)
        sys.exit(EXIT_VERIFY)


@main.command()
@click.argument("file", type=click.Path(exists=True, path_type=Path))
def catalog(file):
    """Dump the indecomposable catalog with dimension vectors."""
    algebra = load_algebra(file)
    cat = build_catalog(algebra)
    for i, e in enumerate(cat.entries):
        click.echo(f"{i}: dims {list(e.dims)}")
    click.echo(f"count {cat.size}")


if __name__ == "__main__":
    main()
