#!/usr/bin/env python3
"""Write a family algebra to a file usable by the tautilt CLI.

Example:
    python scripts/gen_family.py --kind A2 --n 5 --out a5.json
"""
import argparse
from pathlib import Path

from tautilt.algebra import serialize_algebra
from tautilt.cli import _guarded
from tautilt.errors import PreconditionError
from tautilt.families import family
from tautilt.util import write_text_atomic


@_guarded
def main():
    """An out-of-range --n is a usage error (exit 2); any other failure gets the
    CLI's one stderr line and exit code, such as exit 5 for an unwritable --out."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=["A2", "D2"], required=True,
                        help="linear (A2) or fork (D2) radical-square-zero family")
    parser.add_argument("--n", type=int, required=True, help="number of vertices")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    try:
        algebra = family(args.kind, args.n)
    except PreconditionError as exc:
        parser.error(f"argument --n: {exc}")
    write_text_atomic(args.out, serialize_algebra(algebra))
    print(f"wrote {args.out} (dim {algebra.dimension})")


if __name__ == "__main__":
    main()
