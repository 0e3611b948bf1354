"""Exact dense linear algebra over the rationals.

Everything downstream (Hom spaces, kernels, the AR translate) reduces to
row reduction of small dense matrices.  An entry is an `int` or a
`fractions.Fraction`, which compare and hash alike; a float or a bool is
refused.  `rref` eliminates on integer rows and builds a Fraction only where
dividing by a pivot leaves a remainder; the reduced row echelon form is
unique, so the route taken does not change it.  Matrices are immutable;
zero-row and zero-column shapes are legal and show up constantly as fibers
over vertices of dimension zero.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

_EXACT = frozenset((int, Fraction))


class QMatrix:
    """An immutable rows x cols matrix of exact rationals (row-major)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Fraction | int]):
        ent = tuple(entries)
        if not _EXACT.issuperset(map(type, ent)):
            raise TypeError("matrix entries must be ints or Fractions")
        if rows < 0 or cols < 0:
            raise ValueError("negative shape")
        if len(ent) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ent)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ent)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]], cols: int) -> "QMatrix":
        """`cols` is the row length, and the width of a matrix with no rows."""
        if any(len(row) != cols for row in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), cols, [e for row in rows for e in row])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "QMatrix":
        return QMatrix(self.cols, self.rows,
                       [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)])

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols}, {self.to_rows()!r})"

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return QMatrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def scale(self, c: Fraction | int) -> "QMatrix":
        return QMatrix(self.rows, self.cols, [c * a for a in self.entries])

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        out = [0] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if a == 0:
                    continue
                obase = k * other.cols
                rbase = i * other.cols
                for j in range(other.cols):
                    b = other.entries[obase + j]
                    if b != 0:
                        out[rbase + j] += a * b
        return QMatrix(self.rows, other.cols, out)

    def apply(self, vec: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(self.entry(i, j) * vec[j] for j in range(self.cols))
                     for i in range(self.rows))


def hstack(mats: Sequence[QMatrix]) -> QMatrix:
    """Concatenate matrices with equal row counts side by side."""
    if not mats:
        return QMatrix(0, 0, ())
    r = mats[0].rows
    if any(m.rows != r for m in mats):
        raise ValueError("row count mismatch")
    rows = [[e for m in mats for e in m.row(i)] for i in range(r)]
    return QMatrix.from_rows(rows, cols=sum(m.cols for m in mats))


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    Each row is cleared of denominators and eliminated as `a*row - b*pivot_row`
    (a, b coprime), then divided by the gcd of its entries; each pivot row is
    divided by its pivot only at the end, into a Fraction where that leaves a remainder.
    """
    if not m.entries:
        return m, ()
    rows = []
    for i in range(m.rows):
        row = m.row(i)
        d = lcm(*[e.denominator for e in row])
        rows.append([e.numerator * (d // e.denominator) for e in row])
    pivots: list[int] = []
    pr = 0
    for pc in range(m.cols):
        ir = next((r for r in range(pr, m.rows) if rows[r][pc]), None)
        if ir is None:
            continue
        rows[pr], rows[ir] = rows[ir], rows[pr]
        prow = rows[pr]
        p = prow[pc]
        for r in range(m.rows):
            f = rows[r][pc]
            if r != pr and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * e - b * q for e, q in zip(rows[r], prow)]
                g = gcd(*row)
                rows[r] = [e // g for e in row] if g > 1 else row
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    out = [Fraction(e, p) if e % p else e // p
           for row, pc in zip(rows, pivots) for p in [row[pc]] for e in row]
    out.extend([0] * ((m.rows - pr) * m.cols))
    return QMatrix(m.rows, m.cols, out), tuple(pivots)


def rank(m: QMatrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: QMatrix) -> list[tuple[Fraction, ...]]:
    """A basis of the null space, one vector per free column: with no rows, the unit vectors."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in (j for j in range(m.cols) if j not in pivot_set):
        v = [0] * m.cols
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red.entry(r, f)
        basis.append(tuple(v))
    return basis


def solve(m: QMatrix, b: Sequence[Fraction | int]) -> tuple[Fraction, ...] | None:
    """One particular solution of m x = b, or None if inconsistent."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    aug = hstack([m, QMatrix(len(b), 1, b)])
    red, pivots = rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [0] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.entry(r, m.cols)
    return tuple(x)


def invert(m: QMatrix) -> QMatrix:
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    red, pivots = rref(hstack([m, QMatrix.identity(n)]))
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return QMatrix(n, n, [red.entry(i, n + j) for i in range(n) for j in range(n)])


def grid_points(nvars: int, bound: int):
    """Deterministic exhaustive grid {0..bound}^nvars, cheap points first.

    A polynomial of degree <= bound in each variable that vanishes on the
    whole grid is identically zero, so scanning it decides non-vanishing.
    """
    seen = set()
    for t in range(1, bound + 2):
        p = tuple(t**k for k in range(nvars))
        if p not in seen:
            seen.add(p)
            yield p
    for p in itertools.product(range(bound + 1), repeat=nvars):
        if p not in seen:
            yield p
