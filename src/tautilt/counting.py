"""Exact quadratic-surd arithmetic, closed counting formulas, reference tables.

Closed forms are evaluated in Z[sqrt(d)] without any floating point; every
division by sqrt(d) or by a power of two must be exact, and a remainder
raises instead of rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError


@dataclass(frozen=True)
class SurdInt:
    """The value a + b*sqrt(d) with integer a, b and a fixed radicand d."""
    a: int
    b: int
    d: int

    def _same(self, other: "SurdInt") -> None:
        if self.d != other.d:
            raise ValueError("mixed radicands")

    def __add__(self, other: "SurdInt") -> "SurdInt":
        self._same(other)
        return SurdInt(self.a + other.a, self.b + other.b, self.d)

    def __sub__(self, other: "SurdInt") -> "SurdInt":
        self._same(other)
        return SurdInt(self.a - other.a, self.b - other.b, self.d)

    def __mul__(self, other: "SurdInt") -> "SurdInt":
        self._same(other)
        return SurdInt(self.a * other.a + self.d * self.b * other.b,
                       self.a * other.b + self.b * other.a, self.d)

    def __neg__(self) -> "SurdInt":
        return SurdInt(-self.a, -self.b, self.d)

    def __pow__(self, k: int) -> "SurdInt":
        if k < 0:
            raise ValueError("negative power")
        result = SurdInt(1, 0, self.d)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> "SurdInt":
        return SurdInt(self.a, -self.b, self.d)

    def div_sqrt(self) -> "SurdInt":
        """Exact division by sqrt(d)."""
        if self.a % self.d:
            raise ValueError("division by the surd is not exact")
        return SurdInt(self.b, self.a // self.d, self.d)

    def div_int(self, k: int) -> "SurdInt":
        if self.a % k or self.b % k:
            raise ValueError(f"division by {k} is not exact")
        return SurdInt(self.a // k, self.b // k, self.d)

    def as_int(self) -> int:
        if self.b:
            raise ValueError("value is irrational")
        return self.a


def closed_form(kind: str, n: int) -> int:
    """Exact closed-form count for one family row at index n."""
    if kind == "tau_a":
        if n < 1:
            raise PreconditionError("tau_a requires n >= 1")
        root = SurdInt(1, 1, 5)
        num = root ** (n + 1) - root.conj() ** (n + 1)
        return num.div_sqrt().div_int(2 ** (n + 1)).as_int()
    if kind == "stau_a":
        if n < 1:
            raise PreconditionError("stau_a requires n >= 1")
        root = SurdInt(1, 1, 2)
        num = root ** n - root.conj() ** n
        return num.div_sqrt().div_int(2).as_int()
    if kind == "tau_d":
        if n < 4:
            raise PreconditionError("tau_d requires n >= 4")
        root = SurdInt(1, 1, 5)
        num = (SurdInt(-1, 2, 5) * root ** (n - 1)
               + SurdInt(1, 2, 5) * root.conj() ** (n - 1))
        return num.div_sqrt().div_int(2 ** (n - 1)).as_int()
    if kind == "stau_d":
        if n < 4:
            raise PreconditionError("stau_d requires n >= 4")
        root = SurdInt(1, 1, 2)
        num = (SurdInt(-1, 3, 2) * root ** (n - 1)
               + SurdInt(1, 3, 2) * root.conj() ** (n - 1))
        return num.div_sqrt().as_int()
    raise PreconditionError(f"unknown closed form kind {kind!r}")


# Index alignment of the closed forms against enumeration: the stau_a formula
# reproduces the enumerated counts only after the shift n -> n + 1; the other
# three match at their printed index.
STAU_A_INDEX_SHIFT = 1


# Previously reported counts, used as the cross-check target for table
# reproduction.  Enumeration is the ground truth; mismatches are reported,
# never patched.
REPORTED_A: dict[int, tuple[int, int]] = {
    1: (1, 2), 2: (2, 5), 3: (3, 12), 4: (5, 29), 5: (8, 70),
    6: (13, 169), 7: (21, 408), 8: (34, 985), 9: (55, 2378), 10: (89, 5741),
}

REPORTED_D: dict[int, tuple[int, int]] = {
    4: (6, 32), 5: (11, 78), 6: (17, 118), 7: (28, 454),
    8: (45, 1026), 9: (73, 2506), 10: (118, 6038),
}
