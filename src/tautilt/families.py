"""Radical-square-zero algebras on the linear and fork-shaped Dynkin quivers."""
from __future__ import annotations

from .algebra import Algebra, Arrow, Quiver, build_algebra
from .errors import PreconditionError


def type_a_square(n: int) -> Algebra:
    """Linear quiver n -> n-1 -> ... -> 1 with every length-2 path forbidden."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    vertices = [str(k) for k in range(1, n + 1)]
    arrows = [Arrow(f"a{k}", str(k + 1), str(k)) for k in range(1, n)]
    relations = [(f"a{k + 1}", f"a{k}") for k in range(1, n - 1)]
    return build_algebra(Quiver(vertices, arrows), relations)


def type_d_square(n: int) -> Algebra:
    """Fork quiver n -> ... -> 3 -> {1, 2} with every length-2 path forbidden."""
    if n < 4:
        raise PreconditionError("n must be at least 4")
    vertices = [str(k) for k in range(1, n + 1)]
    arrows = [Arrow("b1", "3", "1"), Arrow("b2", "3", "2")]
    arrows += [Arrow(f"a{k}", str(k + 1), str(k)) for k in range(3, n)]
    relations = [("a3", "b1"), ("a3", "b2")]
    relations += [(f"a{k + 1}", f"a{k}") for k in range(3, n - 1)]
    return build_algebra(Quiver(vertices, arrows), relations)


def family(kind: str, n: int) -> Algebra:
    """The A2 or D2 algebra on n vertices; `kind` is exactly "A2" or "D2"."""
    if kind == "A2":
        return type_a_square(n)
    if kind == "D2":
        return type_d_square(n)
    raise PreconditionError(f"unknown family kind {kind!r} (expected A2 or D2)")
