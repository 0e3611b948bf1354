"""Exact support tau-tilting computations for monomial bound quiver algebras."""

__version__ = "0.1.0"
