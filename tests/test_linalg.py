from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import rref_fraction
from tautilt.linalg import QMatrix, hstack, invert, kernel_basis, rank, rref, solve


def mat(rows):
    return QMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)


def canonical(e):
    """An integral value is an int; a Fraction only where it is not integral."""
    return type(e) is int or (type(e) is Fraction and e.denominator != 1)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1", None])
def test_matrix_rejects_inexact_entries(bad):
    with pytest.raises(TypeError, match="ints or Fractions"):
        QMatrix(2, 1, [Fraction(1, 2), bad])


def test_rref_identity():
    m = QMatrix.identity(2)
    red, pivots = rref(m)
    assert red == m
    assert pivots == (0, 1)


def test_rref_rank_one():
    red, pivots = rref(mat([[1, 2], [2, 4]]))
    assert red == mat([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_empty():
    m = QMatrix(0, 3, ())
    red, pivots = rref(m)
    assert red == m
    assert pivots == ()


def test_kernel_of_identity_is_empty():
    assert kernel_basis(QMatrix.identity(4)) == []


def test_kernel_of_zero_is_everything():
    k = kernel_basis(QMatrix.zeros(3, 3))
    assert len(k) == 3 and all(len(v) == 3 for v in k)
    assert rank(QMatrix.from_rows(k, cols=3)) == 3


def test_kernel_one_relation():
    k = kernel_basis(mat([[1, 1]]))
    assert len(k) == 1
    v = k[0]
    assert v[0] == -v[1] != 0


@pytest.mark.parametrize("n", [0, 1, 3])
def test_kernel_without_rows_is_the_unit_vectors(n):
    assert kernel_basis(QMatrix(0, n, ())) == [tuple(int(i == j) for i in range(n))
                                               for j in range(n)]


def test_solve_identity():
    assert solve(QMatrix.identity(3), [1, 2, 3]) == (1, 2, 3)


def test_solve_underdetermined():
    x = solve(mat([[1, 1]]), [2])
    assert x is not None and x[0] + x[1] == 2


def test_solve_inconsistent():
    assert solve(mat([[0]]), [1]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(mat([[1, 2]]), [1, 2])


def test_invert_round_trip():
    m = mat([[1, 2], [3, 5]])
    assert m * invert(m) == QMatrix.identity(2)


small_fraction = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def matrices(draw, max_dim=4):
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    entries = draw(st.lists(small_fraction, min_size=r * c, max_size=r * c))
    return QMatrix(r, c, entries)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    red, _ = rref(m)
    assert rref(red)[0] == red


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_columns_are_annihilated(m):
    for v in kernel_basis(m):
        assert all(e == 0 for e in m.apply(v))


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_is_exact_on_solvable_systems(m, data):
    x = data.draw(st.lists(small_fraction, min_size=m.cols, max_size=m.cols))
    b = m.apply(x)
    got = solve(m, b)
    assert got is not None
    assert m.apply(got) == b


def test_stack_helpers():
    a = mat([[1, 2]])
    b = mat([[3, 4]])
    assert hstack([a, b]) == mat([[1, 2, 3, 4]])


wide_fraction = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)


@st.composite
def oracle_matrices(draw, max_dim=5):
    """Any shape from 0x0 up; some rows zero, some rows combinations of earlier ones."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    rows = []
    for _ in range(r):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero":
            rows.append([Fraction(0)] * c)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(wide_fraction, min_size=len(rows), max_size=len(rows)))
            rows.append([sum((k * row[j] for k, row in zip(coeffs, rows)), Fraction(0))
                         for j in range(c)])
        else:
            rows.append(draw(st.lists(wide_fraction, min_size=c, max_size=c)))
    return QMatrix(r, c, [e for row in rows for e in row])


@given(oracle_matrices())
@settings(max_examples=300, deadline=None)
@example(QMatrix(0, 0, ()))
@example(QMatrix(0, 3, ()))
@example(QMatrix(3, 0, ()))
@example(QMatrix.zeros(3, 4))
@example(mat([[0, -2, 4], [0, 0, 0], [0, 1, -2]]))
@example(mat([[Fraction(1, 10**6), Fraction(-999_999, 7)], [Fraction(-3, 999_983), 5]]))
def test_rref_matches_fraction_oracle(m):
    red, pivots = rref(m)
    assert (red, pivots) == rref_fraction(m)
    assert all(canonical(e) for e in red.entries)


@st.composite
def integer_matrices(draw, max_dim=5):
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    return draw(st.lists(st.lists(st.integers(-6, 6), min_size=c, max_size=c),
                         min_size=r, max_size=r)), c


@given(integer_matrices())
@settings(max_examples=200, deadline=None)
@example(([[2, 4, 1], [4, 8, 3]], 3))
@example(([[0, 3], [6, 0]], 2))
def test_rref_on_integers_matches_the_fraction_oracle(drawn):
    rows, c = drawn
    red, pivots = rref(QMatrix.from_rows(rows, cols=c))
    assert (red, pivots) == rref_fraction(
        QMatrix.from_rows([[Fraction(e) for e in row] for row in rows], cols=c))
    assert all(canonical(e) for e in red.entries)


@st.composite
def invertible_matrices(draw, max_dim=4):
    """P * L * U with P a permutation, L unit lower and U upper triangular with nonzero
    diagonal."""
    n = draw(st.integers(1, max_dim))
    perm = draw(st.permutations(range(n)))
    diag = draw(st.lists(wide_fraction.filter(bool), min_size=n, max_size=n))
    off = draw(st.lists(wide_fraction, min_size=n * n, max_size=n * n))
    lower = QMatrix(n, n, [1 if i == j else off[i * n + j] if j < i else 0
                           for i in range(n) for j in range(n)])
    upper = QMatrix(n, n, [diag[i] if i == j else off[i * n + j] if j > i else 0
                           for i in range(n) for j in range(n)])
    p = QMatrix(n, n, [1 if perm[i] == j else 0 for i in range(n) for j in range(n)])
    return p * lower * upper


@given(invertible_matrices())
@settings(max_examples=100, deadline=None)
def test_rank_and_invert_match_fraction_oracle(m):
    # `iso` calls a square block singular iff its rank falls short of its size
    n = m.rows
    assert rank(m) == n
    assert rank(QMatrix(n, n, m.entries[:-n] + m.entries[:n])) == max(n - 1, 1)
    red, pivots = rref_fraction(hstack([m, QMatrix.identity(n)]))
    assert pivots == tuple(range(n))
    inv = invert(m)
    assert inv == QMatrix(n, n, [red.entry(i, n + j) for i in range(n) for j in range(n)])
    assert m * inv == QMatrix.identity(n)
