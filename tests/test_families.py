import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautilt.counting import REPORTED_A, REPORTED_D, STAU_A_INDEX_SHIFT, SurdInt, closed_form
from tautilt.errors import PreconditionError
from tautilt.families import family


def test_linear_generator_matches_presentation(lambda3):
    a = family("A2", 3)
    assert a == lambda3
    assert a.dimension == 5
    assert a.relations == (("a2", "a1"),)


def test_fork_generator():
    d = family("D2", 4)
    assert d.quiver.vertices == ("1", "2", "3", "4")
    assert {(ar.source, ar.target) for ar in d.quiver.arrows} == {("3", "1"), ("3", "2"), ("4", "3")}
    assert set(d.relations) == {("a3", "b1"), ("a3", "b2")}
    assert d.dimension == 7


def test_family_range_checks():
    with pytest.raises(PreconditionError):
        family("A2", 0)
    with pytest.raises(PreconditionError):
        family("D2", 3)
    with pytest.raises(PreconditionError):
        family("E8", 8)


surd_pairs = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


@given(surd_pairs, surd_pairs, surd_pairs, st.sampled_from([2, 5]))
@settings(max_examples=80, deadline=None)
def test_surd_ring_axioms(p, q, r, d):
    x, y, z = (SurdInt(a, b, d) for a, b in (p, q, r))
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x + (-x) == SurdInt(0, 0, d)


@given(surd_pairs, st.sampled_from([2, 5]))
@settings(max_examples=80, deadline=None)
def test_conjugate_norm_is_rational(p, d):
    x = SurdInt(p[0], p[1], d)
    norm = x * x.conj()
    assert norm.b == 0
    assert norm.a == p[0] ** 2 - d * p[1] ** 2


def test_surd_division_errors():
    with pytest.raises(ValueError):
        SurdInt(1, 1, 2).div_sqrt()
    with pytest.raises(ValueError):
        SurdInt(3, 0, 2).div_int(2)
    with pytest.raises(ValueError):
        SurdInt(0, 1, 2).as_int()


def fibonacci_like(n, first, second):
    """x_k = x_{k-1} + x_{k-2} seeded with (first, second) at k = 1, 2."""
    if n == 1:
        return first
    a, b = first, second
    for _ in range(n - 2):
        a, b = b, a + b
    return b


def pell_like(n, first, second):
    """x_k = 2 x_{k-1} + x_{k-2} seeded with (first, second) at k = 1, 2."""
    if n == 1:
        return first
    a, b = first, second
    for _ in range(n - 2):
        a, b = b, a + 2 * b
    return b


# Independent oracles: the two-step recurrences with the hand-checked seeds.
FIB_A = {n: fibonacci_like(n, 1, 2) for n in range(1, 13)}        # 1,2,3,5,8,...
PELL_A = {n: pell_like(n, 1, 2) for n in range(1, 13)}            # 1,2,5,12,29,...
FIB_D = {n: fibonacci_like(n - 3, 6, 11) for n in range(4, 13)}   # 6,11,17,28,...
PELL_D = {n: pell_like(n - 3, 32, 78) for n in range(4, 13)}      # 32,78,188,...


def test_closed_form_against_recurrence_oracles():
    for n in range(1, 12):
        assert closed_form("tau_a", n) == FIB_A[n]
        assert closed_form("stau_a", n) == PELL_A[n]
    for n in range(4, 12):
        assert closed_form("tau_d", n) == FIB_D[n]
        assert closed_form("stau_d", n) == PELL_D[n]


def test_closed_form_spot_values():
    assert closed_form("tau_a", 4) == 5
    assert closed_form("tau_d", 4) == 6
    assert closed_form("stau_d", 5) == 78
    assert closed_form("stau_a", 2) == 2  # the printed index lags the table by one
    with pytest.raises(PreconditionError):
        closed_form("tau_a", 0)
    with pytest.raises(PreconditionError):
        closed_form("stau_d", 3)
    with pytest.raises(PreconditionError):
        closed_form("nonsense", 3)


def test_stau_a_shift_matches_reported_table():
    for n, (_, stau) in REPORTED_A.items():
        assert closed_form("stau_a", n + STAU_A_INDEX_SHIFT) == stau


def test_closed_forms_satisfy_their_recurrences_symbolically():
    for n in range(3, 13):
        assert closed_form("tau_a", n) == closed_form("tau_a", n - 1) + closed_form("tau_a", n - 2)
        assert closed_form("stau_a", n) == 2 * closed_form("stau_a", n - 1) + closed_form("stau_a", n - 2)
    for n in range(6, 16):
        assert closed_form("tau_d", n) == closed_form("tau_d", n - 1) + closed_form("tau_d", n - 2)
        assert closed_form("stau_d", n) == 2 * closed_form("stau_d", n - 1) + closed_form("stau_d", n - 2)


def test_reported_tables_shape():
    assert set(REPORTED_A) == set(range(1, 11))
    assert set(REPORTED_D) == set(range(4, 11))
