import pytest

from tautilt import counting
from tautilt.counting import REPORTED_A, REPORTED_D, STAU_A_INDEX_SHIFT, closed_form
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
FIB_A = {n: fibonacci_like(n, 1, 2) for n in range(1, 41)}        # 1,2,3,5,8,...
PELL_A = {n: pell_like(n, 1, 2) for n in range(1, 41)}            # 1,2,5,12,29,...
FIB_D = {n: fibonacci_like(n - 3, 6, 11) for n in range(4, 41)}   # 6,11,17,28,...
PELL_D = {n: pell_like(n - 3, 32, 78) for n in range(4, 41)}      # 32,78,188,...


def test_closed_form_against_recurrence_oracles():
    """Far past the depth of the tables (n = 10), up to n = 40."""
    for n in range(1, 41):
        assert closed_form("tau_a", n) == FIB_A[n]
        assert closed_form("stau_a", n) == PELL_A[n]
    for n in range(4, 41):
        assert closed_form("tau_d", n) == FIB_D[n]
        assert closed_form("stau_d", n) == PELL_D[n]


def test_closed_form_raises_on_a_remainder(monkeypatch):
    """One power of two too many leaves a remainder on an odd count (tau_a at
    n = 1 is 1): the division raises instead of rounding."""
    first, d, c, exponents = counting._FORMS["tau_a"]
    monkeypatch.setitem(counting._FORMS, "tau_a",
                        (first, d, c, lambda n: (exponents(n)[0], exponents(n)[1] + 1)))
    with pytest.raises(ValueError, match="not exact"):
        closed_form("tau_a", 1)


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
