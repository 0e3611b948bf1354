import pytest

from tautilt.algebra import Arrow, Quiver, build_algebra
from tautilt.catalog import build_catalog
from tautilt.families import type_a_square, type_d_square

# Report the oracle comparisons with pytest's expanded assertion messages.
pytest.register_assert_rewrite("oracles")


@pytest.fixture(scope="session")
def a2():
    """Path algebra of 2 -> 1."""
    return type_a_square(2)


@pytest.fixture(scope="session")
def lambda3():
    """3 -> 2 -> 1 with the length-2 path forbidden."""
    return type_a_square(3)


@pytest.fixture(scope="session")
def single_vertex():
    return build_algebra(Quiver(["1"], []))


@pytest.fixture(scope="session")
def example_base():
    """The hereditary fork 3 <- 2 -> 4."""
    return build_algebra(Quiver(["2", "3", "4"],
                                [Arrow("b", "2", "3"), Arrow("c", "2", "4")]))


@pytest.fixture(scope="session")
def example_b():
    """1 -> 2 -> {3, 4} with both length-2 paths forbidden."""
    return build_algebra(
        Quiver(["1", "2", "3", "4"],
               [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "2", "4")]),
        [("a", "b"), ("a", "c")])


@pytest.fixture(scope="session")
def d4():
    return type_d_square(4)


@pytest.fixture(scope="session")
def cat_a2(a2):
    return build_catalog(a2)


@pytest.fixture(scope="session")
def cat_lambda3(lambda3):
    return build_catalog(lambda3)


@pytest.fixture(scope="session")
def cat_example_b(example_b):
    return build_catalog(example_b)


@pytest.fixture(scope="session")
def cat_d4(d4):
    return build_catalog(d4)


@pytest.fixture(scope="session")
def hereditary_d():
    """Builder of the path algebra of n -> n-1 -> ... -> 3 -> {1, 2}, no relations."""
    def build(n):
        arrows = [Arrow("b1", "3", "1"), Arrow("b2", "3", "2")]
        arrows += [Arrow(f"a{k}", str(k + 1), str(k)) for k in range(3, n)]
        return build_algebra(Quiver([str(k) for k in range(1, n + 1)], arrows))
    return build
