"""The atomic writer, the Kahn sort over arrow codes and the bucketed sort."""
import random

import pytest

from tautilt.errors import PreconditionError
from tautilt.util import check_writable, sorted_codes, topological_order, write_text_atomic


def lines_then_failure(count):
    for k in range(count):
        yield f"line {k}\n"
    raise RuntimeError("the line source failed")


def test_a_line_iterator_is_written_line_by_line(tmp_path):
    out = tmp_path / "sub" / "out.txt"
    write_text_atomic(out, (f"line {k}\n" for k in range(3)))
    assert out.read_text() == "line 0\nline 1\nline 2\n"
    write_text_atomic(out, "one string")
    assert out.read_text() == "one string"


def test_a_stream_that_fails_partway_leaves_no_file_and_no_directory(tmp_path):
    out = tmp_path / "new" / "deeper" / "out.txt"
    with pytest.raises(RuntimeError, match="the line source failed"):
        write_text_atomic(out, lines_then_failure(1000))
    assert list(tmp_path.iterdir()) == []


def test_a_stream_that_fails_partway_keeps_the_old_target(tmp_path):
    out = tmp_path / "out.txt"
    out.write_bytes(b"old bytes\n")
    with pytest.raises(RuntimeError, match="the line source failed"):
        write_text_atomic(out, lines_then_failure(1000))
    assert out.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_check_writable_leaves_nothing_behind(tmp_path):
    check_writable(tmp_path / "new" / "out.txt")
    assert list(tmp_path.iterdir()) == []


def test_check_writable_refuses_a_symlink(tmp_path):
    (tmp_path / "named").write_text("old")
    (tmp_path / "link").symlink_to(tmp_path / "named")
    with pytest.raises(PreconditionError, match="not a regular file$"):
        check_writable(tmp_path / "link")
    assert (tmp_path / "link").is_symlink() and (tmp_path / "named").read_text() == "old"


def test_topological_order_reads_the_degrees_off_sorted_codes():
    # 0 -> 1, 0 -> 2, 2 -> 1, 3 isolated: codes a * 4 + b
    codes = [0 * 4 + 1, 0 * 4 + 2, 2 * 4 + 1]
    order, indeg, outdeg = topological_order(4, codes)
    assert order == [0, 3, 2, 1]
    assert indeg == [0, 2, 1, 0] and outdeg == [2, 0, 1, 0]


def test_topological_order_finds_a_cycle():
    # 0 -> 1 -> 2 -> 1
    order, indeg, outdeg = topological_order(3, [0 * 3 + 1, 1 * 3 + 2, 2 * 3 + 1])
    assert order is None
    assert indeg == [0, 2, 1] and outdeg == [1, 1, 1]


def test_topological_order_of_no_vertices():
    assert topological_order(0, []) == ([], [], [])


@pytest.mark.parametrize("codes,bound", [
    ([], 0),
    ([], 5),
    ([2, 0, 1, 2], 3),
    ([6, 0, 6, 3, 5], 7),
    ([99, 0, 50, 99, 0, 12], 100),
])
def test_sorted_codes_is_sorted(codes, bound):
    """Empty input, a bound below 8 (empty buckets), codes at 0 and at
    bound - 1 (the first and last buckets) and repeated codes."""
    out = sorted_codes(codes, bound)
    assert out.typecode == "q"
    assert list(out) == sorted(codes)


@pytest.mark.parametrize("seed", range(5))
def test_sorted_codes_matches_sorted_on_random_codes(seed):
    rng = random.Random(seed)
    bound = rng.randint(1, 10 ** rng.randint(1, 12))
    codes = [rng.randrange(bound) for _ in range(rng.randint(0, 3000))]
    assert list(sorted_codes(iter(codes), bound)) == sorted(codes)
