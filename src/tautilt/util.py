"""Small shared helpers."""
from __future__ import annotations

import errno
import os
import stat
from contextlib import contextmanager, suppress
from itertools import accumulate, takewhile
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import PreconditionError

if TYPE_CHECKING:
    from array import array


@contextmanager
def _writing(path: Path, keep_dirs: bool = True) -> Iterator[Path]:
    """The temp file beside `path`, its parent directory made.  The temp file is
    removed afterwards, and so are the directories made here when the write fails
    or `keep_dirs` is false.  An OS error becomes a PreconditionError that names
    `path`, as does a target that is a directory, a path with no file name ("."
    or "/"), or an existing target that is not a regular file (a FIFO, a device,
    a symlink): renaming over it would replace it by a regular file."""
    if not path.name or path.is_dir():
        raise PreconditionError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    made: list[Path] = []
    kept = False
    try:
        with suppress(FileNotFoundError, NotADirectoryError):
            if not stat.S_ISREG(path.lstat().st_mode):
                raise PreconditionError(f"cannot write {path}: not a regular file")
        made = list(takewhile(lambda d: not d.exists(), path.parents))  # deepest first
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except FileExistsError:  # the parent exists and is not a directory
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR)) from None
        yield tmp
        kept = keep_dirs
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        with suppress(OSError):
            tmp.unlink()
        if not kept:
            for d in made:
                with suppress(OSError):
                    d.rmdir()


def write_text_atomic(path: Path | str, text: str | Iterable[str]) -> None:
    """Write `text`, or its lines one by one, via a sibling temp file and rename,
    so readers never see a torn file and a line iterator is never held whole."""
    path = Path(path)
    with _writing(path) as tmp:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)


def check_writable(path: Path | str) -> None:
    """Raise now the PreconditionError that `write_text_atomic(path, ...)` would
    raise after a long run: refuse a target that is not a regular file, make the
    parent, and create and remove the temp file and the directories made."""
    with _writing(Path(path), keep_dirs=False) as tmp:
        tmp.write_text("", encoding="utf-8")


def topological_order(n: int,
                      codes: Sequence[int]) -> tuple[list[int] | None, list[int], list[int]]:
    """Kahn order of the vertices 0..n-1, or None when the arrows contain a cycle,
    with the in-degree and out-degree of every vertex.

    An arrow a -> b is the code a * n + b, and the codes are sorted by tail, so
    the arrows out of a are codes[start[a]:start[a + 1]] (compressed sparse
    rows): one pass over the codes counts the degrees, and no vertex holds a list.
    """
    indeg = [0] * n
    outdeg = [0] * n
    for c in codes:
        a, b = divmod(c, n)
        outdeg[a] += 1
        indeg[b] += 1
    # 8 bytes a vertex and no boxed int; a memoryview, as `array` is an extension module.
    start = memoryview(bytearray(8 * (n + 1))).cast("q")
    for i, end in enumerate(accumulate(outdeg), 1):
        start[i] = end
    waiting = indeg.copy()
    order = [i for i, d in enumerate(indeg) if not d]
    for i in order:  # a queue: the loop reaches the vertices appended below
        for c in codes[start[i]:start[i + 1]]:
            j = c % n
            waiting[j] -= 1
            if not waiting[j]:
                order.append(j)
    return (order if len(order) == n else None), indeg, outdeg


def sorted_codes(codes: Iterable[int], bound: int) -> array:
    """The codes, each in range(bound), sorted into one `array('q')`.

    Each code goes, as it comes, into one of 8 `array('q')` buckets, its
    eighth of range(bound).  The buckets are then sorted one at a time and
    each is freed once it is sorted into the result, so only one bucket at a
    time is a list of boxed ints, and no list of every code is built.
    """
    from array import array  # here: `validate` and `catalog` never load the extension module
    buckets = [array("q") for _ in range(8)]
    span = (bound + 7) // 8  # rounded up: c // span < 8
    for c in codes:
        buckets[c // span].append(c)
    out = array("q")
    while buckets:
        out.extend(sorted(buckets.pop(0)))
    return out
