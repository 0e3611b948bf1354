"""Small shared helpers."""
from __future__ import annotations

import errno
import os
from collections import deque
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterable, Iterator

from .errors import PreconditionError


@contextmanager
def _writing(path: Path) -> Iterator[Path]:
    """The temp file beside `path`, its parent directory made.  The temp file is
    removed afterwards; an OS error becomes a PreconditionError that names `path`."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        yield tmp
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        with suppress(OSError):
            tmp.unlink()


def write_text_atomic(path: Path | str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    path = Path(path)
    with _writing(path) as tmp:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)


def check_writable(path: Path | str) -> None:
    """Raise now the PreconditionError that `write_text_atomic(path, ...)` would
    raise after a long run: make the parent, create and remove the temp file,
    and refuse a directory as the target."""
    path = Path(path)
    with _writing(path) as tmp:
        tmp.write_text("", encoding="utf-8")
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))


def topological_order(n: int, arrows: Iterable[tuple[int, int]]) -> list[int] | None:
    """Kahn order of the vertices 0..n-1, or None when the arrows contain a cycle."""
    adj = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in arrows:
        adj[a].append(b)
        indeg[b] += 1
    queue = deque(i for i in range(n) if indeg[i] == 0)
    order = []
    while queue:
        i = queue.popleft()
        order.append(i)
        for j in adj[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    return order if len(order) == n else None
