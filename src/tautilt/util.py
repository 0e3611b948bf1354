"""Small shared helpers."""
from __future__ import annotations

import os
from collections import deque
from contextlib import suppress
from pathlib import Path
from typing import Iterable

from .errors import PreconditionError


def write_text_atomic(path: Path | str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file.
    On any failure the temp file is removed; an OS error becomes a
    PreconditionError that names `path`."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        with suppress(OSError):
            tmp.unlink()


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
