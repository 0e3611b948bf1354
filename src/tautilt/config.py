"""Runtime limits and output settings shared by the CLI and the verifiers."""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Config:
    cap_cliques: int = 1_000_000
    cap_catalog: int = 0  # 0 means 10 * n_vertices**2 per algebra
    out_dir: Path = field(default_factory=lambda: Path("."))

    def __post_init__(self):
        if self.cap_cliques <= 0:
            raise ValueError("clique cap must be positive")
        if self.cap_catalog < 0:
            raise ValueError("catalog cap must be non-negative")
        self.out_dir = Path(self.out_dir)
