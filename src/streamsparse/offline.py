"""Offline effective-resistance sparsification: the coreset reducer.

Each edge is kept independently with probability min(1, rho * leverage) and
reweighted by 1/p, which keeps the expected Laplacian unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, WeightedEdge, leverages
from .rng import UniformByIndex


@dataclass(frozen=True)
class OfflineSampleConfig:
    rho: float
    seed: int = 0

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")


def keep_probabilities(g: Graph, rho: float) -> np.ndarray:
    """min(1, rho * leverage(e)) per edge; leverage is per connected
    component (the pseudoinverse handles disconnection transparently)."""
    return np.minimum(1.0, rho * leverages(g))


def er_sparsify(g: Graph, cfg: OfflineSampleConfig) -> Graph:
    """Independent effective-resistance sampling, edge order preserved.

    Decisions are keyed by (seed, edge index), so the output is reproducible
    regardless of iteration strategy.
    """
    p = keep_probabilities(g, cfg.rho)
    keep = UniformByIndex(cfg.seed).uniform_many(np.arange(g.m)) < p
    return Graph(g.n, [WeightedEdge(e.u, e.v, e.w / p[i])
                       for i, e in enumerate(g.edges) if keep[i]])
