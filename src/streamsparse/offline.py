"""Offline effective-resistance sparsification: the coreset reducer.

Each edge is kept independently with probability min(1, rho * leverage) and
reweighted by 1/p, which keeps the expected Laplacian unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, WeightedEdge, _unchecked_graph, leverages
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
    regardless of iteration strategy. The kept edges come from g, so only
    their reweighted weights w / p are checked, as one array.
    """
    p = keep_probabilities(g, cfg.rho)
    keep = UniformByIndex(cfg.seed).uniform_many(np.arange(g.m)) < p
    kept = [g.edges[i] for i in np.flatnonzero(keep)]
    w = np.fromiter((e.w for e in kept), float, len(kept)) / p[keep]
    if not np.all((0 < w) & (w < math.inf)):
        raise ValueError("reweighted weights must be positive and finite")
    return _unchecked_graph(g.n, [WeightedEdge(e.u, e.v, x)
                                  for e, x in zip(kept, w)])
