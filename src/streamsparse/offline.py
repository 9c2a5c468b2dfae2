"""Offline effective-resistance sparsification: the coreset reducer.

Each edge is kept independently with probability min(1, rho * leverage) and
reweighted by 1/p, which keeps the expected Laplacian unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (Graph, _accumulate, _columns, _edge_list,
                    _grounded_inverse_of, _unchecked_graph)
from .rng import UniformByIndex


@dataclass(frozen=True)
class OfflineSampleConfig:
    rho: float
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")


# a leverage this close to 1 is a bridge's (exactly 1) read with rounding
_BRIDGE = 1.0 - 1e-12


def keep_probabilities(g: Graph, rho: float) -> np.ndarray:
    """min(1, rho * leverage(e)) per edge, rho in (0, inf).

    Leverages are read against g's own Laplacian L from one grounded
    inverse of it (graph._grounded_inverse_of: inv(L / s + Q), Q grounding
    each connected component at one root, s the largest weighted degree),
    so no eigendecomposition runs, a disconnected g needs no special case
    (every edge lies inside a component of its own graph) and the
    probabilities do not depend on the unit of weight. A leverage
    against a graph that contains the edge never exceeds 1; one above
    _BRIDGE counts as exactly 1, so a bridge gets p = 1.0 for every
    rho >= 1 and keeps its weight bit for bit.
    """
    if not 0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")
    return _keep_probabilities(g.n, *_columns(g.edges), rho)


def _keep_probabilities(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray,
                        rho: float) -> np.ndarray:
    """keep_probabilities of the graph on n vertices with the edges
    (u[i], v[i], w[i]), for a checked rho."""
    L = _accumulate(np.zeros((n, n)), u, v, w)
    lev = w * _grounded_inverse_of(L).resistance(u, v)
    lev[lev > _BRIDGE] = 1.0
    return np.minimum(1.0, rho * lev)


def er_sparsify(g: Graph, cfg: OfflineSampleConfig) -> Graph:
    """Independent effective-resistance sampling, edge order preserved.

    Decisions are keyed by (seed, edge index), so the output is reproducible
    regardless of iteration strategy. See _er_sample, the array core that
    the merge-and-reduce tower's reductions call.
    """
    return _unchecked_graph(g.n, _edge_list(*_er_sample(
        *_columns(g.edges), keep_probabilities(g, cfg.rho), cfg.seed)))


def _er_sample(u: np.ndarray, v: np.ndarray, w: np.ndarray, p: np.ndarray,
               seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """er_sparsify on columns, given the keep probabilities p: the kept
    edges' columns (u, v, w / p), in order. The edges are taken as checked,
    so only the reweighted weights are checked, as one array."""
    keep = UniformByIndex(seed).uniform_many(np.arange(u.size)) < p
    w = w[keep] / p[keep]
    if not np.all((0 < w) & (w < math.inf)):
        raise ValueError("reweighted weights must be positive and finite")
    return u[keep], v[keep], w
