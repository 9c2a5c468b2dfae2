"""Global min-cut: Stoer-Wagner and the streaming pipeline.

The streaming path is "sparsify, then Stoer-Wagner": it sparsifies the edge
stream to (1 + eps) spectral accuracy (cut values are quadratic forms on 0/1
indicators, so every cut inherits the bound), then returns the exact min cut
of the sparsifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _accumulate, _columns
from .merge_reduce import (OnlineConfig, StreamPipelineConfig, TreeConfig,
                           eps_per_level, stream_sparsify)
from .online import default_c

_BLOCK_SIZE = 256        # block size of the streaming pipeline's tower


@dataclass(frozen=True)
class Cut:
    side: frozenset[int]
    value: float


@dataclass(frozen=True)
class MinCutPipelineConfig:
    eps: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValueError("eps must be in (0, 1)")


def cut_value(g: Graph, side) -> float:
    s = frozenset(side)
    return float(sum(e.w for e in g.edges if (e.u in s) != (e.v in s)))


def stoer_wagner(g: Graph) -> Cut:
    """Deterministic global min cut by repeated maximum-adjacency phases."""
    n = g.n
    # adjacency = negated off-diagonal of the Laplacian (negation is exact)
    W = -_accumulate(np.zeros((n, n)), *_columns(g.edges))
    np.fill_diagonal(W, 0.0)
    groups = [[i] for i in range(n)]     # groups[i]: original vertices merged into i
    active = list(range(n))
    best_value = math.inf
    best_side: frozenset[int] = frozenset()
    while len(active) > 1:
        # maximum-adjacency ordering of the active (merged) vertices
        order = [active[0]]
        conn = {v: W[active[0], v] for v in active[1:]}
        while conn:
            nxt = max(conn, key=conn.get)
            order.append(nxt)
            del conn[nxt]
            for v in conn:
                conn[v] += W[nxt, v]
        s, t = order[-2], order[-1]
        phase_value = float(sum(W[t, v] for v in active if v != t))
        if phase_value < best_value:
            best_value = phase_value
            best_side = frozenset(groups[t])
        # merge t into s
        for v in active:
            if v not in (s, t):
                W[s, v] += W[t, v]
                W[v, s] = W[s, v]
        groups[s] = groups[s] + groups[t]
        active.remove(t)
    return Cut(best_side, best_value)


def _default_stream_config(cfg: MinCutPipelineConfig,
                           m: int) -> StreamPipelineConfig:
    """Split the error budget evenly between the online front-end and the
    tower, then spread the tower's share across its expected height."""
    part = math.sqrt(1.0 + cfg.eps) - 1.0
    height = max(1, math.ceil(math.log2(max(m / _BLOCK_SIZE, 1))) + 1)
    eps_lvl = eps_per_level(part, height)
    return StreamPipelineConfig(
        online=OnlineConfig(eps=part, seed=cfg.seed),
        tree=TreeConfig(block_size=_BLOCK_SIZE, seed=cfg.seed,
                        rho=default_c(m, eps_lvl)),
        m_hint=m)


def stream_mincut(g: Graph, cfg: MinCutPipelineConfig = MinCutPipelineConfig()) -> float:
    """(1 + eps)-approximate global min cut of a streamed edge list: the
    exact min cut of its streaming sparsifier."""
    return stoer_wagner(stream_sparsify(
        g, _default_stream_config(cfg, g.m))).value
