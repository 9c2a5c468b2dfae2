"""Sliding-window sparsification over a reversed-stream coreset tower.

New items go to the front of a raw buffer (a deque, so a push is O(1)),
so every stored level reads most recent first. When the buffer fills,
everything below the first empty level is run through the online hyperedge
sampler as one synthetic stream and the result parked at that level.
Because online coresets are valid on every prefix and the stream is
reversed, any suffix window of the original stream can be answered by the
stored items whose original index lies in it: a prefix of the buffer
followed by the levels, lowest first.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .graph import _check_block_size
from .hypergraph import (Hyperedge, Hypergraph, HyperSamplerConfig,
                         HyperSamplerState, _check_vertices, _rescaled,
                         fast_rho)
from .rng import spawn_seed


class StoredItem(NamedTuple):
    edge: Hyperedge       # original weight, never mutated
    index: int            # arrival index in the outer stream
    factor: float         # accumulated 1/p reweighting


@dataclass(frozen=True)
class SlidingWindowConfig:
    block_size: int                  # M: raw buffer capacity
    eps: float = 0.5
    seed: int = 0
    rho: float | None = None         # None -> fast-variant default per carry
    identity_coreset: bool = False   # keep everything (exact mode, for tests)

    def __post_init__(self):
        _check_block_size(self.block_size)
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.rho is not None and not self.rho > 0:
            raise ValueError("rho must be positive")


class SlidingWindowState:
    """Single-owner sequential state; queries are read-only."""

    def __init__(self, n: int, cfg: SlidingWindowConfig):
        self.n = n
        self.cfg = cfg
        self.buffer: deque[StoredItem] = deque()     # reverse arrival order
        self.levels: list[list[StoredItem] | None] = []
        self.last_index: int | None = None
        self.carries = 0

    def stored(self) -> int:
        return len(self.buffer) + sum(len(c) for c in self.levels if c)

    def stats(self) -> dict:
        """Counters of this window, as a plain dict: carries (one per push
        that found the buffer full), items stored now, and the number of
        levels."""
        return {"carries": self.carries, "stored": self.stored(),
                "height": len(self.levels)}

    # -- coreset subroutine --------------------------------------------

    def _coreset(self, items: list[StoredItem]) -> list[StoredItem]:
        if self.cfg.identity_coreset:
            return list(items)
        rho = self.cfg.rho
        if rho is None:
            r = max(it.edge.size for it in items)
            rho = fast_rho(r, len(items), self.cfg.eps)
        rows = sum(it.edge.size * (it.edge.size - 1) // 2 for it in items)
        seed = spawn_seed(self.cfg.seed, self.carries)
        state = HyperSamplerState(self.n, HyperSamplerConfig(
            rho=rho, eps=self.cfg.eps, seed=seed, m_hint=max(rows, 2)))
        out: list[StoredItem] = []
        for it in items:
            decision = state.step(_rescaled(it.edge, it.factor))
            if decision.kept:
                out.append(StoredItem(it.edge, it.index,
                                      it.factor / decision.p))
        return out

    # -- push / query ---------------------------------------------------

    def push(self, item: Hyperedge, t: int | None = None) -> None:
        _check_vertices(item, self.n)
        if t is None:
            t = 0 if self.last_index is None else self.last_index + 1
        if self.last_index is not None and t <= self.last_index:
            raise ValueError("stream indices must be strictly increasing")
        self.last_index = t
        if len(self.buffer) < self.cfg.block_size:
            self.buffer.appendleft(StoredItem(item, t, 1.0))
            return
        # buffer is full: compact everything below the first empty level
        stream = list(self.buffer)
        lvl = 0
        while lvl < len(self.levels) and self.levels[lvl] is not None:
            stream.extend(self.levels[lvl])
            self.levels[lvl] = None
            lvl += 1
        if lvl >= len(self.levels):
            self.levels.append(None)
        self.levels[lvl] = self._coreset(stream)
        self.carries += 1
        self.buffer = deque([StoredItem(item, t, 1.0)])

    def query(self, window: int) -> Hypergraph:
        """Sparsifier of the last `window` items, in original arrival order.

        The buffer and then the levels, lowest first, hold the items in
        strictly decreasing arrival index, so the scan stops at the first
        item older than the window, and O(window) items are read. An item
        never reweighted is returned as the stored Hyperedge itself.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        low = -math.inf
        if self.last_index is not None:
            low = self.last_index - window + 1
        edges = []
        for it in itertools.chain(self.buffer, *filter(None, self.levels)):
            if it.index < low:
                break
            edges.append(it.edge if it.factor == 1.0
                         else _rescaled(it.edge, it.factor))
        edges.reverse()
        out = Hypergraph(self.n)
        out.hyperedges = edges
        return out


def sw_push(state: SlidingWindowState, item: Hyperedge,
            t: int | None = None) -> None:
    state.push(item, t)


def sw_query(state: SlidingWindowState, window: int) -> Hypergraph:
    return state.query(window)
