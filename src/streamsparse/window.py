"""Sliding-window sparsification over a reversed-stream coreset tower.

New items go to the front of a raw buffer (a deque, so a push is O(1)),
so every stored level reads most recent first. When the buffer fills,
everything below the first empty level is run through the online hyperedge
sampler as one synthetic stream and the result parked at that level.
Because online coresets are valid on every prefix and the stream is
reversed, any suffix window of the original stream can be answered by the
stored items whose original index lies in it: a prefix of the buffer
followed by the levels, lowest first.

A carry runs the fast hyperedge sampler over its items with one
HyperSamplerState.extend, so the runs of items the weighted degrees
certify (kept with p = 1) skip the per-row sampler; stats() counts them.
A push changes the window only once its carry is built, so a carry that
raises leaves the window as it was.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .graph import _check_block_size, _is_integer
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
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")
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
        self.certified = 0

    def stored(self) -> int:
        return len(self.buffer) + sum(len(c) for c in self.levels if c)

    def stats(self) -> dict:
        """Counters of this window, as a plain dict: carries (one per push
        that found the buffer full), carried items the hyperedge sampler
        certified (kept with p = 1 by the weighted-degree rule), items
        stored now, and the number of levels."""
        return {"carries": self.carries, "certified": self.certified,
                "stored": self.stored(), "height": len(self.levels)}

    # -- coreset subroutine --------------------------------------------

    def _coreset(self, items: list[StoredItem]) -> tuple[list[StoredItem], int]:
        """The items the fast hyperedge sampler keeps, reweighted, when run
        over items as one stream (HyperSamplerState.extend), and how many it
        certified."""
        if self.cfg.identity_coreset:
            return list(items), 0
        rho = self.cfg.rho
        if rho is None:
            r = max(it.edge.size for it in items)
            rho = fast_rho(r, len(items), self.cfg.eps)
        rows = sum(it.edge.size * (it.edge.size - 1) // 2 for it in items)
        seed = spawn_seed(self.cfg.seed, self.carries)
        state = HyperSamplerState(self.n, HyperSamplerConfig(
            rho=rho, eps=self.cfg.eps, seed=seed, m_hint=max(rows, 2)))
        decisions = state.extend([it.edge if it.factor == 1.0
                                  else _rescaled(it.edge, it.factor)
                                  for it in items])
        out = [StoredItem(it.edge, it.index, it.factor / d.p)
               for it, d in zip(items, decisions) if d.kept]
        return out, state.stats()["certified"]

    # -- push / query ---------------------------------------------------

    def push(self, item: Hyperedge, t: int | None = None) -> None:
        """Add item at arrival index t (an integer, not a bool; None: the
        next index). A vertex outside [0, n), a bad t or a t not above the
        last one raises ValueError, and a carry that raises leaves the
        window as it was."""
        _check_vertices(item, self.n)
        if t is None:
            t = 0 if self.last_index is None else self.last_index + 1
        elif not _is_integer(t):
            raise ValueError(f"t must be an integer, got {t!r}")
        if self.last_index is not None and t <= self.last_index:
            raise ValueError("stream indices must be strictly increasing")
        t = int(t)
        if len(self.buffer) < self.cfg.block_size:
            self.buffer.appendleft(StoredItem(item, t, 1.0))
            self.last_index = t
            return
        # buffer is full: compact everything below the first empty level
        stream = list(self.buffer)
        lvl = 0
        while lvl < len(self.levels) and self.levels[lvl] is not None:
            stream.extend(self.levels[lvl])
            lvl += 1
        coreset, certified = self._coreset(stream)
        self.levels[:lvl] = [None] * lvl
        if lvl == len(self.levels):
            self.levels.append(None)
        self.levels[lvl] = coreset
        self.carries += 1
        self.certified += certified
        self.buffer = deque([StoredItem(item, t, 1.0)])
        self.last_index = t

    def query(self, window: int) -> Hypergraph:
        """Sparsifier of the last `window` items, in original arrival order.

        The buffer and then the levels, lowest first, hold the items in
        strictly decreasing arrival index, so the scan stops at the first
        item older than the window, and O(window) items are read. An item
        never reweighted is returned as the stored Hyperedge itself.
        """
        if not _is_integer(window) or window < 1:
            raise ValueError(f"window must be an integer >= 1, got {window!r}")
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
