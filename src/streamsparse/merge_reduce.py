"""Merge-and-reduce coreset tower and the full streaming pipeline.

The tower is a binary counter of coresets: the level-0 buffer collects raw
items; a full buffer becomes a level-1 block, and whenever two coresets meet
at a level they are merged and reduced (effective-resistance sampling) into
the next level. The union of all levels plus the buffer is a sparsifier of
everything pushed so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import (Graph, WeightedEdge, _accumulate, _columns, _stamp,
                    _unchecked_graph)
from .offline import OfflineSampleConfig, er_sparsify
from .online import OnlineSamplerState, default_c
from .rng import spawn_seed


@dataclass(frozen=True)
class TreeConfig:
    block_size: int
    seed: int = 0
    rho: float | None = None      # None -> block_size / n per merge
    identity_reducer: bool = False

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.rho is not None and self.rho <= 0:
            raise ValueError("rho must be positive")


def eps_per_level(eps: float, height: int) -> float:
    """Per-level accuracy so that (1 + eps') ** height <= 1 + eps."""
    if height <= 1:
        return eps
    return math.expm1(math.log1p(eps) / height)


class MergeReduceTree:
    """Logarithmic tower of coresets over a stream of weighted edges."""

    def __init__(self, n: int, cfg: TreeConfig):
        self.n = n
        self.cfg = cfg
        self.buffer: list[WeightedEdge] = []
        self.levels: list[list[WeightedEdge] | None] = []
        self.pushed = 0
        self.merges = 0
        self.carries = 0
        self.peak_resident = 0
        # bumped on every gram change (for sketch users): each push, and each
        # carry that merged; last_delta is set when the change was one push
        self.version = 0
        self.last_delta: WeightedEdge | None = None
        self._resident = 0          # len(buffer) + sum of level lengths
        self._gram: np.ndarray | None = None   # built on first read after a merge
        self._gram_builds = 0

    # -- resident accounting -------------------------------------------

    def resident(self) -> int:
        return self._resident

    def _note_peak(self, extra: int = 0) -> None:
        self.peak_resident = max(self.peak_resident, self._resident + extra)

    # -- sketch provider interface -------------------------------------

    def gram(self) -> np.ndarray:
        """Gram matrix of the current sparsifier's incidence rows.

        Built from the resident items on the first read after a carry that
        merged; pushes then stamp into it. A carry that only parks the block
        at an empty level 0 keeps the items and their _iter_items order, so
        it keeps the Gram too. _accumulate adds in _iter_items order, the
        order the stamps arrive in, so the bits do not depend on when it is
        read."""
        if self._gram is None:
            self._gram = _accumulate(np.zeros((self.n, self.n)),
                                     *_columns(list(self._iter_items())))
            self._gram_builds += 1
        return self._gram

    def stats(self) -> dict:
        """Counters of this tower, as a plain dict: items pushed, carries
        (one per full buffer), merges, items resident now and at peak, and
        Gram builds."""
        return {"pushed": self.pushed, "carries": self.carries,
                "merges": self.merges,
                "resident": self._resident,
                "peak_resident": self.peak_resident,
                "gram_builds": self._gram_builds}

    # -- tower mechanics -----------------------------------------------

    def _reduce(self, items: list[WeightedEdge]) -> list[WeightedEdge]:
        if self.cfg.identity_reducer:
            return items
        rho = self.cfg.rho if self.cfg.rho is not None else self.cfg.block_size / self.n
        seed = spawn_seed(self.cfg.seed, self.merges)
        self.merges += 1
        return er_sparsify(_unchecked_graph(self.n, items),
                           OfflineSampleConfig(rho, seed)).edges

    def push(self, item: WeightedEdge) -> None:
        """Add one edge. A self-loop, an endpoint outside [0, n) or a weight
        outside (0, inf) raises ValueError before any state changes; the
        tower's coresets and sparsifier are then built unchecked."""
        u, v, w = item
        if not (0 <= u < self.n and 0 <= v < self.n and u != v
                and 0 < w < math.inf):
            raise ValueError(f"bad edge {item} for n={self.n}")
        self.buffer.append(item)
        self.pushed += 1
        self._resident += 1
        if self._gram is not None:
            _stamp(self._gram, u, v, w)
        self.version += 1
        self.last_delta = item
        self._note_peak()
        if len(self.buffer) >= self.cfg.block_size:
            block = self.buffer
            self.buffer = []
            self._resident -= len(block)
            self._carry(block)

    def _carry(self, coreset: list[WeightedEdge]) -> None:
        # the block in hand and the level being merged are not resident
        self.carries += 1
        lvl = 0
        while True:
            if lvl >= len(self.levels):
                self.levels.append(None)
            if self.levels[lvl] is None:
                self.levels[lvl] = coreset
                self._resident += len(coreset)
                break
            merged = self.levels[lvl] + coreset
            self._resident -= len(self.levels[lvl])
            self.levels[lvl] = None
            self._note_peak(extra=len(merged) - len(coreset))
            coreset = self._reduce(merged)
            lvl += 1
        if lvl:
            # a carry that parks the block at level 0 leaves the items and
            # their order as they were: not a sketch change
            self.version += 1
            self.last_delta = None
            self._gram = None
        self._note_peak()

    def _iter_items(self):
        for c in reversed(self.levels):
            if c:
                yield from c
        yield from self.buffer

    def sparsifier(self) -> Graph:
        """Union of all level coresets and the buffer (oldest levels first)."""
        return _unchecked_graph(self.n, list(self._iter_items()))

    @property
    def height(self) -> int:
        return len(self.levels)


def mr_sparsify(g: Graph, cfg: TreeConfig) -> tuple[Graph, MergeReduceTree]:
    """Run the tower over a whole edge list."""
    tree = MergeReduceTree(g.n, cfg)
    for e in g.edges:
        tree.push(e)
    return tree.sparsifier(), tree


# -- full streaming pipeline -------------------------------------------


@dataclass(frozen=True)
class OnlineConfig:
    c: float | None = None        # None -> default_c(m_hint, eps)
    eps: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")


@dataclass(frozen=True)
class StreamPipelineConfig:
    online: OnlineConfig = field(default_factory=OnlineConfig)
    tree: TreeConfig = field(default_factory=lambda: TreeConfig(block_size=256))
    use_tree_sketch: bool = False   # working-memory mode: tree output = sketch
    m_hint: int | None = None       # expected stream length, for default c


class StreamSparsifier:
    """Online front-end feeding the merge-and-reduce tower."""

    def __init__(self, n: int, cfg: StreamPipelineConfig):
        self.n = n
        self.cfg = cfg
        c = cfg.online.c
        if c is None:
            c = default_c(cfg.m_hint or 1024, cfg.online.eps)
        self.tree = MergeReduceTree(n, cfg.tree)
        provider = self.tree if cfg.use_tree_sketch else None
        self.sampler = OnlineSamplerState(
            n, c, seed=cfg.online.seed, eps=cfg.online.eps, provider=provider)
        self.max_resident = 0

    def push(self, e: WeightedEdge) -> None:
        kept, reweighted = self.sampler.process_edge(e)
        if kept:
            self.tree.push(reweighted)
        resident = self.tree.resident()
        if not self.cfg.use_tree_sketch:
            resident += len(self.sampler.sketch)
        self.max_resident = max(self.max_resident, resident,
                                self.tree.peak_resident)

    def result(self) -> Graph:
        return self.tree.sparsifier()

    def stats(self) -> dict:
        """The sampler's and the tower's stats() and the peak count of
        resident items, as a plain dict."""
        return {"sampler": self.sampler.stats(), "tree": self.tree.stats(),
                "max_resident": self.max_resident}


def stream_sparsify(g: Graph, cfg: StreamPipelineConfig) -> Graph:
    if cfg.m_hint is None:
        cfg = replace(cfg, m_hint=g.m)
    pipe = StreamSparsifier(g.n, cfg)
    for e in g.edges:
        pipe.push(e)
    return pipe.result()
