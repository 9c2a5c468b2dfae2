"""Merge-and-reduce coreset tower and the full streaming pipeline.

The tower is a binary counter of coresets: the level-0 buffer collects raw
items; a full buffer becomes a level-1 block, and whenever two coresets meet
at a level they are merged and reduced (effective-resistance sampling) into
the next level. The union of all levels plus the buffer is a sparsifier of
everything pushed so far.

In the streaming pipeline (StreamSparsifier) the tower's sparsifier is
also the online sampler's scoring sketch, and the sampler appends its kept
edges to it, so nothing outside the tower stays resident. The tower serves
the sampler as a SpectralSketch does: gram, built on the first read after
a merge and stamped by pushes, and one grounded inverse of it that a push
notes its row to, a merging carry marks for a rebuild, and a score catches
up when it reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import (Graph, WeightedEdge, _GroundedInverse, _accumulate,
                    _check_row, _columns, _stamp, _unchecked_graph)
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
        if self.rho is not None and not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")


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
        self._resident = 0          # len(buffer) + sum of level lengths
        self._gram: np.ndarray | None = None   # built on first read after a merge
        self._gram_builds = 0
        self._inverse = _GroundedInverse(n)
        self._inverse.mark_rebuild()           # pushes before a Gram go unnoted

    # -- resident accounting -------------------------------------------

    def resident(self) -> int:
        return self._resident

    def _note_peak(self, extra: int = 0) -> None:
        self.peak_resident = max(self.peak_resident, self._resident + extra)

    # -- scoring sketch and counters -----------------------------------

    @property
    def gram(self) -> np.ndarray:
        """Gram matrix of the current sparsifier's incidence rows: the
        scoring sketch of a StreamSparsifier.

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

    def _grounded_inverse(self) -> _GroundedInverse:
        """The grounded inverse of gram with every push so far taken in: the
        rows stamped since the last read fold in, or, after a merging carry,
        it is rebuilt (see _GroundedInverse.catch_up)."""
        return self._inverse.catch_up(self.gram)

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
        """Add one edge. Unless the push ends in a carry that merged, the
        Gram gains exactly the edge's row; after a merge it is rebuilt on
        its next read. A self-loop, an endpoint outside [0, n) or a weight
        outside (0, inf) raises ValueError before any state changes; the
        tower's coresets and sparsifier are then built unchecked."""
        _check_row(item, self.n)
        self._append(item)

    def _append(self, item: WeightedEdge) -> None:
        """push for an edge its caller has already checked: the online
        sampler's kept edges enter a StreamSparsifier's tower here."""
        u, v, w = item
        self.buffer.append(item)
        self.pushed += 1
        self._resident += 1
        if self._gram is not None:
            _stamp(self._gram, u, v, w)
            self._inverse.note(u, v, w)
        self._note_peak()
        if len(self.buffer) < self.cfg.block_size:
            return
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
            self._gram = None
            self._inverse.mark_rebuild()
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
        if not self.eps > 0:
            raise ValueError("eps must be positive")


@dataclass(frozen=True)
class StreamPipelineConfig:
    online: OnlineConfig = field(default_factory=OnlineConfig)
    tree: TreeConfig = field(default_factory=lambda: TreeConfig(block_size=256))
    m_hint: int | None = None       # expected stream length, for default c


class StreamSparsifier:
    """Online front-end feeding the merge-and-reduce tower: the sampler
    scores each edge against the tower's sparsifier and appends the edges
    it keeps to the tower, so the tower's peak_resident is the pipeline's
    peak count of resident items."""

    def __init__(self, n: int, cfg: StreamPipelineConfig):
        self.n = n
        self.cfg = cfg
        c = cfg.online.c
        if c is None:
            c = default_c(cfg.m_hint or 1024, cfg.online.eps)
        self.tree = MergeReduceTree(n, cfg.tree)
        self.sampler = OnlineSamplerState(n, c, seed=cfg.online.seed,
                                          sketch=self.tree)

    def push(self, e: WeightedEdge) -> None:
        self.sampler.process_edge(e)

    def result(self) -> Graph:
        return self.tree.sparsifier()

    def stats(self) -> dict:
        """The sampler's and the tower's stats(), as a plain dict."""
        return {"sampler": self.sampler.stats(), "tree": self.tree.stats()}


def stream_sparsify(g: Graph, cfg: StreamPipelineConfig) -> Graph:
    if cfg.m_hint is None:
        cfg = replace(cfg, m_hint=g.m)
    pipe = StreamSparsifier(g.n, cfg)
    for e in g.edges:
        pipe.push(e)
    return pipe.result()
