"""Merge-and-reduce coreset tower and the full streaming pipeline.

The tower is a binary counter of coresets: the level-0 buffer collects raw
items; a full buffer becomes a level-1 block, and whenever two coresets meet
at a level they are merged and reduced (effective-resistance sampling) into
the next level. The union of all levels plus the buffer is a sparsifier of
everything pushed so far.

The buffer is a list of edges, since pushes arrive one at a time; every
level is held as (u, v, w) columns, in the order its items arrived, and a
reduction (offline._er_sample) takes and returns columns. extend takes a
whole stream as columns: a carry comes every block_size pushes whatever
the edges are, so each block is a slice of the stream, carried with no
Python object per edge, and the tower ends in the same state as after one
push per edge.

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
                    _check_block_size, _check_row, _columns, _edge_list,
                    _stamp, _unchecked_graph)
from .offline import _er_sample, _keep_probabilities
from .online import OnlineSamplerState, default_c
from .rng import spawn_seed

# a level's items: endpoint columns (intp) and weights (float64)
Columns = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class TreeConfig:
    block_size: int
    seed: int = 0
    rho: float | None = None      # None -> block_size / n per merge
    identity_reducer: bool = False

    def __post_init__(self):
        _check_block_size(self.block_size)
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
        self.levels: list[Columns | None] = []
        self.pushed = 0
        self.merges = 0
        self.carries = 0
        self.peak_resident = 0
        self._resident = 0          # len(buffer) + items of every level
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
        at an empty level 0 keeps the items and their _items order, so it
        keeps the Gram too. _accumulate adds in _items order, the order the
        stamps arrive in, so the bits do not depend on when it is read."""
        if self._gram is None:
            self._gram = _accumulate(np.zeros((self.n, self.n)),
                                     *self._items())
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

    def _reduce(self, items: Columns) -> Columns:
        if self.cfg.identity_reducer:
            return items
        rho = self.cfg.rho if self.cfg.rho is not None else self.cfg.block_size / self.n
        seed = spawn_seed(self.cfg.seed, self.merges)
        self.merges += 1
        return _er_sample(*items, _keep_probabilities(self.n, *items, rho),
                          seed)

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
        block = _columns(self.buffer)
        self.buffer = []
        self._resident -= len(block[0])
        self._carry(block)

    def extend(self, u, v, w, cap: float = math.inf) -> int:
        """push each edge (u[i], v[i], w[i]) in order, and return how many
        were pushed: all of them, or, when a push leaves peak_resident
        above cap, the pushes up to and with that one (its carry included).

        The tower ends in the state the pushes leave, bit for bit: items,
        counters, Gram and the inverse's notes. The edges are checked
        first, as push checks one, and a bad one raises ValueError before
        any state changes. Once the buffer is empty, each block is a slice
        of the columns, carried as it is; the slice's pushes stamp a built
        Gram by one _accumulate, which adds as repeated stamps do."""
        u, v, w = self._checked_columns(u, v, w)
        block = self.cfg.block_size
        taken, m = 0, u.size
        while taken < m:
            # the pushes up to the next full buffer or the end of the stream,
            # cut at the first push whose peak passes cap: pushes only add
            # to resident, so the peak is then resident after that push
            k = min(block - len(self.buffer), m - taken)
            if self.peak_resident > cap:
                k = 1
            elif self._resident + k > cap:
                k = math.floor(cap) - self._resident + 1
            s = slice(taken, taken + k)
            taken += k
            full = len(self.buffer) + k == block
            if self._gram is not None:
                _accumulate(self._gram, u[s], v[s], w[s])
                self._inverse.note_rows(u[s].tolist(), v[s].tolist(),
                                        w[s].tolist())
            self.pushed += k
            self._resident += k
            self._note_peak()
            if full:
                slab = (u[s], v[s], w[s])
                if self.buffer:
                    slab = tuple(np.concatenate(pair) for pair
                                 in zip(_columns(self.buffer), slab))
                    self.buffer = []
                self._resident -= block
                self._carry(slab)
            else:
                self.buffer.extend(_edge_list(u[s], v[s], w[s]))
            if self.peak_resident > cap:
                break
        return taken

    def _checked_columns(self, u, v, w) -> Columns:
        """Copies of (u, v, w) as intp, intp and float64 columns of one
        length, checked by _check_row's rule: distinct endpoints in [0, n),
        weights in (0, inf). Raises ValueError otherwise. The levels keep
        slices of the copies, so a caller's later writes do not reach them."""
        u, v, w = np.asarray(u), np.asarray(v), np.array(w, dtype=float)
        if not u.ndim == v.ndim == w.ndim == 1 or not u.size == v.size == w.size:
            raise ValueError("u, v and w must be 1-d arrays of one length")
        if u.size and (u.dtype.kind not in "iu" or v.dtype.kind not in "iu"):
            raise ValueError("endpoints must be integers")
        n = self.n
        bad = ((u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
               | ~((0 < w) & (w < math.inf)))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"edge {i} ({u[i]}, {v[i]}, {w[i]}) is a "
                             f"self-loop, out of range for n={n} or needs a "
                             f"positive finite weight")
        return u.astype(np.intp), v.astype(np.intp), w

    def _carry(self, coreset: Columns) -> None:
        # the block in hand and the level being merged are not resident
        self.carries += 1
        lvl = 0
        while True:
            if lvl >= len(self.levels):
                self.levels.append(None)
            level = self.levels[lvl]
            if level is None:
                self.levels[lvl] = coreset
                self._resident += coreset[0].size
                break
            merged = tuple(np.concatenate(pair)
                           for pair in zip(level, coreset))
            self._resident -= level[0].size
            self.levels[lvl] = None
            self._note_peak(extra=level[0].size)
            coreset = self._reduce(merged)
            lvl += 1
        if lvl:
            # a carry that parks the block at level 0 leaves the items and
            # their order as they were: not a sketch change
            self._gram = None
            self._inverse.mark_rebuild()
        self._note_peak()

    def _items(self) -> Columns:
        """Every resident item as columns: the levels, oldest first, then
        the buffer."""
        parts = [c for c in reversed(self.levels) if c is not None]
        parts.append(_columns(self.buffer))
        return tuple(np.concatenate(col) for col in zip(*parts))

    def sparsifier(self) -> Graph:
        """Union of all level coresets and the buffer (oldest levels first)."""
        return _unchecked_graph(self.n, _edge_list(*self._items()))

    @property
    def height(self) -> int:
        return len(self.levels)


def mr_sparsify(g: Graph, cfg: TreeConfig) -> tuple[Graph, MergeReduceTree]:
    """Run the tower over a whole edge list."""
    tree = MergeReduceTree(g.n, cfg)
    tree.extend(*_columns(g.edges))
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
