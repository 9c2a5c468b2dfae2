"""Online row sampling with online leverage probabilities.

Keeps each arriving row with probability min(c * score, 1), where the score
is the row's leverage against a 2-approximate spectral sketch of the prefix
(Kelner and Levin's online effective resistances). A graph Laplacian's
kernel is the span of its component indicators, so no ridge term is needed:
a row inside a sketch component scores its exact leverage, read in
O(_BLOCK) from the sketch's grounded inverse (graph._GroundedInverse), and a
row joining two components scores inf, so p = 1. The grounded inverse is
scaled to the Gram matrix, so the scores do not depend on the unit of the
weights.

The sampler works in weights t = scale^2 and keeps a row as the edge
(u, v, t / p), which it appends to its sketch: its own SpectralSketch, or
the merge-and-reduce tower of a StreamSparsifier, whose sparsifier then
scores the stream. Both are grown by _append and read the same way: the
Gram matrix gram, and the grounded inverse _grounded_inverse(), which
catches up on the sketch's changes only when a score reads it.

Many rows are decided before any score: by Rayleigh monotonicity (short
every vertex but u) a row's leverage is at least t / min(d_u, d_v), d the
sketch's weighted degrees, the Gram diagonal. A row with
c * t >= min(d_u, d_v), up to a relative margin of _CERTIFY_MARGIN
against rounding, is certified: kept with p = 1 and its weight unchanged,
without reading the inverse or taking a draw. A degree of 0 certifies too;
such a row joins two components.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import (Graph, SpectralSketch, WeightedEdge, _check_row,
                    _resistance, _stamp, _unchecked_graph, pseudo_inverse)
from .rng import UniformByIndex


def default_c(m: int, eps: float = 1.0) -> float:
    """Probability multiplier 4 ln(max(m, 2)) / eps^2."""
    return 4.0 * math.log(max(m, 2)) / (eps * eps)


# relative margin of a degree bound that certifies p = 1, so that rounding
# in the degrees cannot certify a row whose score would give p < 1
_CERTIFY_MARGIN = 1.0 + 1e-9


class OnlineSamplerState:
    """Sequential single-owner sampling state.

    With sketch=None the sampler scores against its own kept edges, a
    SpectralSketch that is their one record. Otherwise sketch is a
    MergeReduceTree, the tower of a StreamSparsifier, which reduces the
    kept edges as they arrive. Either way the sampler appends each kept
    edge to the sketch, certifies the rows the sketch's weighted degrees
    decide and scores the others from the sketch's grounded inverse.
    """

    def __init__(self, n: int, c: float, seed: int = 0, sketch=None):
        if not c > 0:
            raise ValueError("c must be positive")
        self.n = n
        self.c = c
        self.kept_count = 0
        self._draws = UniformByIndex(seed)
        self._index = 0
        self._scored = 0
        self._certified = 0
        self._owns_sketch = sketch is None
        self.sketch = SpectralSketch(n) if sketch is None else sketch

    def _leverage(self, u: int, v: int, t: float) -> float:
        """Leverage t d^T G^+ d of a checked row of weight t against the
        current sketch G; inf when u and v lie in different components."""
        inv = self.sketch._grounded_inverse()
        self._scored += 1
        if inv.components > 1 and inv.labels[u] != inv.labels[v]:
            return math.inf
        # a Python float, so that a kept weight t / p is one too
        return t * float(inv.resistance(u, v))

    def _sample(self, u: int, v: int, t: float) -> tuple[float, WeightedEdge | None]:
        """Certify or score a checked row of weight t, decide, and append a
        kept row to the sketch; returns (p, the kept edge (u, v, t / p) or
        None).
        Draws are keyed by (seed, arrival index); p = 1 takes none."""
        G = self.sketch.gram
        if self.c * t >= min(G[u, u], G[v, v]) * _CERTIFY_MARGIN:
            self._certified += 1
            p = 1.0
        else:
            p = min(self.c * self._leverage(u, v, t), 1.0)
        idx = self._index
        self._index += 1
        if p < 1.0 and self._draws.uniform(idx) >= p:
            return p, None
        self.kept_count += 1
        kept = WeightedEdge(u, v, t / p)
        self.sketch._append(kept)
        return p, kept

    def process_edge(self, e: WeightedEdge) -> tuple[bool, WeightedEdge | None]:
        """Sample the edge on its weight w; returns (kept, (u, v, w / p)), so
        p = 1 keeps it bit for bit. A self-loop, an endpoint outside [0, n)
        or a weight outside (0, inf) raises ValueError before any change."""
        _check_row(e, self.n)
        kept = self._sample(*e)[1]
        return kept is not None, kept

    def stats(self) -> dict:
        """Counters of this sampler, as a plain dict: rows scored, certified
        and kept, and the sketch's grounded inverse's folds, block folds,
        joins, refreshes and drift (see graph._GroundedInverse.stats), all zero
        until a score first reads the inverse."""
        return {"scored": self._scored, "certified": self._certified,
                "kept": self.kept_count, **self.sketch._inverse.stats()}

    def finalize(self) -> Graph:
        """The sketch's rows: the kept reweighted edges in arrival order, at
        any point of the stream. A sampler reading a tower raises ValueError."""
        if not self._owns_sketch:
            raise ValueError("a sampler reading a tower keeps no edges of "
                             "its own; read the tower's sparsifier()")
        return _unchecked_graph(self.n, list(self.sketch.rows))


def online_sparsify(g: Graph, c: float | None = None, eps: float = 1.0,
                    seed: int = 0) -> Graph:
    """One-shot convenience wrapper over OnlineSamplerState."""
    if c is None:
        c = default_c(g.m, eps)
    state = OnlineSamplerState(g.n, c, seed=seed)
    for e in g.edges:
        state.process_edge(e)
    return state.finalize()


def exact_online_leverages(g: Graph) -> np.ndarray:
    """Test oracle: exact online leverage of each edge against the full
    unsampled prefix (including the edge itself), via pseudoinversion."""
    out = np.empty(g.m)
    G = np.zeros((g.n, g.n))
    for i, (u, v, w) in enumerate(g.edges):
        _stamp(G, u, v, w)
        out[i] = w * _resistance(pseudo_inverse(G), u, v)
    return out
