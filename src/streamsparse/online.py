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

The sketch is the sampler's own kept rows (a SpectralSketch), or one it is
handed and does not grow, such as the merge-and-reduce tower's sparsifier in
working-memory mode. Both are read the same way: the Gram matrix gram, and
the grounded inverse _grounded_inverse(), which catches up on the sketch's
changes only when a score reads it.

Many rows are decided before any score: by Rayleigh monotonicity (short
every vertex but u) a row's leverage is at least scale^2 / min(d_u, d_v),
d the sketch's weighted degrees, the Gram diagonal. A row with
c * scale^2 >= min(d_u, d_v), up to a relative margin of _CERTIFY_MARGIN
against rounding, is certified: kept with p = 1 and its weight unchanged,
without reading the inverse or taking a draw. A degree of 0 certifies too;
such a row joins two components.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import (Graph, IncidenceRow, SpectralSketch, WeightedEdge,
                    _check_row, _resistance, _stamp, pseudo_inverse)
from .rng import UniformByIndex


def default_c(m: int, eps: float = 1.0, alpha: float = 4.0) -> float:
    """Probability multiplier alpha * ln(max(m, 2)) / eps^2."""
    return alpha * math.log(max(m, 2)) / (eps * eps)


# relative margin of a degree bound that certifies p = 1, so that rounding
# in the degrees cannot certify a row whose score would give p < 1
_CERTIFY_MARGIN = 1.0 + 1e-9


class OnlineSamplerState:
    """Sequential single-owner sampling state.

    With sketch=None the sampler scores against its own kept rows, a
    SpectralSketch it appends each kept row to. Otherwise sketch is a
    MergeReduceTree, the tower of a StreamSparsifier in working-memory
    mode, which the caller pushes the kept rows to; the sampler only reads
    it. Either way it certifies the rows the sketch's weighted degrees
    decide and scores the others from the sketch's grounded inverse.
    """

    def __init__(self, n: int, c: float, seed: int = 0, sketch=None):
        if c <= 0:
            raise ValueError("c must be positive")
        self.n = n
        self.c = c
        self.seed = seed
        self.kept_count = 0
        self.kept_edges: list[WeightedEdge] = []
        self._draws = UniformByIndex(seed)
        self._index = 0
        self._scored = 0
        self._certified = 0
        self._owns_sketch = sketch is None
        self.sketch = SpectralSketch(n) if sketch is None else sketch

    # -- public API ----------------------------------------------------

    def score(self, row: IncidenceRow) -> float:
        """Leverage scale^2 d^T G^+ d of the row against the current sketch
        G; inf when its endpoints lie in different sketch components."""
        inv = self.sketch._grounded_inverse()
        self._scored += 1
        u, v, s = row
        if inv.components > 1 and inv.labels[u] != inv.labels[v]:
            return math.inf
        return s * s * inv.resistance(u, v)

    def _certifies(self, row: IncidenceRow) -> bool:
        """Whether the sketch's weighted degrees alone give c * score >= 1
        (see the module docstring)."""
        u, v, s = row
        G = self.sketch.gram
        return self.c * (s * s) >= min(G[u, u], G[v, v]) * _CERTIFY_MARGIN

    def process_row(self, row: IncidenceRow) -> tuple[bool, IncidenceRow | None]:
        """Certify or score, decide, and grow the sketch if the sampler owns
        it.

        Returns (kept, reweighted row). Decisions are keyed by
        (seed, arrival index); a row with p = 1 takes no draw. A self-loop
        row, an endpoint outside [0, n) or a scale outside (0, inf) raises
        ValueError before any state changes.
        """
        _check_row(row, self.n)
        if self._certifies(row):
            self._certified += 1
            p = 1.0
        else:
            p = min(self.c * self.score(row), 1.0)
        self.last_p = p
        idx = self._index
        self._index += 1
        kept = p >= 1.0 or self._draws.uniform(idx) < p
        if not kept:
            return False, None
        self.kept_count += 1
        self.kept_edges.append(WeightedEdge(row.u, row.v, row.scale ** 2 / p))
        if p < 1.0:
            row = IncidenceRow(row.u, row.v, row.scale / math.sqrt(p))
        if self._owns_sketch:
            self.sketch._append(row)
        return True, row

    def process_edge(self, e: WeightedEdge) -> tuple[bool, WeightedEdge | None]:
        """process_row on the edge's row sqrt(w) (chi_u - chi_v). A weight
        outside (0, inf) raises ValueError before any state changes."""
        if not 0 < e.w < math.inf:
            raise ValueError(f"edge {e} needs a positive finite weight")
        kept, _ = self.process_row(IncidenceRow(e.u, e.v, math.sqrt(e.w)))
        if not kept:
            return False, None
        # reweight from the original weight, not the sqrt round-trip, so that
        # p = 1 keeps the edge bit-exact
        out = WeightedEdge(e.u, e.v, e.w / self.last_p)
        self.kept_edges[-1] = out
        return True, out

    def stats(self) -> dict:
        """Counters of this sampler, as a plain dict: rows scored, certified
        and kept, and the sketch's grounded inverse's folds, block folds,
        joins, refreshes and drift (see graph._GroundedInverse.stats), all zero
        until a score first reads the inverse."""
        return {"scored": self._scored, "certified": self._certified,
                "kept": self.kept_count, **self.sketch._inverse.stats()}

    def finalize(self) -> Graph:
        """Snapshot of the sampled reweighted edges, in arrival order.
        Non-destructive; valid at any point of the stream."""
        return Graph(self.n, list(self.kept_edges))


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
