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

In self-sketch mode many rows are decided before any score: by Rayleigh
monotonicity (short every vertex but u) a row's leverage is at least
scale^2 / min(d_u, d_v), d the sketch's weighted degrees, the Gram
diagonal. A row with c * scale^2 >= min(d_u, d_v), up to a relative margin
of _CERTIFY_MARGIN against rounding, is certified: kept with p = 1 and its
weight unchanged, without reading the inverse or taking a draw. A degree of
0 certifies too; such a row joins two components. The sketch's inverse
catches up on the rows it has not taken in only when a score reads it.

In provider mode the sketch is an external Gram matrix (the merge-and-reduce
tower's), and its owner reports each change through sketch_changed: one
added row folds into a grounded inverse of that Gram matrix, a rebuild makes
the next score build the inverse again from provider.gram(). Every row is
scored there.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import (Graph, IncidenceRow, SpectralSketch, WeightedEdge,
                    _GroundedInverse, _REFRESH_EVERY, _check_row, _resistance,
                    _stamp, pseudo_inverse)
from .rng import UniformByIndex


def default_c(m: int, eps: float = 1.0, alpha: float = 4.0) -> float:
    """Probability multiplier alpha * ln(max(m, 2)) / eps^2."""
    return alpha * math.log(max(m, 2)) / (eps * eps)


# relative margin of a degree bound that certifies p = 1, so that rounding
# in the degrees cannot certify a row whose score would give p < 1
_CERTIFY_MARGIN = 1.0 + 1e-9


class OnlineSamplerState:
    """Sequential single-owner sampling state with one maintained inverse.

    With provider=None the sampler scores against its own kept rows
    (self-sketch mode): it certifies the rows its sketch's weighted degrees
    decide, and scores the others from the sketch's grounded inverse, which
    catches up on the kept rows when a score reads it. Otherwise it scores
    every row against provider.gram(), a 2-approximation of the prefix Gram
    matrix, through a grounded inverse of it, and never polls it: the
    caller that changes the provider calls sketch_changed after each
    change. Then it keeps no sketch of its own (sketch is None).
    """

    def __init__(self, n: int, c: float, seed: int = 0, provider=None):
        if c <= 0:
            raise ValueError("c must be positive")
        self.n = n
        self.c = c
        self.seed = seed
        self.provider = provider
        self.kept_count = 0
        self.kept_edges: list[WeightedEdge] = []
        self._draws = UniformByIndex(seed)
        self._index = 0
        self._scored = 0
        self._certified = 0
        if provider is None:
            self.sketch = SpectralSketch(n)
            self._inverse = self.sketch._inverse
        else:
            self.sketch = None
            self._inverse = _GroundedInverse(n, _REFRESH_EVERY)
        self._stale = provider is not None   # rebuild from provider.gram()

    def _current(self) -> _GroundedInverse:
        """The scoring inverse, caught up with the sketch's rows, or rebuilt
        first if the provider was."""
        if self.sketch is not None:
            return self.sketch._grounded_inverse()
        if self._stale:
            self._inverse.rebuild(self.provider.gram())
            self._stale = False
        return self._inverse

    # -- public API ----------------------------------------------------

    def sketch_changed(self, edge: WeightedEdge | None) -> None:
        """Take in a change to the provider's Gram matrix: edge is the one
        edge it gained, folded in now; None means it was rebuilt, and the
        next score builds the inverse again from provider.gram()."""
        if edge is None:
            self._stale = True
        elif not self._stale:
            self._inverse.fold(edge.u, edge.v, edge.w)
            self._inverse.maybe_refresh(self.provider.gram())

    def score(self, row: IncidenceRow) -> float:
        """Leverage scale^2 d^T G^+ d of the row against the current sketch
        G; inf when its endpoints lie in different sketch components."""
        inv = self._current()
        self._scored += 1
        u, v, s = row
        if inv.components > 1 and inv.labels[u] != inv.labels[v]:
            return math.inf
        return s * s * inv.resistance(u, v)

    def _certifies(self, row: IncidenceRow) -> bool:
        """Whether the sketch's weighted degrees alone give c * score >= 1
        (self-sketch mode only; see the module docstring)."""
        if self.sketch is None:
            return False
        u, v, s = row
        G = self.sketch.gram
        return self.c * (s * s) >= min(G[u, u], G[v, v]) * _CERTIFY_MARGIN

    def process_row(self, row: IncidenceRow) -> tuple[bool, IncidenceRow | None]:
        """Certify or score, decide, and (in self-sketch mode) grow the
        sketch.

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
        reweighted = IncidenceRow(row.u, row.v, row.scale / math.sqrt(p))
        self.kept_count += 1
        self.kept_edges.append(WeightedEdge(row.u, row.v, row.scale ** 2 / p))
        if self.provider is None:
            self.sketch.append(reweighted)
        return True, reweighted

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
        and kept, and its grounded inverse's folds, block folds, joins,
        refreshes and drift (see graph._GroundedInverse.stats), all zero
        until a score first reads the inverse."""
        return {"scored": self._scored, "certified": self._certified,
                "kept": self.kept_count, **self._inverse.stats()}

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
