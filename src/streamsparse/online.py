"""Online row sampling with ridge-leverage probabilities.

Maintains a 2-approximate spectral sketch of the prefix incidence matrix and
keeps each arriving row with probability min(c * score, 1). The inverse of
(Gram + lam I) is kept as a refreshed inverse K0 minus up to _BLOCK pending
rank-1 terms (delayed Sherman-Morrison): a kept row costs O(n * _BLOCK)
matrix-vector work, and every _BLOCK kept rows fold into K0 with one
matrix product (O(n^2) per row amortised, at matrix-matrix speed). Scoring
a row reads three entries of K0 and two rows of the pending block.

In provider mode the sketch is an external Gram matrix (the merge-and-reduce
tower's), and its owner reports each change through sketch_changed: one
added row folds in as a rank-1 update, a rebuild drops K0 for the next score
to refresh from provider.gram().
"""

from __future__ import annotations

import math

import numpy as np

from .graph import (Graph, IncidenceRow, SpectralSketch, WeightedEdge,
                    _REFRESH_EVERY, _resistance, _stamp, pseudo_inverse)
from .rng import UniformByIndex

_BLOCK = 32            # pending rank-1 terms folded into K0 by one GEMM


def default_c(m: int, eps: float = 1.0, alpha: float = 4.0) -> float:
    """Probability multiplier alpha * ln(max(m, 2)) / eps^2."""
    return alpha * math.log(max(m, 2)) / (eps * eps)


class OnlineSamplerState:
    """Sequential single-owner sampling state.

    With provider=None the sampler scores against its own kept rows
    (self-sketch mode). Otherwise it scores against provider.gram(), a
    2-approximation of the prefix Gram matrix, and never polls it: the
    caller that changes the provider calls sketch_changed after each change.
    """

    def __init__(self, n: int, c: float, lam: float | None = None,
                 seed: int = 0, eps: float = 1.0, provider=None):
        if c <= 0:
            raise ValueError("c must be positive")
        self.n = n
        self.c = c
        self.eps = eps
        self.seed = seed
        self.sketch = SpectralSketch(n)
        self.provider = provider
        self.score_sum = 0.0
        self.kept_count = 0
        self.kept_edges: list[WeightedEdge] = []
        self._draws = UniformByIndex(seed)
        self._index = 0
        self._fixed_lam = lam
        self._w_min = math.inf
        self.lam = lam if lam is not None else 1.0
        # (G + lam I)^{-1} = K0 - Y Y^T; the columns of Y past the
        # _pending ones are zero
        self._inv: np.ndarray | None = None          # K0
        self._Y = np.zeros((n, _BLOCK))
        self._pending = 0
        self._updates_since_refresh = 0
        self._scored = 0
        self._folds = 0
        self._block_folds = 0
        self._refreshes = 0
        self._lambda_shrinks = 0
        self._drift = 0.0

    # -- sketch inverse bookkeeping ------------------------------------

    def _scoring_gram(self) -> np.ndarray:
        if self.provider is not None:
            return self.provider.gram()
        return self.sketch.gram

    def _refresh_inverse(self, check_drift: bool = False) -> None:
        """Recompute K0 from the scoring Gram matrix and drop the pending
        block. check_drift first records max |K (G + lam I) - I| of the
        inverse being replaced."""
        A = self._scoring_gram() + self.lam * np.eye(self.n)
        if check_drift:
            R = self._effective_inverse() @ A - np.eye(self.n)
            self._drift = max(self._drift, float(np.abs(R).max()))
        self._inv = np.linalg.inv(A)
        self._Y.fill(0.0)
        self._pending = 0
        self._updates_since_refresh = 0
        self._refreshes += 1

    def _effective_inverse(self) -> np.ndarray:
        """The maintained inverse K0 - Y Y^T as a dense matrix."""
        return self._inv - self._Y @ self._Y.T

    def _inverse(self) -> np.ndarray:
        """K0, refreshed if it was dropped; the pending block still applies
        on top of it."""
        if self._inv is None:
            self._refresh_inverse()
        return self._inv

    def _maybe_shrink_lambda(self, w: float) -> None:
        if self._fixed_lam is not None:
            return
        if w < self._w_min:
            self._w_min = w
            self.lam = self.eps * self._w_min / (self.n * self.n)
            self._lambda_shrinks += 1
            self._inv = None  # lambda moved; rebuild lazily

    def _rank1_update(self, u: int, v: int, t: float) -> None:
        """Fold t * d d^T, d = chi_u - chi_v, into the inverse by delayed
        Sherman-Morrison. With K = K0 - Y Y^T the current inverse, the new
        term is beta z z^T for z = K d = K0 d - Y (Y^T d) and
        beta = t / (1 + t d^T z); it is appended as the column
        sqrt(beta) z of Y, in O(n * _BLOCK). A full Y folds into K0 as
        K0 -= Y Y^T, one GEMM; every _REFRESH_EVERY folds K0 is recomputed
        from the Gram matrix instead."""
        K0 = self._inverse()
        Y = self._Y
        z = K0[:, u] - K0[:, v]
        if self._pending:
            z -= Y @ (Y[u] - Y[v])
        Y[:, self._pending] = z * math.sqrt(t / (1.0 + t * (z[u] - z[v])))
        self._pending += 1
        self._folds += 1
        self._updates_since_refresh += 1
        if self._updates_since_refresh >= _REFRESH_EVERY:
            self._refresh_inverse(check_drift=True)
        elif self._pending == _BLOCK:
            K0 -= Y @ Y.T
            Y.fill(0.0)
            self._pending = 0
            self._block_folds += 1

    # -- public API ----------------------------------------------------

    def sketch_changed(self, edge: WeightedEdge | None) -> None:
        """Take in a change to the provider's Gram matrix: edge is the one
        edge it gained, folded in now as a rank-1 update; None means it was
        rebuilt, and the next score refreshes K0 from provider.gram()."""
        if edge is not None and self._inv is not None:
            self._rank1_update(edge.u, edge.v, edge.w)
        else:
            self._inv = None

    def score(self, row: IncidenceRow) -> float:
        """Ridge leverage a^T (G + lam I)^{-1} a against the current sketch."""
        self._maybe_shrink_lambda(row.scale * row.scale)
        K0 = self._inverse()
        self._scored += 1
        u, v, s = row
        r = _resistance(K0, u, v)
        if self._pending:
            dy = self._Y[u] - self._Y[v]
            r -= dy @ dy
        return s * s * r

    def process_row(self, row: IncidenceRow) -> tuple[bool, IncidenceRow | None]:
        """Score, decide, and (in self-sketch mode) grow the sketch.

        Returns (kept, reweighted row). Decisions are keyed by
        (seed, arrival index). A self-loop row, an endpoint outside [0, n)
        or a scale outside (0, inf) raises ValueError before any state
        changes.
        """
        if not (0 <= row.u < self.n and 0 <= row.v < self.n
                and row.u != row.v):
            raise ValueError(f"row {row} is a self-loop or out of range "
                             f"for n={self.n}")
        if not 0 < row.scale < math.inf:
            raise ValueError(f"row {row} needs a positive finite scale")
        ell = self.score(row)
        # raw ridge scores on fresh directions are unbounded (up to 2/lam);
        # the running total clamps at 1 to mirror true leverage scores
        self.score_sum += min(ell, 1.0)
        p = min(self.c * ell, 1.0)
        self.last_p = p
        idx = self._index
        self._index += 1
        kept = self._draws.uniform(idx) < p
        if not kept:
            return False, None
        reweighted = IncidenceRow(row.u, row.v, row.scale / math.sqrt(p))
        self.kept_count += 1
        self.kept_edges.append(WeightedEdge(row.u, row.v, row.scale ** 2 / p))
        if self.provider is None:
            self.sketch.append(reweighted)
            self._rank1_update(row.u, row.v, reweighted.scale ** 2)
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
        """Counters of this sampler, as a plain dict: rows scored and kept,
        rank-1 folds, block folds (one GEMM each), full inverse refreshes,
        lambda shrinks, and drift, the largest max |K (G + lam I) - I|
        measured just before a periodic (every _REFRESH_EVERY folds)
        refresh, 0.0 before the first."""
        return {"scored": self._scored, "kept": self.kept_count,
                "folds": self._folds, "block_folds": self._block_folds,
                "refreshes": self._refreshes,
                "lambda_shrinks": self._lambda_shrinks, "drift": self._drift}

    def finalize(self) -> Graph:
        """Snapshot of the sampled reweighted edges, in arrival order.
        Non-destructive; valid at any point of the stream."""
        return Graph(self.n, list(self.kept_edges))


def online_sparsify(g: Graph, c: float | None = None, eps: float = 1.0,
                    seed: int = 0) -> Graph:
    """One-shot convenience wrapper over OnlineSamplerState."""
    if c is None:
        c = default_c(g.m, eps)
    state = OnlineSamplerState(g.n, c, seed=seed, eps=eps)
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
