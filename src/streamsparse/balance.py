"""Greedy balanced weight assignment over the clique of a hyperedge.

Splits a hyperedge's weight across its clique pairs so that the ratios
(leverage / weight) of all pairs agree up to a factor gamma, by repeatedly
shifting weight from the pair with the smallest ratio to the pair with the
largest. The spanning-tree potential of the augmented graph strictly
increases with every shift, which is what guarantees termination.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .graph import (Graph, SpectralSketch, WeightedEdge, _accumulate,
                    _resistance, _resistance_solve, laplacian)

if TYPE_CHECKING:
    from .hypergraph import Hyperedge


_TIE_RTOL = 1e-12   # ratios this close to the extreme count as tied


class BalanceError(RuntimeError):
    """Shift loop exceeded its iteration cap; carries the last assignment."""

    def __init__(self, assignment: "WeightAssignment"):
        super().__init__("balanced weight assignment did not converge")
        self.assignment = assignment


@dataclass(frozen=True)
class BalanceConfig:
    gamma: float = 2.0
    literal_recipient_cap: bool = False  # cap the shift by the recipient's weight

    def __post_init__(self):
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")


@dataclass
class WeightAssignment:
    """Per-pair weights z_uv with sum z = w(e)."""

    pairs: list[tuple[int, int]]
    z: np.ndarray
    trace: list[np.ndarray] = field(default_factory=list)  # z after each shift
    _lu_base: bool = False   # ratios read by LU solves of the Gram matrix

    def as_dict(self) -> dict[tuple[int, int], float]:
        return {p: float(zi) for p, zi in zip(self.pairs, self.z)}


def clique_pairs(vertices) -> list[tuple[int, int]]:
    return list(itertools.combinations(sorted(vertices), 2))


class _CliqueBlock(NamedTuple):
    """The r x r block S of (G + s Q)^{-1}, read from a sketch's grounded
    inverse (graph._GroundedInverse.block) on the sorted vertices vs of a
    clique that lies in one sketch component, and the local indices
    (iu, iv) into vs of the clique's pairs."""

    S: np.ndarray
    iu: np.ndarray
    iv: np.ndarray


def _ratio_base(sketch: SpectralSketch | np.ndarray,
                e: "Hyperedge") -> _CliqueBlock | np.ndarray:
    """What the shift loop reads the ratios of e's clique from: for a
    SpectralSketch with the whole clique in one component, the clique's
    block of the sketch's grounded inverse; otherwise the Gram matrix."""
    if not isinstance(sketch, SpectralSketch):
        return np.asarray(sketch)
    inv = sketch._grounded_inverse()
    if inv.straddles(e.vertices):
        return sketch.gram
    vs = np.array(e.vertices)
    iu, iv = np.array(clique_pairs(range(vs.size)), dtype=np.intp).T
    return _CliqueBlock(inv.block(vs), iu, iv)


def _pair_ratios(base: _CliqueBlock | np.ndarray,
                 pairs: list[tuple[int, int]], z: np.ndarray) -> np.ndarray:
    """q_uv = d_uv^T K^+ d_uv on the z-augmented Gram matrix
    K = G + sum z_uv d_uv d_uv^T.

    The ratio tau/z of a pair equals this quadratic form for any z, which
    also covers pairs currently at z = 0.

    From a _CliqueBlock: K has the components of G, so the grounding s Q
    of (G + s Q)^{-1} still holds for K, and with L_z the clique's
    z-weighted Laplacian on its r vertices the r x r block of
    (K + s Q)^{-1} is B = (I + S L_z)^{-1} S, an O(r^3) solve. From a Gram
    matrix G: one solve of K plus the projector onto its kernel, on the
    clique's vertex columns (graph._resistance_solve); a pair straddling
    components of K gets the pseudo-inverse value K^+_uu + K^+_vv.
    """
    if isinstance(base, _CliqueBlock):
        S, iu, iv = base
        r = len(S)
        W = np.zeros((r, r))
        W[iu, iv] = z
        W += W.T
        L = np.diag(W.sum(axis=1)) - W
        return _resistance(np.linalg.solve(np.eye(r) + S @ L, S), iu, iv)
    u, v = np.array(pairs, dtype=np.intp).T
    K = _accumulate(base.copy(), u, v, z)
    return _resistance_solve(K, u, v)[0]


def is_balanced(sketch: SpectralSketch | np.ndarray, e: "Hyperedge",
                z: np.ndarray | dict, gamma: float) -> bool:
    """gamma * min over positive-weight pairs of the ratio >= max over all."""
    base = sketch.gram if isinstance(sketch, SpectralSketch) else np.asarray(sketch)
    pairs = clique_pairs(e.vertices)
    if isinstance(z, dict):
        z = np.array([z[p] for p in pairs])
    q = _pair_ratios(base, pairs, z)
    positive = z > 0
    if not positive.any():
        return False
    return gamma * q[positive].min() >= q.max() * (1.0 - 1e-9)


def get_weight_assignment(sketch: SpectralSketch | np.ndarray, e: "Hyperedge",
                          cfg: BalanceConfig = BalanceConfig()) -> WeightAssignment:
    """Greedy most-violated-first weight shifting until gamma-balance holds.

    Donor and recipient are the lowest-index pairs whose ratios lie within
    relative _TIE_RTOL of the smallest positive-weight and the largest ratio.

    On a SpectralSketch that holds the whole clique in one component, every
    shift reads the ratios from the clique's r x r block of the sketch's
    grounded inverse by an r x r solve; a clique straddling components, or a
    Gram matrix passed as an array, takes an LU solve of the n x n augmented
    Gram matrix, and the assignment records that in _lu_base.

    The shift amount is capped by the donor's remaining weight (keeps all
    weights non-negative and conserves the total); set literal_recipient_cap
    to reproduce the cap by the recipient's weight instead.
    """
    pairs = clique_pairs(e.vertices)
    if len(pairs) == 1:
        return WeightAssignment(pairs, np.array([e.w]))
    base = _ratio_base(sketch, e)
    z = np.full(len(pairs), e.w / len(pairs))
    out = WeightAssignment(pairs, z, trace=[z.copy()],
                           _lu_base=not isinstance(base, _CliqueBlock))
    for _ in range(10_000 * len(pairs)):
        q = _pair_ratios(base, pairs, z)
        q_pos = np.where(z > 0, q, np.inf)
        # among ratios tied with the extreme up to rounding, the lowest
        # pair index wins, so ulp noise in the solve cannot pick the pair
        qmin_idx = int(np.argmax(q_pos <= q_pos.min() * (1.0 + _TIE_RTOL)))
        qmax_idx = int(np.argmax(q >= q.max() * (1.0 - _TIE_RTOL)))
        if gamma_ok(q[qmax_idx], q[qmin_idx], cfg.gamma) or qmax_idx == qmin_idx:
            break
        cap_z = z[qmax_idx] if cfg.literal_recipient_cap else z[qmin_idx]
        lam = min(cap_z, (cfg.gamma - 1.0) / (2.0 * cfg.gamma * q[qmax_idx]))
        z[qmax_idx] += lam
        z[qmin_idx] = max(0.0, z[qmin_idx] - lam)
        out.trace.append(z.copy())
    else:
        raise BalanceError(out)
    # undo accumulated float drift
    z *= e.w / z.sum()
    out.z = z
    return out


def gamma_ok(qmax: float, qmin_pos: float, gamma: float) -> bool:
    return gamma * qmin_pos >= qmax * (1.0 - 1e-12)


def st_potential(g: Graph) -> float:
    """log of the weighted spanning-tree sum, by the matrix-tree theorem.

    Returns -inf for disconnected graphs (no spanning tree).
    """
    if g.n == 1:
        return 0.0
    L = laplacian(g)
    sign, logdet = np.linalg.slogdet(L[1:, 1:])
    if sign <= 0 or not math.isfinite(logdet):
        return -math.inf
    return float(logdet)


def augmented_graph(sketch: SpectralSketch, pairs: list[tuple[int, int]],
                    z: np.ndarray) -> Graph:
    """Sketch rows as weighted edges plus the positive-weight clique pairs;
    the graph whose spanning-tree potential the shift loop climbs."""
    edges = [WeightedEdge(r.u, r.v, r.scale ** 2) for r in sketch.rows]
    for (u, v), zi in zip(pairs, z):
        if zi > 0:
            edges.append(WeightedEdge(u, v, float(zi)))
    return Graph(sketch.n, edges)
