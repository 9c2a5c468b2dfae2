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

from .graph import (Graph, SpectralSketch, WeightedEdge, _check_vertices,
                    _components, _grounded_inverse_of, _resistance, laplacian)

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

    def __post_init__(self):
        if not self.gamma > 1:
            raise ValueError("gamma must exceed 1")


@dataclass
class WeightAssignment:
    """Per-pair weights z_uv with sum z = w(e)."""

    pairs: list[tuple[int, int]]
    z: np.ndarray
    trace: list[np.ndarray] = field(default_factory=list)  # z after each shift


def clique_pairs(vertices) -> list[tuple[int, int]]:
    return list(itertools.combinations(sorted(vertices), 2))


class _CliqueBlock(NamedTuple):
    """A clique's ratio base on T, its sorted vertices then the dropped
    roots outside it: T's block S of (G + s Q)^{-1}, ground (-s at each
    dropped root, else 0), the pairs' indices (iu, iv) into T, and the
    split pairs, whose endpoints stay in different components."""

    S: np.ndarray
    ground: np.ndarray
    iu: np.ndarray
    iv: np.ndarray
    split: np.ndarray


def _ratio_base(sketch: SpectralSketch | np.ndarray, e: "Hyperedge",
                z: np.ndarray) -> _CliqueBlock:
    """The _CliqueBlock of e's clique at weights z, on the sketch's own
    grounded inverse or a one-off one of a Gram matrix passed as an array.

    The sketch components the clique touches, joined by the pairs with
    z > 0, form groups: the components of K = G + sum z_uv d_uv d_uv^T
    that hold clique vertices. A group keeps the root of its first vertex
    and drops its other roots, so Q' grounds each component of K once.
    """
    inv = (sketch._grounded_inverse() if isinstance(sketch, SpectralSketch)
           else _grounded_inverse_of(np.asarray(sketch, dtype=float)))
    vs = np.array(e.vertices)
    iu, iv = np.array(clique_pairs(range(vs.size)), dtype=np.intp).T
    T, dropped, split = vs, np.zeros(vs.size, bool), np.zeros(iu.size, bool)
    if inv.straddles(vs):
        roots = inv.labels[vs]
        linked = roots[:, None] == roots[None, :]
        pos = z > 0
        linked[iu[pos], iv[pos]] = linked[iv[pos], iu[pos]] = True
        group = _components(linked)       # smallest local index per group
        split = group[iu] != group[iv]
        drop = np.unique(roots[roots != roots[group]])
        T = np.concatenate((vs, drop[~np.isin(drop, vs)]))
        dropped = np.isin(T, drop)
    S, s = inv.block(T, e.w)    # before the first sketch row, w(e) grounds G = 0
    return _CliqueBlock(S, np.where(dropped, -s, 0.0), iu, iv, split)


def _pair_ratios(base: _CliqueBlock, z: np.ndarray) -> np.ndarray:
    """q_uv = d_uv^T K^+ d_uv on K = G + sum z_uv d_uv d_uv^T, the ratio
    tau/z of a pair for any z (so also at z = 0); inf for a split pair,
    the limit z -> 0+ of a pair joining two components.

    With C = L_z + diag(ground), L_z the clique's z-weighted Laplacian on
    T, B = (I + S C)^{-1} S is T's block of (K + s Q')^{-1} (Woodbury), an
    O(|T|^3) solve; the ratios are resistances read from B.
    """
    S, ground, iu, iv, split = base
    r = len(S)
    W = np.zeros((r, r))
    W[iu, iv] = z
    W += W.T
    C = np.diag(W.sum(axis=1) + ground) - W
    q = _resistance(np.linalg.solve(np.eye(r) + S @ C, S), iu, iv)
    q[split] = np.inf
    return q


def is_balanced(sketch: SpectralSketch | np.ndarray, e: "Hyperedge",
                z: np.ndarray | dict, gamma: float) -> bool:
    """gamma * min over positive-weight pairs of the ratio >= max over all.
    A z whose positive pairs split the clique across components of the
    augmented Gram matrix has an infinite ratio, so is not balanced. A
    vertex of e outside [0, n) raises ValueError."""
    _check_vertices(e, len(getattr(sketch, "gram", sketch)))   # the Gram is n x n
    pairs = clique_pairs(e.vertices)
    if isinstance(z, dict):
        z = np.array([z[p] for p in pairs])
    q = _pair_ratios(_ratio_base(sketch, e, z), z)
    positive = z > 0
    if not positive.any():
        return False
    return gamma * q[positive].min() >= q.max() * (1.0 - 1e-9)


def get_weight_assignment(sketch: SpectralSketch | np.ndarray, e: "Hyperedge",
                          cfg: BalanceConfig = BalanceConfig()) -> WeightAssignment:
    """Greedy most-violated-first weight shifting until gamma-balance holds.

    Donor and recipient are the lowest-index pairs whose ratios lie within
    relative _TIE_RTOL of the smallest positive-weight and the largest ratio.

    Every shift reads the ratios from one small solve (_pair_ratios) on a
    base taken once: the first z is positive on every pair, and no shift
    splits the clique, since a donor that were a bridge would have ratio
    1/z_d and lam <= (gamma - 1) / (2 gamma q_max) < z_d.

    The shift amount is capped by the donor's remaining weight (keeps all
    weights non-negative and conserves the total). A vertex of e outside
    [0, n) raises ValueError.
    """
    _check_vertices(e, len(getattr(sketch, "gram", sketch)))   # the Gram is n x n
    pairs = clique_pairs(e.vertices)
    if len(pairs) == 1:
        return WeightAssignment(pairs, np.array([e.w]))
    z = np.full(len(pairs), e.w / len(pairs))
    base = _ratio_base(sketch, e, z)
    out = WeightAssignment(pairs, z, trace=[z.copy()])
    for _ in range(10_000 * len(pairs)):
        q = _pair_ratios(base, z)
        q_pos = np.where(z > 0, q, np.inf)
        # among ratios tied with the extreme up to rounding, the lowest
        # pair index wins, so ulp noise in the solve cannot pick the pair
        qmin_idx = int(np.argmax(q_pos <= q_pos.min() * (1.0 + _TIE_RTOL)))
        qmax_idx = int(np.argmax(q >= q.max() * (1.0 - _TIE_RTOL)))
        if gamma_ok(q[qmax_idx], q[qmin_idx], cfg.gamma) or qmax_idx == qmin_idx:
            break
        lam = min(z[qmin_idx],
                  (cfg.gamma - 1.0) / (2.0 * cfg.gamma * q[qmax_idx]))
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
    """The sketch's weighted edges plus the positive-weight clique pairs;
    the graph whose spanning-tree potential the shift loop climbs."""
    edges = list(sketch.rows)
    for (u, v), zi in zip(pairs, z):
        if zi > 0:
            edges.append(WeightedEdge(u, v, float(zi)))
    return Graph(sketch.n, edges)
