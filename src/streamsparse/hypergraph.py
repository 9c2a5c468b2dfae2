"""Hypergraphs, their energy form, and online hyperedge sparsifiers.

The energy of a hypergraph generalizes the Laplacian quadratic form:
Q(x) = sum_e w(e) * max_{u,v in e} (x_u - x_v)^2. Two online sampling rules
are provided. The fast variant scores each hyperedge by the largest sketch
resistance over its clique pairs; the balanced variant first splits the
hyperedge weight across its pairs with a balanced assignment, which brings
the sample count down at the cost of running the balancing loop. Both read
the resistances from the sketch's grounded inverse of its Gram matrix, the
same one the row sampler scores from, which catches up on the sketch's new
rows when it is read (see graph.SpectralSketch), so scoring a hyperedge is
an O(r^2) gather and a balancing shift a solve on the clique's vertices
plus the sketch roots its pairs join.

The fast variant first tries the sketch's weighted degrees: the largest
pair resistance is at least 1 / min_{x in e} d_x, so a hyperedge with
rho * w >= min_x d_x (up to the row sampler's margin) is certified, kept
with p = 1 without reading the inverse, and scored by that lower bound
w / min_x d_x (inf at degree 0).

HyperSamplerState.extend runs the sampler over a list and ends in the
state a loop of step leaves, bit for bit. In the fast variant it takes
each run of hyperedges certified outright, every clique row certified by
the row sampler's degree test and then the hyperedge by its own, in bulk:
running degrees advance by the additions the Gram diagonal receives, and
the run's rows reach the sketch as columns. A hyperedge that ends a run
goes through step, and a new run starts after it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .balance import clique_pairs, get_weight_assignment
from .graph import Graph, WeightedEdge, _check_vertices
from .online import _CERTIFY_MARGIN, OnlineSamplerState, default_c
from .rng import UniformByIndex, spawn_seed


@dataclass(frozen=True)
class Hyperedge:
    vertices: tuple[int, ...]
    w: float

    def __post_init__(self):
        verts = tuple(sorted(self.vertices))
        if len(verts) < 2:
            raise ValueError("hyperedge needs at least two vertices")
        if len(set(verts)) != len(verts):
            raise ValueError("hyperedge vertices must be distinct")
        if not 0 < self.w < math.inf:
            raise ValueError("hyperedge weight must be positive and finite")
        object.__setattr__(self, "vertices", verts)

    @property
    def size(self) -> int:
        return len(self.vertices)


def _rescaled(e: Hyperedge, factor: float) -> Hyperedge:
    """e with its weight multiplied by factor. The vertex tuple is reused
    as it is (already sorted, distinct and range-checked); only the new
    weight is checked."""
    w = e.w * factor
    if not 0 < w < math.inf:
        raise ValueError("hyperedge weight must be positive and finite")
    out = object.__new__(Hyperedge)
    object.__setattr__(out, "vertices", e.vertices)
    object.__setattr__(out, "w", w)
    return out


@dataclass
class Hypergraph:
    n: int
    hyperedges: list[Hyperedge] = field(default_factory=list)

    def __post_init__(self):
        for e in self.hyperedges:
            _check_vertices(e, self.n)

    @property
    def m(self) -> int:
        return len(self.hyperedges)

    @property
    def r(self) -> int:
        """Rank: the largest hyperedge size (2 for an empty hypergraph)."""
        return max((e.size for e in self.hyperedges), default=2)

    def add(self, e: Hyperedge) -> None:
        _check_vertices(e, self.n)
        self.hyperedges.append(e)


def hyper_energy(h: Hypergraph, x: np.ndarray) -> float:
    """Q(x) = sum_e w(e) * max_{u,v in e} (x_u - x_v)^2."""
    x = np.asarray(x, dtype=float)
    if x.shape != (h.n,):
        raise ValueError("x must have one entry per vertex")
    total = 0.0
    for e in h.hyperedges:
        vals = x[list(e.vertices)]
        spread = vals.max() - vals.min()
        total += e.w * spread * spread
    return total


def associated_graph(h: Hypergraph) -> Graph:
    """Clique expansion: each hyperedge contributes all of its pairs, every
    pair carrying the full hyperedge weight. Parallel edges are kept."""
    edges = [WeightedEdge(u, v, e.w)
             for e in h.hyperedges for u, v in clique_pairs(e.vertices)]
    return Graph(h.n, edges)


def quantize_weight(w: float, eps: float) -> float:
    """Round w to the nearest power of (1 + eps) in log scale."""
    if not 0 < w < math.inf:
        raise ValueError("weight must be positive and finite")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    k = round(math.log(w) / math.log1p(eps))
    return (1.0 + eps) ** k


_BETA = 0.5     # constant factor of both default oversampling rates
_DELTA = 0.1    # failure probability behind the fast variant's rate


def fast_rho(r: int, m: int, eps: float) -> float:
    """Oversampling rate of the fast variant: _BETA * r^4 * ln(m/_DELTA) / eps^2."""
    return _BETA * r ** 4 * math.log(max(m, 2) / _DELTA) / (eps * eps)


def balanced_rho(r: int, m: int, eps: float) -> float:
    """Oversampling rate of the balanced variant: _BETA * ln m * ln(2r) / eps^2."""
    return _BETA * math.log(max(m, 2)) * math.log(2 * r) / (eps * eps)


class HyperDecision(NamedTuple):
    kept: bool
    p: float
    score: float    # max pair score before the rho multiplier, or for a
                    # certified hyperedge its lower bound w / min degree


@dataclass(frozen=True)
class HyperSamplerConfig:
    rho: float
    variant: str = "fast"            # "fast" | "balanced"
    c: float | None = None           # row-sampler multiplier; None -> default
    eps: float = 1.0
    seed: int = 0
    m_hint: int = 1024               # expected clique-row count, for default c

    def __post_init__(self):
        if self.variant not in ("fast", "balanced"):
            raise ValueError("variant must be 'fast' or 'balanced'")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.c is not None and not self.c > 0:
            raise ValueError("c must be positive")
        if not self.eps > 0:
            raise ValueError("eps must be positive")


class HyperSamplerState:
    """Sequential online hyperedge sampler.

    Clique rows of every arriving hyperedge update the shared row-sampler
    sketch whether or not the hyperedge itself is kept; keep decisions are
    keyed by (seed, hyperedge index). The row sampler, hyperedge scoring
    and balancing all read the sketch's one grounded inverse, which folds
    every sketch row once, in order.
    """

    def __init__(self, n: int, cfg: HyperSamplerConfig):
        self.n = n
        self.cfg = cfg
        c = cfg.c if cfg.c is not None else default_c(cfg.m_hint, cfg.eps)
        self.sampler = OnlineSamplerState(n, c, seed=spawn_seed(cfg.seed, 1))
        self.kept: list[tuple[Hyperedge, float]] = []  # (edge, 1/p factor)
        self.seen = 0
        self._draws = UniformByIndex(cfg.seed)
        self._shifts = 0
        self._certified = 0

    # -- pair scoring against the sketch -------------------------------

    def _pair_scores(self, e: Hyperedge) -> float:
        """max over clique pairs of w(e) * resistance on the sketch Gram
        matrix; infinite when a pair straddles sketch components.

        The sketch's grounded inverse (graph._GroundedInverse) has every
        appended row folded in, so the resistances are an O(r^2) gather and
        the straddle test a label comparison.
        """
        inv = self.sampler.sketch._grounded_inverse()
        if inv.straddles(e.vertices):
            return math.inf
        u, v = np.array(clique_pairs(e.vertices), dtype=np.intp).T
        return e.w * float(inv.resistance(u, v).max())

    # -- the two sampling rules, each returning (p, score) -------------

    def _fast(self, e: Hyperedge) -> tuple[float, float]:
        """Feed every clique pair at weight w(e) to the row sampler, then
        p = min(1, rho * max pair resistance), or p = 1 when the sketch's
        weighted degrees certify e."""
        for u, v in clique_pairs(e.vertices):
            self.sampler._sample(u, v, e.w)
        G = self.sampler.sketch.gram
        d = float(min(G[x, x] for x in e.vertices))
        if self.cfg.rho * e.w >= d * _CERTIFY_MARGIN:
            self._certified += 1
            return 1.0, e.w / d if d else math.inf
        score = self._pair_scores(e)
        return min(1.0, self.cfg.rho * score), score

    def _balanced(self, e: Hyperedge) -> tuple[float, float]:
        """Split w(e) across the clique with a balanced assignment, feed the
        pairs of weight z > 0, then p = min(1, 2 * rho * max pair score). A
        balancing failure (iteration cap) propagates as BalanceError."""
        assignment = get_weight_assignment(self.sampler.sketch, e)
        self._shifts += max(len(assignment.trace) - 1, 0)   # a pair has no trace
        for (u, v), z in zip(assignment.pairs, assignment.z.tolist()):
            if z > 0:
                self.sampler._sample(u, v, z)
        score = self._pair_scores(e)
        return min(1.0, 2.0 * self.cfg.rho * score), score

    def step(self, e: Hyperedge) -> HyperDecision:
        """Run the configured rule on e and keep it with probability p, the
        draw keyed by (seed, hyperedge index). A vertex outside [0, n)
        raises ValueError before any state changes."""
        _check_vertices(e, self.n)
        p, score = (self._balanced(e) if self.cfg.variant == "balanced"
                    else self._fast(e))
        idx = self.seen
        self.seen += 1
        kept = p >= 1.0 or self._draws.uniform(idx) < p
        if kept:
            self.kept.append((e, 1.0 / p))
        return HyperDecision(kept, p, score)

    def extend(self, edges) -> list[HyperDecision]:
        """step each hyperedge of edges in order and return the decisions.

        The sampler ends in the state the steps leave, bit for bit. Every
        hyperedge's vertices are checked first, and one outside [0, n)
        raises ValueError before any state changes. The fast variant takes
        each run of hyperedges that the weighted degrees certify outright
        in bulk (_certified_run) and steps the hyperedge that ends the run,
        then starts a new run after it; the balanced variant steps each."""
        edges = list(edges)
        for e in edges:
            _check_vertices(e, self.n)
        if self.cfg.variant == "balanced":
            return [self.step(e) for e in edges]
        out: list[HyperDecision] = []
        while len(out) < len(edges):
            out += self._certified_run(edges, len(out))
            if len(out) < len(edges):
                out.append(self.step(edges[len(out)]))
        return out

    def _certified_run(self, edges: list[Hyperedge],
                       start: int) -> list[HyperDecision]:
        """Take edges[start:end] as the fast rule's steps would, end being
        the first hyperedge from start not certified outright, and return
        their decisions.

        A hyperedge is certified outright when each clique row in turn
        passes the row sampler's test c * w >= min(d_u, d_v) * margin and
        then the hyperedge passes rho * w >= min_x d_x * margin, d the
        weighted degrees: the Gram diagonal, advanced row by row by the
        additions _stamp makes. Its steps would keep every row at weight w
        and the hyperedge with p = 1, taking no draw, so the run's rows go
        to the sketch as columns (SpectralSketch._extend) and the counters
        advance by the run's row and hyperedge counts."""
        sampler = self.sampler
        c, rho = sampler.c, self.cfg.rho
        d = sampler.sketch.gram.diagonal().tolist()
        pairs: list[tuple[int, int]] = []
        ts: list[float] = []
        scores: list[float] = []
        for e in itertools.islice(edges, start, None):
            w = e.w
            cw = c * w
            rows = clique_pairs(e.vertices)
            for u, v in rows:
                du, dv = d[u], d[v]
                if not cw >= (du if du < dv else dv) * _CERTIFY_MARGIN:
                    break
                d[u] = du + w
                d[v] = dv + w
            else:
                dmin = min(map(d.__getitem__, e.vertices))
                if rho * w >= dmin * _CERTIFY_MARGIN:
                    pairs += rows
                    ts += itertools.repeat(w, len(rows))
                    scores.append(w / dmin)     # dmin >= w > 0
                    continue
            break
        if not scores:
            return []
        us, vs = zip(*pairs)
        sampler.sketch._extend(us, vs, ts)
        sampler._index += len(ts)
        sampler._certified += len(ts)
        sampler.kept_count += len(ts)
        self.seen += len(scores)
        self._certified += len(scores)
        self.kept.extend(zip(edges[start:start + len(scores)],
                             itertools.repeat(1.0)))
        # tuple.__new__ builds each decision in C, as graph._edge_list does
        return list(map(tuple.__new__, itertools.repeat(HyperDecision),
                        zip(itertools.repeat(True), itertools.repeat(1.0),
                            scores)))

    def sparsifier(self) -> Hypergraph:
        """Kept hyperedges with weights scaled by 1/p, in arrival order."""
        out = Hypergraph(self.n)
        out.hyperedges = [_rescaled(e, factor) for e, factor in self.kept]
        return out

    def stats(self) -> dict:
        """Counters of this sampler, as a plain dict: hyperedges seen,
        certified (fast variant) and kept; balancing shifts; and the inner
        row sampler's stats() under "sampler", which carries the counters
        of the sketch's one grounded inverse."""
        return {"seen": self.seen, "certified": self._certified,
                "kept": len(self.kept), "shifts": self._shifts,
                "sampler": self.sampler.stats()}


def hyper_sparsify(h: Hypergraph, variant: str = "fast", eps: float = 1.0,
                   seed: int = 0, rho: float | None = None) -> Hypergraph:
    """One-shot run over a whole hyperedge list with the default rho."""
    if rho is None:
        rho = (balanced_rho(h.r, h.m, eps) if variant == "balanced"
               else fast_rho(h.r, h.m, eps))
    rows = sum(e.size * (e.size - 1) // 2 for e in h.hyperedges)
    cfg = HyperSamplerConfig(rho=rho, variant=variant, eps=eps,
                             seed=seed, m_hint=max(rows, 2))
    state = HyperSamplerState(h.n, cfg)
    state.extend(h.hyperedges)
    return state.sparsifier()
