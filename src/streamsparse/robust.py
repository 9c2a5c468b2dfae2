"""Adversarially robust wrappers with lazy eigenvalue-gated switching.

The exposed sparsifier only changes when some Laplacian eigenvalue of the
inner snapshot has grown past a (1 + eps/8) gate since the last switch, so
an adaptive adversary observing the output learns nothing between switches.
The snapshot's Laplacian is the inner sampler's sketch Gram, which holds its
kept edges, so a step that keeps an edge costs one eigvalsh; the snapshot
graph itself is only built when the gate trips.
The hypergraph variant gates on the associated graph and swaps the exposed
hypergraph exactly when the graph gate trips.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .balance import clique_pairs
from .graph import (Graph, KernelMismatchError, WeightedEdge,
                    _check_vertices, laplacian, rayleigh_error)
from .hypergraph import (Hyperedge, Hypergraph, HyperSamplerConfig,
                         HyperSamplerState, fast_rho)
from .online import OnlineSamplerState, default_c
from .rng import spawn_seed

_ZERO_TOL = 1e-9   # relative floor below which an eigenvalue counts as zero


class RobustWrapperState:
    """Graph stream wrapper. The inner sampler runs at eps/8; the exposed
    snapshot is refreshed only at gate events."""

    def __init__(self, n: int, eps: float, m_hint: int = 1024, seed: int = 0,
                 inner: OnlineSamplerState | None = None):
        if not 0 < eps < 8:
            raise ValueError("eps must be in (0, 8)")
        self.n = n
        self.eps = eps
        self.gate = 1.0 + eps / 8.0
        if inner is None:
            inner_eps = eps / 8.0
            inner = OnlineSamplerState(n, default_c(m_hint, inner_eps),
                                       seed=seed)
        elif not inner._owns_sketch:
            raise ValueError("the gate reads the inner sampler's own sketch; "
                             "a sampler reading a tower has none")
        self.inner = inner
        self.exposed = Graph(n, [])
        self.baseline = np.zeros(n)       # sorted eigenvalues at last switch
        self.switch_count = 0

    def _within_gate(self, eigs: np.ndarray) -> bool:
        scale = max(float(eigs.max(initial=0.0)),
                    float(self.baseline.max(initial=0.0)), 1.0)
        floor = _ZERO_TOL * scale
        for new, base in zip(eigs, self.baseline):
            if base <= floor:
                if new > floor:
                    return False        # zero -> nonzero counts as a violation
                continue
            ratio = new / base
            if ratio > self.gate or ratio < 1.0 / self.gate:
                return False
        return True

    def step(self, e: WeightedEdge) -> Graph:
        kept, _ = self.inner.process_edge(e)
        if not kept:
            # the snapshot, and so the gate's verdict on it, is unchanged
            return self.exposed
        # the Laplacian of inner.finalize(); eigvalsh sorts ascending
        eigs = np.linalg.eigvalsh(self.inner.sketch.gram)
        if not self._within_gate(eigs):
            self.exposed = self.inner.finalize()
            self.baseline = eigs
            self.switch_count += 1
        return self.exposed

    def stats(self) -> dict:
        """Counters of this wrapper, as a plain dict: switches of the
        exposed snapshot, and the inner sampler's stats() under "inner"."""
        return {"switches": self.switch_count, "inner": self.inner.stats()}


class RobustHyperWrapperState:
    """Hypergraph wrapper: a graph wrapper over the associated-graph stream
    at eps/(8 r^2) decides the switch times; a separate hypergraph sampler
    at eps/8 supplies the snapshots. Its eps/(8 r^2) split covers
    hyperedges of at most r vertices, so r must be at least 2."""

    def __init__(self, n: int, eps: float, r: int, m_hint: int = 1024,
                 seed: int = 0):
        if r < 2:
            raise ValueError("r must be at least 2")
        self.n = n
        self.eps = eps
        self.r = r
        eps_graph = eps / (8.0 * r * r)
        row_hint = max(m_hint * r * (r - 1) // 2, 2)
        self.graph_wrapper = RobustWrapperState(
            n, eps_graph, m_hint=row_hint, seed=spawn_seed(seed, 0))
        inner_eps = eps / 8.0
        self.sampler = HyperSamplerState(n, HyperSamplerConfig(
            rho=fast_rho(r, m_hint, inner_eps), eps=inner_eps,
            seed=spawn_seed(seed, 1), m_hint=row_hint))
        self.exposed = Hypergraph(n)
        self.switch_count = 0

    def step(self, e: Hyperedge) -> Hypergraph:
        """A vertex outside [0, n) or more than r vertices raise ValueError
        before any state changes."""
        _check_vertices(e, self.n)
        if e.size > self.r:
            raise ValueError(f"hyperedge {e.vertices} has more than "
                             f"r={self.r} vertices")
        before = self.graph_wrapper.switch_count
        for u, v in clique_pairs(e.vertices):
            self.graph_wrapper.step(WeightedEdge(u, v, e.w))
        switched = self.graph_wrapper.switch_count > before
        self.sampler.step(e)
        if switched:
            self.exposed = self.sampler.sparsifier()
            self.switch_count += 1
        return self.exposed

    def stats(self) -> dict:
        """Counters of this wrapper, as a plain dict: switches of the
        exposed hypergraph, the graph wrapper's stats() under
        "graph_wrapper" and the hypergraph sampler's under "sampler"."""
        return {"switches": self.switch_count,
                "graph_wrapper": self.graph_wrapper.stats(),
                "sampler": self.sampler.stats()}


# -- adversary game harness ---------------------------------------------


@dataclass(frozen=True)
class AdversaryScript:
    """Deterministic adaptive adversary: strategy(history, round) -> edge,
    where history is the list of exposed outputs so far."""

    strategy: Callable[[list[Graph], int], WeightedEdge]
    rounds: int
    seed: int = 0


@dataclass
class TranscriptRecord:
    round: int
    edge: tuple
    switched: bool
    error: float
    valid: bool


@dataclass
class Transcript:
    records: list[TranscriptRecord] = field(default_factory=list)
    switch_count: int = 0

    def save(self, path) -> None:
        with open(path, "w") as fh:
            for r in self.records:
                fh.write(json.dumps({
                    "round": r.round, "edge": list(r.edge),
                    "switch": r.switched, "error": r.error,
                    "valid": r.valid}) + "\n")


def play_game(adversary: AdversaryScript,
              state: RobustWrapperState) -> Transcript:
    """Drive the two-player loop and check the exposed output against the
    exact prefix Laplacian every round, within the wrapper's eps."""
    transcript = Transcript()
    history: list[Graph] = []
    prefix = Graph(state.n, [])
    for t in range(adversary.rounds):
        e = adversary.strategy(history, t)
        prefix.add(e.u, e.v, e.w)
        before = state.switch_count
        exposed = state.step(e)
        history.append(exposed)
        try:
            err = rayleigh_error(laplacian(prefix), laplacian(exposed))
        except KernelMismatchError:
            err = math.inf
        transcript.records.append(TranscriptRecord(
            round=t, edge=(e.u, e.v, e.w),
            switched=state.switch_count > before,
            error=float(err), valid=bool(err <= state.eps)))
    transcript.switch_count = state.switch_count
    return transcript
