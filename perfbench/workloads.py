"""The four benchmark workloads.

Each workload is driven through the public streamsparse API by one
closed-loop producer: the next item goes in only after the previous call
returned. A workload is split into

  prepare(seed)   make the inputs from the seed and construct the states
                  (timed as set-up),
  run(ctx, rec)   the timed body; per-operation latencies go into rec,
  summary(out)    cheap fingerprint of the outputs (the determinism digest),
  check(ctx, out) output checks against independent or exact references,
                  run outside every timed region.

Library calls go through the package namespace (ss.name) at call time, so a
traced run sees them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

import streamsparse as ss

clock = time.perf_counter


@dataclass
class Recorder:
    """Per-rep samples: latencies of writes and reads, in seconds, and the
    time the workload's own client code spent between them."""

    push: list[float] = field(default_factory=list)
    query: list[float] = field(default_factory=list)
    client_s: float = 0.0


@dataclass
class Check:
    attempted: int
    failed: int
    error: float          # output quality; the unit is the workload's own
    kept_frac: float      # kept items / pushed items
    notes: list[str] = field(default_factory=list)


PROBE_SEED = 2510     # the probe vectors of the energy checks are fixed


def _seeds(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def probe_vectors(count: int, n: int) -> np.ndarray:
    return np.random.default_rng(PROBE_SEED).standard_normal((count, n))


def hyperedge_stream(n: int, m: int, rng: np.random.Generator):
    """m hyperedges of 2 to 4 distinct vertices, weights uniform on [1, 10]."""
    out = []
    for _ in range(m):
        k = int(rng.integers(2, 5))
        verts = tuple(int(v) for v in rng.choice(n, size=k, replace=False))
        out.append(ss.Hyperedge(verts, float(rng.uniform(1.0, 10.0))))
    return out


def energies(n: int, hyperedges, X: np.ndarray) -> np.ndarray:
    """Q(x) = sum_e w(e) max_{u,v in e} (x_u - x_v)^2 for every row x of X;
    an oracle written independently of streamsparse.hyper_energy."""
    total = np.zeros(X.shape[0])
    by_size: dict[int, tuple[list, list]] = {}
    for e in hyperedges:
        verts, ws = by_size.setdefault(len(e.vertices), ([], []))
        verts.append(e.vertices)
        ws.append(e.w)
    for verts, ws in by_size.values():
        vals = X[:, np.asarray(verts)]                 # (probes, edges, size)
        spread = vals.max(axis=2) - vals.min(axis=2)
        total += (spread * spread) @ np.asarray(ws)
    return total


def _energy_check(n, exact, approx, X, eps) -> tuple[int, float]:
    """Relative energy error on each probe vector; returns (misses, max)."""
    q = energies(n, exact, X)
    rel = np.abs(energies(n, approx, X) - q) / q
    return int((rel > eps).sum()), float(rel.max())


# -- budget_sweep ----------------------------------------------------------


class BudgetSweep:
    """The paper's budget-matched comparison, run_experiment, at reduced
    scale: online vs merge-reduce vs streaming at two edge budgets."""

    name = "budget_sweep"

    def __init__(self, tiny: bool = False):
        if tiny:
            self.kw = dict(n=20, m=600, budgets=(150, 300), trials=1,
                           probe_trials=1, tree_probe_trials=1, tolerance=60)
        else:
            self.kw = dict(n=100, m=5000, budgets=(1500, 3000), trials=2,
                           probe_trials=2, tree_probe_trials=2)

    def prepare(self, seed):
        return ss.ExperimentConfig(seed=seed, **self.kw)

    def run(self, cfg, rec):
        return ss.run_experiment(cfg)

    def summary(self, result):
        return {"rows": [[r.method, r.budget, r.stored_edges, round(r.error, 9)]
                         for r in result.rows],
                "tuned": sorted([m, b, round(k, 9)]
                                for (m, b), k in result.tuned.items()),
                "warnings": len(result.warnings)}

    def final_trials_s(self, result):
        """Seconds the experiment reports for its final trials."""
        return sum(r.seconds for r in result.raw)

    def check(self, cfg, result):
        warned = {w.split(":")[0] for w in result.warnings}
        failed, notes = 0, list(result.warnings)
        for r in result.rows:
            off = abs(r.stored_edges - r.budget) > cfg.tolerance
            if off or not math.isfinite(r.error) or \
                    f"{r.method} budget {r.budget}" in warned:
                failed += 1
                notes.append(f"{r.method} budget {r.budget}: stored "
                             f"{r.stored_edges:.0f}, error {r.error:.4g}")
        top = max(cfg.budgets)
        streaming = [r for r in result.rows
                     if r.method == "streaming" and r.budget == top][0]
        return Check(len(result.rows), failed, streaming.error,
                     streaming.stored_edges / cfg.m, notes)


# -- hyper_balanced --------------------------------------------------------


class HyperBalanced:
    """One hyperedge at a time into the balanced online hyperedge sampler
    with the default balanced_rho."""

    name = "hyper_balanced"
    eps = 1.0            # the hyper_sparsify default
    probes = 32

    def __init__(self, tiny: bool = False):
        self.n, self.m = (20, 40) if tiny else (100, 800)

    def prepare(self, seed):
        stream = hyperedge_stream(self.n, self.m, _seeds(seed, 1))
        r = max(e.size for e in stream)
        rows = sum(e.size * (e.size - 1) // 2 for e in stream)
        cfg = ss.HyperSamplerConfig(
            rho=ss.balanced_rho(r, len(stream), self.eps), variant="balanced",
            eps=self.eps, seed=seed, m_hint=max(rows, 2))
        return stream, ss.HyperSamplerState(self.n, cfg)

    def run(self, ctx, rec):
        stream, state = ctx
        for e in stream:
            t = clock()
            state.step(e)
            rec.push.append(clock() - t)
        return state.sparsifier()

    def summary(self, sparse):
        return {"kept": sparse.m,
                "weight": round(sum(e.w for e in sparse.hyperedges), 6)}

    def check(self, ctx, sparse):
        stream, _ = ctx
        misses, worst = _energy_check(self.n, stream, sparse.hyperedges,
                                      probe_vectors(self.probes, self.n),
                                      self.eps)
        return Check(self.probes, misses, worst, sparse.m / len(stream))


# -- window_mix -------------------------------------------------------------


class WindowMix:
    """Hyperedges into the sliding-window sparsifier, with a random suffix
    query after every tenth push."""

    name = "window_mix"
    query_every = 10
    check_every = 10     # check one query in this many
    probes = 16

    def __init__(self, tiny: bool = False):
        self.n, self.m, self.block = (12, 100, 16) if tiny else (60, 2000, 64)
        self.eps = ss.SlidingWindowConfig(block_size=self.block).eps

    def prepare(self, seed):
        stream = hyperedge_stream(self.n, self.m, _seeds(seed, 1))
        rng = _seeds(seed, 3)
        windows = {t: int(rng.integers(1, t + 2))
                   for t in range(self.query_every - 1, self.m,
                                  self.query_every)}
        to_check = set(list(windows)[::self.check_every])
        state = ss.SlidingWindowState(
            self.n, ss.SlidingWindowConfig(block_size=self.block, seed=seed))
        return stream, windows, to_check, state

    def run(self, ctx, rec):
        stream, windows, to_check, state = ctx
        checked = []
        for t, e in enumerate(stream):
            t0 = clock()
            state.push(e)
            t1 = clock()
            rec.push.append(t1 - t0)
            w = windows.get(t)
            if w is not None:
                t0 = clock()
                answer = state.query(w)
                rec.query.append(clock() - t0)
                if t in to_check:
                    checked.append((t, w, answer))
        return state.carries, state.stored(), checked

    def summary(self, out):
        carries, stored, checked = out
        return {"carries": carries, "stored": stored,
                "queries": [[t, w, h.m, round(sum(e.w for e in h.hyperedges), 6)]
                            for t, w, h in checked]}

    def check(self, ctx, out):
        stream = ctx[0]
        _, stored, checked = out
        X = probe_vectors(self.probes, self.n)
        failed, worst = 0, 0.0
        for t, w, answer in checked:
            misses, err = _energy_check(self.n, stream[t + 1 - w:t + 1],
                                        answer.hyperedges, X, self.eps)
            failed += misses > 0
            worst = max(worst, err)
        return Check(len(checked), failed, worst, stored / len(stream))


# -- adaptive_mincut ----------------------------------------------------------


class AdaptiveMincut:
    """Robust wrapper against the adaptive adversary of the acceptance suite,
    with a streaming min-cut query on the prefix every `query_every` rounds."""

    name = "adaptive_mincut"
    eps = 0.5
    checked_rounds = 20

    def __init__(self, tiny: bool = False):
        self.n, self.rounds, self.query_every = (
            (8, 60, 20) if tiny else (16, 1000, 50))
        self.mincut_eps = ss.MinCutPipelineConfig().eps

    def prepare(self, seed):
        state = ss.RobustWrapperState(self.n, self.eps, m_hint=self.rounds,
                                      seed=seed)
        sample = _seeds(seed, 4).choice(self.rounds, self.checked_rounds,
                                        replace=False)
        return (state, _seeds(seed, 5), ss.Graph(self.n, []),
                ss.MinCutPipelineConfig(seed=seed), set(sample.tolist()))

    def _adversary(self, t, exposed, rng):
        """Walk a cycle first; then attack the pair of least weight in the
        currently exposed output."""
        n = self.n
        w = float(rng.uniform(0.5, 3.0))
        if t < n or exposed is None:
            return ss.WeightedEdge(t % n, (t + 1) % n, w)
        W = np.zeros((n, n))
        for a, b, x in exposed.edges:
            W[a, b] += x
            W[b, a] += x
        np.fill_diagonal(W, np.inf)
        u, v = np.unravel_index(int(W.argmin()), W.shape)
        return ss.WeightedEdge(int(u), int(v), w)

    def run(self, ctx, rec):
        state, rng, prefix, mc_cfg, sample = ctx
        exposed, seen, cuts = None, [], []
        for t in range(self.rounds):
            t0 = clock()
            e = self._adversary(t, exposed, rng)
            prefix.add(e.u, e.v, e.w)
            t1 = clock()
            exposed = state.step(e)
            t2 = clock()
            rec.client_s += t1 - t0
            rec.push.append(t2 - t1)
            if t in sample:
                seen.append((t, exposed))
            if (t + 1) % self.query_every == 0:
                t0 = clock()
                value = ss.stream_mincut(prefix, mc_cfg)
                rec.query.append(clock() - t0)
                cuts.append((t, value))
        return prefix, state.switch_count, state.inner.kept_count, seen, cuts

    def summary(self, out):
        _, switches, kept, seen, cuts = out
        return {"switches": switches, "kept": kept,
                "exposed": [[t, g.m] for t, g in seen],
                "cuts": [[t, round(v, 9)] for t, v in cuts]}

    def check(self, ctx, out):
        prefix, _, kept, seen, cuts = out
        edges, n = prefix.edges, self.n
        failed, worst, notes = 0, 0.0, []
        for t, exposed in seen:
            try:
                err = ss.rayleigh_error(ss.laplacian(ss.Graph(n, edges[:t + 1])),
                                        ss.laplacian(exposed))
            except ss.KernelMismatchError:
                err = math.inf
            worst = max(worst, err)
            if not err <= self.eps:
                failed += 1
                notes.append(f"round {t}: exposed error {err:.4g}")
        for t, value in cuts:
            exact = ss.stoer_wagner(ss.Graph(n, edges[:t + 1])).value
            lo, hi = exact / (1 + self.mincut_eps), exact * (1 + self.mincut_eps)
            if not lo <= value <= hi:
                failed += 1
                notes.append(f"round {t}: min cut {value:.6g} vs {exact:.6g}")
        return Check(len(seen) + len(cuts), failed, worst,
                     kept / self.rounds, notes)


WORKLOADS = {w.name: w for w in (BudgetSweep, HyperBalanced, WindowMix,
                                 AdaptiveMincut)}
