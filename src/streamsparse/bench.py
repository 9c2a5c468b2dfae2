"""Benchmark harness: budget-matched comparison of three sparsifiers.

Methods:
  online       - leverage-score sampling where the reference Laplacian is
                 recomputed once per batch of edges (exact prefix scores).
  merge_reduce - the coreset tower over the raw stream.
  streaming    - online front-end feeding the tower, with the tower output
                 doubling as the front-end's scoring sketch.

Each method has one size knob (probability constant, block size) which is
tuned until the mean stored-edge count over probe trials lands inside
budget +- tolerance; the tower knobs prefer the largest feasible block so
the tree stays as shallow as possible. The stored-edge count is the maximum number of
edges simultaneously resident, not the final sparsifier size.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .graph import (Graph, KernelMismatchError, WeightedEdge, _accumulate,
                    _columns, _components, _resistance, laplacian,
                    pseudo_inverse, rayleigh_error)
from .io import load_snap
from .merge_reduce import (MergeReduceTree, OnlineConfig, StreamPipelineConfig,
                           StreamSparsifier, TreeConfig)
from .rng import spawn_seed

# constants from the hyperparameter table of the reference experiments,
# keyed by edge budget
PAPER_C_OL_STR = {500: 2.0, 1000: 2.5, 1500: 5.5,
                  2000: 8.0, 2500: 11.5, 3000: 15.0}

METHODS = ("online", "merge_reduce", "streaming")

CSV_COLUMNS = ("method", "budget", "trial", "stored_edges", "error", "seconds")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 100
    m: int = 50000
    seed: int = 0
    path: str | None = None              # SNAP file instead of synthetic
    budgets: tuple[int, ...] = (500, 1000, 1500, 2000, 2500, 3000)
    trials: int = 5
    methods: tuple[str, ...] = METHODS
    batch_size: int = 100
    tolerance: int = 200
    probe_trials: int = 10               # probes for the online constant sweep
    tree_probe_trials: int = 3           # probes for tower knob sweeps
    integer_weights: bool = False

    def __post_init__(self):
        if (min(self.trials, self.probe_trials, self.tree_probe_trials,
                self.batch_size) < 1 or any(b <= 0 for b in self.budgets)):
            raise ValueError("trial and probe counts and batch_size must be "
                             ">= 1 and budgets positive")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")


@dataclass(frozen=True)
class RawRow:
    method: str
    budget: int
    trial: int
    stored_edges: int
    error: float
    seconds: float


@dataclass(frozen=True)
class ResultRow:
    method: str
    budget: int
    stored_edges: float
    error: float
    seconds: float


@dataclass
class ExperimentResult:
    rows: list[ResultRow] = field(default_factory=list)
    raw: list[RawRow] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    tuned: dict[tuple[str, int], float] = field(default_factory=dict)


def gen_synthetic(n: int, m: int, seed: int,
                  integer_weights: bool = False) -> Graph:
    """m edges with uniform endpoints (resampled until u != v) and weights
    uniform on [1, 10]; deterministic per seed."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    rng = np.random.default_rng(seed)
    us = np.empty(m, dtype=np.int64)
    vs = np.empty(m, dtype=np.int64)
    need = np.arange(m)
    while need.size:
        us[need] = rng.integers(0, n, size=need.size)
        vs[need] = rng.integers(0, n, size=need.size)
        need = need[us[need] == vs[need]]
    if integer_weights:
        ws = rng.integers(1, 11, size=m).astype(float)
    else:
        ws = rng.uniform(1.0, 10.0, size=m)
    return Graph(n, [WeightedEdge(int(u), int(v), float(w))
                     for u, v, w in zip(us, vs, ws)])


# -- per-trial cached data ----------------------------------------------


def batch_online_leverages(g: Graph, batch_size: int = 100) -> np.ndarray:
    """Leverage of each edge against the exact Laplacian of the prefix up to
    the previous batch boundary; inf when the endpoints are not yet
    connected there (forcing p = 1)."""
    out = np.full(g.m, math.inf)
    L = np.zeros((g.n, g.n))
    for start in range(0, g.m, batch_size):
        u, v, w = _columns(g.edges[start:start + batch_size])
        if start:
            labels = _components(L)
            lev = w * _resistance(pseudo_inverse(L), u, v)
            out[start:start + u.size] = np.where(labels[u] == labels[v],
                                                 lev, math.inf)
        _accumulate(L, u, v, w)
    return out


class _Trial:
    """Lazily computed per-trial artifacts shared across budgets/methods."""

    def __init__(self, cfg: ExperimentConfig, index: int):
        self.index = index
        self.sample_seed = spawn_seed(cfg.seed, 1, index)
        if cfg.path is not None:
            self.graph = load_snap(cfg.path, seed=spawn_seed(cfg.seed, 0, index))
        else:
            self.graph = gen_synthetic(cfg.n, cfg.m, spawn_seed(cfg.seed, 0, index),
                                       cfg.integer_weights)
        self._L = None
        self._lev = None
        self._batch_size = cfg.batch_size

    @property
    def L(self) -> np.ndarray:
        if self._L is None:
            self._L = laplacian(self.graph)
        return self._L

    @property
    def batch_leverages(self) -> np.ndarray:
        if self._lev is None:
            self._lev = batch_online_leverages(self.graph, self._batch_size)
        return self._lev


def _error(L: np.ndarray, sparsifier: Graph) -> float:
    try:
        return rayleigh_error(L, laplacian(sparsifier))
    except KernelMismatchError:
        return math.inf


# -- the three methods ---------------------------------------------------


def _run_online(trial: _Trial, c: float) -> tuple[int, Graph]:
    lev = trial.batch_leverages
    p = np.where(np.isinf(lev), 1.0, np.minimum(1.0, c * lev))
    kept = np.random.default_rng(trial.sample_seed).random(lev.size) < p
    edges = [WeightedEdge(e.u, e.v, e.w / p[i])
             for i, e in enumerate(trial.graph.edges) if kept[i]]
    return len(edges), Graph(trial.graph.n, edges)


def _run_merge_reduce(trial: _Trial, block_size: int
                      ) -> tuple[int, Graph, MergeReduceTree]:
    # rho defaults to block_size / n, so the reduced coresets match the
    # block size and the peak resident count scales with the one knob
    tree = MergeReduceTree(trial.graph.n, TreeConfig(
        block_size=block_size, seed=trial.sample_seed))
    for e in trial.graph.edges:
        tree.push(e)
    return tree.peak_resident, tree.sparsifier(), tree


def _run_streaming(trial: _Trial, c: float, block_size: int
                   ) -> tuple[int, Graph, MergeReduceTree]:
    cfg = StreamPipelineConfig(
        online=OnlineConfig(c=c, seed=trial.sample_seed),
        tree=TreeConfig(block_size=block_size,
                        seed=spawn_seed(trial.sample_seed, 1)),
        use_tree_sketch=True, m_hint=trial.graph.m)
    pipe = StreamSparsifier(trial.graph.n, cfg)
    for e in trial.graph.edges:
        pipe.push(e)
    return pipe.max_resident, pipe.result(), pipe.tree


# -- knob tuning ---------------------------------------------------------


def _bisect_knob(count_of, budget: int, tolerance: int, lo: float,
                 hi: float) -> tuple[float, float]:
    """Bisect a monotone mean-count function in log space until the count
    lands in budget +- tolerance (or the bracket is exhausted)."""
    clo, chi = count_of(lo), count_of(hi)
    if clo > budget + tolerance:
        return lo, clo
    if chi < budget - tolerance:
        return hi, chi
    knob, count = hi, chi
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        cmid = count_of(mid)
        if abs(cmid - budget) <= tolerance:
            return mid, cmid
        if cmid < budget:
            lo = mid
        else:
            hi = mid
        knob, count = mid, cmid
        if hi / lo < 1.0 + 1e-6:
            break
    return knob, count


def _tune_tree_knob(count_one, count_of, budget: int,
                    tolerance: int) -> tuple[float, float]:
    """Pick the largest block size whose mean peak count lands in
    budget +- tolerance, sweeping down from 4 * budget to 4 by steps of
    1/1.15.

    The peak resident count is sawtoothed in the block size: it grows with
    the block at fixed tree height and drops where the height decreases, so
    the budget window can be reached in several teeth. Larger blocks mean
    shallower trees and better accuracy, so teeth are scanned from the top
    with a cheap one-probe count, confirming hits with the full probe mean.
    The counts may ask for a block twice, or, on a trial whose tower never
    merged, for any block above half its push count, which runs
    identically; _tune answers both from its probe cache without a run.
    """
    best: tuple[float, float, float] | None = None  # (gap, block, count)

    def probe(block: float):
        nonlocal best
        block = float(max(int(round(block)), 4))
        c1 = count_one(block)
        if abs(c1 - budget) <= tolerance:
            c = count_of(block)
            if abs(c - budget) <= tolerance:
                return block, c
            c1 = c
        if best is None or abs(c1 - budget) < best[0]:
            best = (abs(c1 - budget), block, c1)
        return None, c1

    b = 4.0 * budget
    prev_b = prev_c = None
    while b >= 4.0:
        hit, c1 = probe(b)
        if hit is not None:
            return hit, c1
        if (prev_c is not None and c1 < budget - tolerance
                and prev_c > budget + tolerance):
            # the window sits inside this tooth, where the count is
            # monotone in the block: bisect locally
            blo, bhi = b, prev_b
            for _ in range(12):
                mid = math.sqrt(blo * bhi)
                hit, cm = probe(mid)
                if hit is not None:
                    return hit, cm
                if cm < budget:
                    blo = mid
                else:
                    bhi = mid
                if bhi / max(blo, 1.0) < 1.001:
                    break
        prev_b, prev_c = b, c1
        b /= 1.15
    return best[1], best[2]


def _tune(cfg: ExperimentConfig, method: str, budget: int,
          trials: list[_Trial], result: ExperimentResult) -> dict:
    """Pick the method's knob values for one budget, recording the tuned
    constant and a warning when the budget is out of reach.

    A tower sweep reads its probe counts through one cache per call, keyed
    by (trial index, block). A probe whose tower never merged (height at
    most 1, so at most one carry: P pushes with 2 * block > P) also answers
    every block b with 2 * b > P on its trial. Both rules are exact: the
    block size is read only by the carry test and the reductions a carry
    starts, and a carry that only parks the block at an empty level 0
    changes neither the items, their order, the Gram, version nor
    last_delta. So up to the first merge, at push 2 * b, the tower the
    streaming sampler scores against, and hence every keep and the peak
    count, are the same for any block; with 2 * b > P that push never
    comes. The height, not merges, marks a merge, since the identity
    reducer does not count them.
    """
    # sweep to a tighter internal target so the final-trial mean still
    # lands inside the reported tolerance
    tune_tol = max(cfg.tolerance // 2, 25)
    if method == "online":
        probes = trials[:cfg.probe_trials]

        def count_of(c):
            return float(np.mean([_run_online(t, c)[0] for t in probes]))

        knob, count = _bisect_knob(count_of, budget, tune_tol, 1e-4, 1e2)
        params = {"c": knob}
    else:
        params = {}
        if method == "streaming":
            params["c"] = PAPER_C_OL_STR.get(budget, 5.0)
        seen: dict[tuple[int, int], int] = {}   # (trial, block) -> count
        flat: dict[int, tuple[int, int]] = {}   # trial -> (pushes, count)

        def count_at(t: _Trial, block: int) -> int:
            pushes, stored = flat.get(t.index, (math.inf, 0))
            if 2 * block > pushes:
                return stored
            if (t.index, block) not in seen:
                stored, _, tree = _run_one(t, method,
                                           {**params, "block_size": block})
                if tree.height <= 1:
                    flat[t.index] = (tree.pushed, stored)
                seen[t.index, block] = stored
            return seen[t.index, block]

        def count_of(block, probes=trials[:cfg.tree_probe_trials]):
            return float(np.mean([count_at(t, int(block)) for t in probes]))

        knob, count = _tune_tree_knob(lambda b: count_of(b, trials[:1]),
                                      count_of, budget, tune_tol)
        params["block_size"] = max(int(round(knob)), 4)
    result.tuned[(method, budget)] = knob
    if abs(count - budget) > cfg.tolerance:
        result.warnings.append(
            f"{method} budget {budget}: tuned mean stored count {count:.0f} "
            f"outside +-{cfg.tolerance}")
    return params


def _run_one(trial: _Trial, method: str, params: dict) -> tuple:
    """(stored count, sparsifier), plus the tower for the tower methods."""
    if method == "online":
        return _run_online(trial, params["c"])
    if method == "merge_reduce":
        return _run_merge_reduce(trial, params["block_size"])
    return _run_streaming(trial, params["c"], params["block_size"])


def run_experiment(cfg: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    result = ExperimentResult()
    probes = [cfg.probe_trials if m == "online" else cfg.tree_probe_trials
              for m in cfg.methods]
    trials = [_Trial(cfg, t) for t in range(max(cfg.trials, *probes))]
    for method in cfg.methods:
        for budget in cfg.budgets:
            params = _tune(cfg, method, budget, trials, result)
            rows = []
            for t in range(cfg.trials):
                start = time.perf_counter()
                stored, sparsifier = _run_one(trials[t], method, params)[:2]
                seconds = time.perf_counter() - start
                err = _error(trials[t].L, sparsifier)
                rows.append(RawRow(method, budget, t, stored, err, seconds))
            result.raw.extend(rows)
            result.rows.append(ResultRow(
                method, budget,
                float(np.mean([r.stored_edges for r in rows])),
                float(np.mean([r.error for r in rows])),
                float(np.mean([r.seconds for r in rows]))))
    return result


# -- serialization -------------------------------------------------------


def write_csv(rows: list[RawRow], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([r.method, r.budget, r.trial, r.stored_edges,
                         repr(r.error), repr(r.seconds)])


def read_csv(fh) -> list[RawRow]:
    reader = csv.reader(fh)
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    return [RawRow(m, int(b), int(t), int(s), float(e), float(sec))
            for m, b, t, s, e, sec in reader]


def write_json_lines(rows: list[RawRow], fh) -> None:
    import json
    for r in rows:
        fh.write(json.dumps({
            "method": r.method, "budget": r.budget, "trial": r.trial,
            "stored_edges": r.stored_edges, "error": r.error,
            "seconds": r.seconds}) + "\n")
