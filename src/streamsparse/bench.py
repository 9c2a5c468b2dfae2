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
                    _columns, _edge_list, _grounded_inverse_of,
                    _unchecked_graph, laplacian, rayleigh_error)
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
                self.batch_size) < 1 or any(b <= 0 for b in self.budgets)
                or self.tolerance < 0):
            raise ValueError("trial and probe counts and batch_size must be "
                             ">= 1, budgets positive and tolerance >= 0")
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
    # per (method, budget): counts asked for while tuning ("probes"), the
    # runs made for them ("runs", of which "stopped" stopped at the cap)
    # and the answers read from the probe cache ("cached"), so probes ==
    # runs + cached; and final trials that took a tuning run's results
    # instead of running again ("reused")
    tuning: dict[tuple[str, int], dict[str, int]] = field(default_factory=dict)


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
    # valid by construction: distinct endpoints in [0, n), weights in [1, 10]
    return _unchecked_graph(n, _edge_list(us, vs, ws))


# -- per-trial cached data ----------------------------------------------


def batch_online_leverages(g: Graph, batch_size: int = 100) -> np.ndarray:
    """Leverage of each edge against the exact Laplacian of the prefix up to
    the previous batch boundary; inf when the endpoints are not yet
    connected there (forcing p = 1). Each boundary reads the batch's
    resistances and component labels from one grounded inverse of the
    prefix Laplacian (graph._grounded_inverse_of)."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    out = np.full(g.m, math.inf)
    L = np.zeros((g.n, g.n))
    for start in range(0, g.m, batch_size):
        u, v, w = _columns(g.edges[start:start + batch_size])
        if start:
            inv = _grounded_inverse_of(L)
            R = np.where(inv.labels[u] != inv.labels[v], math.inf,
                         inv.resistance(u, v))
            out[start:start + u.size] = w * R
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
        self._columns = None
        self._L = None
        self._lev = None
        self._batch_size = cfg.batch_size
        # the latest tuning run on this trial that ran to the end:
        # (method, params, stored count, sparsifier, seconds)
        self.finished: tuple | None = None

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stream as (u, v, w) columns, for MergeReduceTree.extend."""
        if self._columns is None:
            self._columns = _columns(self.graph.edges)
        return self._columns

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


def _online_keep(trial: _Trial, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Keep mask and keep probabilities of the online method at constant c."""
    lev = trial.batch_leverages
    p = np.where(np.isinf(lev), 1.0, np.minimum(1.0, c * lev))
    return np.random.default_rng(trial.sample_seed).random(lev.size) < p, p


def _run_online(trial: _Trial, c: float) -> tuple[int, Graph]:
    kept, p = _online_keep(trial, c)
    edges = [WeightedEdge(e.u, e.v, e.w / p[i])
             for i, e in enumerate(trial.graph.edges) if kept[i]]
    return len(edges), Graph(trial.graph.n, edges)


def _run_capped(tree: MergeReduceTree, push, edges, cap: float
                ) -> tuple[int, Graph | None, MergeReduceTree]:
    """(peak count, sparsifier, tower) after push(e) for each edge, counting
    the tower's peak resident items. The run stops at the first push whose
    running count passes cap and returns None for its sparsifier: the
    count, a running maximum, is then a lower bound of the full run's."""
    for e in edges:
        push(e)
        if tree.peak_resident > cap:
            break
    return _capped_result(tree, cap)


def _capped_result(tree: MergeReduceTree, cap: float
                   ) -> tuple[int, Graph | None, MergeReduceTree]:
    """_run_capped's result for a run that pushed until its peak passed
    cap or the stream ended."""
    stopped = tree.peak_resident > cap
    return tree.peak_resident, None if stopped else tree.sparsifier(), tree


def _run_merge_reduce(trial: _Trial, block_size: int, cap: float = math.inf
                      ) -> tuple[int, Graph | None, MergeReduceTree]:
    """The tower over the trial's stream, stopped at cap (see _run_capped):
    MergeReduceTree.extend stops at the same push."""
    # rho defaults to block_size / n, so the reduced coresets match the
    # block size and the peak resident count scales with the one knob
    tree = MergeReduceTree(trial.graph.n, TreeConfig(
        block_size=block_size, seed=trial.sample_seed))
    tree.extend(*trial.columns, cap=cap)
    return _capped_result(tree, cap)


def _run_streaming(trial: _Trial, c: float, block_size: int,
                   cap: float = math.inf
                   ) -> tuple[int, Graph | None, MergeReduceTree]:
    """As _run_merge_reduce, for the streaming pipeline: the tower holds
    every resident item, the sampler's kept edges."""
    cfg = StreamPipelineConfig(
        online=OnlineConfig(c=c, seed=trial.sample_seed),
        tree=TreeConfig(block_size=block_size,
                        seed=spawn_seed(trial.sample_seed, 1)),
        m_hint=trial.graph.m)
    pipe = StreamSparsifier(trial.graph.n, cfg)
    return _run_capped(pipe.tree, pipe.push, trial.graph.edges, cap)


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


def _tune_tree_knob(count_one, count_of, budget: int, tolerance: int,
                    finish) -> tuple[float, float]:
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

    count_one may stop a probe once its count passes budget + tolerance and
    return the count so far, a lower bound. The hit test, the tooth test and
    the bisection step read such a count only as "above the window", which
    the full count is too. Only the fallback, the closest count when no
    block hits (the first probed on a tie), compares counts above the
    window: before it picks, finish(block) gives the full one-probe count of
    each probe whose lower bound could still win, nearest first.
    """
    tried: list[tuple[float, float, bool]] = []   # (block, count, lower bound)

    def probe(block: float):
        block = float(max(int(round(block)), 4))
        c1 = count_one(block)
        if abs(c1 - budget) <= tolerance:
            c = count_of(block)
            if abs(c - budget) <= tolerance:
                return block, c
            tried.append((block, c, False))
            return None, c
        tried.append((block, c1, c1 > budget + tolerance))
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
    # no hit: the closest count wins. A lower bound's gap is at most its
    # full count's; taken nearest first, once one exceeds the closest full
    # count, so do all that follow
    for i in sorted(range(len(tried)), key=lambda i: tried[i][1]):
        block, c, lower = tried[i]
        if not lower:
            continue
        if c - budget > min((abs(c2 - budget) for _, c2, low in tried
                             if not low), default=math.inf):
            break
        tried[i] = (block, finish(block), False)
    block, count, _ = min(tried, key=lambda x: abs(x[1] - budget))
    return block, count


def _tune(cfg: ExperimentConfig, method: str, budget: int,
          trials: list[_Trial], result: ExperimentResult) -> dict:
    """Pick the method's knob values for one budget, recording the tuned
    constant, the counters of result.tuning, and a warning when the budget
    is out of reach.

    A tower sweep reads its probe counts through one cache per call, keyed
    by (trial index, block). A probe whose tower never merged (height at
    most 1, so at most one carry: P pushes with 2 * block > P) also answers
    every block b with 2 * b > P on its trial. Both rules are exact: the
    block size is read only by the carry test and the reductions a carry
    starts, and a carry that only parks the block at an empty level 0
    changes neither the items, their order nor the Gram, and does not
    mark the tower's grounded inverse for a rebuild, so the streaming
    sampler's reads take in the same rows. So up to the first merge, at push
    2 * b, the tower the streaming sampler scores against, and hence every
    keep and the peak count, are the same for any block; with 2 * b > P
    that push never comes. The height, not merges, marks a merge, since the identity
    reducer does not count them.

    The one-probe count of the sweep runs with a cap of budget + the sweep
    tolerance and stops at the first push whose count passes it. The cache
    flags such a count as a lower bound and serves it to capped asks only;
    the confirming means and the fallback's finishing runs ask uncapped and
    run again. A stopped probe whose tower had not merged after its k tower
    pushes answers every block b with 2 * b > k on its trial the same way,
    since up to push k those runs are the same run and stop at the same
    push.

    Each tower run that ran to the end becomes its trial's `finished` run,
    with the seconds of that _run_one call, for run_experiment to reuse.
    """
    # sweep to a tighter internal target so the final-trial mean still
    # lands inside the reported tolerance
    tune_tol = max(cfg.tolerance // 2, 25)
    tally = dict.fromkeys(("probes", "runs", "stopped", "cached", "reused"), 0)
    result.tuning[(method, budget)] = tally
    if method == "online":
        probes = trials[:cfg.probe_trials]

        def count_of(c):
            tally["probes"] += len(probes)
            tally["runs"] += len(probes)
            return float(np.mean([int(_online_keep(t, c)[0].sum())
                                  for t in probes]))

        knob, count = _bisect_knob(count_of, budget, tune_tol, 1e-4, 1e2)
        params = {"c": knob}
    else:
        params = {}
        if method == "streaming":
            params["c"] = PAPER_C_OL_STR.get(budget, 5.0)
        cap = budget + tune_tol
        # (trial, block, stopped at the cap) -> count
        seen: dict[tuple[int, int, bool], int] = {}
        # (trial, stopped at the cap) -> (tower pushes, count)
        flat: dict[tuple[int, bool], tuple[int, int]] = {}

        def count_at(t: _Trial, block: int, capped: bool) -> int:
            # a full count first; a stopped one only answers a capped ask
            tally["probes"] += 1
            for stopped in (False, True)[:1 + capped]:
                pushes, stored = flat.get((t.index, stopped), (math.inf, None))
                if 2 * block <= pushes:
                    stored = seen.get((t.index, block, stopped))
                if stored is not None:
                    tally["cached"] += 1
                    return stored
            run = {**params, "block_size": block}
            start = time.perf_counter()
            stored, sparsifier, tree = _run_one(t, method, run,
                                                cap if capped else math.inf)
            seconds = time.perf_counter() - start
            stopped = sparsifier is None
            tally["runs"] += 1
            tally["stopped"] += stopped
            if tree.height <= 1:
                flat[t.index, stopped] = (tree.pushed, stored)
            seen[t.index, block, stopped] = stored
            if not stopped:
                t.finished = (method, run, stored, sparsifier, seconds)
            return stored

        def count_of(block, probes=trials[:cfg.tree_probe_trials],
                     capped=False):
            return float(np.mean([count_at(t, int(block), capped)
                                  for t in probes]))

        knob, count = _tune_tree_knob(
            lambda b: count_of(b, trials[:1], capped=True), count_of,
            budget, tune_tol, finish=lambda b: count_of(b, trials[:1]))
        params["block_size"] = max(int(round(knob)), 4)
    result.tuned[(method, budget)] = knob
    if abs(count - budget) > cfg.tolerance:
        result.warnings.append(
            f"{method} budget {budget}: tuned mean stored count {count:.0f} "
            f"outside +-{cfg.tolerance}")
    return params


def _run_one(trial: _Trial, method: str, params: dict,
             cap: float = math.inf) -> tuple:
    """(stored count, sparsifier), plus the tower for the tower methods,
    whose run stops once its count passes cap (see _run_capped)."""
    if method == "online":
        return _run_online(trial, params["c"])
    if method == "merge_reduce":
        return _run_merge_reduce(trial, params["block_size"], cap)
    return _run_streaming(trial, params["c"], params["block_size"], cap)


def run_experiment(cfg: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    """Tune each method at each budget, then run it on the first
    cfg.trials trials and record one RawRow per trial and their mean.

    A final trial whose trial and params equal its trial's `finished` tuning
    run takes that run's count and sparsifier instead of running again, and
    its seconds are the time of that same run: runs are deterministic, so a
    second run would give the same results.
    """
    result = ExperimentResult()
    probes = [cfg.probe_trials if m == "online" else cfg.tree_probe_trials
              for m in cfg.methods]
    trials = [_Trial(cfg, t) for t in range(max(cfg.trials, *probes))]
    for method in cfg.methods:
        for budget in cfg.budgets:
            params = _tune(cfg, method, budget, trials, result)
            rows = []
            for trial in trials[:cfg.trials]:
                if trial.finished is not None and \
                        trial.finished[:2] == (method, params):
                    stored, sparsifier, seconds = trial.finished[2:]
                    result.tuning[(method, budget)]["reused"] += 1
                else:
                    start = time.perf_counter()
                    stored, sparsifier = _run_one(trial, method, params)[:2]
                    seconds = time.perf_counter() - start
                err = _error(trial.L, sparsifier)
                rows.append(RawRow(method, budget, trial.index, stored, err,
                                   seconds))
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
