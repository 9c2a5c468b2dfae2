"""Per-layer metrics of a traced run.

A metric is read from the tracer's profile (call counts, self and
inclusive seconds per span name) or from counters that observers collect
from the arguments and results of public calls. Names follow
"<layer>.<operation>.<n|s>": .n is a call count and .s is summed self time.
Units and directions are declared in BENCHMARK.json. Every traced run emits
every metric; a layer that a workload does not exercise reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import LAYERS

# span names (without the "@site" suffix) behind the layer metrics
PSEUDO_INVERSE = "graph.pseudo_inverse"
LAPLACIAN = "graph.laplacian"
RAYLEIGH = "graph.rayleigh_error"
ER_SPARSIFY = "offline.er_sparsify"
UNIFORM = "rng.UniformByIndex.uniform"
PROCESS_ROW = "online.OnlineSamplerState.process_row"
FINALIZE = "online.OnlineSamplerState.finalize"
TREE_PUSH = "merge_reduce.MergeReduceTree.push"
PIPELINE_PUSH = "merge_reduce.StreamSparsifier.push"
STREAM_SPARSIFY = "merge_reduce.stream_sparsify"
HYPER_STEP = "hypergraph.HyperSamplerState.step"
# the state's step dispatches to one of these module functions; their self
# time is the sampler's own work and is charged to hypergraph.step.s
HYPER_STEP_RULES = ("hypergraph.balanced_hyper_sparsify_step",
                    "hypergraph.fast_hyper_sparsify_step")
ASSIGN = "balance.get_weight_assignment"
WINDOW_PUSH = "window.SlidingWindowState.push"
WINDOW_QUERY = "window.SlidingWindowState.query"
ROBUST_STEP = "robust.RobustWrapperState.step"
STREAM_MINCUT = "mincut.stream_mincut"
ENUMERATE = "mincut.enumerate_near_min_cuts"
CUT_VALUE = "mincut.cut_value"
RUN_EXPERIMENT = "bench.run_experiment"
BATCH_LEVERAGES = "bench.batch_online_leverages"
GEN_SYNTHETIC = "bench.gen_synthetic"


def _stored(window) -> int:
    # read the state directly: calling its public stored() here would
    # itself be traced
    return len(window.buffer) + sum(len(c) for c in window.levels if c)


def _carry_input(args) -> int:
    """Items a push will hand to the coreset: the full buffer plus every
    occupied level below the first empty one; 0 when the push only
    buffers."""
    window = args[0]
    if len(window.buffer) < window.cfg.block_size:
        return 0
    items = len(window.buffer)
    for level in window.levels:
        if level is None:
            break
        items += len(level)
    return items


def install_observers(tracer) -> dict[str, float]:
    """Register the counters of the layer metrics on a tracer; returns the
    dict they accumulate into."""
    c: dict[str, float] = defaultdict(float)

    def er_sparsify(_, args, out):
        c["offline.in"] += args[0].m
        c["offline.out"] += out.m

    def process_row(_, args, out):
        c["online.kept"] += out[0]

    def hyper_step(_, args, out):
        c["hypergraph.kept"] += out.kept

    def assignment(_, args, out):
        # the trace holds the start point and one entry per shift; a
        # single-pair hyperedge returns without one
        c["balance.shifts"] += max(len(out.trace) - 1, 0)

    def window_push(carried, args, out):
        if carried:
            c["window.carries"] += 1
            c["window.carry_items"] += carried
        c["window.stored_peak"] = max(c["window.stored_peak"],
                                      _stored(args[0]))

    def robust_step(before, args, out):
        c["robust.switches"] += args[0].switch_count - before

    def near_cuts(_, args, out):
        c["mincut.near_cuts"] += len(out)

    tracer.observe(ER_SPARSIFY, er_sparsify)
    tracer.observe(PROCESS_ROW, process_row)
    tracer.observe(HYPER_STEP, hyper_step)
    tracer.observe(ASSIGN, assignment)
    tracer.observe(WINDOW_PUSH, window_push, pre=_carry_input)
    tracer.observe(ROBUST_STEP, robust_step, pre=lambda a: a[0].switch_count)
    tracer.observe(ENUMERATE, near_cuts)
    return c


class Profile:
    """Sums over the tracer's profile by span name, across call sites."""

    def __init__(self, profile: dict[str, tuple[int, float, float]]):
        self.by_name: dict[tuple[str, str], tuple[int, float, float]] = {}
        for key, value in profile.items():
            name, _, site = key.rpartition("@")
            self.by_name[name, site] = value

    def _sum(self, name, site, column):
        return sum(v[column] for (n, s), v in self.by_name.items()
                   if n == name and (site is None or s == site))

    def calls(self, name, site=None) -> int:
        return self._sum(name, site, 0)

    def own(self, name, site=None) -> float:
        return self._sum(name, site, 1)

    def incl(self, name, site=None) -> float:
        return self._sum(name, site, 2)

    def layer_own(self, layer: str) -> float:
        return sum(v[1] for (n, _), v in self.by_name.items()
                   if n.split(".", 1)[0] == layer)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(profile: Profile, c: dict[str, float],
                  final_trials_s: float) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, which needs the
    untraced run. final_trials_s is the time the experiment itself reports
    for its final trials (0 outside budget_sweep)."""
    p = profile
    out = {
        "graph.pseudo_inverse.n": p.calls(PSEUDO_INVERSE),
        "graph.pseudo_inverse.s": p.own(PSEUDO_INVERSE),
        "graph.laplacian.n": p.calls(LAPLACIAN),
        "graph.laplacian.s": p.own(LAPLACIAN),
        "graph.rayleigh_error.s": p.own(RAYLEIGH),
        "offline.er_sparsify.n": p.calls(ER_SPARSIFY),
        "offline.er_sparsify.s": p.own(ER_SPARSIFY),
        "offline.kept_ratio": _ratio(c["offline.out"], c["offline.in"]),
        "rng.uniform.n": p.calls(UNIFORM),
        "online.process_row.n": p.calls(PROCESS_ROW),
        "online.process_row.s": p.own(PROCESS_ROW),
        "online.finalize.s": p.own(FINALIZE),
        "online.kept_ratio": _ratio(c["online.kept"], p.calls(PROCESS_ROW)),
        "merge_reduce.tree_push.n": p.calls(TREE_PUSH),
        "merge_reduce.tree_push.s": p.own(TREE_PUSH),
        "merge_reduce.merges": p.calls(ER_SPARSIFY, site="merge_reduce"),
        "merge_reduce.pipeline_push.s": p.own(PIPELINE_PUSH),
        "hypergraph.step.n": p.calls(HYPER_STEP),
        "hypergraph.step.s": p.own(HYPER_STEP) + sum(
            p.own(rule) for rule in HYPER_STEP_RULES),
        "hypergraph.kept_ratio": _ratio(c["hypergraph.kept"],
                                        p.calls(HYPER_STEP)),
        "balance.get_weight_assignment.n": p.calls(ASSIGN),
        "balance.get_weight_assignment.s": p.own(ASSIGN),
        "balance.shifts": c["balance.shifts"],
        "window.push.n": p.calls(WINDOW_PUSH),
        "window.push.s": p.own(WINDOW_PUSH),
        "window.carries": c["window.carries"],
        "window.carry_items": c["window.carry_items"],
        "window.stored_peak": c["window.stored_peak"],
        "window.query.n": p.calls(WINDOW_QUERY),
        "window.query.s": p.own(WINDOW_QUERY),
        "robust.step.n": p.calls(ROBUST_STEP),
        "robust.step.s": p.own(ROBUST_STEP),
        "robust.switches": c["robust.switches"],
        "mincut.stream_mincut.s": p.own(STREAM_MINCUT),
        "mincut.stream_mincut.incl_s": p.incl(STREAM_MINCUT),
        "mincut.stream_sparsify.s": p.own(STREAM_SPARSIFY, site="mincut"),
        "mincut.stream_sparsify.incl_s": p.incl(STREAM_SPARSIFY, site="mincut"),
        "mincut.enumerate_near_min_cuts.s": p.own(ENUMERATE),
        "mincut.near_cuts": c["mincut.near_cuts"],
        "mincut.cut_value.n": p.calls(CUT_VALUE),
        "mincut.cut_value.s": p.own(CUT_VALUE),
        # tuning is what run_experiment spends outside its final trials,
        # their error evaluation and the generation of the trial graphs
        "bench.tuning_s": (p.incl(RUN_EXPERIMENT) - final_trials_s
                           - p.incl(LAPLACIAN, site="bench")
                           - p.incl(RAYLEIGH, site="bench")
                           - p.incl(GEN_SYNTHETIC, site="bench"))
        if p.calls(RUN_EXPERIMENT) else 0.0,
        "bench.final_trials_s": final_trials_s,
        "bench.batch_online_leverages.s": p.own(BATCH_LEVERAGES),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = p.layer_own(layer)
    return out
