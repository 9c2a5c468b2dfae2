"""Stoer-Wagner and the streaming approximation, checked against
exhaustive cut oracles."""

import numpy as np
import pytest

from streamsparse import (Cut, Graph, MinCutPipelineConfig, WeightedEdge,
                          cut_value, stoer_wagner, stream_mincut)
from streamsparse.bench import gen_synthetic

from test_graph import random_connected


# -- oracles: exhaustive cut enumeration over vertex bitmasks -------------

_BRUTE_FORCE_MAX = 10    # exact_mincut switches to Stoer-Wagner above this
_ENUMERATE_MAX = 20      # hard cap for exhaustive cut enumeration


class CapabilityError(ValueError):
    """The requested exact computation is beyond the supported size."""


def _all_cut_values(g: Graph) -> np.ndarray:
    """Value of every proper cut, indexed by the bitmask over vertices
    0..n-2 (vertex n-1 is pinned to the zero side to kill mirror images)."""
    masks = np.arange(1 << (g.n - 1), dtype=np.int64)
    values = np.zeros(masks.shape[0])
    for u, v, w in g.edges:
        bu = (masks >> u) & 1 if u < g.n - 1 else np.zeros_like(masks)
        bv = (masks >> v) & 1 if v < g.n - 1 else np.zeros_like(masks)
        values += w * (bu != bv)
    return values


def _mask_side(mask: int, n: int) -> frozenset[int]:
    return frozenset(i for i in range(n - 1) if (mask >> i) & 1)


def exact_mincut(g: Graph) -> Cut:
    """Minimum-weight global cut: brute force for small n, Stoer-Wagner
    otherwise. Disconnected input yields a zero-value cut."""
    if g.n < 2:
        raise ValueError("min cut needs at least two vertices")
    if g.n <= _BRUTE_FORCE_MAX:
        values = _all_cut_values(g)
        best = int(values[1:].argmin()) + 1
        return Cut(_mask_side(best, g.n), float(values[best]))
    return stoer_wagner(g)


def enumerate_near_min_cuts(g: Graph, factor: float) -> list[Cut]:
    """All proper cuts with value <= factor * min cut value. Exhaustive;
    guarded to n <= 20."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if g.n > _ENUMERATE_MAX:
        raise CapabilityError(
            f"cut enumeration supports n <= {_ENUMERATE_MAX}, got {g.n}")
    values = _all_cut_values(g)
    cstar = values[1:].min()
    # tiny slack so factor=1 reliably includes ties under float weights
    cutoff = factor * cstar * (1.0 + 1e-12) + 1e-12
    return [Cut(_mask_side(int(i), g.n), float(values[i]))
            for i in np.flatnonzero(values <= cutoff) if i > 0]


# -- tests ----------------------------------------------------------------


def cycle(n, w=1.0):
    return Graph(n, [WeightedEdge(i, (i + 1) % n, w) for i in range(n)])


class TestExact:
    def test_single_edge(self):
        g = Graph(2, [WeightedEdge(0, 1, 4.5)])
        assert exact_mincut(g).value == pytest.approx(4.5)

    def test_unit_cycle_two(self):
        for n in (4, 6, 8):
            assert exact_mincut(cycle(n)).value == pytest.approx(2.0)

    def test_bridged_triangles(self):
        tri = lambda off: [WeightedEdge(off, off + 1, 1.0),
                           WeightedEdge(off + 1, off + 2, 1.0),
                           WeightedEdge(off, off + 2, 1.0)]
        g = Graph(6, tri(0) + tri(3) + [WeightedEdge(2, 3, 1.0)])
        cut = exact_mincut(g)
        assert cut.value == pytest.approx(1.0)
        assert cut.side in (frozenset({0, 1, 2}), frozenset({3, 4, 5}))

    def test_disconnected_zero(self):
        g = Graph(4, [WeightedEdge(0, 1, 1.0), WeightedEdge(2, 3, 1.0)])
        assert exact_mincut(g).value == pytest.approx(0.0)

    def test_stoer_wagner_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_connected(rng, 8, extra=10)
            assert stoer_wagner(g).value == pytest.approx(
                exact_mincut(g).value, rel=1e-9)

    def test_cut_value_helper(self):
        g = cycle(5)
        assert cut_value(g, {0, 1}) == pytest.approx(2.0)
        assert cut_value(g, {0, 2}) == pytest.approx(4.0)


class TestEnumeration:
    def test_single_edge_one_cut(self):
        g = Graph(2, [WeightedEdge(0, 1, 1.0)])
        assert len(enumerate_near_min_cuts(g, 4.0)) == 1

    def test_triangle_factor_one(self):
        g = cycle(3)
        cuts = enumerate_near_min_cuts(g, 1.0)
        assert len(cuts) == 3
        assert all(c.value == pytest.approx(2.0) for c in cuts)

    def test_c6_cut_counts(self):
        # factor 1: the 15 adjacent-arc cuts crossing exactly two edges;
        # factor 2 adds the 15 two-run subsets crossing four edges
        assert len(enumerate_near_min_cuts(cycle(6), 1.0)) == 15
        assert len(enumerate_near_min_cuts(cycle(6), 2.0)) == 30

    def test_contains_true_min(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_connected(rng, 7, extra=8)
            best = exact_mincut(g)
            cuts = enumerate_near_min_cuts(g, 1.0)
            assert min(c.value for c in cuts) == pytest.approx(best.value, rel=1e-9)

    def test_size_guard(self):
        g = Graph(25, [WeightedEdge(i, i + 1, 1.0) for i in range(24)])
        with pytest.raises(CapabilityError):
            enumerate_near_min_cuts(g, 2.0)


class TestStreaming:
    def test_cycle_within_factor(self):
        got = stream_mincut(cycle(8), MinCutPipelineConfig(eps=0.25, seed=0))
        assert 2 / 1.25 <= got <= 2 * 1.25

    def test_random_graphs_within_eps(self):
        rng = np.random.default_rng(2)
        hits = 0
        for seed in range(10):
            g = random_connected(rng, 12, extra=30)
            truth = stoer_wagner(g).value
            got = stream_mincut(g, MinCutPipelineConfig(eps=0.25, seed=seed))
            hits += truth / 1.25 <= got <= truth * 1.25
        assert hits >= 9

    def test_cut_values_preserved_by_sparsifier(self):
        from streamsparse import laplacian, stream_sparsify
        from streamsparse.mincut import _default_stream_config
        rng = np.random.default_rng(3)
        g = gen_synthetic(10, 400, seed=11)
        cfg = MinCutPipelineConfig(eps=0.3, seed=1)
        sp = stream_sparsify(g, _default_stream_config(cfg, g.m))
        for _ in range(100):
            side = {int(v) for v in rng.choice(10, size=rng.integers(1, 10),
                                               replace=False)}
            if len(side) == 10:
                continue
            truth = cut_value(g, side)
            assert abs(cut_value(sp, side) - truth) <= 0.3 * truth + 1e-9

    def test_beyond_enumeration_size(self):
        # n = 25 is past the enumeration guard; the streaming path has none
        g = gen_synthetic(25, 600, seed=12)
        truth = stoer_wagner(g).value
        got = stream_mincut(g, MinCutPipelineConfig(eps=0.25, seed=0))
        assert truth / 1.25 <= got <= truth * 1.25

    def test_equals_min_over_enumerated_cuts(self):
        from streamsparse import stream_sparsify
        from streamsparse.mincut import _default_stream_config
        rng = np.random.default_rng(4)
        for seed in range(8):
            g = random_connected(rng, int(rng.integers(3, 13)), extra=20)
            cfg = MinCutPipelineConfig(eps=0.25, seed=seed)
            sp = stream_sparsify(g, _default_stream_config(cfg, g.m))
            best = min(c.value for c in enumerate_near_min_cuts(sp, 1.0))
            assert stream_mincut(g, cfg) == pytest.approx(best, rel=1e-12)
