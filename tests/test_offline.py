"""Offline effective-resistance sampling (the coreset reducer)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamsparse import (Graph, OfflineSampleConfig, TreeConfig, offline,
                          WeightedEdge, er_sparsify, keep_probabilities,
                          laplacian, leverages, mr_sparsify, rayleigh_error)
from streamsparse.bench import batch_online_leverages, gen_synthetic
from streamsparse.rng import UniformByIndex

from test_graph import (edge_lists, random_connected, split_laplacians,
                        union_find_labels)


def test_probabilities_clamped():
    rng = np.random.default_rng(0)
    g = random_connected(rng, 8)
    p = keep_probabilities(g, rho=5.0)
    assert ((p > 0) & (p <= 1)).all()


def test_bridge_always_kept():
    # a bridge has leverage 1, so p = 1 for any rho >= 1
    g = Graph(5, [WeightedEdge(0, 1, 2.0), WeightedEdge(1, 2, 1.0),
                  WeightedEdge(2, 3, 1.0), WeightedEdge(2, 4, 1.0)])
    p = keep_probabilities(g, rho=1.0)
    assert np.allclose(p, 1.0)
    out = er_sparsify(g, OfflineSampleConfig(rho=1.0, seed=9))
    assert out.edges == g.edges


def test_huge_rho_is_identity():
    rng = np.random.default_rng(1)
    g = random_connected(rng, 10, extra=20)
    out = er_sparsify(g, OfflineSampleConfig(rho=1e9, seed=0))
    assert out.edges == g.edges


def test_reweighting_unbiased():
    # mean total kept weight over many seeds approaches the true total
    g = Graph(3, [WeightedEdge(0, 1, 1.0), WeightedEdge(1, 2, 1.0),
                  WeightedEdge(0, 2, 1.0)] * 6)
    n_seeds = 400
    mean_total = sum(
        sum(e.w for e in er_sparsify(g, OfflineSampleConfig(rho=0.9, seed=s)).edges)
        for s in range(n_seeds)) / n_seeds
    assert mean_total == pytest.approx(sum(e.w for e in g.edges), rel=0.05)


def test_deterministic_per_seed():
    rng = np.random.default_rng(2)
    g = random_connected(rng, 9, extra=30)
    cfg = OfflineSampleConfig(rho=2.0, seed=123)
    assert er_sparsify(g, cfg).edges == er_sparsify(g, cfg).edges


def test_quality_improves_with_rho():
    rng = np.random.default_rng(3)
    g = random_connected(rng, 12, extra=300)
    L = laplacian(g)
    errs = []
    for rho in (2.0, 8.0, 32.0):
        per_seed = [rayleigh_error(L, laplacian(
            er_sparsify(g, OfflineSampleConfig(rho=rho, seed=s))))
            for s in range(5)]
        errs.append(np.mean(per_seed))
    assert errs[0] > errs[2]


def test_disconnected_input_supported():
    g = Graph(4, [WeightedEdge(0, 1, 1.0), WeightedEdge(2, 3, 1.0)])
    out = er_sparsify(g, OfflineSampleConfig(rho=1.0, seed=0))
    # both component edges are bridges, so each has p = 1 (up to rounding)
    assert [(e.u, e.v) for e in out.edges] == [(0, 1), (2, 3)]
    assert np.allclose([e.w for e in out.edges], 1.0)


def test_matches_scalar_draw_loop():
    # reference: one keyed scalar draw per edge; output must be bit-identical
    g = gen_synthetic(30, 9000, seed=4)     # the draws span three chunks
    for rho, seed in ((0.5, 1), (3.0, 2), (40.0, 3)):
        p = keep_probabilities(g, rho)
        draws = UniformByIndex(seed)
        want = [WeightedEdge(e.u, e.v, e.w / p[i])
                for i, e in enumerate(g.edges) if draws.uniform(i) < p[i]]
        got = er_sparsify(g, OfflineSampleConfig(rho, seed)).edges
        assert 0 < len(got) < g.m
        assert got == want


@given(edge_lists(), st.floats(min_value=0.05, max_value=20.0),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_er_sparsify_equals_its_array_core(case, rho, seed):
    # the tower's reductions call the core on columns built as arrays; the
    # wrapper gives the same edges, bit for bit, as Python ints and floats
    n, edges = case
    u = np.array([e.u for e in edges], dtype=np.intp)
    v = np.array([e.v for e in edges], dtype=np.intp)
    w = np.array([e.w for e in edges], dtype=float)
    ku, kv, kw = offline._er_sample(
        u, v, w, offline._keep_probabilities(n, u, v, w, rho), seed)
    assert ku.dtype == kv.dtype == np.intp and kw.dtype == np.float64
    got = er_sparsify(Graph(n, edges), OfflineSampleConfig(rho, seed)).edges
    assert [(e.u, e.v, e.w.hex()) for e in got] == [
        (a, b, c.hex()) for a, b, c in zip(ku.tolist(), kv.tolist(),
                                           kw.tolist())]
    assert all(type(x) is int for e in got for x in e[:2])
    assert all(type(e.w) is float for e in got)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_rejects_reweighted_overflow(monkeypatch):
    # finite input weights whose w / p overflows to inf must not come out
    from streamsparse import offline
    g = Graph(3, [WeightedEdge(0, 1, 1.5e308), WeightedEdge(1, 2, 1.0)] * 8)
    monkeypatch.setattr(offline, "keep_probabilities",
                        lambda g, rho: np.full(g.m, 0.5))
    with pytest.raises(ValueError):
        er_sparsify(g, OfflineSampleConfig(rho=1.0, seed=0))


@pytest.mark.parametrize("rho", [-1.0, 0.0, math.nan, math.inf])
def test_keep_probabilities_rejects_bad_rho(rho):
    with pytest.raises(ValueError):
        keep_probabilities(random_connected(np.random.default_rng(5), 6), rho)


class TestLeveragesWithoutEigh:
    @given(split_laplacians(), st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=150, deadline=None)
    def test_match_pseudo_inverse_and_keep_bridges(self, case, rho):
        """Disconnected graphs, isolated vertices and repeated pairs: the
        probabilities equal those of the pseudo_inverse oracle, and at
        rho >= 1 every bridge (an edge whose removal splits its component)
        gets p = 1 exactly."""
        n, edges, _, _ = case
        g = Graph(n, edges)
        p = keep_probabilities(g, rho)
        np.testing.assert_allclose(p, np.minimum(1.0, rho * leverages(g)),
                                   rtol=1e-9, atol=0)
        for i, (u, v, _) in enumerate(edges):
            labels = union_find_labels(n, edges[:i] + edges[i + 1:])
            if rho >= 1 and labels[u] != labels[v]:
                assert p[i] == 1.0

    @given(split_laplacians(), st.floats(min_value=-6, max_value=15))
    @settings(max_examples=150, deadline=None)
    def test_scale_free(self, case, exponent):
        """Leverages do not depend on the unit of weight: scaling every
        weight by 10**exponent leaves the probabilities unchanged."""
        n, edges, _, _ = case
        c = 10.0 ** exponent
        scaled = Graph(n, [WeightedEdge(u, v, w * c) for u, v, w in edges])
        np.testing.assert_allclose(keep_probabilities(scaled, 0.3),
                                   keep_probabilities(Graph(n, edges), 0.3),
                                   rtol=1e-9, atol=0)

    def test_heavy_bridge_is_kept(self):
        # 1e17 + 1 rounds to 1e17: a unit grounding added to this Laplacian
        # leaves it singular
        g = Graph(2, [WeightedEdge(0, 1, 1e17)])
        assert keep_probabilities(g, 1.0).tolist() == [1.0]
        assert er_sparsify(g, OfflineSampleConfig(rho=1.0)).edges == g.edges


def test_reductions_need_no_eigendecomposition(monkeypatch):
    """The tower's reductions and the batch scores read a component-aware
    solve; an eigendecomposition on their path fails here."""
    def no_eigh(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called on a reduction path")

    # two components, an isolated vertex 6 and repeated pairs
    g = Graph(7, [WeightedEdge(u, v, w) for u, v, w in [
        (0, 1, 1.0), (1, 2, 2.0), (0, 1, 3.0), (2, 0, 1.5),
        (3, 4, 2.0), (4, 5, 1.0), (3, 4, 0.5), (5, 3, 4.0)] * 3])
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert er_sparsify(g, OfflineSampleConfig(rho=0.5, seed=1)).m > 0
    out, tree = mr_sparsify(g, TreeConfig(block_size=4, seed=2, rho=0.5))
    assert out.m > 0 and tree.height > 1
    assert np.isfinite(batch_online_leverages(g, batch_size=5)[5:]).any()
