"""Offline effective-resistance sampling (the coreset reducer)."""

import numpy as np
import pytest

from streamsparse import (Graph, OfflineSampleConfig, WeightedEdge,
                          er_sparsify, keep_probabilities, laplacian,
                          rayleigh_error)
from streamsparse.bench import gen_synthetic
from streamsparse.rng import UniformByIndex

from test_graph import random_connected


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
