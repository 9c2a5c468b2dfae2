"""Online ridge-leverage sampling and its exact oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamsparse import (Graph, IncidenceRow, OnlineConfig,
                          OnlineSamplerState, StreamPipelineConfig,
                          StreamSparsifier, TreeConfig, WeightedEdge,
                          default_c, exact_online_leverages, laplacian,
                          leverages, online_sparsify, rayleigh_error)
from streamsparse.bench import gen_synthetic
from streamsparse.online import _BLOCK, _REFRESH_EVERY

from test_graph import random_connected


class TestExactOnlineLeverages:
    def test_first_edge_is_one(self):
        rng = np.random.default_rng(0)
        g = random_connected(rng, 6)
        assert exact_online_leverages(g)[0] == pytest.approx(1.0, abs=1e-9)

    def test_fresh_bridge_is_one(self):
        # every edge that connects a new vertex scores exactly 1
        g = Graph(4, [WeightedEdge(0, 1, 3.0), WeightedEdge(1, 2, 0.5),
                      WeightedEdge(2, 3, 7.0)])
        assert np.allclose(exact_online_leverages(g), 1.0, atol=1e-9)

    def test_parallel_edges_harmonic(self):
        # k-th copy of a unit edge scores 1/k against the prefix with itself
        g = Graph(2, [WeightedEdge(0, 1, 1.0)] * 5)
        expected = [1.0 / k for k in range(1, 6)]
        assert np.allclose(exact_online_leverages(g), expected, atol=1e-9)

    def test_dominates_final_leverage(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            g = random_connected(rng, 8, extra=30)
            assert (exact_online_leverages(g) >= leverages(g) - 1e-9).all()


class TestSamplerMechanics:
    def test_score_matches_ridge_formula(self):
        state = OnlineSamplerState(4, c=5.0, lam=0.1)
        rows = [IncidenceRow(0, 1, 1.0), IncidenceRow(1, 2, 1.5),
                IncidenceRow(2, 3, 0.7)]
        G = np.zeros((4, 4))
        for r in rows:
            got = state.score(r)
            a = r.dense(4)
            want = a @ np.linalg.solve(G + 0.1 * np.eye(4), a)
            assert got == pytest.approx(want, rel=1e-8)
            kept, rw = state.process_row(r)
            assert kept    # scores here are large enough to clamp p to 1
            w = rw.scale ** 2
            G[r.u, r.u] += w
            G[r.v, r.v] += w
            G[r.u, r.v] -= w
            G[r.v, r.u] -= w

    def test_rejects_out_of_range_before_any_change(self):
        g = gen_synthetic(6, 40, seed=2)
        state = OnlineSamplerState(6, c=0.5, seed=4)
        fresh = OnlineSamplerState(6, c=0.5, seed=4)
        for u, v in ((-1, 2), (2, 6), (1, 1)):
            with pytest.raises(ValueError):
                state.process_row(IncidenceRow(u, v, 1.0))
        assert state.kept_count == 0 and state.score_sum == 0.0
        assert [state.process_edge(e) for e in g.edges] == \
               [fresh.process_edge(e) for e in g.edges]

    @pytest.mark.parametrize("w", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_bad_weight_before_any_change(self, w):
        g = gen_synthetic(6, 40, seed=2)
        state = OnlineSamplerState(6, c=0.5, seed=4)
        fresh = OnlineSamplerState(6, c=0.5, seed=4)
        with pytest.raises(ValueError):
            state.process_edge(WeightedEdge(0, 1, w))
        scale = math.sqrt(w) if w >= 0 else w
        with pytest.raises(ValueError):
            state.process_row(IncidenceRow(0, 1, scale))
        assert state.kept_count == 0 and state.score_sum == 0.0
        assert state.stats() == fresh.stats()
        assert [state.process_edge(e) for e in g.edges] == \
               [fresh.process_edge(e) for e in g.edges]
        assert state.stats() == fresh.stats()

    def test_kept_edges_reweighted(self):
        state = OnlineSamplerState(3, c=1e9, lam=1.0)
        state.process_edge(WeightedEdge(0, 1, 2.0))
        (e,) = state.kept_edges
        assert e.w == pytest.approx(2.0)   # p clamped to 1, weight unchanged

    def test_determinism(self):
        g = gen_synthetic(12, 200, seed=5)
        a = online_sparsify(g, c=3.0, seed=9)
        b = online_sparsify(g, c=3.0, seed=9)
        assert a.edges == b.edges

    def test_finalize_non_destructive(self):
        g = gen_synthetic(10, 100, seed=2)
        state = OnlineSamplerState(10, c=5.0)
        for e in g.edges[:50]:
            state.process_edge(e)
        mid = state.finalize()
        for e in g.edges[50:]:
            state.process_edge(e)
        assert state.finalize().m >= mid.m
        assert state.finalize().edges[:mid.m] == mid.edges

    def test_default_c(self):
        assert default_c(100, 1.0, 4.0) == pytest.approx(4 * math.log(100))
        assert default_c(1, 1.0, 4.0) == pytest.approx(4 * math.log(2))
        assert default_c(100, 0.5, 4.0) == pytest.approx(16 * math.log(100))


class TestSamplerQuality:
    def test_big_c_keeps_everything(self):
        g = gen_synthetic(10, 300, seed=1)
        out = online_sparsify(g, c=1e9)
        assert out.m == g.m

    def test_sparsifier_error_small(self):
        g = gen_synthetic(25, 1500, seed=4)
        out = online_sparsify(g, c=8 * math.log(g.m), seed=0)
        err = rayleigh_error(laplacian(g), laplacian(out))
        assert out.m < g.m
        assert err < 1.0

    def test_score_sum_tracks_oracle(self):
        # sampled score_sum uses the 2-approx sketch; it should land within
        # a small constant of the exact online leverage sum
        g = gen_synthetic(10, 400, seed=8)
        state = OnlineSamplerState(10, c=8 * math.log(400))
        for e in g.edges:
            state.process_edge(e)
        exact = exact_online_leverages(g).sum()
        assert 0.3 * exact < state.score_sum < 4.0 * exact


class TestProviderMode:
    def test_external_sketch_used(self):
        class FixedProvider:
            def __init__(self, G):
                self._G = G

            def gram(self):
                return self._G

        g = gen_synthetic(8, 60, seed=3)
        G = laplacian(g)
        state = OnlineSamplerState(8, c=2.0, lam=0.5, provider=FixedProvider(G))
        row = IncidenceRow(0, 1, 1.0)
        a = row.dense(8)
        want = a @ np.linalg.solve(G + 0.5 * np.eye(8), a)
        assert state.score(row) == pytest.approx(want, rel=1e-8)


def _assert_inverse_exact(state):
    """The maintained inverse (K0 minus the pending block) equals a dense
    inverse of the scoring Gram matrix plus lam I."""
    want = np.linalg.inv(state._scoring_gram() + state.lam * np.eye(state.n))
    got = state._effective_inverse()
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def _shrinking_stream(seed, n, head, tail):
    """head + tail edges with weights U(1, 10), except that edge `head`
    weighs 1/2, so a free lambda shrinks there and not after it."""
    rng = np.random.default_rng(seed)
    m = head + tail
    w = rng.uniform(1.0, 10.0, m)
    w[head] = 0.5
    u = rng.integers(0, n, m)
    v = (u + rng.integers(1, n, m)) % n
    return [WeightedEdge(int(a), int(b), float(x)) for a, b, x in zip(u, v, w)]


class TestBlockedInverse:
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=_BLOCK + 1, max_value=2 * _BLOCK),
           st.integers(min_value=2 * _BLOCK + 1, max_value=3 * _BLOCK + 5))
    @settings(max_examples=25, deadline=None)
    def test_self_sketch(self, seed, head, tail):
        state = OnlineSamplerState(7, c=1e9, seed=seed)    # keeps every row
        for e in _shrinking_stream(seed, 7, head, tail):
            state.process_edge(e)
            _assert_inverse_exact(state)
        s = state.stats()
        assert s["lambda_shrinks"] >= 2 and s["block_folds"] >= 2

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2 * _BLOCK + 1, max_value=3 * _BLOCK))
    @settings(max_examples=15, deadline=None)
    def test_provider_tower(self, seed, block):
        cfg = StreamPipelineConfig(
            online=OnlineConfig(c=1e9, seed=seed),
            tree=TreeConfig(block_size=block, seed=seed), use_tree_sketch=True)
        pipe = StreamSparsifier(7, cfg)
        for e in _shrinking_stream(seed, 7, block + 3, 2 * block):
            merges = pipe.tree.merges
            pipe.push(e)
            # a merging push drops the inverse; any other one folds its row
            if pipe.tree.merges > merges:
                assert pipe.sampler._inv is None
            else:
                _assert_inverse_exact(pipe.sampler)
        s = pipe.sampler.stats()
        assert s["lambda_shrinks"] >= 2 and s["block_folds"] >= 2
        assert pipe.tree.merges >= 1


class TestStats:
    def test_self_sketch_counters_add_up(self):
        g = gen_synthetic(10, 3000, seed=3)
        state = OnlineSamplerState(10, c=40.0, lam=0.05, seed=1)
        for e in g.edges:
            state.process_edge(e)
        s = state.stats()
        assert s["scored"] == g.m
        assert s["folds"] == s["kept"] == state.kept_count
        assert _REFRESH_EVERY < s["kept"] < g.m
        assert s["lambda_shrinks"] == 0
        # with lambda fixed nothing interrupts the folds: a refresh replaces
        # every _REFRESH_EVERY-th fold and a GEMM every other full block
        assert s["refreshes"] == 1 + s["folds"] // _REFRESH_EVERY
        assert s["block_folds"] == (s["folds"] // _BLOCK
                                    - s["folds"] // _REFRESH_EVERY)
        assert 0.0 < s["drift"] < 1e-8

    def test_provider_counters_add_up(self):
        g = gen_synthetic(20, 3000, seed=4)
        cfg = StreamPipelineConfig(
            online=OnlineConfig(c=20.0, seed=2), tree=TreeConfig(block_size=100),
            use_tree_sketch=True, m_hint=g.m)
        pipe = StreamSparsifier(g.n, cfg)
        for e in g.edges:
            pipe.push(e)
        s, t = pipe.sampler.stats(), pipe.tree.stats()
        assert s["scored"] == g.m
        assert s["kept"] <= g.m and t["pushed"] == s["kept"]
        # every kept row folds in at its push, except where the carry merged
        # (every other carry), which drops the inverse instead
        assert s["folds"] == t["pushed"] - t["carries"] // 2
        assert s["drift"] == 0.0 or s["folds"] >= _REFRESH_EVERY
        # one Gram build up front and one after each carry that merged
        assert t["merges"] == pipe.tree.merges > 0
        assert t["gram_builds"] == 1 + (t["pushed"] // 100) // 2
        assert t["resident"] == pipe.tree.resident() <= t["peak_resident"]
