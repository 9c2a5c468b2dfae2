"""Eigenvalue-gated robust wrappers and the adversary harness."""

import json
import math

import numpy as np
import pytest

from streamsparse import (AdversaryScript, Graph, Hyperedge,
                          KernelMismatchError, OnlineSamplerState,
                          RobustHyperWrapperState, RobustWrapperState,
                          WeightedEdge, laplacian, play_game, rayleigh_error)
from streamsparse.bench import gen_synthetic


def keep_all_state(n, eps, m_hint=1024):
    """Inner sampler with huge c so every edge is kept (p clamps to 1)."""
    from streamsparse import OnlineSamplerState
    inner = OnlineSamplerState(n, c=1e12, eps=eps / 8, lam=1e-9)
    return RobustWrapperState(n, eps, m_hint=m_hint, inner=inner)


class TestGate:
    def test_first_edge_switches_once(self):
        state = keep_all_state(3, 0.5)
        state.step(WeightedEdge(0, 1, 1.0))
        assert state.switch_count == 1
        assert state.exposed.m == 1

    def test_no_switch_within_gate(self):
        # after the first snapshot, a tiny extra parallel edge stays inside
        # the (1 + eps/8) gate, so the exposed output must not move
        state = keep_all_state(2, 0.8)
        state.step(WeightedEdge(0, 1, 1.0))
        exposed = state.step(WeightedEdge(0, 1, 0.01))
        assert state.switch_count == 1
        assert exposed.m == 1

    def test_switch_on_gate_breach(self):
        state = keep_all_state(2, 0.8)
        state.step(WeightedEdge(0, 1, 1.0))
        exposed = state.step(WeightedEdge(0, 1, 5.0))
        assert state.switch_count == 2
        assert exposed.m == 2

    def test_zero_to_nonzero_is_violation(self):
        # a new component edge leaves old eigenvalues alone but lifts a zero
        state = keep_all_state(4, 0.5)
        state.step(WeightedEdge(0, 1, 1.0))
        state.step(WeightedEdge(2, 3, 1.0))
        assert state.switch_count == 2

    def test_exposed_is_snapshot_verbatim(self):
        state = keep_all_state(2, 0.5)
        for k in range(10):
            exposed = state.step(WeightedEdge(0, 1, 1.0))
        assert exposed.edges == state.inner.finalize().edges[:exposed.m]

    def test_rejects_out_of_range_before_any_change(self):
        state = keep_all_state(4, 0.5)
        fresh = keep_all_state(4, 0.5)
        with pytest.raises(ValueError):
            state.step(WeightedEdge(-1, 2, 1.0))
        edges = [WeightedEdge(0, 1, 1.0), WeightedEdge(1, 2, 2.0),
                 WeightedEdge(2, 3, 0.5)]
        for e in edges:
            assert state.step(e).edges == fresh.step(e).edges
        assert state.switch_count == fresh.switch_count

    @pytest.mark.parametrize("w", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_bad_weight_before_any_change(self, w):
        state = keep_all_state(4, 0.5)
        fresh = keep_all_state(4, 0.5)
        with pytest.raises(ValueError):
            state.step(WeightedEdge(0, 1, w))
        edges = [WeightedEdge(0, 1, 1.0), WeightedEdge(1, 2, 2.0),
                 WeightedEdge(2, 3, 0.5)]
        for e in edges:
            assert state.step(e).edges == fresh.step(e).edges
        assert state.switch_count == fresh.switch_count
        assert state.inner.stats() == fresh.inner.stats()
        assert np.array_equal(state._laplacian, fresh._laplacian)


class TestSkipWhenNothingKept:
    def test_matches_checking_every_step(self):
        # an inner sampler with small c keeps few edges; the wrapper skips
        # the eigen-check on the others and must still switch and expose
        # exactly what a loop that checks every step does
        n, eps = 8, 0.5
        g = gen_synthetic(n, 200, seed=11)
        state = RobustWrapperState(
            n, eps, inner=OnlineSamplerState(n, c=0.3, eps=eps / 8, seed=5))
        ref_inner = OnlineSamplerState(n, c=0.3, eps=eps / 8, seed=5)
        gate = RobustWrapperState(n, eps)   # holds the reference baseline
        exposed, switches, skipped = Graph(n, []), 0, 0
        for e in g.edges:
            got = state.step(e)
            kept, _ = ref_inner.process_edge(e)
            skipped += not kept
            snapshot = ref_inner.finalize()
            eigs = np.sort(np.linalg.eigvalsh(laplacian(snapshot)))
            if not gate._within_gate(eigs):
                exposed, gate.baseline = snapshot, eigs
                switches += 1
            assert state.switch_count == switches
            assert got.edges == exposed.edges
        assert skipped > 50 and switches > 1


class TestMaintainedLaplacian:
    @pytest.mark.parametrize("c,fed", [(1e12, 0), (0.3, 0), (0.3, 40)])
    def test_equals_laplacian_of_the_snapshot(self, c, fed):
        # keep-all, sparse and pre-fed inner samplers: after every step the
        # Laplacian the gate reads is bit-identical to a rebuilt one
        n, eps = 8, 0.5
        g = gen_synthetic(n, 200, seed=12)
        inner = OnlineSamplerState(n, c=c, eps=eps / 8, seed=6)
        for e in g.edges[:fed]:
            inner.process_edge(e)
        state = RobustWrapperState(n, eps, inner=inner)
        for e in g.edges[fed:]:
            state.step(e)
            assert np.array_equal(state._laplacian,
                                  laplacian(state.inner.finalize()))
        assert state.switch_count > 1


class TestParallelEdgeBound:
    @pytest.mark.parametrize("m,eps", [(64, 0.5), (200, 0.5), (100, 1.0)])
    def test_switch_count_bound(self, m, eps):
        state = keep_all_state(2, eps, m_hint=m)
        for _ in range(m):
            state.step(WeightedEdge(0, 1, 1.0))
        bound = math.ceil(math.log(m) / math.log(1 + eps / 8)) + 1
        assert state.switch_count <= bound

    def test_eigen_flip_accounting(self):
        n, eps, m = 2, 0.5, 100
        state = keep_all_state(n, eps, m_hint=m)
        for _ in range(m):
            state.step(WeightedEdge(0, 1, 1.0))
        lam_max, lam_min = 2.0 * m, 2.0
        bound = n * math.ceil(math.log(lam_max / lam_min)
                              / math.log(1 + eps / 8)) + n
        assert state.switch_count <= bound


class TestHyperWrapper:
    def test_rank2_switch_times_match_graph(self):
        edges = [(0, 1, 1.0), (0, 1, 1.0), (1, 2, 2.0), (0, 2, 1.0),
                 (0, 1, 4.0), (1, 2, 0.1)]
        hstate = RobustHyperWrapperState(3, 0.8, r=2, m_hint=len(edges))
        gswitches = []
        for u, v, w in edges:
            before = hstate.switch_count
            hstate.step(Hyperedge((u, v), w))
            gswitches.append(hstate.switch_count > before)
        # switches happen exactly when the internal graph wrapper switches
        assert hstate.switch_count == hstate.graph_wrapper.switch_count

    def test_constant_when_gate_quiet(self):
        hstate = RobustHyperWrapperState(4, 0.8, r=3, m_hint=32)
        hstate.step(Hyperedge((0, 1, 2), 1.0))
        first = hstate.exposed
        hstate.step(Hyperedge((0, 1, 2), 1e-4))
        assert hstate.exposed is first


class TestGame:
    def test_empty_rounds(self):
        state = keep_all_state(4, 0.5)
        script = AdversaryScript(strategy=lambda h, t: None, rounds=0)
        transcript = play_game(script, state)
        assert transcript.records == [] and transcript.switch_count == 0

    def test_oblivious_stream_valid(self):
        g = gen_synthetic(10, 200, seed=0)
        state = keep_all_state(10, 0.5, m_hint=200)
        script = AdversaryScript(strategy=lambda h, t: g.edges[t], rounds=g.m)
        transcript = play_game(script, state)
        assert len(transcript.records) == 200
        # keep-all inner: exposed output lags the prefix by at most the gate
        valid = sum(r.valid for r in transcript.records)
        assert valid >= 190

    def test_adaptive_min_weight_adversary(self):
        n = 10
        rng = np.random.default_rng(1)

        def strategy(history, t):
            if not history or history[-1].m == 0:
                return WeightedEdge(0, 1, 1.0)
            # attack the pair with the least exposed weight
            W = np.zeros((n, n))
            for e in history[-1].edges:
                W[e.u, e.v] += e.w
                W[e.v, e.u] += e.w
            W[np.arange(n), np.arange(n)] = np.inf
            u, v = np.unravel_index(np.argmin(W), W.shape)
            return WeightedEdge(int(u), int(v), 1.0)

        state = keep_all_state(n, 0.5, m_hint=300)
        transcript = play_game(AdversaryScript(strategy=strategy, rounds=300),
                               state)
        valid = sum(r.valid for r in transcript.records)
        assert valid >= 270

    def test_transcript_jsonl(self, tmp_path):
        g = gen_synthetic(6, 30, seed=2)
        state = keep_all_state(6, 0.5, m_hint=30)
        transcript = play_game(AdversaryScript(
            strategy=lambda h, t: g.edges[t], rounds=30), state)
        path = tmp_path / "transcript.jsonl"
        transcript.save(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 30
        assert set(lines[0]) == {"round", "edge", "switch", "error", "valid"}
        assert sum(rec["switch"] for rec in lines) == transcript.switch_count
