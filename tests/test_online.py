"""Online leverage sampling from the grounded inverse, and its exact oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamsparse import (Graph, Hyperedge, HyperSamplerConfig,
                          HyperSamplerState, IncidenceRow, MergeReduceTree,
                          OnlineConfig,
                          OnlineSamplerState, RobustWrapperState,
                          SlidingWindowConfig, SlidingWindowState,
                          StreamPipelineConfig, StreamSparsifier, TreeConfig,
                          WeightedEdge,
                          default_c, exact_online_leverages, laplacian,
                          leverages, online_sparsify, pseudo_inverse,
                          rayleigh_error, stream_sparsify)
from streamsparse.bench import gen_synthetic
from streamsparse.graph import (_BLOCK, _REFRESH_EVERY, _GroundedInverse,
                                _components, _resistance, _stamp)

from test_graph import assert_grounded, random_connected


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
    def test_score_matches_grounded_formula(self):
        # a row inside a sketch component scores w d^T G^+ d; a row
        # joining two components scores inf and is kept with p = 1
        state = OnlineSamplerState(5, c=2.0, seed=3)
        rows = [WeightedEdge(0, 1, 1.0), WeightedEdge(1, 2, 1.5 ** 2),
                WeightedEdge(0, 2, 0.7 ** 2), WeightedEdge(3, 4, 4.0),
                WeightedEdge(0, 1, 0.3 ** 2), WeightedEdge(2, 0, 1.1 ** 2),
                WeightedEdge(1, 2, 0.2 ** 2), WeightedEdge(2, 3, 1.0),
                WeightedEdge(4, 0, 0.5 ** 2), WeightedEdge(1, 3, 0.4 ** 2)]
        G = np.zeros((5, 5))
        for r in rows:
            got = state._leverage(*r)
            labels = _components(G)
            if labels[r.u] != labels[r.v]:
                assert got == math.inf
            else:
                want = r.w * _resistance(pseudo_inverse(G), r.u, r.v)
                assert got == pytest.approx(want, rel=1e-9)
            kept, rw = state.process_edge(r)
            assert kept or got < math.inf
            if kept:
                _stamp(G, r.u, r.v, rw.w)
                assert_grounded(state.sketch._grounded_inverse(), G)
        assert state.kept_count < len(rows)

    def test_rejects_out_of_range_before_any_change(self):
        g = gen_synthetic(6, 40, seed=2)
        state = OnlineSamplerState(6, c=0.5, seed=4)
        fresh = OnlineSamplerState(6, c=0.5, seed=4)
        for u, v in ((-1, 2), (2, 6), (1, 1)):
            with pytest.raises(ValueError):
                state.process_edge(WeightedEdge(u, v, 1.0))
        assert state.stats() == fresh.stats()
        assert [state.process_edge(e) for e in g.edges] == \
               [fresh.process_edge(e) for e in g.edges]

    @pytest.mark.parametrize("w", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_bad_weight_before_any_change(self, w):
        g = gen_synthetic(6, 40, seed=2)
        state = OnlineSamplerState(6, c=0.5, seed=4)
        fresh = OnlineSamplerState(6, c=0.5, seed=4)
        with pytest.raises(ValueError):
            state.process_edge(WeightedEdge(0, 1, w))
        assert state.stats() == fresh.stats()
        assert [state.process_edge(e) for e in g.edges] == \
               [fresh.process_edge(e) for e in g.edges]
        assert state.stats() == fresh.stats()

    def test_kept_edges_reweighted(self):
        state = OnlineSamplerState(3, c=1e9)
        state.process_edge(WeightedEdge(0, 1, 2.0))
        (e,) = state.finalize().edges
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
        assert default_c(100, 1.0) == pytest.approx(4 * math.log(100))
        assert default_c(1, 1.0) == pytest.approx(4 * math.log(2))
        assert default_c(100, 0.5) == pytest.approx(16 * math.log(100))


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
        # the sum of the sketch scores taken before each row, each capped at
        # 1 (a bridge's leverage; a row joining components scores inf), uses
        # the 2-approx sketch; it should land within a small constant of
        # the exact online leverage sum
        g = gen_synthetic(10, 400, seed=8)
        state = OnlineSamplerState(10, c=8 * math.log(400))
        score_sum = 0.0
        for e in g.edges:
            score_sum += min(state._leverage(*e), 1.0)
            state.process_edge(e)
        exact = exact_online_leverages(g).sum()
        assert 0.3 * exact < score_sum < 4.0 * exact


class TestCertifiedKeeps:
    """A row whose sketch degrees give c * scale^2 >= min(d_u, d_v), with
    a relative margin, is kept with p = 1 without a score or a draw."""

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2, max_value=9),
           st.floats(min_value=0.05, max_value=5.0), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_certified_rows_have_p_one(self, seed, n, c, tower):
        # on the sampler's own sketch, or on a pipeline's tower: with
        # blocks of one edge, every kept row carries and every other carry
        # merges
        if tower:
            state = StreamSparsifier(n, StreamPipelineConfig(
                online=OnlineConfig(c=c, seed=seed),
                tree=TreeConfig(block_size=1, seed=seed))).sampler
        else:
            state = OnlineSamplerState(n, c, seed=seed)
        certified = 0
        for e in _stream(seed, n, 60):
            G = state.sketch.gram.copy()
            kept = state.kept_count
            # pipe.push, with the kept edge in hand
            _, out = state.process_edge(e)
            if state.stats()["certified"] == certified:
                continue
            certified += 1
            assert state.kept_count == kept + 1 and out.w == e.w
            if _components(G)[e.u] == _components(G)[e.v]:
                ell = e.w * _resistance(pseudo_inverse(G), e.u, e.v)
                assert c * ell >= 1.0
        s = state.stats()
        assert s["scored"] + s["certified"] == 60
        if tower:
            tree = state.sketch
            assert tree.pushed == state.kept_count
            assert tree.merges >= tree.pushed // 2

    def test_margin(self):
        # after one unit row, d_0 = d_1 = 1 and the pair's resistance is 1:
        # a row of weight w has c * leverage = w at c = 1, so p = 1 either
        # way, but only w >= 1 + 1e-9 is certified
        for w, certified in ((1.0, False), (1.0 + 5e-10, False),
                             (1.0 + 2e-9, True)):
            state = OnlineSamplerState(3, c=1.0)
            state.process_edge(WeightedEdge(0, 1, 1.0))   # degree 0 certifies
            kept, out = state.process_edge(WeightedEdge(0, 1, w))
            s = state.stats()
            assert (s["certified"], s["scored"]) == (1 + certified, 1 - certified)
            assert kept and out.w == w

    def test_certified_streams_never_touch_the_inverse(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the inverse was read")

        for name in ("fold", "rebuild"):
            monkeypatch.setattr(_GroundedInverse, name, boom)
        monkeypatch.setattr(np.linalg, "inv", boom)
        robust = RobustWrapperState(8, 0.5, inner=OnlineSamplerState(8, c=1e9))
        for e in gen_synthetic(8, 200, seed=3).edges:
            robust.step(e)
        assert robust.stats()["inner"]["certified"] == 200
        # eps = 1e-3 makes the carries' row multiplier c = 4e6 ln(rows)
        window = SlidingWindowState(10, SlidingWindowConfig(
            block_size=16, eps=1e-3, seed=2, rho=1e9))
        rng = np.random.default_rng(4)
        for _ in range(200):
            verts = rng.choice(10, size=int(rng.integers(2, 5)), replace=False)
            window.push(Hyperedge(tuple(int(x) for x in verts),
                                  float(rng.uniform(1.0, 10.0))))
        assert window.carries > 8 and window.stored() == 200


class TestProviderMode:
    """The sampler on a sketch it does not own: the tower of a
    StreamSparsifier, which it appends its kept edges to."""

    def test_external_sketch_used(self):
        # two components: {0..5} and the pair {6, 7}; scores read the
        # tower's Gram, and the tower gains exactly the kept edges
        g = gen_synthetic(6, 60, seed=3)
        tree = MergeReduceTree(8, TreeConfig(block_size=16,
                                             identity_reducer=True))
        for e in g.edges + [WeightedEdge(6, 7, 2.5)]:
            tree.push(e)
        G = tree.gram.copy()
        np.testing.assert_allclose(
            G, laplacian(Graph(8, g.edges + [WeightedEdge(6, 7, 2.5)])),
            atol=1e-12)
        state = OnlineSamplerState(8, c=2.0, sketch=tree)
        Gp = pseudo_inverse(G)
        for u, v in ((0, 1), (2, 5), (6, 7)):
            want = 1.5 * _resistance(Gp, u, v)
            got = state._leverage(u, v, 1.5)
            assert got == pytest.approx(want, rel=1e-9)
        assert state._leverage(0, 7, 1.0) == math.inf
        assert_grounded(tree._inverse, G)
        assert state.stats()["refreshes"] == 1
        kept = [out for _, out in map(state.process_edge,
                                      gen_synthetic(8, 40, seed=5).edges)
                if out is not None]
        assert 0 < state.kept_count == len(kept) < 40
        assert tree.pushed == g.m + 1 + len(kept)
        # the identity reducer keeps every pushed edge in arrival order
        assert tree.sparsifier().edges == \
               g.edges + [WeightedEdge(6, 7, 2.5)] + kept
        assert np.array_equal(tree.gram, laplacian(tree.sparsifier()))

    def test_keeps_no_sketch_of_its_own(self):
        # the tower's Gram is the scoring sketch, so the sampler builds
        # none; it certifies rows from the tower's degrees and keeps the
        # same edges as when it scored every row
        g = gen_synthetic(20, 3000, seed=4)
        cfg = StreamPipelineConfig(
            online=OnlineConfig(c=20.0, seed=2), tree=TreeConfig(block_size=100),
            m_hint=g.m)
        pipe = StreamSparsifier(g.n, cfg)
        assert pipe.sampler.sketch is pipe.tree
        for e in g.edges:
            pipe.push(e)
        assert pipe.stats() == {
            "sampler": {"scored": 2774, "certified": 226, "kept": 1177,
                        "folds": 1093,
                        "block_folds": 32, "joins": 0, "refreshes": 6,
                        "drift": 0.0},
            "tree": {"pushed": 1177, "carries": 11, "merges": 8,
                     "resident": 362, "peak_resident": 402, "gram_builds": 6}}
        out = pipe.result()
        assert out.m == 362
        assert sum(e.w for e in out.edges) == pytest.approx(16363.6924256527,
                                                            rel=1e-9)


def _stream(seed, n, m):
    """m edges over n vertices with weights U(1, 10)."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(1.0, 10.0, m)
    u = rng.integers(0, n, m)
    v = (u + rng.integers(1, n, m)) % n
    return [WeightedEdge(int(a), int(b), float(x)) for a, b, x in zip(u, v, w)]


class TestOneStore:
    """The sampler's own sketch is the one record of its kept edges, in
    weights: finalize() returns its rows, and its Gram is their Laplacian."""

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2, max_value=9),
           st.floats(min_value=0.05, max_value=50.0),
           st.integers(min_value=0, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_kept_edges_are_the_sketch(self, seed, n, c, fed):
        stream = _stream(seed, n, fed + 40)
        state = OnlineSamplerState(n, c, seed=seed)
        # rows appended to the sketch directly are kept edges too
        for u, v, w in stream[:fed]:
            state.sketch.append(IncidenceRow(u, v, math.sqrt(w)))
        ps = []
        real = state._sample

        def recording(u, v, t):
            p, kept = real(u, v, t)
            ps.append(p)
            return p, kept

        state._sample = recording
        for e in stream[fed:]:
            G = state.sketch.gram.copy()
            before = state.finalize().edges
            kept, out = state.process_edge(e)
            p = ps[-1]
            labels = _components(G)
            if labels[e.u] != labels[e.v]:
                assert p == 1.0
            else:
                ell = e.w * _resistance(pseudo_inverse(G), e.u, e.v)
                assert p == pytest.approx(min(1.0, c * ell), rel=1e-7)
            after = state.finalize().edges
            assert np.array_equal(state.sketch.gram, laplacian(state.finalize()))
            if not kept:
                assert out is None and after == before
                continue
            assert after == before + [WeightedEdge(e.u, e.v, e.w / p)]
            assert out == after[-1]
            if p == 1.0:
                assert out.w == e.w

    def test_a_sampler_reading_a_tower_keeps_no_edges(self):
        tree = MergeReduceTree(4, TreeConfig(block_size=4))
        state = OnlineSamplerState(4, c=2.0, sketch=tree)
        kept, out = state.process_edge(WeightedEdge(0, 1, 1.5))
        assert kept and out == WeightedEdge(0, 1, 1.5)
        assert tree.sparsifier().edges == [out]     # the tower holds it
        with pytest.raises(ValueError):
            state.finalize()
        with pytest.raises(ValueError):
            RobustWrapperState(4, 0.5, inner=state)


class TestBlockedInverse:
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=3 * _BLOCK + 1, max_value=5 * _BLOCK))
    @settings(max_examples=25, deadline=None)
    def test_self_sketch(self, seed, m):
        # every row is certified and kept; a read after each row folds it
        state = OnlineSamplerState(7, c=1e9, seed=seed)
        for e in _stream(seed, 7, m):
            state.process_edge(e)
            assert_grounded(state.sketch._grounded_inverse(), state.sketch.gram)
        s = state.stats()
        assert s["certified"] == s["folds"] == s["kept"] == m
        assert s["block_folds"] >= 2

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2 * _BLOCK + 1, max_value=3 * _BLOCK))
    @settings(max_examples=15, deadline=None)
    def test_provider_tower(self, seed, block):
        # every row is certified and pushed; a merging push marks the
        # tower's inverse for a rebuild, any other one notes its row, and a
        # read after every push takes it in
        cfg = StreamPipelineConfig(
            online=OnlineConfig(c=1e9, seed=seed),
            tree=TreeConfig(block_size=block, seed=seed))
        pipe = StreamSparsifier(7, cfg)
        tree = pipe.tree
        tree._grounded_inverse()
        for e in _stream(seed, 7, 3 * block + 3):
            merges = tree.merges
            pipe.push(e)
            marked = tree._inverse._unread is None
            assert marked == (tree.merges > merges)
            assert_grounded(tree._grounded_inverse(), tree.gram)
        s = pipe.sampler.stats()
        assert s["certified"] == s["kept"] == 3 * block + 3
        assert s["block_folds"] >= 2 and tree.merges >= 1


class TestStats:
    def test_self_sketch_counters_add_up(self):
        # a spanning path of _BLOCK joins first, then rows inside the one
        # component. Read after every row, the inverse folds each kept row
        # at once: a refresh follows every _REFRESH_EVERY-th fold and clears
        # the block, which _REFRESH_EVERY - _BLOCK leaves aligned
        n = _BLOCK + 1
        g = Graph(n, [WeightedEdge(i, i + 1, 2.0) for i in range(n - 1)]
                  + gen_synthetic(n, 3000, seed=3).edges)
        state = OnlineSamplerState(n, c=20.0, seed=1)
        lazy = OnlineSamplerState(n, c=20.0, seed=1)
        for e in g.edges:
            state.process_edge(e)
            state.sketch._grounded_inverse()
            lazy.process_edge(e)
        s = state.stats()
        assert s["scored"] + s["certified"] == g.m
        assert s["scored"] > 0 and s["certified"] > n - 1
        assert s["folds"] == s["kept"] == len(state.sketch)
        assert _REFRESH_EVERY < s["kept"] < g.m
        assert s["joins"] == n - 1
        assert s["refreshes"] == s["folds"] // _REFRESH_EVERY
        assert s["block_folds"] == (s["folds"] - s["joins"]) // _BLOCK
        assert 0.0 < s["drift"] < 1e-8
        assert_grounded(state.sketch._grounded_inverse(), state.sketch.gram)
        # left alone, the inverse catches up only when a score reads it,
        # folding a short run of kept rows and rebuilding after a long one;
        # the same rows are certified, scored and kept
        t = lazy.stats()
        for key in ("scored", "certified", "kept"):
            assert t[key] == s[key]
        assert t["folds"] < t["kept"] and t["refreshes"] > 0
        assert [(u, v) for u, v, _ in lazy.finalize().edges] == \
               [(u, v) for u, v, _ in state.finalize().edges]
        np.testing.assert_allclose([w for _, _, w in lazy.finalize().edges],
                                   [w for _, _, w in state.finalize().edges],
                                   rtol=1e-9)
        assert_grounded(lazy.sketch._grounded_inverse(), lazy.sketch.gram)

    def test_keys_before_the_first_read(self):
        # a stream the degrees certify row by row never reads the inverse;
        # stats() has every key, the inverse's counters at zero
        g = gen_synthetic(6, 50, seed=1)
        state = OnlineSamplerState(6, c=1e9)
        fresh = state.stats()
        assert set(fresh) == {"scored", "certified", "kept", "folds",
                              "block_folds", "joins", "refreshes", "drift"}
        for e in g.edges:
            state.process_edge(e)
        assert state.stats() == {**fresh, "certified": g.m, "kept": g.m}

    def test_provider_counters_add_up(self):
        g = gen_synthetic(20, 3000, seed=4)
        cfg = StreamPipelineConfig(
            online=OnlineConfig(c=20.0, seed=2), tree=TreeConfig(block_size=100),
            m_hint=g.m)
        pipe = StreamSparsifier(g.n, cfg)
        for e in g.edges:
            pipe.push(e)
        inv = pipe.tree._grounded_inverse()     # take in the last pushes
        assert_grounded(inv, pipe.tree.gram)
        s, t = pipe.sampler.stats(), pipe.tree.stats()
        assert s["scored"] + s["certified"] == g.m and s["certified"] > 0
        assert s["kept"] <= g.m and t["pushed"] == s["kept"]
        # a read folds the rows pushed since the last one, unless a carry
        # merged in between (every other carry) and marked the inverse for
        # a rebuild; the rebuild takes in at least the merging push's row
        assert 0 < s["folds"] <= t["pushed"] - t["carries"] // 2
        # every rebuild reads a freshly built Gram matrix: one up front and
        # one after each carry that merged; no stretch between merges is
        # long enough for a periodic refresh, and no run of pushes between
        # two reads long enough for a rebuild
        assert s["refreshes"] == t["gram_builds"] == 1 + (t["pushed"] // 100) // 2
        assert s["drift"] == 0.0
        assert t["merges"] == pipe.tree.merges > 0
        assert t["resident"] == pipe.tree.resident() <= t["peak_resident"]


class TestScaleFree:
    """Scores are read from an inverse grounded at the Gram matrix's own
    scale, so multiplying every weight by 10^k keeps the same items with
    the same probabilities."""

    @staticmethod
    def _scaled(g, k):
        return Graph(g.n, [WeightedEdge(u, v, w * 10.0 ** k)
                           for u, v, w in g.edges])

    @staticmethod
    def _assert_same_sample(got, want, k):
        # kept weight = w / p: same items, and p within rel 1e-9
        assert [(u, v) for u, v, _ in got] == [(u, v) for u, v, _ in want]
        np.testing.assert_allclose([w for _, _, w in got],
                                   [w * 10.0 ** k for _, _, w in want],
                                   rtol=1e-9)

    @given(st.integers(min_value=0, max_value=2**16),
           st.integers(min_value=-6, max_value=15))
    @settings(max_examples=20, deadline=None)
    def test_online_sparsify(self, seed, k):
        g = gen_synthetic(12, 300, seed=seed)
        want = online_sparsify(g, c=1.0, seed=seed)
        assert want.m < g.m
        got = online_sparsify(self._scaled(g, k), c=1.0, seed=seed)
        self._assert_same_sample(got.edges, want.edges, k)

    @given(st.integers(min_value=0, max_value=2**16),
           st.integers(min_value=-6, max_value=15))
    @settings(max_examples=10, deadline=None)
    def test_stream_sparsify_on_the_tower_sketch(self, seed, k):
        g = gen_synthetic(12, 600, seed=seed)
        cfg = StreamPipelineConfig(
            online=OnlineConfig(c=1.0, seed=seed),
            tree=TreeConfig(block_size=64, seed=seed))
        want = stream_sparsify(g, cfg)
        got = stream_sparsify(self._scaled(g, k), cfg)
        self._assert_same_sample(got.edges, want.edges, k)

    @given(st.integers(min_value=0, max_value=2**16),
           st.integers(min_value=-6, max_value=15),
           st.sampled_from(("fast", "balanced")))
    @settings(max_examples=20, deadline=None)
    def test_hyper_sampler(self, seed, k, variant):
        rng = np.random.default_rng(seed)
        stream = [Hyperedge(tuple(int(x) for x in rng.choice(
                      10, size=int(rng.integers(2, 5)), replace=False)),
                            float(rng.uniform(1.0, 10.0)))
                  for _ in range(60)]
        cfg = HyperSamplerConfig(rho=0.3, variant=variant, c=1.0, seed=seed)
        want = HyperSamplerState(10, cfg)
        got = HyperSamplerState(10, cfg)
        for e in stream:
            a = want.step(e)
            b = got.step(Hyperedge(e.vertices, e.w * 10.0 ** k))
            assert a.kept == b.kept
            assert b.p == pytest.approx(a.p, rel=1e-9)
        assert [e.vertices for e in got.sparsifier().hyperedges] == \
               [e.vertices for e in want.sparsifier().hyperedges]

    def test_heavy_edge_is_kept_with_p_one(self):
        state = OnlineSamplerState(3, c=0.01)
        kept, out = state.process_edge(WeightedEdge(0, 1, 1e17))
        assert kept and out.w == 1e17
        # against the sketch of that one edge, a parallel copy scores
        # w * (1 / w) = 1 at that scale too
        assert state._leverage(0, 1, 1e17) == pytest.approx(1.0, rel=1e-12)
