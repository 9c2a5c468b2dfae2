"""Hypergraph energy, clique expansion, quantization, online samplers."""

import dataclasses
import itertools
import math
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamsparse import (Graph, Hyperedge, Hypergraph, HyperSamplerConfig,
                          HyperSamplerState, IncidenceRow, SpectralSketch,
                          associated_graph, balanced_rho, fast_rho,
                          hyper_energy, hyper_sparsify, laplacian,
                          pseudo_inverse, quantize_weight)
from streamsparse import graph, hypergraph
from streamsparse.graph import _components, _resistance
from streamsparse.balance import BalanceError
from streamsparse.hypergraph import _rescaled

from test_graph import assert_grounded


def random_hypergraph(rng, n=8, m=60, r=3):
    h = Hypergraph(n)
    for _ in range(m):
        k = int(rng.integers(2, r + 1))
        verts = tuple(int(v) for v in rng.choice(n, size=k, replace=False))
        h.add(Hyperedge(verts, float(rng.uniform(0.5, 5.0))))
    return h


class TestTypes:
    def test_vertices_sorted(self):
        e = Hyperedge((3, 1, 2), 1.0)
        assert e.vertices == (1, 2, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Hyperedge((1, 1, 2), 1.0)

    def test_rejects_singleton(self):
        with pytest.raises(ValueError):
            Hyperedge((1,), 1.0)

    def test_rejects_bad_weights(self):
        for w in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                Hyperedge((0, 1, 2), w)

    def test_add_rejects_out_of_range(self):
        h = Hypergraph(5)
        for verts in ((-1, 2), (2, 5)):
            with pytest.raises(ValueError):
                h.add(Hyperedge(verts, 1.0))
        h.add(Hyperedge((0, 4), 1.0))
        assert [e.vertices for e in h.hyperedges] == [(0, 4)]

    def test_config_is_frozen(self):
        cfg = HyperSamplerConfig(rho=1.0)
        with pytest.raises(FrozenInstanceError):
            cfg.rho = 2.0

    def test_rank(self):
        h = Hypergraph(5, [Hyperedge((0, 1), 1.0), Hyperedge((1, 2, 3, 4), 1.0)])
        assert h.r == 4

    def test_rescaled_reuses_vertices_and_checks_weight(self):
        e = Hyperedge((4, 0, 2), 1.5)
        out = _rescaled(e, 3.0)
        assert out == Hyperedge((0, 2, 4), 4.5)
        assert out.vertices is e.vertices
        for factor in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                _rescaled(e, factor)
        with pytest.raises(FrozenInstanceError):
            out.w = 1.0


class TestEnergy:
    def test_direct_formula(self):
        h = Hypergraph(3, [Hyperedge((0, 1, 2), 2.0)])
        assert hyper_energy(h, np.array([0.0, 1.0, 3.0])) == pytest.approx(18.0)

    def test_constant_vector_zero(self):
        rng = np.random.default_rng(0)
        h = random_hypergraph(rng)
        assert hyper_energy(h, np.full(8, 2.5)) == pytest.approx(0.0)

    def test_rank2_equals_quadratic_form(self):
        rng = np.random.default_rng(1)
        h = random_hypergraph(rng, r=2)
        g = associated_graph(h)
        L = laplacian(g)
        for _ in range(20):
            x = rng.standard_normal(8)
            assert hyper_energy(h, x) == pytest.approx(float(x @ L @ x), rel=1e-9)

    def test_clique_sandwich(self):
        # (1/r^2) x^T L x <= Q(x) <= x^T L x for the associated graph
        rng = np.random.default_rng(2)
        h = random_hypergraph(rng, r=4)
        L = laplacian(associated_graph(h))
        r2 = h.r ** 2
        for _ in range(50):
            x = rng.standard_normal(8)
            q = hyper_energy(h, x)
            xlx = float(x @ L @ x)
            assert xlx / r2 - 1e-9 <= q <= xlx + 1e-9


class TestAssociatedGraph:
    def test_triangle_expansion(self):
        h = Hypergraph(3, [Hyperedge((0, 1, 2), 1.0)])
        g = associated_graph(h)
        assert [(e.u, e.v, e.w) for e in g.edges] == [
            (0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]

    def test_rank2_identity(self):
        h = Hypergraph(4, [Hyperedge((0, 2), 1.5), Hyperedge((1, 3), 2.5)])
        g = associated_graph(h)
        assert [(e.u, e.v, e.w) for e in g.edges] == [(0, 2, 1.5), (1, 3, 2.5)]

    def test_parallel_edges_kept(self):
        h = Hypergraph(3, [Hyperedge((0, 1, 2), 1.0), Hyperedge((0, 1), 2.0)])
        g = associated_graph(h)
        assert sum(1 for e in g.edges if (e.u, e.v) == (0, 1)) == 2


class TestQuantize:
    @pytest.mark.parametrize("w", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_weight_hyperedge_rejects(self, w):
        with pytest.raises(ValueError, match="positive and finite"):
            quantize_weight(w, 0.1)
        with pytest.raises(ValueError, match="positive and finite"):
            Hyperedge((0, 1), w)

    def test_one_is_fixed(self):
        assert quantize_weight(1.0, 0.3) == pytest.approx(1.0)

    def test_lattice_point_fixed(self):
        w = 1.1 ** 7
        assert quantize_weight(w, 0.1) == pytest.approx(w, rel=1e-12)

    def test_ten_at_eps_point_one(self):
        got = quantize_weight(10.0, 0.1)
        assert got == pytest.approx(1.1 ** 24)
        assert got == pytest.approx(9.8497, abs=5e-4)

    def test_multiplicative_bound(self):
        rng = np.random.default_rng(3)
        for eps in (0.05, 0.2, 0.6):
            for w in rng.uniform(0.01, 100, size=200):
                q = quantize_weight(float(w), eps)
                assert w / math.sqrt(1 + eps) <= q <= w * math.sqrt(1 + eps)

    def test_energy_bound(self):
        rng = np.random.default_rng(4)
        h = random_hypergraph(rng)
        eps = 0.2
        hq = Hypergraph(h.n, [Hyperedge(e.vertices, quantize_weight(e.w, eps))
                              for e in h.hyperedges])
        for _ in range(100):
            x = rng.standard_normal(8)
            q, qq = hyper_energy(h, x), hyper_energy(hq, x)
            assert q / (1 + eps) - 1e-12 <= qq <= q * (1 + eps) + 1e-12


class TestSamplers:
    def test_huge_rho_keeps_all_with_factor_one(self):
        rng = np.random.default_rng(5)
        h = random_hypergraph(rng, m=30)
        state = HyperSamplerState(8, HyperSamplerConfig(rho=1e12, m_hint=200))
        for e in h.hyperedges:
            d = state.step(e)
            assert d.kept and d.p == 1.0
        out = state.sparsifier()
        assert [e.vertices for e in out.hyperedges] == \
               [e.vertices for e in h.hyperedges]
        assert np.allclose([e.w for e in out.hyperedges],
                           [e.w for e in h.hyperedges])

    def test_first_hyperedge_kept(self):
        # its clique pairs are bridges in the fresh sketch, so max score is
        # around 1 and p clamps to 1 for rho >= 1
        for seed in range(10):
            state = HyperSamplerState(8, HyperSamplerConfig(rho=2.0, seed=seed))
            d = state.step(Hyperedge((0, 3, 5), 2.0))
            assert d.kept and d.p == 1.0

    def test_energy_preserved_fast(self):
        rng = np.random.default_rng(6)
        h = random_hypergraph(rng, m=120)
        hh = hyper_sparsify(h, variant="fast", eps=0.5, seed=0)
        for _ in range(200):
            x = rng.standard_normal(8)
            q = hyper_energy(h, x)
            assert abs(hyper_energy(hh, x) - q) <= 0.5 * q + 1e-9

    def test_energy_preserved_balanced(self):
        rng = np.random.default_rng(7)
        h = random_hypergraph(rng, m=120)
        hh = hyper_sparsify(h, variant="balanced", eps=0.5, seed=0)
        for _ in range(200):
            x = rng.standard_normal(8)
            q = hyper_energy(h, x)
            assert abs(hyper_energy(hh, x) - q) <= 0.5 * q + 1e-9

    def test_balanced_rho_smaller(self):
        # the balanced rule needs polylog instead of r^4 oversampling
        assert balanced_rho(3, 200, 0.5) < fast_rho(3, 200, 0.5)

    def test_sample_count_scales_with_rho(self):
        rng = np.random.default_rng(8)
        h = random_hypergraph(rng, n=10, m=400, r=3)
        counts = []
        for rho in (0.02, 0.08, 0.32):
            kept = 0
            for seed in range(5):
                state = HyperSamplerState(10, HyperSamplerConfig(
                    rho=rho, variant="balanced", seed=seed, m_hint=1200))
                for e in h.hyperedges:
                    state.step(e)
                kept += len(state.kept)
            counts.append(kept / 5)
        assert counts[0] < counts[1] < counts[2]

    def test_step_rejects_out_of_range_before_any_change(self):
        stream = [Hyperedge((0, 1, 2), 1.0), Hyperedge((2, 3), 2.0),
                  Hyperedge((1, 3, 4), 0.5)]
        for variant in ("fast", "balanced"):
            cfg = HyperSamplerConfig(rho=0.5, variant=variant, seed=3)
            state, fresh = HyperSamplerState(5, cfg), HyperSamplerState(5, cfg)
            for verts in ((-2, 1), (3, 5)):
                with pytest.raises(ValueError):
                    state.step(Hyperedge(verts, 1.0))
            assert state.seen == 0 and len(state.sampler.sketch) == 0
            assert [state.step(e) for e in stream] == \
                   [fresh.step(e) for e in stream]

    def test_pair_scores_infinite_exactly_when_a_pair_straddles(self):
        # sketch components {0, 1, 2} and {3, 4}; vertex 5 is isolated
        n = 6
        state = HyperSamplerState(n, HyperSamplerConfig(rho=1.0))
        for u, v, w in ((0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5), (3, 4, 3.0)):
            state.sampler.sketch.append(IncidenceRow(u, v, math.sqrt(w)))
        component = [0, 0, 0, 3, 3, 5]
        Gp = pseudo_inverse(state.sampler.sketch.gram)
        for k in (2, 3, 4):
            for verts in itertools.combinations(range(n), k):
                e = Hyperedge(verts, 1.5)
                score = state._pair_scores(e)
                pairs = list(itertools.combinations(verts, 2))
                if any(component[a] != component[b] for a, b in pairs):
                    assert score == math.inf
                else:
                    want = e.w * max(_resistance(Gp, a, b) for a, b in pairs)
                    assert score == pytest.approx(want, rel=1e-12)

    def test_pair_scores_sync_rows_appended_to_the_sketch(self):
        # rows can reach the sketch without going through step; the next
        # score folds them all, and joins count the merged components
        n = 7
        state = HyperSamplerState(n, HyperSamplerConfig(rho=1.0))
        rows = [(0, 1, 1.0), (2, 3, 2.0), (1, 2, 0.5), (0, 3, 4.0), (5, 6, 1.5)]
        for k, (u, v, w) in enumerate(rows, 1):
            state.sampler.sketch.append(IncidenceRow(u, v, math.sqrt(w)))
            state._pair_scores(Hyperedge((0, 4), 1.0))
            G = state.sampler.sketch.gram
            stats = state.stats()["sampler"]
            assert stats["folds"] == len(state.sampler.sketch) == k
            assert stats["joins"] == n - np.unique(_components(G)).size
        Gp = pseudo_inverse(state.sampler.sketch.gram)
        assert state._pair_scores(Hyperedge((0, 2, 3), 2.0)) == pytest.approx(
            2.0 * max(_resistance(Gp, a, b)
                      for a, b in ((0, 2), (0, 3), (2, 3))), rel=1e-12)

    def test_stats(self):
        rng = np.random.default_rng(10)
        h = random_hypergraph(rng, m=40)
        state = HyperSamplerState(8, HyperSamplerConfig(rho=0.05, seed=2))
        assert state.stats() == {
            "seen": 0, "certified": 0, "kept": 0, "shifts": 0,
            "sampler": {"scored": 0, "certified": 0, "kept": 0, "folds": 0,
                        "block_folds": 0, "joins": 0, "refreshes": 0,
                        "drift": 0.0}}
        for e in h.hyperedges:
            state.step(e)
        stats = state.stats()
        assert stats["seen"] == 40
        assert stats["certified"] <= stats["kept"] == len(state.kept)
        assert 0 < stats["kept"] < 40
        assert stats["sampler"] == state.sampler.stats()
        # every clique row is certified or scored; the one inverse the
        # hyperedges and the rows are scored from takes in every kept row
        # once, by a fold or a rebuild, and its labels follow the sketch
        rows = stats["sampler"]
        assert rows["kept"] == len(state.sampler.sketch)
        assert rows["folds"] <= rows["kept"]
        assert rows["scored"] + rows["certified"] == sum(
            e.size * (e.size - 1) // 2 for e in h.hyperedges)
        assert rows["scored"] > 0 and rows["certified"] > 0
        inv = state.sampler.sketch._grounded_inverse()
        assert inv.components == np.unique(
            _components(state.sampler.sketch.gram)).size

    def test_balancing_stats(self, monkeypatch):
        # shifts add up the balancing traces
        assignments = []
        real = hypergraph.get_weight_assignment

        def recording(sketch, e, *args):
            assignments.append(real(sketch, e, *args))
            return assignments[-1]

        monkeypatch.setattr(hypergraph, "get_weight_assignment", recording)
        rng = np.random.default_rng(13)
        h = random_hypergraph(rng, n=8, m=60, r=4)
        cfg = HyperSamplerConfig(rho=1.0, variant="balanced", seed=1)
        state = HyperSamplerState(8, cfg)
        for e in h.hyperedges:
            state.step(e)
        stats = state.stats()
        assert stats["shifts"] == sum(len(a.trace) - 1 for a in assignments
                                      if a.trace) > 0
        assert len(assignments) == 60

    def test_determinism(self):
        rng = np.random.default_rng(9)
        h = random_hypergraph(rng, m=50)
        a = hyper_sparsify(h, eps=0.8, seed=4)
        b = hyper_sparsify(h, eps=0.8, seed=4)
        assert [(e.vertices, e.w) for e in a.hyperedges] == \
               [(e.vertices, e.w) for e in b.hyperedges]


@st.composite
def hyper_streams(draw):
    """(n, cfg, refresh_every, stream): hyperedges of 2 to 4 vertices over
    a few vertices, so sketch components form, join and stay apart; a row
    multiplier c small enough that some clique rows are not kept; and a
    short refresh interval, so the stream crosses refreshes."""
    n = draw(st.integers(min_value=2, max_value=8))
    size = st.integers(min_value=2, max_value=min(4, n))
    verts = size.flatmap(lambda k: st.lists(
        st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k,
        unique=True))
    weight = st.floats(min_value=0.1, max_value=10.0)
    stream = draw(st.lists(st.builds(Hyperedge, verts.map(tuple), weight),
                           min_size=1, max_size=20))
    cfg = HyperSamplerConfig(
        rho=draw(st.floats(min_value=0.05, max_value=2.0)),
        variant=draw(st.sampled_from(("fast", "balanced"))),
        c=draw(st.floats(min_value=0.2, max_value=5.0)),
        seed=draw(st.integers(min_value=0, max_value=2**16)))
    return n, cfg, draw(st.integers(min_value=1, max_value=12)), stream


class TestMaintainedScores:
    @given(hyper_streams())
    @settings(max_examples=80, deadline=None)
    def test_scores_and_components_match_the_sketch(self, case):
        # after every step, every pair scores its pseudo-inverse resistance
        # on the sketch, or inf across components, and the maintained
        # labels partition the vertices as the sketch's components do
        n, cfg, refresh_every, stream = case
        with mock.patch.object(graph, "_REFRESH_EVERY", refresh_every):
            state = HyperSamplerState(n, cfg)
        a, b = np.triu_indices(n, 1)
        for e in stream:
            state.step(e)
            G = state.sampler.sketch.gram
            labels = _components(G)
            inv = state.sampler.sketch._grounded_inverse()
            assert inv is state.sampler.sketch._inverse
            assert_grounded(inv, G)
            Gp = pseudo_inverse(G)
            for x, y in zip(a, b):
                got = state._pair_scores(Hyperedge((int(x), int(y)), 1.0))
                if labels[x] != labels[y]:
                    assert got == math.inf
                else:
                    assert got == pytest.approx(_resistance(Gp, x, y),
                                                rel=1e-9, abs=1e-12)
            # read after every step, at most one clique's rows wait, so
            # every row folds; a read refreshes when one is due
            stats = state.stats()["sampler"]
            assert stats["folds"] == len(state.sampler.sketch)
            assert stats["joins"] == n - np.unique(labels).size
            assert inv._since_refresh < refresh_every
        assert stats["refreshes"] <= stats["folds"] // refresh_every

    def test_balancing_and_scoring_share_one_inverse(self, monkeypatch):
        # rows, hyperedges and balancing all read the sketch's one inverse,
        # which takes in the rows appended since, in order, at each read:
        # bit for bit as a fresh sketch read at the same points
        rng = np.random.default_rng(12)
        h = random_hypergraph(rng, n=10, m=300, r=4)
        state = HyperSamplerState(10, HyperSamplerConfig(
            rho=1.0, variant="balanced", m_hint=900))
        sketch = state.sampler.sketch
        reads = []
        real = sketch._grounded_inverse

        def recording():
            reads.append(len(sketch))
            return real()

        monkeypatch.setattr(sketch, "_grounded_inverse", recording)
        for e in h.hyperedges:
            state.step(e)
        mirror = SpectralSketch(10)
        for k in reads:
            for row in sketch.rows[len(mirror):k]:
                mirror._append(row)
            ref = mirror._grounded_inverse()
        inv = sketch._inverse
        assert inv is state.sampler.sketch._inverse
        assert inv.refreshes >= 1 and state.stats()["shifts"] > 0
        assert len(reads) >= state.seen
        assert np.array_equal(inv.M, ref.M)
        assert np.array_equal(inv._Y, ref._Y)
        assert np.array_equal(inv.labels, ref.labels)
        assert inv.stats() == ref.stats()
        assert_grounded(real(), sketch.gram)

    @given(hyper_streams(), st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=80, deadline=None)
    def test_certified_hyperedges_have_p_one(self, case, rho):
        # a fast hyperedge whose sketch degrees give rho * w >= min_x d_x
        # (with the margin) is kept with p = 1, scored by w / min_x d_x,
        # and its largest pair resistance confirms rho * score >= 1; its
        # clique rows add (size - 1) w to each d_x, so rho above 1 is what
        # certifies
        n, cfg, _, stream = case
        cfg = dataclasses.replace(cfg, variant="fast", rho=rho)
        state = HyperSamplerState(n, cfg)
        for e in stream:
            certified = state.stats()["certified"]
            decision = state.step(e)
            if state.stats()["certified"] == certified:
                continue
            G = state.sampler.sketch.gram
            d = min(G[x, x] for x in e.vertices)
            assert decision.kept and decision.p == 1.0
            assert decision.score == (e.w / d if d else math.inf)
            assert min(1.0, cfg.rho * decision.score) == 1.0
            labels = _components(G)
            pairs = list(itertools.combinations(e.vertices, 2))
            if all(labels[a] == labels[b] for a, b in pairs):
                Gp = pseudo_inverse(G)
                r = max(_resistance(Gp, a, b) for a, b in pairs)
                assert cfg.rho * e.w * r >= 1.0

    def test_refreshes_on_a_long_stream(self):
        rng = np.random.default_rng(11)
        h = random_hypergraph(rng, n=10, m=600, r=4)
        for variant in ("fast", "balanced"):
            state = HyperSamplerState(10, HyperSamplerConfig(
                rho=1.0, variant=variant, m_hint=1800))
            for e in h.hyperedges:
                state.step(e)
            stats = state.stats()["sampler"]
            assert stats["folds"] >= graph._REFRESH_EVERY
            assert stats["refreshes"] >= 1
            assert 0 < stats["drift"] < 1e-9
            assert stats["joins"] == 9


def wide_stream(n, seed, m):
    """m hyperedges of 2 to min(5, n) vertices, weights log-uniform on
    [1e-6, 1e6]: a spread at which the sketch's Gram matrix is badly
    conditioned."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(m):
        k = int(rng.integers(2, min(5, n) + 1))
        verts = tuple(int(x) for x in rng.choice(n, size=k, replace=False))
        out.append(Hyperedge(verts, float(10.0 ** rng.uniform(-6, 6))))
    return out


@st.composite
def wide_cases(draw):
    """(n, cfg, before, stream, after): a wide_stream cut in three, rho and
    c log-uniform from certifying no hyperedge (rho < 1) and almost no row
    to certifying every one, and either variant."""
    n = draw(st.integers(min_value=3, max_value=29))
    m = draw(st.integers(min_value=1, max_value=60))
    stream = wide_stream(n, draw(st.integers(min_value=0, max_value=2**32 - 1)), m)
    a, b = sorted(draw(st.lists(st.integers(min_value=0, max_value=m),
                                min_size=2, max_size=2)))
    log10 = st.floats(min_value=-3.0, max_value=15.0)
    cfg = HyperSamplerConfig(
        rho=10.0 ** draw(log10), c=10.0 ** draw(log10),
        variant=draw(st.sampled_from(("fast", "balanced"))),
        seed=draw(st.integers(min_value=0, max_value=2**16)))
    return n, cfg, stream[:a], stream[a:b], stream[b:]


def snapshot(state):
    """Everything a step changes, floats and integer types included: the
    kept list, the sketch's rows, the Gram's bits, stats() (the inverse's
    counters and drift among them) and the row sampler's draw index."""
    sketch = state.sampler.sketch
    return (repr(state.kept), repr(sketch.rows), sketch.gram.tobytes(),
            state.stats(), state.sampler._index)


def outcome(run):
    """(run()'s result, None) or (None, the exception's type and text)."""
    try:
        return run(), None
    except (ValueError, BalanceError) as exc:
        return None, (type(exc), str(exc))


class TestExtend:
    @given(wide_cases())
    @example((26, HyperSamplerConfig(rho=45.11897533305894,
                                     c=45.73858776447126),
              [], wide_stream(26, 16700, 60), []))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_step_loop_bit_for_bit(self, case):
        # the bulk path for certified runs ends where a loop of step does:
        # the same decisions and the same state, or the same exception at
        # the same hyperedge; and the state steps on the same afterwards.
        # At this weight spread a step can itself raise (a BalanceError, or
        # a math domain error in the inverse's fold: the example fails so at
        # hyperedge 48), and such streams stay
        n, cfg, before, stream, after = case
        loop, bulk = HyperSamplerState(n, cfg), HyperSamplerState(n, cfg)
        for part in (before, stream):   # the second extends a used sampler
            want = outcome(lambda: [loop.step(e) for e in part])
            assert outcome(lambda: bulk.extend(part)) == want
            assert bulk.seen == loop.seen
            assert snapshot(bulk) == snapshot(loop)
            if want[1] is not None:
                return
        for e in after:
            want = outcome(lambda: loop.step(e))
            assert outcome(lambda: bulk.step(e)) == want
            assert snapshot(bulk) == snapshot(loop)
            if want[1] is not None:
                return

    def test_certified_stream_takes_no_step(self, monkeypatch):
        # at a huge rho and c every row and hyperedge is certified, so one
        # run covers the stream and step is never called
        rng = np.random.default_rng(3)
        h = random_hypergraph(rng, n=9, m=80, r=5)
        cfg = HyperSamplerConfig(rho=1e12, c=1e12, seed=1)
        loop = HyperSamplerState(9, cfg)
        want = [loop.step(e) for e in h.hyperedges]
        bulk = HyperSamplerState(9, cfg)
        calls = []
        monkeypatch.setattr(bulk, "step", lambda e: calls.append(e))
        assert bulk.extend(h.hyperedges) == want
        assert calls == []
        assert snapshot(bulk) == snapshot(loop)
        assert bulk.stats()["certified"] == 80
        assert bulk.stats()["sampler"]["scored"] == 0

    @pytest.mark.parametrize("variant", ["fast", "balanced"])
    def test_rejects_out_of_range_before_any_change(self, variant):
        cfg = HyperSamplerConfig(rho=0.5, variant=variant, seed=3)
        state = HyperSamplerState(5, cfg)
        good = [Hyperedge((0, 1, 2), 1.0), Hyperedge((2, 3), 2.0)]
        for bad in (Hyperedge((-2, 1), 1.0), Hyperedge((3, 5), 1.0)):
            with pytest.raises(ValueError):
                state.extend(good + [bad])
            assert state.seen == 0 and len(state.sampler.sketch) == 0
        fresh = HyperSamplerState(5, cfg)
        assert state.extend(iter(good)) == [fresh.step(e) for e in good]

    @pytest.mark.parametrize("variant", ["fast", "balanced"])
    def test_hyper_sparsify_equals_the_step_loop(self, variant):
        rng = np.random.default_rng(6)
        h = random_hypergraph(rng, m=120)
        rho = (balanced_rho if variant == "balanced" else fast_rho)(
            h.r, h.m, 0.5)
        rows = sum(e.size * (e.size - 1) // 2 for e in h.hyperedges)
        state = HyperSamplerState(8, HyperSamplerConfig(
            rho=rho, variant=variant, eps=0.5, seed=2, m_hint=rows))
        for e in h.hyperedges:
            state.step(e)
        got = hyper_sparsify(h, variant=variant, eps=0.5, seed=2)
        assert repr(got.hyperedges) == repr(state.sparsifier().hyperedges)
