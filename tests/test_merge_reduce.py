"""Merge-and-reduce tower structure and the streaming pipeline."""

import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamsparse import (Graph, MergeReduceTree, OnlineConfig,
                          StreamPipelineConfig, StreamSparsifier, TreeConfig,
                          WeightedEdge, eps_per_level, laplacian, mr_sparsify,
                          rayleigh_error, stream_sparsify)
from streamsparse.bench import gen_synthetic

from test_graph import edge_lists


def unit_edges(k):
    return [WeightedEdge(i % 3, (i + 1) % 3, 1.0 + i) for i in range(k)]


class TestTowerStructure:
    def test_two_pushes_fill_level_one(self):
        tree = MergeReduceTree(3, TreeConfig(block_size=2, identity_reducer=True))
        for e in unit_edges(2):
            tree.push(e)
        assert tree.buffer == []
        assert tree.levels[0] is not None and len(tree.levels[0]) == 2

    def test_four_pushes_carry_to_level_two(self):
        tree = MergeReduceTree(3, TreeConfig(block_size=2, identity_reducer=True))
        for e in unit_edges(4):
            tree.push(e)
        assert tree.levels[0] is None
        assert len(tree.levels[1]) == 4

    def test_binary_counter_occupancy(self):
        # after k*M pushes the occupied levels spell k in binary
        tree = MergeReduceTree(3, TreeConfig(block_size=4, identity_reducer=True))
        for k in range(1, 16):
            for e in unit_edges(4):
                tree.push(e)
            occupied = [lvl is not None for lvl in tree.levels]
            assert occupied == [bool(k >> i & 1) for i in range(len(occupied))]

    def test_identity_union_exact(self):
        g = gen_synthetic(10, 137, seed=0)
        out, _ = mr_sparsify(g, TreeConfig(block_size=8, identity_reducer=True))
        assert sorted(out.edges) == sorted(g.edges)
        assert rayleigh_error(laplacian(g), laplacian(out)) == pytest.approx(0, abs=1e-12)

    def test_empty_tree(self):
        tree = MergeReduceTree(4, TreeConfig(block_size=4))
        assert tree.sparsifier().m == 0

    @pytest.mark.parametrize("bad", [(1, 1, 1.0), (-1, 2, 1.0), (0, 3, 1.0),
                                     (0, 1, 0.0), (0, 1, -1.0),
                                     (0, 1, math.inf), (0, 1, math.nan)])
    def test_push_rejects_bad_edge_before_any_change(self, bad):
        cfg = TreeConfig(block_size=2, seed=3)
        tree, fresh = MergeReduceTree(3, cfg), MergeReduceTree(3, cfg)
        tree.push(WeightedEdge(0, 1, 1.0))
        fresh.push(WeightedEdge(0, 1, 1.0))
        tree.gram()
        fresh.gram()
        with pytest.raises(ValueError):
            tree.push(WeightedEdge(*bad))
        for e in unit_edges(7):
            tree.push(e)
            fresh.push(e)
        assert tree.stats() == fresh.stats()
        assert tree.sparsifier() == fresh.sparsifier()
        assert np.array_equal(tree.gram(), fresh.gram())


class TestSpaceAccounting:
    def test_peak_at_least_resident(self):
        g = gen_synthetic(10, 500, seed=1)
        _, tree = mr_sparsify(g, TreeConfig(block_size=32))
        assert tree.peak_resident >= tree.resident()

    def test_space_cap(self):
        # levels hold coresets around M, the buffer at most M, plus the
        # transient of one merge: cap at (h + 2) * M with merge slack
        g = gen_synthetic(20, 2000, seed=2)
        M = 64
        _, tree = mr_sparsify(g, TreeConfig(block_size=M))
        cap = (tree.height + 2) * M + 2 * M
        assert tree.peak_resident <= cap


    def test_peak_matches_recount(self):
        class RecountTree(MergeReduceTree):
            """Also tracks the peak by recounting buffer and levels."""
            ref_peak = 0

            def _note_peak(self, extra=0):
                recount = len(self.buffer) + sum(len(c) for c in self.levels if c)
                self.ref_peak = max(self.ref_peak, recount + extra)
                super()._note_peak(extra)

        g = gen_synthetic(20, 2000, seed=2)
        for M in (1, 7, 64):
            tree = RecountTree(g.n, TreeConfig(block_size=M, seed=M))
            for e in g.edges:
                tree.push(e)
            assert tree.merges > 0
            assert tree.peak_resident == tree.ref_peak


class TestLazyGram:
    @given(edge_lists(), st.integers(min_value=1, max_value=7), st.booleans(),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_resident_and_gram_match_recount(self, case, block, identity,
                                             read_every):
        # read_every = 0 reads the Gram matrix only at the end
        n, edges = case
        tree = MergeReduceTree(n, TreeConfig(
            block_size=block, seed=5, identity_reducer=identity))
        for i, e in enumerate(edges):
            tree.push(e)
            assert tree.resident() == (len(tree.buffer)
                                       + sum(len(c) for c in tree.levels if c))
            if read_every and i % read_every == 0:
                assert np.array_equal(tree.gram(), laplacian(tree.sparsifier()))
        if not read_every:
            assert tree.stats()["gram_builds"] == 0
        assert np.array_equal(tree.gram(), laplacian(tree.sparsifier()))

    def test_unread_gram_is_never_built(self):
        g = gen_synthetic(10, 500, seed=1)
        _, tree = mr_sparsify(g, TreeConfig(block_size=32))
        assert tree.stats() == {"pushed": 500, "carries": 500 // 32,
                                "merges": tree.merges,
                                "resident": tree.resident(),
                                "peak_resident": tree.peak_resident,
                                "gram_builds": 0}
        pipe = StreamSparsifier(g.n, StreamPipelineConfig(
            online=OnlineConfig(c=5.0), tree=TreeConfig(block_size=32),
            m_hint=g.m))
        for e in g.edges:
            pipe.push(e)
        assert pipe.tree.stats()["gram_builds"] == 0


class TestEpsPerLevel:
    def test_compounds_to_target(self):
        for eps in (0.1, 0.5, 1.0):
            for h in (1, 3, 7):
                e = eps_per_level(eps, h)
                assert (1 + e) ** h == pytest.approx(1 + eps, rel=1e-12)

    def test_height_one_is_identity(self):
        assert eps_per_level(0.3, 1) == pytest.approx(0.3)


class TestErrorAccumulation:
    def test_error_bound_90th_percentile(self):
        M, n, m = 400, 20, 3000
        h = math.ceil(math.log2(m / M))
        bound = 1.1 ** h - 1
        errs = []
        for seed in range(20):
            g = gen_synthetic(n, m, 1000 + seed)
            out, _ = mr_sparsify(g, TreeConfig(block_size=M, seed=seed))
            errs.append(rayleigh_error(laplacian(g), laplacian(out)))
        assert np.percentile(errs, 90) <= bound

    def test_determinism(self):
        g = gen_synthetic(12, 600, seed=3)
        cfg = TreeConfig(block_size=32, seed=17)
        a, _ = mr_sparsify(g, cfg)
        b, _ = mr_sparsify(g, cfg)
        assert a.edges == b.edges


class TestStreamingPipeline:
    def test_keep_all_identity(self):
        g = gen_synthetic(8, 120, seed=4)
        cfg = StreamPipelineConfig(
            online=OnlineConfig(c=1e9),
            tree=TreeConfig(block_size=16, identity_reducer=True))
        out = stream_sparsify(g, cfg)
        assert sorted(out.edges) == sorted(g.edges)

    def test_working_memory_mode_runs(self):
        g = gen_synthetic(15, 800, seed=5)
        cfg = StreamPipelineConfig(
            online=OnlineConfig(c=8 * math.log(800)),
            tree=TreeConfig(block_size=64),
            use_tree_sketch=True, m_hint=g.m)
        pipe = StreamSparsifier(g.n, cfg)
        for e in g.edges:
            pipe.push(e)
        out = pipe.result()
        assert 0 < out.m < g.m
        # in working-memory mode nothing outside the tower is resident
        assert pipe.max_resident == pipe.tree.peak_resident
        err = rayleigh_error(laplacian(g), laplacian(out))
        assert err < 1.5

    def test_self_sketch_counts_rows(self):
        g = gen_synthetic(10, 300, seed=6)
        cfg = StreamPipelineConfig(
            online=OnlineConfig(c=5.0),
            tree=TreeConfig(block_size=32), m_hint=g.m)
        pipe = StreamSparsifier(g.n, cfg)
        for e in g.edges:
            pipe.push(e)
        assert pipe.max_resident >= pipe.tree.peak_resident

    def test_deterministic(self):
        g = gen_synthetic(10, 400, seed=7)
        cfg = StreamPipelineConfig(
            online=OnlineConfig(c=6.0, seed=1),
            tree=TreeConfig(block_size=32, seed=1), m_hint=g.m)
        assert stream_sparsify(g, cfg).edges == stream_sparsify(g, cfg).edges

    def test_config_not_mutated(self):
        # the default c comes from m_hint; a reused config must not carry
        # the first graph's length into the second run
        small, big = gen_synthetic(10, 50, seed=8), gen_synthetic(10, 500, seed=9)
        cfg = StreamPipelineConfig(tree=TreeConfig(block_size=32))
        stream_sparsify(small, cfg)
        assert cfg.m_hint is None
        fresh = StreamPipelineConfig(tree=TreeConfig(block_size=32))
        assert stream_sparsify(big, cfg).edges == stream_sparsify(big, fresh).edges

    def test_config_is_frozen(self):
        cfg = StreamPipelineConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.m_hint = 10

    @pytest.mark.parametrize("w", [math.inf, math.nan, 0.0, -1.0])
    def test_push_rejects_bad_weight_before_any_change(self, w):
        g = gen_synthetic(8, 200, seed=10)
        cfg = StreamPipelineConfig(
            online=OnlineConfig(c=6.0, seed=1),
            tree=TreeConfig(block_size=16, seed=1),
            use_tree_sketch=True, m_hint=g.m)
        pipe, fresh = StreamSparsifier(g.n, cfg), StreamSparsifier(g.n, cfg)
        for e in g.edges[:50]:
            pipe.push(e)
            fresh.push(e)
        with pytest.raises(ValueError):
            pipe.push(WeightedEdge(0, 1, w))
        assert pipe.stats() == fresh.stats()
        for e in g.edges[50:]:
            pipe.push(e)
            fresh.push(e)
        assert pipe.stats() == fresh.stats()
        assert pipe.result() == fresh.result()


class TestPipelineStats:
    def test_counters_add_up(self):
        g = gen_synthetic(20, 3000, seed=4)
        block = 100
        pipe = StreamSparsifier(g.n, StreamPipelineConfig(
            online=OnlineConfig(c=20.0, seed=2),
            tree=TreeConfig(block_size=block), use_tree_sketch=True,
            m_hint=g.m))
        carries = 0
        for e in g.edges:
            pipe.push(e)
            if pipe.tree.carries > carries:
                carries = pipe.tree.carries
                pipe.tree.gram()
        s = pipe.stats()
        assert s == {"sampler": pipe.sampler.stats(),
                     "tree": pipe.tree.stats(),
                     "max_resident": pipe.max_resident}
        t = s["tree"]
        assert s["sampler"]["scored"] == g.m
        assert s["sampler"]["kept"] == t["pushed"]
        assert t["carries"] == t["pushed"] // block >= 4
        # a binary counter: k carries leave popcount(k) blocks, one merge
        # for each of the others, and only a merge rebuilds the Gram
        assert t["merges"] == t["carries"] - bin(t["carries"]).count("1")
        assert t["gram_builds"] == 1 + t["carries"] // 2
        assert t["resident"] <= t["peak_resident"] == s["max_resident"]
