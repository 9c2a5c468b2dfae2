"""Merge-and-reduce tower structure and the streaming pipeline."""

import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamsparse import (Graph, MergeReduceTree, MinCutPipelineConfig,
                          OnlineConfig, StreamPipelineConfig,
                          StreamSparsifier, TreeConfig, WeightedEdge,
                          eps_per_level, laplacian, mr_sparsify,
                          rayleigh_error, stoer_wagner, stream_sparsify)
from streamsparse.bench import gen_synthetic
from streamsparse.mincut import _default_stream_config

from test_graph import edge_lists


def unit_edges(k):
    return [WeightedEdge(i % 3, (i + 1) % 3, 1.0 + i) for i in range(k)]


def items(level):
    """Items held at a level of a tower: its (u, v, w) columns' length."""
    return 0 if level is None else level[0].size


def recount(tree):
    """The tower's resident items, counted level by level."""
    return len(tree.buffer) + sum(items(c) for c in tree.levels)


class TestTowerStructure:
    def test_two_pushes_fill_level_one(self):
        tree = MergeReduceTree(3, TreeConfig(block_size=2, identity_reducer=True))
        for e in unit_edges(2):
            tree.push(e)
        assert tree.buffer == []
        assert tree.levels[0] is not None and items(tree.levels[0]) == 2

    def test_four_pushes_carry_to_level_two(self):
        tree = MergeReduceTree(3, TreeConfig(block_size=2, identity_reducer=True))
        for e in unit_edges(4):
            tree.push(e)
        assert tree.levels[0] is None
        assert items(tree.levels[1]) == 4

    def test_binary_counter_occupancy(self):
        # after k*M pushes the occupied levels spell k in binary
        tree = MergeReduceTree(3, TreeConfig(block_size=4, identity_reducer=True))
        for k in range(1, 16):
            for e in unit_edges(4):
                tree.push(e)
            occupied = [lvl is not None for lvl in tree.levels]
            assert occupied == [bool(k >> i & 1) for i in range(len(occupied))]

    @pytest.mark.parametrize("identity", [False, True])
    def test_push_reports_merging_carries(self, identity):
        # a push merges when it fills the buffer while level 0 is occupied,
        # and only such a push marks the tower's inverse for a rebuild; any
        # other one notes its row. The identity reducer counts no merges,
        # hence the occupancy test
        tree = MergeReduceTree(10, TreeConfig(block_size=8, seed=1,
                                              identity_reducer=identity))
        tree._grounded_inverse()
        merged_pushes = 0
        for e in gen_synthetic(10, 200, seed=3).edges:
            fills = len(tree.buffer) == tree.cfg.block_size - 1
            occupied = tree.height > 0 and tree.levels[0] is not None
            merges = tree.merges
            tree.push(e)
            merged = tree._inverse._unread is None
            assert merged is (fills and occupied)
            if not identity:
                assert merged == (tree.merges > merges)
            if not merged:
                assert tree._inverse._unread == [(e.u, e.v, e.w)]
            merged_pushes += merged
            tree._grounded_inverse()
        assert merged_pushes == tree.carries // 2 > 0

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
        tree.gram
        fresh.gram
        with pytest.raises(ValueError):
            tree.push(WeightedEdge(*bad))
        for e in unit_edges(7):
            tree.push(e)
            fresh.push(e)
        assert tree.stats() == fresh.stats()
        assert tree.sparsifier() == fresh.sparsifier()
        assert np.array_equal(tree.gram, fresh.gram)


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
                self.ref_peak = max(self.ref_peak, recount(self) + extra)
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
            assert tree.resident() == recount(tree)
            if read_every and i % read_every == 0:
                assert np.array_equal(tree.gram, laplacian(tree.sparsifier()))
        if not read_every:
            assert tree.stats()["gram_builds"] == 0
        assert np.array_equal(tree.gram, laplacian(tree.sparsifier()))

    def test_unread_gram_is_never_built(self):
        g = gen_synthetic(10, 500, seed=1)
        _, tree = mr_sparsify(g, TreeConfig(block_size=32))
        assert tree.stats() == {"pushed": 500, "carries": 500 // 32,
                                "merges": tree.merges,
                                "resident": tree.resident(),
                                "peak_resident": tree.peak_resident,
                                "gram_builds": 0}
        # a pipeline's sampler reads the Gram on every push: it is built up
        # front and after every merging carry (every other carry) but a
        # last one that no push follows
        pipe = StreamSparsifier(g.n, StreamPipelineConfig(
            online=OnlineConfig(c=5.0), tree=TreeConfig(block_size=32),
            m_hint=g.m))
        for e in g.edges:
            merges = pipe.tree.merges
            pipe.push(e)
        t = pipe.tree.stats()
        assert t["carries"] >= 2
        assert t["gram_builds"] == (1 + t["carries"] // 2
                                    - (pipe.tree.merges > merges))


def columns_of(edges, as_lists=False):
    """(u, v, w) of edges as numpy columns, or as Python lists."""
    u, v, w = ([e.u for e in edges], [e.v for e in edges],
               [e.w for e in edges])
    if as_lists:
        return u, v, w
    return (np.array(u, dtype=np.intp), np.array(v, dtype=np.intp),
            np.array(w, dtype=float))


def assert_same_tower(a, b):
    """a and b hold the same items, counters, Gram and inverse, bit for bit."""
    assert a.stats() == b.stats()
    assert a.buffer == b.buffer
    assert len(a.levels) == len(b.levels)
    for la, lb in zip(a.levels, b.levels):
        assert (la is None) == (lb is None)
        if la is not None:
            for x, y in zip(la, lb):
                assert x.dtype == y.dtype and np.array_equal(x, y)
    assert (a._gram is None) == (b._gram is None)
    if a._gram is not None:
        assert np.array_equal(a._gram, b._gram)
    assert a._inverse._unread == b._inverse._unread
    assert a._inverse.stats() == b._inverse.stats()
    assert np.array_equal(a._inverse.M, b._inverse.M)
    assert a.sparsifier().edges == b.sparsifier().edges


caps = st.one_of(st.just(math.inf), st.integers(min_value=0, max_value=30),
                 st.floats(min_value=0, max_value=30))
steps = st.one_of(
    st.tuples(st.just("extend"), st.integers(min_value=0, max_value=12),
              caps, st.booleans()),
    st.tuples(st.sampled_from(("push", "gram", "inverse"))))


class TestExtend:
    @given(edge_lists(), st.integers(min_value=1, max_value=7), st.booleans(),
           st.lists(steps, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_extend_equals_pushes(self, case, block, identity, plan):
        # any chunking, interleaved with pushes and with reads of the Gram
        # or the inverse, or none; a capped chunk stops where _run_capped's
        # loop stops, after the first push that leaves the peak above cap
        n, edges = case
        cfg = TreeConfig(block_size=block, seed=5, identity_reducer=identity)
        tree, ref = MergeReduceTree(n, cfg), MergeReduceTree(n, cfg)
        at = 0
        for step in plan + [("extend", len(edges), math.inf, False)]:
            if step[0] == "extend":
                _, k, cap, as_lists = step
                chunk = edges[at:at + k]
                taken = 0
                for e in chunk:
                    ref.push(e)
                    taken += 1
                    if ref.peak_resident > cap:
                        break
                assert tree.extend(*columns_of(chunk, as_lists),
                                   cap=cap) == taken
                at += taken
            elif step[0] == "push" and at < len(edges):
                tree.push(edges[at])
                ref.push(edges[at])
                at += 1
            elif step[0] == "gram":
                tree.gram
                ref.gram
            elif step[0] == "inverse":
                tree._grounded_inverse()
                ref._grounded_inverse()
            assert_same_tower(tree, ref)
        assert at == len(edges) == tree.pushed

    def test_mr_sparsify_equals_pushes(self):
        g = gen_synthetic(20, 2000, seed=2)
        for M in (1, 7, 64):
            cfg = TreeConfig(block_size=M, seed=M)
            out, tree = mr_sparsify(g, cfg)
            ref = MergeReduceTree(g.n, cfg)
            for e in g.edges:
                ref.push(e)
            assert tree.merges > 0
            assert_same_tower(tree, ref)
            assert out.edges == ref.sparsifier().edges
            assert all(type(e.w) is float for e in out.edges)

    @pytest.mark.parametrize("bad", [(1, 1, 1.0), (-1, 2, 1.0), (0, 3, 1.0),
                                     (0, 1, 0.0), (0, 1, -1.0),
                                     (0, 1, math.inf), (0, 1, math.nan),
                                     (0.5, 1, 1.0)])
    def test_rejects_bad_edge_before_any_change(self, bad):
        cfg = TreeConfig(block_size=2, seed=3)
        tree, fresh = MergeReduceTree(3, cfg), MergeReduceTree(3, cfg)
        for t in (tree, fresh):
            t.extend(*columns_of(unit_edges(3)))
            t.gram
        chunk = unit_edges(5)
        with pytest.raises(ValueError):
            tree.extend(*zip(*chunk[:2], bad, *chunk[2:]))
        assert_same_tower(tree, fresh)
        tree.extend(*columns_of(chunk))
        fresh.extend(*columns_of(chunk))
        assert_same_tower(tree, fresh)

    @pytest.mark.parametrize("u, v, w", [
        ([0, 1], [1], [1.0, 2.0]),
        ([[0, 1]], [[1, 2]], [[1.0, 2.0]]),
        ([True], [False], [1.0]),
    ])
    def test_rejects_bad_columns(self, u, v, w):
        tree = MergeReduceTree(3, TreeConfig(block_size=2))
        with pytest.raises(ValueError):
            tree.extend(u, v, w)
        assert tree.pushed == 0 and tree.buffer == []

    def test_levels_do_not_alias_the_caller_arrays(self):
        tree = MergeReduceTree(3, TreeConfig(block_size=2,
                                             identity_reducer=True))
        u, v, w = columns_of(unit_edges(4))
        tree.extend(u, v, w)
        before = tree.sparsifier().edges
        u[:], v[:], w[:] = 2, 0, 9.0
        assert tree.sparsifier().edges == before


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
            tree=TreeConfig(block_size=64), m_hint=g.m)
        pipe = StreamSparsifier(g.n, cfg)
        for e in g.edges:
            pipe.push(e)
        out = pipe.result()
        assert 0 < out.m < g.m
        # the sampler scores on the tower and appends its kept edges there
        assert pipe.sampler.sketch is pipe.tree
        assert pipe.tree.pushed == pipe.sampler.kept_count
        err = rayleigh_error(laplacian(g), laplacian(out))
        assert err < 1.5

    def test_default_pipeline_scores_on_the_tower(self):
        pipe = StreamSparsifier(10, StreamPipelineConfig())
        assert pipe.sampler.sketch is pipe.tree
        # stream_mincut's pipeline keeps every edge here: the tower holds
        # each one once, and no second copy is resident beside it
        g = gen_synthetic(100, 8000, 3)
        pipe = StreamSparsifier(g.n, _default_stream_config(
            MinCutPipelineConfig(), g.m))
        for e in g.edges:
            pipe.push(e)
        assert pipe.sampler.sketch is pipe.tree
        assert pipe.tree.pushed == pipe.tree.peak_resident == 8000
        assert stoer_wagner(pipe.result()).value == pytest.approx(
            stoer_wagner(g).value, rel=1e-12)     # 679.2708095017534

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
            tree=TreeConfig(block_size=16, seed=1), m_hint=g.m)
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
            tree=TreeConfig(block_size=block), m_hint=g.m))
        carries = 0
        for e in g.edges:
            pipe.push(e)
            if pipe.tree.carries > carries:
                carries = pipe.tree.carries
                pipe.tree.gram
        s = pipe.stats()
        assert s == {"sampler": pipe.sampler.stats(),
                     "tree": pipe.tree.stats()}
        t = s["tree"]
        # every row is certified from the tower's degrees or scored
        assert s["sampler"]["scored"] + s["sampler"]["certified"] == g.m
        assert s["sampler"]["certified"] > 0
        assert s["sampler"]["kept"] == t["pushed"]
        assert t["carries"] == t["pushed"] // block >= 4
        # a binary counter: k carries leave popcount(k) blocks, one merge
        # for each of the others, and only a merge rebuilds the Gram
        assert t["merges"] == t["carries"] - bin(t["carries"]).count("1")
        assert t["gram_builds"] == 1 + t["carries"] // 2
        assert t["resident"] <= t["peak_resident"]

    @given(st.floats(min_value=0.5, max_value=50.0),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_every_kept_edge_reaches_the_tower(self, c, block, seed):
        # the sampler's kept edges are the tower's pushes, and every edge
        # is certified from the tower's degrees or scored on its inverse
        g = gen_synthetic(8, 150, seed=seed % 2**16)
        pipe = StreamSparsifier(g.n, StreamPipelineConfig(
            online=OnlineConfig(c=c, seed=seed),
            tree=TreeConfig(block_size=block, seed=seed)))
        for i, e in enumerate(g.edges, 1):
            pipe.push(e)
            s = pipe.sampler.stats()
            assert pipe.tree.pushed == pipe.sampler.kept_count == s["kept"]
            assert s["scored"] + s["certified"] == i
