"""Text formats, the benchmark harness, and the CLI surface."""

import io as _io
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamsparse import (Graph, Hyperedge, Hypergraph, MergeReduceTree,
                          OnlineConfig, ParseError, StreamPipelineConfig,
                          StreamSparsifier, TreeConfig, WeightedEdge, bench,
                          cli, laplacian, load_edge_list, load_hyperedge_list,
                          load_snap, mr_sparsify, online_sparsify,
                          pseudo_inverse, save_edge_list, save_hyperedge_list,
                          stream_sparsify)
from streamsparse.bench import (ExperimentConfig, ExperimentResult, RawRow,
                                _Trial, _run_merge_reduce, _run_streaming,
                                _tune, _tune_tree_knob, gen_synthetic,
                                read_csv, run_experiment, write_csv,
                                batch_online_leverages)


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        g = gen_synthetic(6, 20, seed=0)
        p = tmp_path / "g.txt"
        save_edge_list(g, p)
        back = load_edge_list(p)
        assert back.n == g.n and back.edges == g.edges

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# header\n\n0 1 2.5   # trailing\n1 2 1.0\n")
        g = load_edge_list(p)
        assert g.m == 2 and g.n == 3

    def test_malformed_line_number(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 1.0\n0 1\n")
        with pytest.raises(ParseError, match=":2:"):
            load_edge_list(p)

    def test_bad_weight(self, tmp_path):
        p = tmp_path / "g.txt"
        for w in ("-3", "nan", "inf"):
            p.write_text(f"0 1 {w}\n")
            with pytest.raises(ParseError):
                load_edge_list(p)


class TestHyperedgeList:
    def test_round_trip(self, tmp_path):
        h = Hypergraph(5, [Hyperedge((0, 1, 2), 1.5), Hyperedge((3, 4), 2.0)])
        p = tmp_path / "h.txt"
        save_hyperedge_list(h, p)
        back = load_hyperedge_list(p)
        assert [(e.vertices, e.w) for e in back.hyperedges] == \
               [(e.vertices, e.w) for e in h.hyperedges]

    def test_count_mismatch(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("1.0 3 0 1\n")
        with pytest.raises(ParseError, match=":1:"):
            load_hyperedge_list(p)


class TestSnap:
    def test_basic(self, tmp_path):
        p = tmp_path / "snap.txt"
        p.write_text("0 1\n1 2\n")
        g = load_snap(p, seed=0)
        assert g.n == 3 and g.m == 2
        assert all(1.0 <= e.w <= 10.0 for e in g.edges)

    def test_labels_remapped(self, tmp_path):
        p = tmp_path / "snap.txt"
        p.write_text("900 17\n17 abc\n")
        g = load_snap(p, seed=0)
        assert g.n == 3

    def test_comment_only_errors(self, tmp_path):
        p = tmp_path / "snap.txt"
        p.write_text("# nothing\n")
        with pytest.raises(ParseError):
            load_snap(p)

    def test_seeded_weights_deterministic(self, tmp_path):
        p = tmp_path / "snap.txt"
        p.write_text("0 1\n1 2\n2 3\n")
        assert load_snap(p, seed=5).edges == load_snap(p, seed=5).edges


class TestGenSynthetic:
    def test_two_vertices_all_parallel(self):
        g = gen_synthetic(2, 3, seed=0)
        assert all({e.u, e.v} == {0, 1} for e in g.edges)
        assert all(1.0 <= e.w <= 10.0 for e in g.edges)

    def test_no_self_loops_large(self):
        g = gen_synthetic(50, 100_000, seed=1)
        assert all(e.u != e.v for e in g.edges)
        assert all(0 <= e.u < 50 and 0 <= e.v < 50 for e in g.edges)

    def test_deterministic(self):
        assert gen_synthetic(10, 50, seed=3).edges == \
               gen_synthetic(10, 50, seed=3).edges

    def test_integer_mode(self):
        g = gen_synthetic(10, 50, seed=4, integer_weights=True)
        assert all(e.w == int(e.w) and 1 <= e.w <= 10 for e in g.edges)


class TestBatchLeverages:
    def test_first_batch_infinite(self):
        g = gen_synthetic(10, 30, seed=0)
        lev = batch_online_leverages(g, batch_size=10)
        assert np.isinf(lev[:10]).all()

    def test_connected_later_batches_finite_and_bounded(self):
        g = gen_synthetic(5, 200, seed=1)
        lev = batch_online_leverages(g, batch_size=20)
        finite = lev[np.isfinite(lev)]
        assert finite.size > 0
        assert (finite <= 1 + 1e-9).all() and (finite > 0).all()

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_rejects_batch_size_below_one(self, batch_size):
        with pytest.raises(ValueError):
            batch_online_leverages(gen_synthetic(5, 20, seed=0), batch_size)

    @staticmethod
    def union_find_leverages(g, batch_size):
        """Reference: a union-find decides which endpoints are joined by
        the previous batches; the leverage reads the prefix's
        pseudo-inverse."""
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        out = np.full(g.m, np.inf)
        for start in range(0, g.m, batch_size):
            batch = g.edges[start:start + batch_size]
            if start:
                K = pseudo_inverse(laplacian(Graph(g.n, g.edges[:start])))
                for i, (a, b, w) in enumerate(batch):
                    if find(a) == find(b):
                        out[start + i] = w * (K[a, a] + K[b, b] - 2.0 * K[a, b])
            for a, b, _ in batch:
                parent[find(a)] = find(b)
        return out

    # components that join across batches; vertex 9 stays alone until the
    # fifth edge triple
    JOINING = Graph(10, [WeightedEdge(u, v, w) for u, v, w in [
        (0, 1, 1.0), (2, 3, 2.0), (4, 5, 3.0),
        (0, 1, 1.5), (1, 2, 2.5), (6, 7, 1.0),
        (0, 2, 4.0), (3, 4, 1.0), (7, 8, 2.0),
        (0, 5, 1.0), (6, 8, 3.0), (5, 8, 2.0),
        (0, 8, 1.0), (1, 9, 5.0), (3, 6, 1.0),
        (9, 4, 2.0), (2, 7, 1.0)]])

    @pytest.mark.parametrize("g, batch_size", [
        (JOINING, 3), (JOINING, 1), (JOINING, 5),
        *[(gen_synthetic(12, 40, seed=s), 4) for s in range(4)]])
    def test_joined_mask_matches_union_find(self, g, batch_size):
        got = batch_online_leverages(g, batch_size)
        want = self.union_find_leverages(g, batch_size)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-9, atol=0)
        assert np.isfinite(got).any() and np.isinf(got[batch_size:]).any()


class TestCsv:
    def test_round_trip(self):
        rows = [RawRow("online", 500, 0, 512, 0.25, 1.5),
                RawRow("streaming", 1000, 1, 988, float("inf"), 0.1)]
        buf = _io.StringIO()
        write_csv(rows, buf)
        buf.seek(0)
        assert read_csv(buf) == rows

    def test_header_check(self):
        buf = _io.StringIO("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_csv(buf)


class TestRunExperiment:
    def test_small_experiment(self):
        cfg = ExperimentConfig(n=30, m=2000, budgets=(300,), trials=2,
                               probe_trials=3, tree_probe_trials=1)
        res = run_experiment(cfg)
        assert len(res.rows) == 3              # three methods, one budget
        assert len(res.raw) == 6
        for row in res.rows:
            assert row.error >= 0
            assert abs(row.stored_edges - 300) <= 250

    def test_generous_budget_near_exact(self):
        cfg = ExperimentConfig(n=12, m=300, budgets=(5000,), trials=1,
                               methods=("online",), probe_trials=1)
        res = run_experiment(cfg)
        assert res.rows[0].error <= 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(methods=("bogus",))
        for name in ("probe_trials", "tree_probe_trials"):
            with pytest.raises(ValueError):
                ExperimentConfig(**{name: 0})

    def test_tree_probes_get_their_own_trials(self, monkeypatch):
        # trials=1 and probe_trials=1 must not cut three tree probes to one
        used = set()
        run = bench._run_merge_reduce

        def spy(trial, block_size, cap=math.inf):
            used.add(trial.index)
            return run(trial, block_size, cap)

        monkeypatch.setattr(bench, "_run_merge_reduce", spy)
        cfg = ExperimentConfig(n=12, m=200, budgets=(60,), trials=1,
                               methods=("merge_reduce",), probe_trials=1,
                               tree_probe_trials=3)
        res = run_experiment(cfg)
        assert used == {0, 1, 2}
        assert [r.trial for r in res.raw] == [0]


class TestProbeCache:
    """_tune's probe cache: exact repeats, and the never-merged rule."""

    @given(st.integers(min_value=3, max_value=12),
           st.integers(min_value=1, max_value=300),
           st.integers(min_value=0, max_value=2**16),
           st.sampled_from(("merge_reduce", "streaming")),
           st.sampled_from((0.05, 0.5, 2.0, 15.0)),
           st.lists(st.integers(min_value=1, max_value=400), min_size=1,
                    max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_never_carried_probe_equals_every_larger_block(
            self, n, m, seed, method, c, steps):
        trial = _Trial(ExperimentConfig(n=n, m=m, seed=seed), 0)

        def run(block):
            if method == "merge_reduce":
                return _run_merge_reduce(trial, block)
            return _run_streaming(trial, c, block)

        stored, g, tree = run(m + 1)      # at most m pushes: never carries
        assert tree.height == 0 and tree.pushed <= m
        for step in steps:
            stored2, g2, tree2 = run(tree.pushed + step)
            assert tree2.height == 0 and tree2.pushed == tree.pushed
            assert stored2 == stored and g2.edges == g.edges
        if tree.pushed:
            # the threshold is tight: a block equal to the push count carries
            assert run(tree.pushed)[2].height > 0

    @given(st.integers(min_value=3, max_value=12),
           st.integers(min_value=1, max_value=300),
           st.integers(min_value=0, max_value=2**16),
           st.sampled_from(("merge_reduce", "streaming")),
           st.sampled_from((0.05, 0.5, 2.0, 15.0)),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_never_merged_probe_equals_every_block_above_half(
            self, n, m, seed, method, c, data):
        # a carry that only parks a block at level 0 changes nothing: with
        # P pushes, every block b with 2 b > P runs like the never-carried
        # run, down to the sampler's inverse
        trial = _Trial(ExperimentConfig(n=n, m=m, seed=seed), 0)
        pipes = []

        class Recorded(StreamSparsifier):
            def __init__(self, *args):
                super().__init__(*args)
                pipes.append(self)

        def run(block):
            if method == "merge_reduce":
                return (*_run_merge_reduce(trial, block), None)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bench, "StreamSparsifier", Recorded)
                out = _run_streaming(trial, c, block)
            sampler = pipes[-1].sampler
            sampler.sketch._grounded_inverse()   # take in the last push
            return (*out, sampler)

        stored, g, tree, sampler = run(m + 1)
        pushes = tree.pushed
        assert tree.height == 0
        above = list(range(pushes // 2 + 1, pushes + 1))
        blocks = ([above[0]] + data.draw(st.lists(st.sampled_from(above),
                                                  max_size=3))
                  if above else [])
        for b in blocks:
            stored2, g2, tree2, sampler2 = run(b)
            assert tree2.height <= 1 and tree2.pushed == pushes
            assert stored2 == stored and g2.edges == g.edges
            if sampler is not None:
                assert sampler2.stats() == sampler.stats()
                inv2, inv = sampler2.sketch._inverse, sampler.sketch._inverse
                assert np.array_equal(inv2.M, inv.M)
                assert np.array_equal(inv2._Y, inv._Y)
        if pushes >= 2:
            # the threshold is tight: the block at half the pushes merges
            assert run(pushes // 2)[2].height >= 2

    @given(st.integers(min_value=3, max_value=10),
           st.integers(min_value=1, max_value=200),
           st.integers(min_value=0, max_value=2**16),
           st.sampled_from(("merge_reduce", "streaming")),
           st.sampled_from((10, 40, 150)),
           st.data())
    @settings(max_examples=30, deadline=None)
    def test_cached_counts_equal_direct_runs(self, n, m, seed, method, budget,
                                             data):
        # any order of blocks, crowded around each trial's push count; the
        # one-probe count runs with a cap of budget + 25
        cfg = ExperimentConfig(n=n, m=m, seed=seed, tree_probe_trials=2,
                               tolerance=50)
        trials = [_Trial(cfg, i) for i in range(2)]
        cap = budget + 25
        base = ({"c": bench.PAPER_C_OL_STR.get(budget, 5.0)}
                if method == "streaming" else {})

        run_one = bench._run_one

        def direct(t, block, cap=math.inf):
            return run_one(t, method, {**base, "block_size": block}, cap)

        near = [(direct(t, m + 1)[2].pushed + d) // k for t in trials
                for d in range(-2, 3) for k in (1, 2)]
        blocks = data.draw(st.lists(
            st.sampled_from(near) | st.integers(min_value=1, max_value=m + 5),
            min_size=1, max_size=12).map(lambda bs: [max(b, 1) for b in bs]))
        answers, runs = [], []

        def sweep(count_one, count_of, budget, tolerance, finish):
            for b in blocks:
                answers.append((b, count_one(float(b)), count_of(float(b)),
                                finish(float(b))))
            return float(blocks[0]), answers[0][2]

        def spy(trial, m, params, cap=math.inf):
            runs.append((trial.index, params["block_size"], cap))
            return direct(trial, params["block_size"], cap)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench, "_tune_tree_knob", sweep)
            mp.setattr(bench, "_run_one", spy)
            _tune(cfg, method, budget, trials, ExperimentResult())
        # it runs exactly the probes it cannot answer: a repeat, or a block
        # b with 2 b > P on a trial whose run of P pushes never merged, is
        # answered; everything else runs (count_one asks trial 0 capped,
        # then count_of asks trials 0 and 1 and finish asks trial 0). A
        # stopped count answers capped asks only: its repeat, and, if its
        # tower had not merged after its P pushes, every block b with
        # 2 b > P. A capped ask takes a full count when there is one
        want, done, never_merged, capped_full = [], set(), {}, []
        for b in blocks:
            for t, capped in ((0, True), (0, False), (1, False), (0, False)):
                kinds = (False, True) if capped else (False,)
                if capped:
                    capped_full.append(
                        2 * b > never_merged.get((t, False), math.inf)
                        or (t, b, False) in done)
                if any(2 * b > never_merged.get((t, s), math.inf)
                       for s in kinds) or \
                        any((t, b, s) in done for s in kinds):
                    continue
                want.append((t, b, cap if capped else math.inf))
                out, tree = direct(trials[t], b, want[-1][2])[1:]
                done.add((t, b, out is None))
                if tree.height <= 1:
                    never_merged[t, out is None] = tree.pushed
        assert runs == want
        for (b, one, mean, full_one), full in zip(answers, capped_full):
            counts = [direct(t, b)[0] for t in trials]
            stopped = direct(trials[0], b, cap)
            # a count that passes the cap stops there: a lower bound
            assert (stopped[1] is None) == (counts[0] > cap)
            if counts[0] > cap:
                assert cap < stopped[0] <= counts[0]
            assert one == (counts[0] if full else stopped[0])
            assert mean == float(np.mean(counts))
            assert full_one == counts[0]

    @pytest.mark.parametrize("method", ["merge_reduce", "streaming"])
    def test_tune_runs_each_probe_once(self, monkeypatch, method):
        cfg = ExperimentConfig(n=20, m=600, budgets=(200,), trials=1,
                               tree_probe_trials=2, tolerance=60)
        trials = [_Trial(cfg, i) for i in range(2)]
        run_one, runs = bench._run_one, []

        def spy(trial, m, params, cap=math.inf):
            out = run_one(trial, m, params, cap)
            runs.append((trial.index, params["block_size"], out[2]))
            return out

        monkeypatch.setattr(bench, "_run_one", spy)
        params = _tune(cfg, method, 200, trials, ExperimentResult())
        pairs = [(t, b) for t, b, _ in runs]
        assert len(set(pairs)) == len(pairs)
        flat = [(i, t, tree.pushed) for i, (t, _, tree) in enumerate(runs)
                if tree.height == 0]
        assert flat
        for i, t, pushes in flat:
            assert all(b <= pushes for t2, b, _ in runs[i + 1:] if t2 == t)
        # after a probe that never merged, no later run on its trial has a
        # block above half that probe's push count
        never_merged = [(i, t, tree.pushed) for i, (t, _, tree)
                        in enumerate(runs) if tree.height <= 1]
        assert never_merged
        for i, t, pushes in never_merged:
            assert all(2 * b <= pushes for t2, b, _ in runs[i + 1:] if t2 == t)

        # an uncached sweep runs more probes and picks the same block
        ref_runs = []
        base = {k: v for k, v in params.items() if k != "block_size"}

        def count_of(block, probes=trials):
            ref_runs.extend((t.index, int(block)) for t in probes)
            return float(np.mean([
                run_one(t, method, {**base, "block_size": int(block)})[0]
                for t in probes]))

        knob, _ = _tune_tree_knob(lambda b: count_of(b, trials[:1]),
                                  count_of, 200, 30,
                                  lambda b: count_of(b, trials[:1]))
        assert params["block_size"] == max(int(round(knob)), 4)
        assert len(runs) < len(ref_runs)


class TestCappedProbes:
    """The one-probe count stops at budget + the sweep tolerance; the sweep
    picks what a sweep of full counts picks."""

    @staticmethod
    def uncapped_tune(cfg, method, budget, trials):
        """_tune with every tower run to the end: the sweep without a cap."""
        run_one = bench._run_one
        result = ExperimentResult()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench, "_run_one",
                       lambda t, m, params, cap=math.inf: run_one(t, m, params))
            params = _tune(cfg, method, budget, trials, result)
        return params, result

    @given(st.integers(min_value=3, max_value=10),
           st.integers(min_value=1, max_value=300),
           st.integers(min_value=0, max_value=2**16),
           st.sampled_from(("merge_reduce", "streaming")),
           st.integers(min_value=1, max_value=3),
           st.sampled_from((1, 5, 10, 20, 40, 60, 150, 1000)),
           st.sampled_from((10, 50, 200)))
    @settings(max_examples=60, deadline=None)
    def test_capped_tune_equals_uncapped_sweep(self, n, m, seed, method,
                                               probes, budget, tolerance):
        # budget 1 lies below, and 1000 above, the counts most blocks reach
        # here, so those sweeps mostly end in the fallback
        cfg = ExperimentConfig(n=n, m=m, seed=seed, tolerance=tolerance,
                               tree_probe_trials=probes)
        trials = [_Trial(cfg, i) for i in range(probes)]
        result = ExperimentResult()
        params = _tune(cfg, method, budget, trials, result)
        ref_params, ref = self.uncapped_tune(cfg, method, budget, trials)
        assert params == ref_params
        assert result.tuned == ref.tuned
        assert result.warnings == ref.warnings
        assert ref.tuning[method, budget]["stopped"] == 0

    @given(st.integers(min_value=3, max_value=10),
           st.integers(min_value=1, max_value=300),
           st.integers(min_value=0, max_value=2**16),
           st.integers(min_value=1, max_value=40),
           st.one_of(st.just(math.inf), st.integers(min_value=0,
                                                    max_value=150)))
    @settings(max_examples=60, deadline=None)
    def test_merge_reduce_run_stops_where_pushes_stop(self, n, m, seed,
                                                      block, cap):
        # _run_merge_reduce extends the tower by the trial's columns; it
        # stops at the push _run_capped's loop of push stops at
        trial = _Trial(ExperimentConfig(n=n, m=m, seed=seed), 0)
        count, out, tree = _run_merge_reduce(trial, block, cap)
        ref = MergeReduceTree(n, TreeConfig(block_size=block,
                                            seed=trial.sample_seed))
        ref_count, ref_out, _ = bench._run_capped(ref, ref.push,
                                                  trial.graph.edges, cap)
        assert count == ref_count
        assert tree.stats() == ref.stats()
        assert (out is None) == (ref_out is None)
        if out is not None:
            assert out.edges == ref_out.edges

    @given(st.integers(min_value=20, max_value=200),
           st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=100, deadline=None)
    def test_fallback_finishes_lower_bounds_that_could_win(self, budget,
                                                           seed):
        # random counts per block on a coarse grid, so gaps often tie; a
        # confirming mean never lands in the window, so every sweep ends in
        # the fallback. A count above the window comes as a lower bound,
        # often equal to the count itself
        rng = np.random.default_rng(seed)
        tolerance = 25
        cap = budget + tolerance
        full, low = {}, {}

        def exact(block):
            if block not in full:
                full[block] = float(rng.integers(0, 3 * budget) // 10 * 10)
                low[block] = full[block] if full[block] <= cap else float(
                    rng.choice([cap + 1, full[block]]))
            return full[block]

        def mean(block):
            return exact(block) + 60.0

        want = _tune_tree_knob(exact, mean, budget, tolerance, exact)
        finished = []

        def finish(block):
            finished.append(block)
            return exact(block)

        def one(block):
            exact(block)
            return low[block]

        got = _tune_tree_knob(one, mean, budget, tolerance, finish=finish)
        assert got == want
        # only lower bounds get finished, and none whose gap exceeds the
        # full gap of the pick
        for block in finished:
            assert full[block] > cap
            assert low[block] - budget <= abs(want[1] - budget)

    def test_stopped_probe_is_the_fallback_pick(self, monkeypatch):
        # a fake tower whose counts jump over the window: below 60 it keeps
        # 20 items, from 60 on 160 + (block % 11), and a capped run stops at
        # cap + 1 + (block % 7). No block hits, and the closest count
        # belongs to a probe that stopped at the cap
        cfg = ExperimentConfig(n=10, m=50, budgets=(100,), tolerance=50,
                               tree_probe_trials=2)
        trials = [_Trial(cfg, i) for i in range(2)]
        tower = type("Tower", (), {"height": 5, "pushed": 50})()
        runs = []

        def fake(t, method, params, cap=math.inf):
            block = params["block_size"]
            count = 20 if block < 60 else 160 + block % 11
            stopped = count > cap
            runs.append((t.index, block, stopped))
            if stopped:
                return cap + 1 + block % 7, None, tower
            return count, Graph(cfg.n, []), tower

        monkeypatch.setattr(bench, "_run_one", fake)
        result = ExperimentResult()
        params = _tune(cfg, "merge_reduce", 100, trials, result)
        ref_params, ref = self.uncapped_tune(cfg, "merge_reduce", 100, trials)
        assert params == ref_params and result.warnings == ref.warnings
        assert result.tuned == ref.tuned
        # the first probed block with the smallest count, finished after
        # its capped run stopped
        stopped = [b for t, b, s in runs if s]
        block = min(stopped, key=lambda b: b % 11)
        assert params["block_size"] == block
        assert result.warnings == [
            f"merge_reduce budget 100: tuned mean stored count "
            f"{160 + block % 11} outside +-50"]
        assert (0, block, False) in runs[runs.index((0, block, True)):]
        tally = result.tuning["merge_reduce", 100]
        assert tally["stopped"] == sum(s for _, _, s in runs)


class TestFinalTrialReuse:
    """run_experiment takes a final trial's results from the tuning run
    that already ran it."""

    # streaming at budget 360 ends in the fallback, on a block whose
    # probe runs later runs replaced
    CFG = ExperimentConfig(n=20, m=600, budgets=(200, 240, 360), trials=3,
                           probe_trials=2, tree_probe_trials=2, tolerance=60)

    @staticmethod
    def traced_run(cfg, reuse=True):
        """run_experiment with a spy on _run_one: returns the result and
        the (phase, method, trial, stopped) of every call."""
        calls, phase = [], ["final"]
        run_one, tune = bench._run_one, bench._tune

        def spy(trial, method, params, cap=math.inf):
            out = run_one(trial, method, params, cap)
            calls.append((phase[0], method, trial.index, out[1] is None))
            return out

        def tuning(cfg, method, budget, trials, result):
            phase[0] = "tune"
            params = tune(cfg, method, budget, trials, result)
            phase[0] = "final"
            if not reuse:
                for t in trials:
                    t.finished = None
            return params

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench, "_run_one", spy)
            mp.setattr(bench, "_tune", tuning)
            result = run_experiment(cfg)
        return result, calls

    def test_reused_rows_equal_rerun_rows(self):
        cfg = self.CFG
        result, calls = self.traced_run(cfg)
        ref, ref_calls = self.traced_run(cfg, reuse=False)

        def rows(res):
            return ([(r.method, r.budget, r.trial, r.stored_edges, r.error)
                     for r in res.raw],
                    [(r.method, r.budget, r.stored_edges, r.error)
                     for r in res.rows])

        assert rows(result) == rows(ref)
        assert result.tuned == ref.tuned and result.warnings == ref.warnings
        # online probes count without a _run_one call; every final trial
        # of the rerun reference runs
        assert [p for p, m, *_ in ref_calls if m == "online"] == \
            ["final"] * 3 * 3
        assert sum(p == "final" for p, *_ in ref_calls) == 3 * 3 * 3
        # a hit block's probe trials ran to the end at that block: their
        # final trials make no _run_one call, the trials above still run
        final = [(m, t) for p, m, t, _ in calls if p == "final"]
        assert [t for m, t in final if m == "merge_reduce"] == [2, 2, 2]
        assert [t for m, t in final if m == "streaming"] == [2, 2, 0, 1, 2]
        assert [t for m, t in final if m == "online"] == [0, 1, 2] * 3
        assert result.warnings == [
            "streaming budget 360: tuned mean stored count 276 outside +-60"]

    def test_tuning_counters_add_up(self):
        cfg = self.CFG
        result, calls = self.traced_run(cfg)
        assert set(result.tuning) == {(m, b) for m in cfg.methods
                                      for b in cfg.budgets}
        for method in cfg.methods:
            tune_calls = [s for p, m, _, s in calls
                          if p == "tune" and m == method]
            final_calls = [s for p, m, _, s in calls
                           if p == "final" and m == method]
            tallies = [result.tuning[method, b] for b in cfg.budgets]
            for tally in tallies:
                assert tally["probes"] == tally["runs"] + tally["cached"]
                assert 0 <= tally["stopped"] <= tally["runs"]
            if method == "online":
                assert all(t["cached"] == t["stopped"] == t["reused"] == 0
                           for t in tallies)
                assert tune_calls == []
                continue
            assert sum(t["runs"] for t in tallies) == len(tune_calls)
            assert sum(t["stopped"] for t in tallies) == sum(tune_calls)
            assert not any(final_calls)
            assert (sum(t["reused"] for t in tallies) + len(final_calls)
                    == cfg.trials * len(cfg.budgets))
        assert sum(t["stopped"] for t in result.tuning.values()) > 0
        assert sum(t["reused"] for t in result.tuning.values()) > 0


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "streamsparse.cli",
                               *args], capture_output=True, text=True)

    def test_gen_and_sparsify(self, tmp_path):
        path = tmp_path / "g.txt"
        r = self.run_cli("gen", "--n", "20", "--m", "300", "--seed", "1",
                         "--output", str(path))
        assert r.returncode == 0
        g = load_edge_list(path)
        assert g.m == 300
        out = tmp_path / "s.txt"
        r = self.run_cli("sparsify", "--input", str(path), "--method",
                         "streaming", "--output", str(out))
        assert r.returncode == 0
        assert load_edge_list(out).m > 0

    @pytest.mark.parametrize("to_file", [False, True])
    def test_sparsify_output_reads_back(self, tmp_path, capsys, to_file):
        # every method's output, on stdout or through --output, loads back
        # as the library's output: weights are written as plain floats
        g = gen_synthetic(20, 300, seed=1)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        g = load_edge_list(path)
        want = {
            "online": online_sparsify(g, eps=0.5, seed=3),
            "merge_reduce": mr_sparsify(g, TreeConfig(block_size=40,
                                                      seed=3))[0],
            "streaming": stream_sparsify(g, StreamPipelineConfig(
                online=OnlineConfig(eps=0.5, seed=3),
                tree=TreeConfig(block_size=40, seed=3))),
        }
        for method, out in want.items():
            assert 0 < out.m
            dest = tmp_path / f"{method}.txt"
            args = ["sparsify", "--input", str(path), "--method", method,
                    "--block", "40", "--seed", "3"]
            assert cli.main(args + (["--output", str(dest)] if to_file
                                    else [])) == 0
            if not to_file:
                dest.write_text(capsys.readouterr().out)
            back = load_edge_list(dest)
            assert back.edges == out.edges, method

    def test_mincut_command(self, tmp_path):
        path = tmp_path / "c8.txt"
        edges = [f"{i} {(i + 1) % 8} 1.0" for i in range(8)]
        path.write_text("\n".join(edges) + "\n")
        r = self.run_cli("mincut", "--input", str(path), "--eps", "0.25")
        assert r.returncode == 0
        assert 1.6 <= float(r.stdout.strip()) <= 2.5

    def test_mincut_eps_out_of_range_is_config_error(self, tmp_path):
        # eps goes to MinCutPipelineConfig as given, which takes (0, 1)
        path = tmp_path / "c8.txt"
        path.write_text("".join(f"{i} {(i + 1) % 8} 1.0\n" for i in range(8)))
        r = self.run_cli("mincut", "--input", str(path), "--eps", "2")
        assert r.returncode == 2 and r.stdout == ""
        assert "eps must be in (0, 1)" in r.stderr

    def test_missing_input_is_config_error(self):
        r = self.run_cli("sparsify")
        assert r.returncode == 2

    def test_bad_file_is_data_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not an edge list\n")
        r = self.run_cli("sparsify", "--input", str(path))
        assert r.returncode == 3

    def test_self_loop_is_data_error_with_line(self, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("0 1 1.0\n2 2 1.0\n")
        r = self.run_cli("sparsify", "--input", str(path))
        assert r.returncode == 3
        assert ":2:" in r.stderr and "self-loop" in r.stderr

    def test_negative_hyperedge_vertex_is_data_error_with_line(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1.0 2 0 1\n1.0 2 -1 2\n")
        r = self.run_cli("hypersparsify", "--input", str(path))
        assert r.returncode == 3
        assert ":2:" in r.stderr

    def test_hypersparsify_requires_input(self):
        r = self.run_cli("hypersparsify")
        assert r.returncode == 2
        assert "--input is required" in r.stderr

    def test_window_requires_input(self):
        r = self.run_cli("window", "--window", "5")
        assert r.returncode == 2
        assert "--input is required" in r.stderr

    def test_bench_flags_rejected_elsewhere(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1.0\n1 2 1.0\n")
        r = self.run_cli("sparsify", "--input", str(path), "--trials", "3")
        assert r.returncode == 2
        assert "--trials" in r.stderr

    def test_bench_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        r = self.run_cli("bench", "--n", "20", "--m", "500", "--budget", "200",
                         "--trials", "1", "--methods", "online",
                         "--output", str(out))
        assert r.returncode == 0
        with open(out) as fh:
            rows = read_csv(fh)
        assert len(rows) == 1 and rows[0].method == "online"

    def test_window_command(self, tmp_path):
        path = tmp_path / "h.txt"
        lines = [f"1.0 2 {i % 4} {(i + 1) % 4}" for i in range(20)]
        path.write_text("\n".join(lines) + "\n")
        r = self.run_cli("window", "--input", str(path), "--window", "5",
                         "--block", "4")
        assert r.returncode == 0
        assert len(r.stdout.strip().splitlines()) >= 1

    def test_window_output_writes_the_file(self, tmp_path):
        path, out = tmp_path / "h.txt", tmp_path / "w.txt"
        lines = [f"1.0 2 {i % 4} {(i + 1) % 4}" for i in range(20)]
        path.write_text("\n".join(lines) + "\n")
        r = self.run_cli("window", "--input", str(path), "--window", "5",
                         "--block", "4", "--output", str(out))
        assert r.returncode == 0 and r.stdout == ""
        assert load_hyperedge_list(out).m >= 1

    def test_mincut_output_writes_the_file(self, tmp_path):
        path, out = tmp_path / "c8.txt", tmp_path / "cut.txt"
        edges = [f"{i} {(i + 1) % 8} 1.0" for i in range(8)]
        path.write_text("\n".join(edges) + "\n")
        r = self.run_cli("mincut", "--input", str(path), "--output", str(out))
        assert r.returncode == 0 and r.stdout == ""
        assert 1.6 <= float(out.read_text().strip()) <= 2.5

    @pytest.mark.parametrize("command, flag, value", [
        ("gen", "--eps", "0.5"),
        ("gen", "--input", "g.txt"),
        ("bench", "--eps", "0.5"),
    ])
    def test_unread_shared_flags_rejected(self, tmp_path, command, flag,
                                          value):
        # small sizes, so that a command accepting the flag ends quickly
        r = self.run_cli(command, "--n", "20", "--m", "100", flag, value,
                         *(("--budget", "50", "--trials", "1", "--methods",
                            "online") if command == "bench" else ()),
                         "--output", str(tmp_path / "out.txt"))
        assert r.returncode == 2
        assert flag in r.stderr
        assert not (tmp_path / "out.txt").exists()
