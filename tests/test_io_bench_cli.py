"""Text formats, the benchmark harness, and the CLI surface."""

import io as _io
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamsparse import (Graph, Hyperedge, Hypergraph, ParseError,
                          WeightedEdge, bench, laplacian, load_edge_list,
                          load_hyperedge_list, load_snap, pseudo_inverse,
                          save_edge_list, save_hyperedge_list)
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
        assert np.array_equal(got, want)
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

        def spy(trial, block_size):
            used.add(trial.index)
            return run(trial, block_size)

        monkeypatch.setattr(bench, "_run_merge_reduce", spy)
        cfg = ExperimentConfig(n=12, m=200, budgets=(60,), trials=1,
                               methods=("merge_reduce",), probe_trials=1,
                               tree_probe_trials=3)
        res = run_experiment(cfg)
        assert used == {0, 1, 2}
        assert [r.trial for r in res.raw] == [0]


class TestProbeCache:
    """_tune's probe cache: exact repeats, and the never-carried rule."""

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

    @given(st.integers(min_value=3, max_value=10),
           st.integers(min_value=1, max_value=200),
           st.integers(min_value=0, max_value=2**16),
           st.sampled_from(("merge_reduce", "streaming")),
           st.data())
    @settings(max_examples=30, deadline=None)
    def test_cached_counts_equal_direct_runs(self, n, m, seed, method, data):
        # any order of blocks, crowded around each trial's push count
        cfg = ExperimentConfig(n=n, m=m, seed=seed, tree_probe_trials=2)
        trials = [_Trial(cfg, i) for i in range(2)]
        budget = 40
        base = ({"c": bench.PAPER_C_OL_STR.get(budget, 5.0)}
                if method == "streaming" else {})

        def direct(t, block):
            return bench._run_one(t, method, {**base, "block_size": block})

        near = [direct(t, m + 1)[2].pushed + d for t in trials
                for d in range(-2, 3)]
        blocks = data.draw(st.lists(
            st.sampled_from(near) | st.integers(min_value=1, max_value=m + 5),
            min_size=1, max_size=12).map(lambda bs: [max(b, 1) for b in bs]))
        answers = []

        def sweep(count_one, count_of, budget, tolerance):
            for b in blocks:
                answers.append((b, count_one(float(b)), count_of(float(b))))
            return float(blocks[0]), answers[0][2]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench, "_tune_tree_knob", sweep)
            _tune(cfg, method, budget, trials, ExperimentResult())
        for b, one, mean in answers:
            counts = [direct(t, b)[0] for t in trials]
            assert one == counts[0]
            assert mean == float(np.mean(counts))

    @pytest.mark.parametrize("method", ["merge_reduce", "streaming"])
    def test_tune_runs_each_probe_once(self, monkeypatch, method):
        cfg = ExperimentConfig(n=20, m=600, budgets=(200,), trials=1,
                               tree_probe_trials=2, tolerance=60)
        trials = [_Trial(cfg, i) for i in range(2)]
        run_one, runs = bench._run_one, []

        def spy(trial, m, params):
            out = run_one(trial, m, params)
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

        # an uncached sweep runs more probes and picks the same block
        ref_runs = []
        base = {k: v for k, v in params.items() if k != "block_size"}

        def count_of(block, probes=trials):
            ref_runs.extend((t.index, int(block)) for t in probes)
            return float(np.mean([
                run_one(t, method, {**base, "block_size": int(block)})[0]
                for t in probes]))

        knob, _ = _tune_tree_knob(lambda b: count_of(b, trials[:1]),
                                  count_of, 200, 30)
        assert params["block_size"] == max(int(round(knob)), 4)
        assert len(runs) < len(ref_runs)


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

    def test_mincut_command(self, tmp_path):
        path = tmp_path / "c8.txt"
        edges = [f"{i} {(i + 1) % 8} 1.0" for i in range(8)]
        path.write_text("\n".join(edges) + "\n")
        r = self.run_cli("mincut", "--input", str(path), "--eps", "0.25")
        assert r.returncode == 0
        assert 1.6 <= float(r.stdout.strip()) <= 2.5

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
