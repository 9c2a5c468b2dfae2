"""Text formats, the benchmark harness, and the CLI surface."""

import io as _io
import subprocess
import sys

import numpy as np
import pytest

from streamsparse import (Graph, Hyperedge, Hypergraph, ParseError,
                          WeightedEdge, load_edge_list, load_hyperedge_list,
                          load_snap, save_edge_list, save_hyperedge_list)
from streamsparse.bench import (ExperimentConfig, RawRow, gen_synthetic,
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
