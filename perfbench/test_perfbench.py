"""Tests of the benchmark itself: self-time arithmetic, the tracer's
patching, and a tiny-size run of every workload in both modes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import streamsparse as ss  # noqa: E402
from tracer import LAYERS, Tracer, self_times  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 8];
    # 4 [12, 13] is a second root
    parents = [-1, 0, 0, 2, -1]
    starts = [0.0, 1.0, 5.0, 6.0, 12.0]
    ends = [10.0, 4.0, 9.0, 8.0, 13.0]
    own = self_times([0, 1, 1, 2, 0], parents, starts, ends)
    assert own.tolist() == [3.0, 3.0, 2.0, 2.0, 1.0]
    # self times partition the root intervals
    assert own.sum() == 11.0


def _attributes():
    """Every module attribute and class attribute the tracer may patch."""
    seen = {}
    for name in ("__init__",) + LAYERS:
        module = ss if name == "__init__" else getattr(ss, name)
        for attr, value in vars(module).items():
            seen[name, attr] = value
            if isinstance(value, type):
                for key, member in vars(value).items():
                    seen[name, attr, key] = member
    return seen


def test_tracer_records_nested_spans_and_restores_the_library():
    before = _attributes()
    g = ss.Graph(4, [ss.WeightedEdge(0, 1, 1.0), ss.WeightedEdge(1, 2, 2.0),
                     ss.WeightedEdge(2, 3, 1.5), ss.WeightedEdge(3, 0, 1.0)])
    expected = ss.leverages(g)
    tracer = Tracer(ss)
    with tracer:
        assert ss.graph.pseudo_inverse is not before["graph", "pseudo_inverse"]
        got = ss.leverages(g)
    assert _attributes() == before
    assert got.tolist() == expected.tolist()
    profile = tracer.profile()
    # leverages is reached through the package; it calls laplacian and
    # pseudo_inverse through graph's own globals
    assert set(profile) == {"graph.leverages@api", "graph.laplacian@graph",
                            "graph.pseudo_inverse@graph"}
    calls, own, incl = profile["graph.leverages@api"]
    children = (profile["graph.laplacian@graph"][2]
                + profile["graph.pseudo_inverse@graph"][2])
    assert calls == 1 and own == pytest.approx(incl - children)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, metric in result["metrics"].items():
        if metric["unit"] in ("count", "ratio"):
            assert metric["value"] >= 0, name
        if metric["unit"] == "ratio":
            assert metric["value"] <= 1, name


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "hyper_balanced", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
