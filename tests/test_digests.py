"""The outputs of the four benchmark workloads, pinned.

Each workload of perfbench/workloads.py runs once at full size, and its
summary is hashed as perfbench/run.py's digest does (the first 16 hex
digits of the SHA-256 of its sorted, compact JSON). The expected digests
are ROADMAP.md's Net-state list; a change that moves an output fails here.
Draws are keyed by (seed, index), so the digests hold at one BLAS thread,
which conftest.py sets.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

DIGESTS = {
    ("budget_sweep", 0): "71651a44beb227a5",
    ("budget_sweep", 7919): "58eb05bd862d0c03",
    ("hyper_balanced", 0): "9bc30df199e5935c",
    ("hyper_balanced", 7919): "b6df4ee2e51c7f8e",
    ("window_mix", 0): "50f21c065d34a32c",
    ("window_mix", 7919): "bf66f5a9ddb01c7d",
    ("adaptive_mincut", 0): "ddee668777f9bca4",
    ("adaptive_mincut", 7919): "b27f091aad044df7",
}


def digest(summary) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name, seed", list(DIGESTS),
                         ids=[f"{name}-{seed}" for name, seed in DIGESTS])
def test_workload_digest(name, seed):
    wl = workloads.WORKLOADS[name]()
    out = wl.run(wl.prepare(seed), workloads.Recorder())
    assert digest(wl.summary(out)) == DIGESTS[name, seed]
