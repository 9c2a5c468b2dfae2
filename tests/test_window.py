"""Sliding-window tower over the reversed stream."""

import itertools
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamsparse import (Hyperedge, Hypergraph, HyperSamplerConfig,
                          HyperSamplerState, SlidingWindowConfig,
                          SlidingWindowState, fast_rho, hyper_energy, sw_push,
                          sw_query)
from streamsparse.hypergraph import _rescaled
from streamsparse.rng import spawn_seed
from streamsparse.window import StoredItem

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def random_stream(rng, n=8, m=200, r=3):
    out = []
    for _ in range(m):
        k = int(rng.integers(2, r + 1))
        verts = tuple(int(v) for v in rng.choice(n, size=k, replace=False))
        out.append(Hyperedge(verts, float(rng.uniform(0.5, 4.0))))
    return out


def identity_state(n, block):
    return SlidingWindowState(n, SlidingWindowConfig(
        block_size=block, identity_coreset=True))


def exact_window(n, stream, w):
    return Hypergraph(n, list(stream[-w:]))


class TestStructure:
    def test_carry_at_third_push(self):
        st = identity_state(4, 2)
        items = [Hyperedge((0, 1), float(i + 1)) for i in range(3)]
        sw_push(st, items[0])
        sw_push(st, items[1])
        assert len(st.buffer) == 2 and st.levels == []
        sw_push(st, items[2])
        assert [it.edge for it in st.buffer] == [items[2]]
        assert [it.edge for it in st.levels[0]] == [items[1], items[0]]

    def test_buffer_reverse_order(self):
        st = identity_state(4, 8)
        items = [Hyperedge((0, 1), float(i + 1)) for i in range(4)]
        for it in items:
            sw_push(st, it)
        assert [x.edge for x in st.buffer] == list(reversed(items))

    def test_indices_recorded(self):
        st = identity_state(4, 2)
        for i in range(7):
            sw_push(st, Hyperedge((0, 1), 1.0))
        stored = list(st.buffer) + [x for lvl in st.levels if lvl for x in lvl]
        assert sorted(x.index for x in stored) == list(range(7))

    def test_push_rejects_out_of_range_before_any_change(self):
        state = SlidingWindowState(5, SlidingWindowConfig(block_size=2))
        for verts in ((-1, 7), (1, 5)):
            with pytest.raises(ValueError):
                state.push(Hyperedge(verts, 1.0))
        assert state.stored() == 0 and state.last_index is None
        state.push(Hyperedge((1, 4), 1.0))
        assert [(it.edge.vertices, it.index) for it in state.buffer] == [((1, 4), 0)]

    def test_monotone_index_required(self):
        st = identity_state(4, 4)
        sw_push(st, Hyperedge((0, 1), 1.0), t=5)
        with pytest.raises(ValueError):
            sw_push(st, Hyperedge((0, 1), 1.0), t=5)

    def test_index_and_window_must_be_integers(self):
        st = identity_state(4, 4)
        for t in (1.5, 2.0, True, "3"):
            with pytest.raises(ValueError):
                st.push(Hyperedge((0, 1), 1.0), t=t)
        assert st.stored() == 0 and st.last_index is None
        st.push(Hyperedge((0, 1), 1.0), t=np.int64(4))
        assert st.last_index == 4 and type(st.last_index) is int
        for window in (2.5, 1.0, True, 0, -3):
            with pytest.raises(ValueError):
                st.query(window)
        assert st.query(np.intp(1)).m == 1

    def test_a_carry_that_raises_leaves_the_window_unchanged(self):
        st = SlidingWindowState(6, SlidingWindowConfig(block_size=2, seed=1))
        for i in range(8):     # the buffer full, levels 0 and 1 taken
            st.push(Hyperedge((i % 6, (i + 1) % 6), 1.0 + i))
        before = (st.stored(), st.last_index, repr(st.levels),
                  repr(st.buffer), st.stats())
        assert st.levels[0] is not None and st.levels[1] is not None

        def failing(items):
            raise RuntimeError("carry failed")

        with mock.patch.object(st, "_coreset", failing):
            with pytest.raises(RuntimeError):
                st.push(Hyperedge((0, 2), 1.0))
        assert (st.stored(), st.last_index, repr(st.levels),
                repr(st.buffer), st.stats()) == before
        st.push(Hyperedge((0, 2), 1.0))
        assert st.last_index == 8 and st.carries == before[4]["carries"] + 1
        assert st.levels[:2] == [None, None] and st.levels[2] is not None


class TestStats:
    @pytest.mark.parametrize("identity", [False, True])
    def test_counters_add_up(self, identity):
        st = SlidingWindowState(8, SlidingWindowConfig(
            block_size=6, seed=2, identity_coreset=identity))
        full = carried = 0
        for e in random_stream(np.random.default_rng(4), m=150):
            if len(st.buffer) == st.cfg.block_size:
                full += 1
                carried += len(st.buffer) + sum(
                    len(c) for c in itertools.takewhile(bool, st.levels))
            st.push(e)
        stats = st.stats()
        certified = stats.pop("certified")
        assert stats == {"carries": full, "stored": st.stored(),
                         "height": len(st.levels)}
        assert full == st.carries > 0
        # the identity coreset certifies nothing; the sampler, at the
        # default rho, certifies some carried items and no more than all
        assert (certified == 0) if identity else (0 < certified <= carried)


class TestIdentityQueries:
    def test_window_equals_suffix_every_w(self):
        rng = np.random.default_rng(0)
        stream = random_stream(rng, m=100)
        st = identity_state(8, 16)
        for e in stream:
            sw_push(st, e)
        for w in range(1, 101):
            got = sw_query(st, w)
            want = exact_window(8, stream, w)
            assert [(e.vertices, e.w) for e in got.hyperedges] == \
                   [(e.vertices, e.w) for e in want.hyperedges]

    def test_oversized_window_returns_everything(self):
        rng = np.random.default_rng(1)
        stream = random_stream(rng, m=30)
        st = identity_state(8, 4)
        for e in stream:
            sw_push(st, e)
        got = sw_query(st, 10_000)
        assert got.m == 30

    def test_most_recent_always_present(self):
        rng = np.random.default_rng(2)
        stream = random_stream(rng, m=40)
        st = SlidingWindowState(8, SlidingWindowConfig(block_size=4, seed=0))
        for e in stream:
            sw_push(st, e)
            got = sw_query(st, 1)
            assert got.m >= 1
            assert got.hyperedges[-1].vertices == e.vertices


class TestSampledQueries:
    def test_index_filter_invariant(self):
        rng = np.random.default_rng(4)
        stream = random_stream(rng, m=150)
        st = SlidingWindowState(8, SlidingWindowConfig(block_size=16, seed=1))
        for e in stream:
            sw_push(st, e)
        w = 40
        low = st.last_index - w + 1
        items = list(st.buffer) + [x for lvl in st.levels if lvl for x in lvl]
        returned = [x for x in items if x.index >= low]
        assert all(low <= x.index <= st.last_index for x in returned)

    def test_energy_within_factor(self):
        rng = np.random.default_rng(5)
        stream = random_stream(rng, m=200)
        st = SlidingWindowState(8, SlidingWindowConfig(block_size=32, seed=2, eps=0.5))
        for e in stream:
            sw_push(st, e)
        ok = 0
        windows = rng.integers(5, 200, size=10)
        for w in windows:
            got = sw_query(st, int(w))
            want = exact_window(8, stream, int(w))
            good = True
            for _ in range(100):
                x = rng.standard_normal(8)
                q = hyper_energy(want, x)
                if abs(hyper_energy(got, x) - q) > 0.5 * q + 1e-9:
                    good = False
                    break
            ok += good
        assert ok >= 8

    def test_space_below_raw_stream(self):
        # the default rho keeps everything at this tiny n, so pin a small
        # rho to make the coresets actually subsample
        rng = np.random.default_rng(6)
        stream = random_stream(rng, n=8, m=600)
        st = SlidingWindowState(8, SlidingWindowConfig(block_size=32, seed=3,
                                                       rho=2.0))
        for e in stream:
            sw_push(st, e)
        assert st.stored() < 400


def reference_query(state, window):
    """The query as a filter over every stored item, a sort on the arrival
    index and a rescale of every item."""
    items = list(state.buffer)
    for c in state.levels:
        if c:
            items.extend(c)
    if state.last_index is not None:
        low = state.last_index - window + 1
        items = [it for it in items if it.index >= low]
    items.sort(key=lambda it: it.index)
    return [_rescaled(it.edge, it.factor) for it in items]


@st.composite
def window_runs(draw):
    """(n, cfg, stream of (hyperedge, gap to the previous index), queries):
    a small block, so pushes carry through several levels, a sampled or an
    identity coreset, and windows from 1 to past the stream's span."""
    n = draw(st.integers(min_value=2, max_value=6))
    size = st.integers(min_value=2, max_value=min(3, n))
    verts = size.flatmap(lambda k: st.lists(
        st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k,
        unique=True))
    edge = st.builds(Hyperedge, verts.map(tuple),
                     st.floats(min_value=0.1, max_value=10.0))
    stream = draw(st.lists(st.tuples(edge, st.integers(1, 4)), max_size=80))
    cfg = SlidingWindowConfig(
        block_size=draw(st.integers(min_value=1, max_value=6)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        rho=draw(st.sampled_from((None, 0.05, 0.5))),
        identity_coreset=draw(st.booleans()))
    queries = draw(st.lists(st.integers(1, 400), min_size=1, max_size=4))
    return n, cfg, stream, queries


class TestQueryScan:
    @staticmethod
    def _assert_as_reference(state, window):
        got = state.query(window).hyperedges
        want = reference_query(state, window)
        assert [(e.vertices, e.w.hex()) for e in got] == \
               [(e.vertices, e.w.hex()) for e in want]

    @given(window_runs())
    @settings(max_examples=100, deadline=None)
    def test_equals_filter_sort_rescale(self, case):
        # stopping at the first item older than the window returns the same
        # hyperedges, weights bit for bit, as filtering everything stored
        n, cfg, stream, queries = case
        state = SlidingWindowState(n, cfg)
        t = -1
        for k, (e, gap) in enumerate(stream):
            t += gap
            state.push(e, t)
            if k % 7 == 0:
                for window in queries:
                    self._assert_as_reference(state, window)
        for window in queries:
            self._assert_as_reference(state, window)


def reference_coreset(state, items):
    """A carry as a loop of HyperSamplerState.step, one item at a time:
    the kept items, reweighted, and the sampler's certified count."""
    cfg = state.cfg
    if cfg.identity_coreset:
        return list(items), 0
    rho = cfg.rho
    if rho is None:
        rho = fast_rho(max(it.edge.size for it in items), len(items), cfg.eps)
    rows = sum(it.edge.size * (it.edge.size - 1) // 2 for it in items)
    sampler = HyperSamplerState(state.n, HyperSamplerConfig(
        rho=rho, eps=cfg.eps, seed=spawn_seed(cfg.seed, state.carries),
        m_hint=max(rows, 2)))
    out = []
    for it in items:
        decision = sampler.step(_rescaled(it.edge, it.factor))
        if decision.kept:
            out.append(StoredItem(it.edge, it.index, it.factor / decision.p))
    return out, sampler.stats()["certified"]


def checking_carries(carried):
    """A patch of SlidingWindowState._coreset that checks each carry
    against reference_coreset, bit for bit, and records its input size."""
    real = SlidingWindowState._coreset

    def checked(state, items):
        got = real(state, items)
        assert repr(got) == repr(reference_coreset(state, items))
        carried.append(len(items))
        return got

    return mock.patch.object(SlidingWindowState, "_coreset", checked)


class TestCarries:
    @given(window_runs())
    @settings(max_examples=60, deadline=None)
    def test_each_carry_equals_the_step_loop(self, case):
        n, cfg, stream, _ = case
        state = SlidingWindowState(n, cfg)
        carried = []
        with checking_carries(carried):
            t = -1
            for e, gap in stream:
                t += gap
                state.push(e, t)
        assert len(carried) == state.carries

    def test_window_mix_carries(self):
        # window_mix's seed-0 inputs through the library: every carry as the
        # step loop, the counts pinned, and the steps that the bulk path
        # leaves to step (a change that falls off it moves that count)
        wl = workloads.WORKLOADS["window_mix"]()
        stream, _, _, state = wl.prepare(0)
        carried, steps = [], []
        real_step = HyperSamplerState.step

        def counting(sampler, e):
            steps.append(e)
            return real_step(sampler, e)

        with checking_carries(carried), \
                mock.patch.object(HyperSamplerState, "step", counting):
            for e in stream:
                state.push(e)
        stats = state.stats()
        assert (stats["carries"], sum(carried)) == (31, 5120)
        assert stats["certified"] == 5120
        assert len(steps) == 238 + 5120     # the reference steps every item
