"""Balanced clique weight assignments and the spanning-tree potential."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamsparse import (BalanceConfig, Graph, IncidenceRow, SpectralSketch,
                          WeightedEdge, get_weight_assignment, Hyperedge,
                          is_balanced, st_potential)
from streamsparse import balance
from streamsparse.balance import (augmented_graph, clique_pairs, _pair_ratios,
                                  _ratio_base)
from streamsparse.graph import _accumulate, _resistance, pseudo_inverse


def ratios(sketch, e, z):
    """The shift loop's ratios of e's clique on the sketch at weights z."""
    return _pair_ratios(_ratio_base(sketch, e, z), z)


def star_sketch(n, center=0, w=1.0):
    sk = SpectralSketch(n)
    for v in range(n):
        if v != center:
            sk.append(IncidenceRow(center, v, math.sqrt(w)))
    return sk


class TestEntryCheck:
    @pytest.mark.parametrize("vertices", [(-1, 1, 2), (1, 7), (0, 2, 4)])
    def test_out_of_range_vertex_raises(self, vertices):
        # the vertex rule of Hyperedge's samplers, on the sketch and on its
        # Gram matrix passed as an array; in-range hyperedges still pass
        sk = star_sketch(4)
        e = Hyperedge(vertices, 1.0)
        z = np.full(len(clique_pairs(vertices)), 1.0 / len(vertices))
        for sketch in (sk, sk.gram.copy()):
            with pytest.raises(ValueError, match="out of range for n=4"):
                get_weight_assignment(sketch, e)
            with pytest.raises(ValueError, match="out of range for n=4"):
                is_balanced(sketch, e, z, 2.0)
            ok = Hyperedge((1, 2, 3), 1.0)
            assert get_weight_assignment(sketch, ok).z.sum() == \
                pytest.approx(1.0)
            assert is_balanced(sketch, ok, np.full(3, 1.0 / 3), 2.0)


class TestStPotential:
    def test_single_edge(self):
        g = Graph(2, [WeightedEdge(0, 1, 5.0)])
        assert st_potential(g) == pytest.approx(math.log(5.0))

    def test_unit_triangle_ln3(self):
        g = Graph(3, [WeightedEdge(0, 1, 1.0), WeightedEdge(1, 2, 1.0),
                      WeightedEdge(0, 2, 1.0)])
        assert st_potential(g) == pytest.approx(math.log(3.0), abs=1e-10)

    def test_unit_path_zero(self):
        g = Graph(3, [WeightedEdge(0, 1, 1.0), WeightedEdge(1, 2, 1.0)])
        assert st_potential(g) == pytest.approx(0.0, abs=1e-10)

    def test_disconnected_minus_inf(self):
        g = Graph(4, [WeightedEdge(0, 1, 1.0), WeightedEdge(2, 3, 1.0)])
        assert st_potential(g) == -math.inf

    def test_matches_tree_enumeration(self):
        # weighted triangle: sum over trees = w01*w12 + w01*w02 + w12*w02
        w01, w12, w02 = 2.0, 3.0, 5.0
        g = Graph(3, [WeightedEdge(0, 1, w01), WeightedEdge(1, 2, w12),
                      WeightedEdge(0, 2, w02)])
        want = math.log(w01 * w12 + w01 * w02 + w12 * w02)
        assert st_potential(g) == pytest.approx(want, abs=1e-10)


class TestAssignment:
    def test_pair_hyperedge_trivial(self):
        sk = star_sketch(4)
        wa = get_weight_assignment(sk, Hyperedge((1, 2), 3.0))
        assert wa.pairs == [(1, 2)]
        assert wa.z[0] == pytest.approx(3.0)

    def test_symmetric_first_hyperedge_uniform(self):
        # empty sketch, clique symmetry: uniform split is already balanced
        sk = SpectralSketch(4)
        e = Hyperedge((0, 1, 2), 6.0)
        wa = get_weight_assignment(sk, e)
        assert np.allclose(wa.z, 2.0)
        assert len(wa.trace) == 1
        assert is_balanced(sk, e, wa.z, 2.0)

    def test_conservation_and_balance(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(4, 8))
            sk = SpectralSketch(n)
            for _ in range(int(rng.integers(0, 12))):
                u, v = rng.choice(n, size=2, replace=False)
                sk.append(IncidenceRow(int(u), int(v), float(rng.uniform(0.3, 2))))
            size = int(rng.integers(2, min(n, 4) + 1))
            verts = tuple(int(v) for v in rng.choice(n, size=size, replace=False))
            e = Hyperedge(verts, float(rng.uniform(0.5, 4)))
            wa = get_weight_assignment(sk, e)
            assert wa.z.sum() == pytest.approx(e.w, abs=1e-9)
            assert (wa.z >= 0).all()
            assert is_balanced(sk, e, wa.z, 2.0)

    def test_asymmetric_case_shifts(self):
        # pair (1,2) is shorted by a heavy sketch path, so its ratio is tiny
        # and it should give weight away
        sk = SpectralSketch(4)
        sk.append(IncidenceRow(1, 2, math.sqrt(50.0)))
        e = Hyperedge((1, 2, 3), 3.0)
        uniform = np.full(3, 1.0)
        assert not is_balanced(sk, e, uniform, 2.0)
        wa = get_weight_assignment(sk, e)
        assert len(wa.trace) > 1          # at least one shift happened
        assert is_balanced(sk, e, wa.z, 2.0)
        z = dict(zip(wa.pairs, wa.z))
        assert z[(1, 2)] < z[(1, 3)]

    def test_potential_increases_per_shift(self):
        sk = SpectralSketch(5)
        sk.append(IncidenceRow(1, 2, math.sqrt(40.0)))
        sk.append(IncidenceRow(0, 1, 1.0))
        sk.append(IncidenceRow(0, 4, 1.0))
        e = Hyperedge((1, 2, 3, 4), 2.0)
        wa = get_weight_assignment(sk, e)
        assert len(wa.trace) > 1
        pots = [st_potential(augmented_graph(sk, wa.pairs, z))
                for z in wa.trace]
        for a, b in zip(pots, pots[1:]):
            assert b > a

    def test_ratio_is_z_independent(self):
        # q_uv uses the full-clique augmented Gram, so scaling z by where the
        # total sits does not change which pairs violate
        sk = star_sketch(4)
        q1 = ratios(sk, Hyperedge((1, 2, 3), 3.0), np.array([1.0, 1.0, 1.0]))
        assert (q1 > 0).all()

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            BalanceConfig(gamma=1.0)


class TestTieBreak:
    @staticmethod
    def _moves(assignment):
        """(donor, recipient) pair indices of every shift in the trace."""
        steps = np.diff(np.array(assignment.trace), axis=0)
        return [(int(d.argmin()), int(d.argmax())) for d in steps]

    def test_ulp_noise_does_not_pick_between_tied_pairs(self, monkeypatch):
        # the reflection i -> 4 - i maps a 5-vertex path sketch onto itself
        # and the clique of {0, 1, 3, 4} onto itself, swapping pairs
        # (0,1) <-> (3,4) and (0,3) <-> (1,4): their ratios tie in exact
        # arithmetic at every shift, and the donor or recipient is often
        # one of a tied couple
        sk = SpectralSketch(5)
        for i in range(4):
            sk.append(IncidenceRow(i, i + 1, 1.0))
        e = Hyperedge((0, 1, 3, 4), 1.0)
        cfg = BalanceConfig(gamma=1.2)
        want = get_weight_assignment(sk, e, cfg)
        moves = self._moves(want)
        assert len(moves) > 1
        exact = _pair_ratios
        ulp = np.finfo(float).eps
        for sign in (1.0, -1.0):
            for k in (1, 3, 8):
                noise = sign * k * ulp * np.array([1, -1, 0, 1, -1, 0])

                def noisy(base, z, noise=noise):
                    return exact(base, z) * (1.0 + noise)

                monkeypatch.setattr(balance, "_pair_ratios", noisy)
                got = get_weight_assignment(sk, e, cfg)
                assert self._moves(got) == moves
                assert np.allclose(got.z, want.z, rtol=1e-9)


def _components_of(n, pairs):
    """Vertex sets of the components of the graph with these edges."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in pairs:
        root[find(a)] = find(b)
    comps = {}
    for x in range(n):
        comps.setdefault(find(x), []).append(x)
    return list(comps.values())


@st.composite
def chunked_sketches(draw):
    """(n, chunks): sketch rows over n vertices, each vertex in group 0, 1
    or 2; rows join vertices of group 0 or 1 only, pairs may repeat, so
    the sketch has several components and isolated vertices. The rows
    arrive in chunks, each followed by cliques of 2 to 5 vertices, half of
    them drawn inside one component of the rows so far, with weights
    z >= 0, some of them 0."""
    n = draw(st.integers(min_value=4, max_value=9))
    group = draw(st.lists(st.integers(min_value=0, max_value=2),
                          min_size=n, max_size=n))
    linked = [(a, b) for a, b in itertools.combinations(range(n), 2)
              if group[a] == group[b] < 2]
    weight = st.floats(min_value=0.1, max_value=10.0)
    rows = draw(st.lists(st.tuples(st.sampled_from(linked), weight),
                         max_size=3 * n)) if linked else []
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=len(rows)),
                                max_size=2)))
    chunks = []
    for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
        inside = [c for c in _components_of(n, [p for p, _ in rows[:hi]])
                  if len(c) > 1]
        cliques = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            pool = list(range(n))
            if inside and draw(st.booleans()):
                pool = draw(st.sampled_from(inside))
            k = draw(st.integers(min_value=2, max_value=min(5, len(pool))))
            verts = draw(st.lists(st.sampled_from(pool), min_size=k,
                                  max_size=k, unique=True))
            z = draw(st.lists(st.one_of(st.just(0.0), weight),
                              min_size=k * (k - 1) // 2,
                              max_size=k * (k - 1) // 2))
            cliques.append((tuple(verts), np.array(z)))
        chunks.append((rows[lo:hi], cliques))
    return n, chunks


class TestSketchInverseRatios:
    @given(chunked_sketches())
    @settings(max_examples=150, deadline=None)
    def test_ratios_match_the_augmented_solve(self, case):
        # the ratios the shift loop reads from a sketch's grounded inverse
        # equal the pseudo-inverse resistances of the z-augmented Gram
        # matrix K, for cliques inside one component and straddling ones
        # alike, with rows appended between reads; a pair whose endpoints
        # lie in different components of K reads inf
        n, chunks = case
        sk = SpectralSketch(n)
        for rows, cliques in chunks:
            for (u, v), w in rows:
                sk.append(IncidenceRow(u, v, math.sqrt(w)))
            for verts, z in cliques:
                e = Hyperedge(verts, 1.0)
                pairs = clique_pairs(e.vertices)
                u, v = np.array(pairs).T
                K = _accumulate(sk.gram.copy(), u, v, z)
                comps = _components_of(n, [(r.u, r.v) for r in sk.rows]
                                       + [p for p, zi in zip(pairs, z) if zi])
                comp = {x: i for i, c in enumerate(comps) for x in c}
                split = np.array([comp[a] != comp[b] for a, b in pairs])
                want = np.where(split, np.inf,
                                _resistance(pseudo_inverse(K), u, v))
                got = ratios(sk, e, z)
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    @given(chunked_sketches(), st.sampled_from((1.2, 2.0)))
    @settings(max_examples=100, deadline=None)
    def test_sketch_and_gram_make_the_same_moves(self, case, gamma):
        n, chunks = case
        cfg = BalanceConfig(gamma=gamma)
        sk = SpectralSketch(n)
        for rows, cliques in chunks:
            for (u, v), w in rows:
                sk.append(IncidenceRow(u, v, math.sqrt(w)))
            for verts, z in cliques:
                e = Hyperedge(verts, 1.0 + z.sum())
                got = get_weight_assignment(sk, e, cfg)
                want = get_weight_assignment(sk.gram.copy(), e, cfg)
                assert (TestTieBreak._moves(got)
                        == TestTieBreak._moves(want))
                np.testing.assert_allclose(got.z, want.z, rtol=1e-9,
                                           atol=1e-12)

    @given(chunked_sketches(), st.sampled_from((1.2, 2.0)))
    @settings(max_examples=100, deadline=None)
    def test_positive_pairs_keep_the_clique_connected(self, case, gamma):
        # the shift loop takes its ratio base once per call, which holds
        # because no shift splits the clique: at every z of the trace the
        # sketch rows and the positive pairs connect every clique vertex
        n, chunks = case
        sk = SpectralSketch(n)
        for rows, cliques in chunks:
            for (u, v), w in rows:
                sk.append(IncidenceRow(u, v, math.sqrt(w)))
            for verts, z in cliques:
                e = Hyperedge(verts, 1.0 + z.sum())
                wa = get_weight_assignment(sk, e, BalanceConfig(gamma=gamma))
                for zt in wa.trace:
                    comps = _components_of(
                        n, [(r.u, r.v) for r in sk.rows]
                        + [p for p, zi in zip(wa.pairs, zt) if zi > 0])
                    assert any(set(verts) <= set(c) for c in comps)

    def test_split_weights_are_not_balanced(self):
        # components {0, 1, 2} and {3, 4}; z joins 0 and 3 across them but
        # leaves vertex 5 (isolated) and the pairs to it at zero
        sk = SpectralSketch(6)
        for u, v, w in ((0, 1, 2.0), (1, 2, 1.0), (3, 4, 3.0)):
            sk.append(IncidenceRow(u, v, math.sqrt(w)))
        e = Hyperedge((0, 3, 5), 1.0)      # pairs (0,3), (0,5), (3,5)
        z = np.array([1.0, 0.0, 0.0])
        q = ratios(sk, e, z)
        assert q[0] == pytest.approx(1.0, rel=1e-12)    # a unit bridge
        assert q[1] == q[2] == math.inf
        assert not is_balanced(sk, e, z, 2.0)
        assert not is_balanced(sk.gram, e, z, 2.0)
        # the same clique balanced from scratch is connected and balanced
        wa = get_weight_assignment(sk, e)
        assert (wa.z > 0).all() and is_balanced(sk, e, wa.z, 2.0)

    def test_balancing_leaves_the_inverse_as_it_is(self):
        # components {0..3} (a heavy pair and a cycle) and {4, 5, 6};
        # vertex 7 isolated
        sk = SpectralSketch(8)
        for u, v, w in ((1, 2, 50.0), (0, 1, 1.0), (1, 3, 2.0), (0, 3, 0.5),
                        (4, 5, 1.0), (5, 6, 3.0)):
            sk.append(IncidenceRow(u, v, math.sqrt(w)))
        inv = sk._grounded_inverse()
        before = (inv.M.copy(), inv.labels.copy(), inv.folds, inv.joins,
                  inv.refreshes)
        shifted = 0
        for verts in ((0, 1, 2, 3), (1, 2, 3), (4, 5, 6), (2, 3, 5), (0, 7)):
            e = Hyperedge(verts, 2.0)
            wa = get_weight_assignment(sk, e, BalanceConfig(gamma=1.2))
            assert is_balanced(sk, e, wa.z, 1.2)
            shifted += len(wa.trace) - 1
        assert shifted > 0
        assert sk._inverse is inv
        assert np.array_equal(inv.M, before[0])
        assert np.array_equal(inv.labels, before[1])
        assert (inv.folds, inv.joins, inv.refreshes) == before[2:]
