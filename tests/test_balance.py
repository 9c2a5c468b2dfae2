"""Balanced clique weight assignments and the spanning-tree potential."""

import math

import numpy as np
import pytest

from streamsparse import (BalanceConfig, Graph, IncidenceRow, SpectralSketch,
                          WeightedEdge, get_weight_assignment, Hyperedge,
                          is_balanced, st_potential)
from streamsparse import balance
from streamsparse.balance import augmented_graph, clique_pairs, _pair_ratios


def star_sketch(n, center=0, w=1.0):
    sk = SpectralSketch(n)
    for v in range(n):
        if v != center:
            sk.append(IncidenceRow(center, v, math.sqrt(w)))
    return sk


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
        pairs = clique_pairs((1, 2, 3))
        q1 = _pair_ratios(sk.gram, pairs, np.array([1.0, 1.0, 1.0]))
        assert (q1 > 0).all()

    def test_literal_recipient_cap_also_balances(self):
        sk = SpectralSketch(4)
        sk.append(IncidenceRow(1, 2, math.sqrt(50.0)))
        e = Hyperedge((1, 2, 3), 3.0)
        cfg = BalanceConfig(literal_recipient_cap=True)
        wa = get_weight_assignment(sk, e, cfg)
        assert wa.z.sum() == pytest.approx(3.0, abs=1e-9)
        assert is_balanced(sk, e, wa.z, 2.0)

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

                def noisy(base, pairs, z, noise=noise):
                    return exact(base, pairs, z) * (1.0 + noise)

                monkeypatch.setattr(balance, "_pair_ratios", noisy)
                got = get_weight_assignment(sk, e, cfg)
                assert self._moves(got) == moves
                assert np.allclose(got.z, want.z, rtol=1e-9)
