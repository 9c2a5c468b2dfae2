"""Core Laplacian machinery: solves, resistances, leverage, error metric."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamsparse import (DisconnectedError, Graph, IncidenceRow,
                          KernelMismatchError, SpectralSketch, WeightedEdge,
                          effective_resistance, laplacian,
                          leverage, leverages, pseudo_inverse, pseudo_solve,
                          rayleigh_error)
from streamsparse import graph
from streamsparse.graph import (_BLOCK, _CATCH_UP, _REFRESH_EVERY,
                                _GroundedInverse, _accumulate, _columns,
                                _components, _grounded_inverse_of, _resistance,
                                _stamp, _unchecked_graph)


def triangle(w=1.0):
    return Graph(3, [WeightedEdge(0, 1, w), WeightedEdge(1, 2, w),
                     WeightedEdge(0, 2, w)])


def path(n, w=1.0):
    return Graph(n, [WeightedEdge(i, i + 1, w) for i in range(n - 1)])


def incidence_matrix(g: Graph) -> np.ndarray:
    """Oracle: rows sqrt(w)*(chi_u - chi_v) in arrival order; L = A^T A."""
    A = np.zeros((g.m, g.n))
    for i, e in enumerate(g.edges):
        A[i, e.u] = math.sqrt(e.w)
        A[i, e.v] = -math.sqrt(e.w)
    return A


def random_connected(rng, n, extra=5):
    """Random tree plus `extra` random extra edges; always connected."""
    edges = [WeightedEdge(int(rng.integers(0, i)), i, float(rng.uniform(0.5, 3)))
             for i in range(1, n)]
    for _ in range(extra):
        u, v = rng.choice(n, size=2, replace=False)
        edges.append(WeightedEdge(int(u), int(v), float(rng.uniform(0.5, 3))))
    return Graph(n, edges)


class TestGraphInput:
    def test_rejects_bad_weights(self):
        for w in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                Graph(3, [WeightedEdge(0, 1, w)])
            with pytest.raises(ValueError):
                Graph(3).add(0, 1, w)

    def test_rejects_bad_endpoints(self):
        for u, v in ((1, 1), (-1, 2), (0, 3)):
            with pytest.raises(ValueError):
                Graph(3, [WeightedEdge(u, v, 1.0)])
            with pytest.raises(ValueError):
                Graph(3).add(u, v, 1.0)


@st.composite
def edge_lists(draw):
    """Random (n, edges) with repeated pairs likely: few vertices, many edges."""
    n = draw(st.integers(min_value=2, max_value=6))
    vertex = st.integers(min_value=0, max_value=n - 1)
    weight = st.floats(min_value=1e-3, max_value=1e3)
    pairs = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(st.tuples(pairs, weight), max_size=40))
    return n, [WeightedEdge(u, v, w) for (u, v), w in edges]


class TestUncheckedGraph:
    @given(edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_equals_checked(self, case):
        n, edges = case
        g = _unchecked_graph(n, list(edges))
        assert g == Graph(n, list(edges))
        assert type(g) is Graph and g.m == len(edges)
        assert np.array_equal(laplacian(g), laplacian(Graph(n, edges)))


class TestKernel:
    @given(edge_lists(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_accumulate_equals_stamps(self, case, seed):
        n, edges = case
        base = np.random.default_rng(seed).standard_normal((n, n))
        want = base.copy()
        for u, v, w in edges:
            _stamp(want, u, v, w)
        got = _accumulate(base.copy(), *_columns(edges))
        assert np.array_equal(got, want)
        assert np.array_equal(_accumulate(np.zeros((n, n)), *_columns(edges)),
                              laplacian(Graph(n, edges)))

    @given(edge_lists())
    @settings(max_examples=100, deadline=None)
    def test_columns_equal_array_conversion(self, case):
        _, edges = case
        want = np.array(edges, dtype=float).reshape(-1, 3)
        for got in (_columns(edges), _columns([tuple(e) for e in edges])):
            u, v, w = got
            assert u.dtype == v.dtype == np.intp and w.dtype == float
            assert np.array_equal(u, want[:, 0].astype(np.intp))
            assert np.array_equal(v, want[:, 1].astype(np.intp))
            assert np.array_equal(w, want[:, 2])
            assert u.shape == v.shape == w.shape == (len(edges),)

    @given(edge_lists(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gather_equals_scalar_formula(self, case, seed):
        n, edges = case
        K = np.random.default_rng(seed).standard_normal((n, n))
        u, v, _ = _columns(edges)
        got = _resistance(K, u, v)
        assert got.shape == (len(edges),)
        for i, (a, b, _) in enumerate(edges):
            assert got[i] == K[a, a] + K[b, b] - 2.0 * K[a, b]
            assert got[i] == _resistance(K, a, b)


@st.composite
def split_laplacians(draw):
    """(n, edges, u, v): edges only inside random vertex groups, so there are
    several components and isolated vertices; few pairs, so pairs repeat.
    The endpoint arrays u, v may straddle components or coincide."""
    n = draw(st.integers(min_value=1, max_value=12))
    group = draw(st.lists(st.integers(min_value=0, max_value=3),
                          min_size=n, max_size=n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if group[a] == group[b]]
    edges = []
    if pairs:
        weight = st.floats(min_value=1e-2, max_value=1e2)
        drawn = draw(st.lists(st.tuples(st.sampled_from(pairs), weight),
                              max_size=3 * n))
        edges = [WeightedEdge(a, b, w) for (a, b), w in drawn]
    vertex = st.integers(min_value=0, max_value=n - 1)
    ends = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=6))
    u, v = np.array(ends, dtype=np.intp).T
    return n, edges, u, v


def union_find_labels(n, edges):
    """Oracle: the smallest vertex of each vertex's component."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b, _ in edges:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(x) for x in range(n)])


class TestComponentSolve:
    @given(split_laplacians())
    @settings(max_examples=150, deadline=None)
    def test_components_match_union_find(self, case):
        n, edges, _, _ = case
        want = union_find_labels(n, edges)
        assert np.array_equal(_components(laplacian(Graph(n, edges))), want)

    @given(split_laplacians())
    @settings(max_examples=150, deadline=None)
    def test_resistances_match_pseudo_inverse(self, case):
        n, edges, u, v = case
        # a rebuilt grounded inverse: its labels partition the vertices as
        # the components do, and pairs inside one component (coincident
        # ones too) read their pseudo-inverse resistances
        L = laplacian(Graph(n, edges))
        inv = _grounded_inverse_of(L)
        labels = union_find_labels(n, edges)
        assert np.array_equal(same_component(inv.labels),
                              same_component(labels))
        inside = labels[u] == labels[v]
        got = inv.resistance(u[inside], v[inside])
        want = _resistance(pseudo_inverse(L), u[inside], v[inside])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_edgeless_inverse_reads_zero_on_coincident_pairs(self):
        # G = 0 leaves the scale unset; the read must not divide by it
        inv = _grounded_inverse_of(np.zeros((3, 3)))
        with np.errstate(all="raise"):
            assert inv.resistance(1, 1) == 0.0
            vs = np.arange(3)
            assert np.array_equal(inv.resistance(vs, vs), np.zeros(3))


def same_component(labels):
    """The partition of a label array, as a boolean matrix."""
    return labels[:, None] == labels[None, :]


def assert_grounded(inv, G):
    """The maintained inverse M - Y Y^T equals inv(G / s + Q) within 1e-9,
    Q grounding each component at its maintained root, s the inverse's
    scale (or any, while G is zero), and its labels partition the vertices
    as the components of G do."""
    n = G.shape[0]
    assert np.array_equal(same_component(inv.labels),
                          same_component(_components(G)))
    assert inv.components == np.unique(inv.labels).size
    roots = np.diag((inv.labels == np.arange(n)).astype(float))
    want = np.linalg.inv(G / inv.s + roots) if inv.s else roots
    got = inv.M - inv._Y @ inv._Y.T
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def _sketch(n, refresh_every):
    """A SpectralSketch whose inverse refreshes every refresh_every folds."""
    with mock.patch.object(graph, "_REFRESH_EVERY", refresh_every):
        return SpectralSketch(n)


class TestGroundedInverse:
    @given(split_laplacians(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_tracks_pseudo_inverse_and_components(self, case, every,
                                                  refresh_every):
        # rows arrive in random order inside vertex groups, so components
        # grow by joins; reading every few rows folds several at once, and
        # a short refresh interval makes the stream cross refreshes
        n, edges, _, _ = case
        sketch = _sketch(n, refresh_every)
        a, b = np.triu_indices(n, 1)
        for k, (u, v, w) in enumerate(edges, 1):
            sketch.append(IncidenceRow(u, v, math.sqrt(w)))
            if k % every and k < len(edges):
                continue
            inv = sketch._grounded_inverse()
            assert_grounded(inv, sketch.gram)
            labels = union_find_labels(n, edges[:k])
            inside = labels[a] == labels[b]
            want = _resistance(pseudo_inverse(sketch.gram), a, b)[inside]
            got = inv.resistance(a[inside], b[inside])
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
            assert inv.folds == k
            assert inv.joins == n - np.unique(labels).size
        if every == 1:
            assert sketch._inverse.refreshes == len(edges) // refresh_every

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.lists(st.one_of(st.integers(min_value=0, max_value=3 * _CATCH_UP),
                              st.sampled_from((_CATCH_UP, _CATCH_UP + 1))),
                    min_size=1, max_size=8),
           st.sampled_from((5, _REFRESH_EVERY)))
    @settings(max_examples=30, deadline=None)
    def test_reads_catch_up_on_any_interleaving(self, seed, runs,
                                                refresh_every):
        # runs of appends between reads, on both sides of _CATCH_UP, then
        # enough runs of _CATCH_UP rows to cross a refresh in the fold
        # path: a short run folds its rows in order and refreshes when one
        # is due, a long one is taken in by one rebuild; every read is
        # grounded, and the vertex n - 1 stays isolated
        rng = np.random.default_rng(seed)
        n = 9
        sketch = _sketch(n, refresh_every)
        inv = sketch._inverse
        tail = [_CATCH_UP] * (refresh_every // _CATCH_UP + 1)
        for run in runs + tail:
            folds, refreshes = inv.folds, inv.refreshes
            due = inv._since_refresh + run >= refresh_every
            for _ in range(run):
                u, v = rng.choice(n - 1, size=2, replace=False)
                sketch.append(IncidenceRow(int(u), int(v),
                                           math.sqrt(rng.uniform(0.1, 10.0))))
            assert sketch._grounded_inverse() is inv
            assert_grounded(inv, sketch.gram)
            if run > _CATCH_UP:
                assert (inv.folds, inv.refreshes) == (folds, refreshes + 1)
            else:
                assert inv.folds == folds + run
                assert inv.refreshes == refreshes + (run > 0 and due)
            assert inv._since_refresh < refresh_every
        assert inv.refreshes > 0 and 0 < inv.drift < 1e-9

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=-6, max_value=15))
    @settings(max_examples=40, deadline=None)
    def test_block_and_rebuild_at_any_scale(self, seed, decade):
        # weights W * U(1, 2) for W = 10^decade: the inverse and the reads
        # are scale-free; a fresh build from the Gram matrix (a rebuild)
        # reads the same resistances and blocks
        rng = np.random.default_rng(seed)
        n, W = 7, 10.0 ** decade
        sketch = SpectralSketch(n)
        for _ in range(3 * _BLOCK):
            u, v = (int(x) for x in rng.choice(n - 1, size=2, replace=False))
            sketch.append(IncidenceRow(u, v, math.sqrt(W * rng.uniform(1, 2))))
            inv = sketch._grounded_inverse()
            assert_grounded(inv, sketch.gram)
        assert inv.folds == 3 * _BLOCK and inv.refreshes == 0
        built = _GroundedInverse(n)
        built.rebuild(sketch.gram)
        assert_grounded(built, sketch.gram)
        assert built.s == sketch.gram.diagonal().max()
        vs = np.flatnonzero(inv.labels == inv.labels[0])
        iu, iv = np.triu_indices(vs.size, 1)
        Gp = pseudo_inverse(sketch.gram / W)
        want = _resistance(Gp, vs[iu], vs[iv]) / W
        for got in (inv.resistance(vs[iu], vs[iv]),
                    built.resistance(vs[iu], vs[iv]),
                    _resistance(inv.block(vs, 1.0)[0], iu, iv),
                    _resistance(built.block(vs, 1.0)[0], iu, iv)):
            np.testing.assert_allclose(got, want, rtol=1e-9)
        assert inv.straddles((0, n - 1)) and built.straddles((0, n - 1))

    def test_refresh_records_drift(self):
        rng = np.random.default_rng(0)
        n = 10
        sketch = _sketch(n, 16)
        for _ in range(100):
            u, v = rng.choice(n, size=2, replace=False)
            sketch.append(IncidenceRow(int(u), int(v), rng.uniform(0.5, 2)))
            inv = sketch._grounded_inverse()
        assert inv.refreshes == 100 // 16
        assert 0 < inv.drift < 1e-10

    def test_append_leaves_the_inverse_alone(self):
        # appends only record and stamp; the rows wait for the next read
        sketch = SpectralSketch(4)
        inv = sketch._inverse
        for _ in range(_CATCH_UP + 1):
            sketch.append(IncidenceRow(0, 1, 1.0))
        assert inv.stats() == _GroundedInverse(4).stats()
        assert np.array_equal(inv.M, np.eye(4))
        assert sketch._grounded_inverse().resistance(0, 1) == \
               pytest.approx(1.0 / (_CATCH_UP + 1), rel=1e-12)


class TestLaplacian:
    def test_single_edge(self):
        g = Graph(2, [WeightedEdge(0, 1, 3.0)])
        assert np.array_equal(laplacian(g), [[3.0, -3.0], [-3.0, 3.0]])

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(0)
        g = random_connected(rng, 8)
        assert np.allclose(laplacian(g).sum(axis=1), 0.0)

    def test_incidence_gram_is_laplacian(self):
        rng = np.random.default_rng(1)
        g = random_connected(rng, 7)
        B = incidence_matrix(g)
        assert np.allclose(B.T @ B, laplacian(g))


class TestPseudoSolve:
    def test_unit_edge_potentials(self):
        # one unit edge, unit current: potentials (0.5, -0.5)
        g = Graph(2, [WeightedEdge(0, 1, 1.0)])
        x = pseudo_solve(laplacian(g), np.array([1.0, -1.0]))
        assert np.allclose(x, [0.5, -0.5])

    def test_projects_out_kernel(self):
        g = triangle()
        x = pseudo_solve(laplacian(g), np.array([1.0, -1.0, 0.0]))
        assert abs(x.sum()) < 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            pseudo_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))


class TestEffectiveResistance:
    def test_triangle_two_thirds(self):
        assert effective_resistance(triangle(), 0, 1) == pytest.approx(2 / 3, abs=1e-12)

    def test_path_resistances_add(self):
        # series circuit: r(0, k) = k for unit path
        g = path(5)
        for k in range(1, 5):
            assert effective_resistance(g, 0, k) == pytest.approx(k, abs=1e-9)

    def test_parallel_edges_halve(self):
        g = Graph(2, [WeightedEdge(0, 1, 1.0), WeightedEdge(0, 1, 1.0)])
        assert effective_resistance(g, 0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_disconnected_raises(self):
        g = Graph(4, [WeightedEdge(0, 1, 1.0), WeightedEdge(2, 3, 1.0)])
        with pytest.raises(DisconnectedError):
            effective_resistance(g, 0, 2)

    def test_same_vertex_zero(self):
        assert effective_resistance(triangle(), 1, 1) == 0.0


class TestLeverage:
    def test_bridge_has_leverage_one(self):
        g = path(4)
        for e in g.edges:
            assert leverage(g, e) == pytest.approx(1.0, abs=1e-12)

    def test_sum_is_rank(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_connected(rng, 9)
            assert leverages(g).sum() == pytest.approx(g.n - 1, abs=1e-8)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_sum_is_rank_property(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected(rng, int(rng.integers(3, 10)))
        assert leverages(g).sum() == pytest.approx(g.n - 1, abs=1e-8)

    def test_matches_per_edge_leverage(self):
        rng = np.random.default_rng(5)
        g = random_connected(rng, 6)
        all_levs = leverages(g)
        for i, e in enumerate(g.edges):
            assert all_levs[i] == pytest.approx(leverage(g, e), abs=1e-10)


class TestSketchAndRidge:
    """The sketch's Gram matrix, and the ridge-free leverages the samplers
    read from its grounded inverse."""

    def test_gram_matches_laplacian(self):
        rng = np.random.default_rng(3)
        g = random_connected(rng, 6)
        sk = SpectralSketch(6)
        for u, v, w in g.edges:
            sk.append(IncidenceRow(u, v, math.sqrt(w)))
        assert np.allclose(sk.gram, laplacian(g))

    def test_identical_rows_harmonic(self):
        # k identical unit rows: the resistance of the pair is 1/k
        sk = SpectralSketch(2)
        for _ in range(4):
            sk.append(IncidenceRow(0, 1, 1.0))
        assert sk._grounded_inverse().resistance(0, 1) == pytest.approx(0.25)

    @pytest.mark.parametrize("bad", [IncidenceRow(0, 1, math.nan),
                                     IncidenceRow(0, 1, math.inf),
                                     IncidenceRow(2, 2, 1.0),
                                     IncidenceRow(1, 4, 1.0)],
                             ids=["nan-scale", "inf-scale", "self-loop",
                                  "out-of-range"])
    def test_bad_append_changes_nothing(self, bad):
        good = [IncidenceRow(0, 1, 1.5), IncidenceRow(1, 2, 0.5)]
        sk, fresh = SpectralSketch(4), SpectralSketch(4)
        for sketch in (sk, fresh):
            for row in good:
                sketch.append(row)
            sketch._grounded_inverse()
        with pytest.raises(ValueError):
            sk.append(bad)
        assert sk.rows == fresh.rows
        assert np.array_equal(sk.gram, fresh.gram)
        a, b = sk._grounded_inverse(), fresh._grounded_inverse()
        assert np.array_equal(a.M, b.M) and np.array_equal(a._Y, b._Y)
        assert np.array_equal(a.labels, b.labels)
        assert a.stats() == b.stats() and a.s == b.s


class TestRayleighError:
    def test_exact_copy_zero(self):
        g = triangle()
        assert rayleigh_error(laplacian(g), laplacian(g)) == pytest.approx(0.0, abs=1e-10)

    def test_uniform_scaling(self):
        g = triangle()
        L = laplacian(g)
        assert rayleigh_error(L, 1.25 * L) == pytest.approx(0.25, abs=1e-9)
        assert rayleigh_error(L, 0.75 * L) == pytest.approx(0.25, abs=1e-9)

    def test_dropped_edge_scores_one(self):
        # a sparsifier missing all weight across some cut has error exactly 1
        g = path(3)
        missing = Graph(3, [WeightedEdge(0, 1, 1.0)])
        assert rayleigh_error(laplacian(g), laplacian(missing)) == pytest.approx(1.0, abs=1e-9)

    def test_kernel_mismatch(self):
        # the approximation spends energy outside the reference image
        ref = Graph(3, [WeightedEdge(0, 1, 1.0)])
        overreach = path(3)
        with pytest.raises(KernelMismatchError):
            rayleigh_error(laplacian(ref), laplacian(overreach))

    def test_bound_matches_quadratic_forms(self):
        rng = np.random.default_rng(11)
        g = random_connected(rng, 8)
        h = Graph(8, [WeightedEdge(e.u, e.v, e.w * float(rng.uniform(0.8, 1.2)))
                      for e in g.edges])
        err = rayleigh_error(laplacian(g), laplacian(h))
        L, Lh = laplacian(g), laplacian(h)
        for _ in range(50):
            x = rng.standard_normal(8)
            x -= x.mean()
            q = x @ L @ x
            assert abs(x @ Lh @ x - q) <= (err + 1e-9) * q


# Reference copies of the relative eigenvalue cutoff and the residual
# disconnection check, written out in full at every use; the library must
# match them bit for bit.
REF_EIG_TOL = 1e-10


def ref_pseudo_solve(L, b):
    vals, vecs = np.linalg.eigh(L)
    lam_max = vals[-1] if len(vals) else 0.0
    if lam_max <= 0:
        return np.zeros_like(np.asarray(b, dtype=float))
    keep = vals > REF_EIG_TOL * lam_max
    coeffs = vecs[:, keep].T @ b
    return vecs[:, keep] @ (coeffs / vals[keep])


def ref_pseudo_inverse(L):
    vals, vecs = np.linalg.eigh(np.asarray(L, dtype=float))
    lam_max = vals[-1] if len(vals) else 0.0
    if lam_max <= 0:
        return np.zeros_like(L)
    keep = vals > REF_EIG_TOL * lam_max
    return (vecs[:, keep] / vals[keep]) @ vecs[:, keep].T


def ref_rayleigh_error(L, L_hat):
    vals, vecs = np.linalg.eigh(L)
    lam_max = vals[-1] if len(vals) else 0.0
    if lam_max <= 0:
        if np.abs(L_hat).max(initial=0.0) > 1e-12:
            raise KernelMismatchError("reference Laplacian is zero but L_hat is not")
        return 0.0
    keep = vals > REF_EIG_TOL * lam_max
    V = vecs[:, keep]
    drop = vecs[:, ~keep]
    if drop.shape[1]:
        spill = np.linalg.norm(drop.T @ L_hat @ drop)
        if spill > 1e-8 * lam_max:
            raise KernelMismatchError("approximation has energy outside image(L)")
    scale = 1.0 / np.sqrt(vals[keep])
    D = (V * scale).T @ (L - L_hat) @ (V * scale)
    ev = np.linalg.eigvalsh((D + D.T) / 2.0)
    return float(np.abs(ev).max())


def ref_effective_resistance(L, u, v):
    if u == v:
        return 0.0
    d = np.zeros(L.shape[0])
    d[u], d[v] = 1.0, -1.0
    x = ref_pseudo_solve(L, d)
    if np.linalg.norm(L @ x - d) > 1e-6 * max(1.0, np.linalg.norm(d)):
        raise DisconnectedError("not connected")
    return float(d @ x)


def outcome(f, *args, **kwargs):
    """f's value, or the type of the library error it raised."""
    try:
        return f(*args, **kwargs)
    except (DisconnectedError, KernelMismatchError) as exc:
        return type(exc)


class TestSpectralCutoff:
    @given(split_laplacians(), st.integers(min_value=0, max_value=2**32 - 1),
           st.booleans(), st.integers(min_value=0, max_value=14))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_bit_for_bit(self, case, seed, overreach,
                                           decades):
        """Disconnected, all-zero and 1x1 Laplacians included: the shared
        cutoff and disconnection helpers change no bit of any result. One
        edge weight shrunk by up to 14 decades puts eigenvalues on both
        sides of the relative cutoff."""
        n, edges, us, vs = case
        if edges:
            edges[0] = edges[0]._replace(w=edges[0].w * 10.0 ** -decades)
        rng = np.random.default_rng(seed)
        g = Graph(n, edges)
        L = laplacian(g)
        assert np.array_equal(pseudo_inverse(L), ref_pseudo_inverse(L))
        b = rng.standard_normal(n)
        assert np.array_equal(pseudo_solve(L, b), ref_pseudo_solve(L, b))
        # a reweighted subset, plus one edge that may leave image(L)
        hat = [WeightedEdge(e.u, e.v, e.w * float(rng.uniform(0.5, 1.5)))
               for e in edges if rng.random() < 0.7]
        if overreach and n >= 2:
            a, c = rng.choice(n, size=2, replace=False)
            hat.append(WeightedEdge(int(a), int(c), 1.0))
        L_hat = laplacian(Graph(n, hat))
        assert (outcome(rayleigh_error, L, L_hat)
                == outcome(ref_rayleigh_error, L, L_hat))
        for u, v in zip(us.tolist(), vs.tolist()):
            assert (outcome(effective_resistance, g, u, v)
                    == outcome(ref_effective_resistance, L, u, v))
