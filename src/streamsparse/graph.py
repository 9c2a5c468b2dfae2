"""Weighted multigraphs, Laplacians, effective resistances, and the
generalized-eigenvalue error metric used throughout the package.

All dense linear algebra; intended for graphs with up to a few thousand
vertices. Vertices are 0-based contiguous integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class WeightedEdge(NamedTuple):
    u: int
    v: int
    w: float


class IncidenceRow(NamedTuple):
    """A scaled incidence row: as a dense vector, scale * (chi_u - chi_v)."""

    u: int
    v: int
    scale: float


def _check_row(row, n: int) -> None:
    """Raise ValueError unless row, an IncidenceRow or a WeightedEdge, has
    distinct endpoints in [0, n) and its scale or weight in (0, inf)."""
    u, v, scale = row
    if not (0 <= u < n and 0 <= v < n and u != v):
        raise ValueError(f"{row} is a self-loop or out of range for n={n}")
    if not 0 < scale < math.inf:
        raise ValueError(f"{row} needs a positive finite scale or weight")


def _check_vertices(e, n: int) -> None:
    """Raise ValueError unless every vertex of the hyperedge e, whose
    vertices are sorted, lies in [0, n)."""
    if e.vertices[0] < 0 or e.vertices[-1] >= n:
        raise ValueError(f"hyperedge {e.vertices} out of range for n={n}")


@dataclass
class Graph:
    """Weighted multigraph; edge order is stream arrival order."""

    n: int
    edges: list[WeightedEdge] = field(default_factory=list)

    def __post_init__(self):
        for e in self.edges:
            _check_row(e, self.n)

    @property
    def m(self) -> int:
        return len(self.edges)

    def add(self, u: int, v: int, w: float) -> None:
        e = WeightedEdge(u, v, float(w))
        _check_row(e, self.n)
        self.edges.append(e)


def _is_integer(x) -> bool:
    """True when x is a Python or numpy integer, not a bool or a float."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_block_size(block_size) -> None:
    """Raise ValueError unless block_size is an integer >= 1 (_is_integer)."""
    if not _is_integer(block_size) or block_size < 1:
        raise ValueError(f"block_size must be an integer >= 1, "
                         f"got {block_size!r}")


def _unchecked_graph(n: int, edges: list[WeightedEdge]) -> Graph:
    """A Graph over edges already known to be valid for n, built without
    the per-edge checks of Graph(...): for graphs made of edges that were
    checked on the way in, such as a tower's coresets and their union."""
    g = object.__new__(Graph)
    g.n = n
    g.edges = edges
    return g


class DisconnectedError(ValueError):
    """Raised when a pair of vertices lies in different components (the
    effective resistance would be infinite)."""


class KernelMismatchError(ValueError):
    """Raised by the error metric when the approximation has energy outside
    the image of the reference Laplacian."""


# -- the Laplacian kernel and the resistance gather ---------------------
# Every module builds Gram matrices and reads resistances through these.


def _stamp(G: np.ndarray, u: int, v: int, w: float) -> None:
    """Add the Laplacian of one edge (u, v, w) onto G in place."""
    G[u, u] += w
    G[v, v] += w
    G[u, v] -= w
    G[v, u] -= w


def _columns(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoint index arrays and weight array of a sequence of (u, v, w)."""
    a = np.fromiter(itertools.chain.from_iterable(edges), float).reshape(-1, 3)
    return a[:, 0].astype(np.intp), a[:, 1].astype(np.intp), a[:, 2]


def _edge_list(u, v, w) -> list[WeightedEdge]:
    """The edges (u[i], v[i], w[i]) of three columns, the inverse of
    _columns: Python ints and floats, the same values bit for bit."""
    # tuple.__new__ builds each edge in C, twice as fast as WeightedEdge(...)
    return list(map(tuple.__new__, itertools.repeat(WeightedEdge),
                    zip(u.tolist(), v.tolist(), w.tolist())))


_STAMP_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def _accumulate(G: np.ndarray, u, v, w) -> np.ndarray:
    """Add the Laplacians of the edges (u[i], v[i], w[i]) onto G in place
    and return G. The flat indices interleave edge by edge, so every cell
    receives its terms in edge order, exactly as repeated _stamp calls do."""
    if not G.flags.c_contiguous:
        raise ValueError("G must be C-contiguous (updates go through a flat view)")
    n = G.shape[0]
    idx = np.column_stack((u * (n + 1), v * (n + 1), u * n + v, v * n + u))
    vals = np.multiply.outer(w, _STAMP_SIGNS)
    np.add.at(G.reshape(-1), idx.ravel(), vals.ravel())
    return G


def _resistance(K: np.ndarray, u, v):
    """d_uv^T K d_uv for scalar or index-array endpoints."""
    return K[u, u] + K[v, v] - 2.0 * K[u, v]


def _components(G: np.ndarray) -> np.ndarray:
    """Component label of every vertex of the Laplacian G: the smallest
    vertex of its component. Read from the nonzero pattern by a frontier
    search; positive weights only ever make off-diagonal entries more
    negative, so no cancellation can hide an edge."""
    adj = G != 0
    labels = np.arange(adj.shape[0])
    todo = adj.any(axis=1)          # isolated vertices label themselves
    while todo.any():
        s = int(todo.argmax())
        comp = frontier = adj[s]
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~comp
            comp = comp | frontier
        labels[comp] = s
        todo &= ~comp
    return labels


_REFRESH_EVERY = 512   # folds between full refreshes of a maintained inverse
_BLOCK = 32            # pending rank-1 terms folded into M by one GEMM
_CATCH_UP = 16         # noted rows a catch-up folds; more rebuild it


class _GroundedInverse:
    """K = (G / s + Q)^{-1} for a growing Gram matrix G, with
    Q = sum_r e_r e_r^T grounding every component of G at one root vertex,
    component labels (each vertex's root; roots label themselves) and
    their count, and a scale s. For u, v in one component, d_uv^T K d_uv = s d_uv^T G^+ d_uv.

    This is the one place a Laplacian is grounded: the row sampler, hyperedge
    scoring, balancing, the reductions and the batch scores all read their
    resistances from one of these (a one-off one from _grounded_inverse_of
    when there is no stream to follow).

    The scale keeps the grounding next to the Gram's own entries: s is the
    first fold's weight, and is re-taken as the largest diagonal entry of G
    at every refresh and every build from a Gram matrix. G / s then has
    eigenvalues of order 1 or less, so Q never swamps them, whatever the
    unit of the weights.

    K is kept as M - Y Y^T, Y an n x _BLOCK block of pending rank-1 terms
    (delayed Sherman-Morrison). A fold of t d d^T inside a component
    appends the column sqrt(beta) z to Y, with z = K d and
    beta = (t / s) / (1 + (t / s) d^T z), in O(n * _BLOCK); a full Y folds
    into M by one GEMM. A fold joining two components first folds Y into M,
    then makes an exact rank-2 update that drops the smaller component's
    root. Readers go through resistance() and block(), never M alone.
    Every refresh_every folds, maybe_refresh recomputes M as inv(G / s + Q)
    and records the drift of the inverse it replaces.

    An owner whose Gram matrix grows (a SpectralSketch, a MergeReduceTree)
    keeps its inverse current by one rule: it notes each row it stamps onto
    G, marks a change of any other kind, and calls catch_up(G) only when a
    reader needs the inverse. Up to _CATCH_UP noted rows fold in, in order;
    more, or a marked change, are taken in by one rebuild from G.
    """

    def __init__(self, n: int):
        self.M = np.eye(n)                  # G = 0: every vertex a root
        self.labels = np.arange(n)
        self.components = n
        self.s = 0.0                        # unset until G has a row
        self._Y = np.zeros((n, _BLOCK))     # columns past _pending are zero
        self._pending = 0
        self._size = np.ones(n, dtype=np.intp)  # component size by root
        self._refresh_every = _REFRESH_EVERY
        self._since_refresh = 0
        self.folds = 0
        self.block_folds = 0
        self.joins = 0
        self.refreshes = 0
        self.drift = 0.0
        self._unread: list | None = []      # noted rows; None: rebuild

    # -- reads ---------------------------------------------------------

    def straddles(self, vertices) -> bool:
        """True when the vertices lie in more than one component."""
        if self.components == 1:
            return False
        labels = self.labels[list(vertices)]
        return bool((labels != labels[0]).any())

    def resistance(self, u, v):
        """d_uv^T G^+ d_uv for scalar or index-array endpoints, each pair
        inside one component: the gather of M minus |Y_u - Y_v|^2, over s.
        While G = 0 the scale is unset and K = I, so u == v reads 0."""
        r = _resistance(self.M, u, v)
        if self._pending:
            dy = self._Y[u] - self._Y[v]
            r = r - (dy @ dy if dy.ndim == 1 else (dy * dy).sum(axis=1))
        return r / self.s if self.s else r

    def block(self, vs: np.ndarray, unset_scale: float) -> tuple[np.ndarray, float]:
        """(S, s): S the vs x vs block of (G + s Q)^{-1} = K / s, s the
        inverse's scale, or unset_scale while G = 0 (then K = I). S is
        block diagonal, exactly zero across components; a pair inside one
        component reads its G^+ resistance from it."""
        s = self.s or unset_scale
        Yv = self._Y[vs, :self._pending]
        return (self.M[vs[:, None], vs] - Yv @ Yv.T) / s, s

    def stats(self) -> dict:
        """Rank-1 folds, block folds (one GEMM each, a full block or the
        partial one a join folds first), folds that joined two components,
        full recomputations (refreshes and builds from a Gram matrix), and
        drift, the largest max |K (G / s + Q) - I| measured just before a
        periodic refresh (0.0 before the first)."""
        return {"folds": self.folds, "block_folds": self.block_folds,
                "joins": self.joins, "refreshes": self.refreshes,
                "drift": self.drift}

    # -- updates -------------------------------------------------------

    def fold(self, u: int, v: int, t: float) -> None:
        """Fold t d d^T, d = e_u - e_v, into the inverse."""
        if not self.s:
            self.s = t
        t /= self.s
        M, Y, labels = self.M, self._Y, self.labels
        if self.components == 1 or labels[u] == labels[v]:
            z = M[:, u] - M[:, v]
            if self._pending:
                z -= Y @ (Y[u] - Y[v])
            Y[:, self._pending] = z * math.sqrt(t / (1.0 + t * (z[u] - z[v])))
            self._pending += 1
            if self._pending == _BLOCK:
                self._fold_block()
        else:
            # join: B = the smaller component, v in B; B's root b leaves Q.
            # M is block diagonal, M e_b = 1_B, and the new inverse is
            # M + z 1_B^T + 1_B z^T + c 1_B 1_B^T with c = M_uu + M_vv + 1/t
            if self._pending:
                self._fold_block()
            z = M[:, u] - M[:, v]
            a, b = labels[u], labels[v]
            if self._size[a] < self._size[b]:
                u, v, a, b, z = v, u, b, a, -z
            c = M[u, u] + M[v, v] + 1.0 / t
            B = np.flatnonzero(labels == b)
            M[:, B] += z[:, None]
            M[B] += z
            M[np.ix_(B, B)] += c
            labels[B] = a
            self._size[a] += self._size[b]
            self.components -= 1
            self.joins += 1
        self.folds += 1
        self._since_refresh += 1

    # -- following a growing Gram matrix -------------------------------

    def note(self, u: int, v: int, t: float) -> None:
        """Record that t d d^T, d = e_u - e_v, was stamped onto G since the
        last catch_up. Past _CATCH_UP rows, the next catch_up rebuilds."""
        unread = self._unread
        if unread is None:
            return
        if len(unread) < _CATCH_UP:
            unread.append((u, v, t))
        else:
            self._unread = None

    def note_rows(self, u, v, t) -> None:
        """note each row (u[i], v[i], t[i]) in order: they all stay noted,
        or, past _CATCH_UP rows, the next catch_up rebuilds."""
        unread = self._unread
        if unread is None:
            return
        if len(unread) + len(u) <= _CATCH_UP:
            unread.extend(zip(u, v, t))
        else:
            self._unread = None

    def mark_rebuild(self) -> None:
        """Record that G changed by more than noted rows: the next catch_up
        rebuilds."""
        self._unread = None

    def catch_up(self, G: np.ndarray) -> _GroundedInverse:
        """Take in the changes recorded since the last catch_up, G the Gram
        matrix now, and return self: fold the noted rows in order, then
        maybe_refresh, or rebuild(G) after a mark or too many rows."""
        if self._unread is None:
            self.rebuild(G)
            self._unread = []
        elif self._unread:
            for u, v, t in self._unread:
                self.fold(u, v, t)
            self._unread.clear()
            self.maybe_refresh(G)
        return self

    def _fold_block(self) -> None:
        Y = self._Y[:, :self._pending]
        self.M -= Y @ Y.T
        Y.fill(0.0)
        self._pending = 0
        self.block_folds += 1

    def maybe_refresh(self, G: np.ndarray) -> None:
        """Recompute the inverse from G, the Gram matrix of every row
        folded so far, when refresh_every folds have passed since the last
        recomputation; first record max |K (G / s + Q) - I|."""
        if self._since_refresh < self._refresh_every:
            return
        Y = self._Y[:, :self._pending]
        R = (self.M - Y @ Y.T) @ self._grounded(G) - np.eye(G.shape[0])
        self.drift = max(self.drift, float(np.abs(R).max()))
        self._recompute(G)

    def rebuild(self, G: np.ndarray) -> None:
        """Replace the inverse by the grounded inverse of the Gram matrix G,
        with labels read from G's nonzero pattern."""
        self.labels = _components(G)
        self._size = np.bincount(self.labels, minlength=G.shape[0])
        self.components = int(np.count_nonzero(self._size))
        self._recompute(G)

    def _grounded(self, G: np.ndarray) -> np.ndarray:
        """G / s + Q, for the current scale and roots."""
        A = G / self.s
        roots = np.flatnonzero(self.labels == np.arange(len(A)))
        A[roots, roots] += 1.0
        return A

    def _recompute(self, G: np.ndarray) -> None:
        self.s = float(G.diagonal().max(initial=0.0))
        self.M = np.linalg.inv(self._grounded(G)) if self.s else np.eye(len(G))
        self._Y.fill(0.0)
        self._pending = 0
        self._since_refresh = 0
        self.refreshes += 1


def _grounded_inverse_of(G: np.ndarray) -> _GroundedInverse:
    """A one-off grounded inverse of the Gram matrix G: labels read from
    G's nonzero pattern, s its largest diagonal entry."""
    inv = _GroundedInverse(len(G))
    inv.rebuild(G)
    return inv


def laplacian(g: Graph) -> np.ndarray:
    """Dense weighted Laplacian; multi-edges add up."""
    return _accumulate(np.zeros((g.n, g.n)), *_columns(g.edges))


# eigenvalues <= _EIG_TOL * lambda_max count as zero in every pseudo-inverse
_EIG_TOL = 1e-10


def _spectrum(L: np.ndarray):
    """eigh of the symmetric L, its largest eigenvalue lam_max (0.0 when L
    is empty), and the mask of the eigenvalues above the relative cutoff
    _EIG_TOL * lam_max, whose eigenvectors span image(L). Callers treat
    lam_max <= 0 as L = 0."""
    vals, vecs = np.linalg.eigh(L)
    lam_max = vals[-1] if len(vals) else 0.0
    return vals, vecs, lam_max, vals > _EIG_TOL * lam_max


def _image_form(L: np.ndarray, b: np.ndarray, message: str) -> float:
    """b^T L^+ b, raising DisconnectedError(message) when b has a residual
    outside image(L), i.e. when its endpoints straddle components."""
    x = pseudo_solve(L, b)
    if np.linalg.norm(L @ x - b) > 1e-6 * np.linalg.norm(b):
        raise DisconnectedError(message)
    return float(b @ x)


def pseudo_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b in the least-squares sense via eigendecomposition.

    Eigenvalues at or below the relative cutoff are dropped; the result is
    orthogonal to the dropped eigenspace.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("L must be square")
    if not np.allclose(L, L.T, atol=1e-8 * (1.0 + np.abs(L).max())):
        raise ValueError("L must be symmetric")
    vals, vecs, lam_max, keep = _spectrum(L)
    if lam_max <= 0:
        return np.zeros_like(np.asarray(b, dtype=float))
    coeffs = vecs[:, keep].T @ b
    return vecs[:, keep] @ (coeffs / vals[keep])


def pseudo_inverse(L: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the same cutoff as pseudo_solve."""
    vals, vecs, lam_max, keep = _spectrum(np.asarray(L, dtype=float))
    if lam_max <= 0:
        return np.zeros_like(L)
    return (vecs[:, keep] / vals[keep]) @ vecs[:, keep].T


def effective_resistance(g: Graph, u: int, v: int) -> float:
    """(chi_u - chi_v) L^+ (chi_u - chi_v)^T on g's Laplacian.

    Raises DisconnectedError if u and v are in different components.
    """
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    if u == v:
        return 0.0
    d = np.zeros(g.n)
    d[u], d[v] = 1.0, -1.0
    return _image_form(laplacian(g), d,
                       f"vertices {u} and {v} are not connected")


def leverage(g: Graph, e: WeightedEdge) -> float:
    """Leverage score of the incidence row of e: w(e) * effective resistance."""
    return e.w * effective_resistance(g, e.u, e.v)


def leverages(g: Graph) -> np.ndarray:
    """Leverage scores of all edges against the full graph, from one
    eigendecomposition (pseudo_inverse). The reference oracle: the
    reductions and the batch scores read a grounded inverse instead."""
    if g.m == 0:
        return np.zeros(0)
    Lp = pseudo_inverse(laplacian(g))
    u, v, w = _columns(g.edges)
    return w * _resistance(Lp, u, v)


class SpectralSketch:
    """A running set of rows held in weights, as edges (u, v, scale^2); their
    Gram matrix approximates a Laplacian and drives sampling probabilities.

    append only checks, records, stamps and notes a row. Resistances on the
    sketch are read from one grounded inverse of the Gram matrix
    (_GroundedInverse), which catches up on the noted rows only when
    _grounded_inverse() reads it."""

    def __init__(self, n: int):
        self.n = n
        self.rows: list[WeightedEdge] = []
        self._gram = np.zeros((n, n))
        self._inverse = _GroundedInverse(n)

    def _grounded_inverse(self) -> _GroundedInverse:
        """The grounded inverse with every row appended so far taken in."""
        return self._inverse.catch_up(self._gram)

    def append(self, row: IncidenceRow) -> None:
        """Add row as the edge (u, v, scale^2). A self-loop, an endpoint
        outside [0, n) or a scale outside (0, inf) raises ValueError first."""
        _check_row(row, self.n)
        u, v, s = row
        self._append(WeightedEdge(u, v, s * s))

    def _append(self, e: WeightedEdge) -> None:
        """Add an edge its caller has already checked."""
        self.rows.append(e)
        u, v, t = e
        _stamp(self._gram, u, v, t)
        self._inverse.note(u, v, t)

    def _extend(self, u, v, t) -> None:
        """_append each edge (u[i], v[i], t[i]) of three sequences of Python
        ints and floats its caller has already checked, in order: one
        rows.extend, one _accumulate, which adds as repeated stamps do, and
        one note_rows. The sketch ends as the appends leave it, bit for
        bit."""
        self.rows.extend(map(tuple.__new__, itertools.repeat(WeightedEdge),
                             zip(u, v, t)))
        _accumulate(self._gram, np.array(u, dtype=np.intp),
                    np.array(v, dtype=np.intp), np.array(t))
        self._inverse.note_rows(u, v, t)

    @property
    def gram(self) -> np.ndarray:
        """Symmetric PSD Gram matrix M^T M (ones vector in its kernel)."""
        return self._gram

    def __len__(self) -> int:
        return len(self.rows)


def rayleigh_error(L: np.ndarray, L_hat: np.ndarray) -> float:
    """Multiplicative sparsifier error: the largest magnitude of a
    generalized eigenvalue of the pencil (L - L_hat, L) restricted to
    image(L)."""
    L = np.asarray(L, dtype=float)
    L_hat = np.asarray(L_hat, dtype=float)
    vals, vecs, lam_max, keep = _spectrum(L)
    if lam_max <= 0:
        if np.abs(L_hat).max(initial=0.0) > 1e-12:
            raise KernelMismatchError("reference Laplacian is zero but L_hat is not")
        return 0.0
    V = vecs[:, keep]
    # image(L_hat) must sit inside image(L)
    drop = vecs[:, ~keep]
    if drop.shape[1]:
        spill = np.linalg.norm(drop.T @ L_hat @ drop)
        if spill > 1e-8 * lam_max:
            raise KernelMismatchError("approximation has energy outside image(L)")
    scale = 1.0 / np.sqrt(vals[keep])
    D = (V * scale).T @ (L - L_hat) @ (V * scale)
    ev = np.linalg.eigvalsh((D + D.T) / 2.0)
    return float(np.abs(ev).max())
