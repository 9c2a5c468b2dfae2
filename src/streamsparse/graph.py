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

    def dense(self, n: int) -> np.ndarray:
        a = np.zeros(n)
        a[self.u] = self.scale
        a[self.v] = -self.scale
        return a


@dataclass
class Graph:
    """Weighted multigraph; edge order is stream arrival order."""

    n: int
    edges: list[WeightedEdge] = field(default_factory=list)

    def __post_init__(self):
        for e in self.edges:
            if e.u == e.v:
                raise ValueError(f"self-loop at vertex {e.u}")
            if not (0 <= e.u < self.n and 0 <= e.v < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            if not 0 < e.w < math.inf:
                raise ValueError(f"weight must be positive and finite in {e}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def add(self, u: int, v: int, w: float) -> None:
        e = WeightedEdge(u, v, float(w))
        if (u == v or not (0 <= u < self.n and 0 <= v < self.n)
                or not 0 < w < math.inf):
            raise ValueError(f"bad edge {e}")
        self.edges.append(e)


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


def _resistance_solve(G: np.ndarray, u, v) -> tuple[np.ndarray, np.ndarray]:
    """d_uv^T G^+ d_uv for index arrays u, v on the Laplacian G, without an
    eigendecomposition, and a mask of the pairs that straddle components.

    P = sum_k 1_Ck 1_Ck^T / |Ck| projects onto ker G, so G + P is
    nonsingular and G^+ = (G + P)^{-1} - P. One solve on the distinct
    endpoint columns gives every entry the gather reads. A straddling pair
    gets the pseudo-inverse value G^+_uu + G^+_vv, since G^+_uv = 0.
    """
    labels = _components(G)
    same = labels[:, None] == labels[None, :]
    P = same / np.bincount(labels)[labels][:, None]
    cols, idx = np.unique(np.concatenate((u, v)), return_inverse=True)
    E = np.zeros((G.shape[0], cols.size))
    E[cols, np.arange(cols.size)] = 1.0
    K = np.linalg.solve(G + P, E)[cols] - P[np.ix_(cols, cols)]
    return _resistance(K, idx[:len(u)], idx[len(u):]), labels[u] != labels[v]


_REFRESH_EVERY = 512   # folds between full refreshes of a maintained inverse


class _GroundedInverse:
    """M = (G + Q)^{-1} for the Gram matrix G of a growing SpectralSketch,
    with Q = sum_r e_r e_r^T grounding every component of G at one root
    vertex, plus component labels (each vertex's root; roots label
    themselves). For u, v in one component, d_uv^T M d_uv = d_uv^T G^+ d_uv,
    so a resistance is an O(1) gather _resistance(M, u, v).

    sync() folds the sketch rows appended since the last call, in order:
    a row inside a component is a Sherman-Morrison update, a row joining
    two components an exact rank-2 update that drops the smaller one's
    root. A sync that brings the folds since the last refresh to
    refresh_every ends by recomputing M as inv(G + Q).
    """

    def __init__(self, n: int, refresh_every: int):
        self.M = np.eye(n)                  # G = 0: every vertex a root
        self.labels = np.arange(n)
        self._size = np.ones(n, dtype=np.intp)  # component size by root
        self._refresh_every = refresh_every
        self._since_refresh = 0
        self.folds = 0
        self.joins = 0
        self.refreshes = 0
        self.drift = 0.0

    def straddles(self, vertices) -> bool:
        """True when the vertices lie in more than one component."""
        labels = self.labels[list(vertices)]
        return bool((labels != labels[0]).any())

    def sync(self, sketch: SpectralSketch) -> None:
        for u, v, s in sketch.rows[self.folds:]:
            self._fold(u, v, s * s)
        if self._since_refresh >= self._refresh_every:
            self._refresh(sketch.gram)

    def _fold(self, u: int, v: int, t: float) -> None:
        """Fold t d d^T, d = e_u - e_v, into M."""
        M, labels = self.M, self.labels
        z = M[:, u] - M[:, v]
        a, b = labels[u], labels[v]
        if a == b:
            M -= (t / (1.0 + t * (z[u] - z[v]))) * np.outer(z, z)
        else:
            # join: B = the smaller component, v in B; B's root b leaves Q.
            # M is block diagonal, M e_b = 1_B, and the new inverse is
            # M + z 1_B^T + 1_B z^T + c 1_B 1_B^T with c = M_uu + M_vv + 1/t
            if self._size[a] < self._size[b]:
                u, v, a, b, z = v, u, b, a, -z
            c = M[u, u] + M[v, v] + 1.0 / t
            B = np.flatnonzero(labels == b)
            M[:, B] += z[:, None]
            M[B] += z
            M[np.ix_(B, B)] += c
            labels[B] = a
            self._size[a] += self._size[b]
            self.joins += 1
        self.folds += 1
        self._since_refresh += 1

    def _refresh(self, G: np.ndarray) -> None:
        """Recompute M from G, first recording max |M (G + Q) - I|."""
        n = G.shape[0]
        A = G + np.diag((self.labels == np.arange(n)).astype(float))
        self.drift = max(self.drift, float(np.abs(self.M @ A - np.eye(n)).max()))
        self.M = np.linalg.inv(A)
        self._since_refresh = 0
        self.refreshes += 1


def laplacian(g: Graph) -> np.ndarray:
    """Dense weighted Laplacian; multi-edges add up."""
    return _accumulate(np.zeros((g.n, g.n)), *_columns(g.edges))


def incidence_matrix(g: Graph) -> np.ndarray:
    """Rows sqrt(w)*(chi_u - chi_v) in arrival order; L = A^T A."""
    A = np.zeros((g.m, g.n))
    for i, e in enumerate(g.edges):
        A[i, e.u] = math.sqrt(e.w)
        A[i, e.v] = -math.sqrt(e.w)
    return A


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
    """Leverage scores of all edges against the full graph, one solve."""
    if g.m == 0:
        return np.zeros(0)
    Lp = pseudo_inverse(laplacian(g))
    u, v, w = _columns(g.edges)
    return w * _resistance(Lp, u, v)


class SpectralSketch:
    """A running set of reweighted incidence rows; the Gram matrix of the
    rows approximates a Laplacian and drives sampling probabilities.

    Resistances on the sketch are read from one grounded inverse of the Gram
    matrix (_GroundedInverse), built on the first _grounded_inverse() call
    and brought up to date by every later one."""

    def __init__(self, n: int):
        self.n = n
        self.rows: list[IncidenceRow] = []
        self._gram = np.zeros((n, n))
        self._inverse: _GroundedInverse | None = None

    def _grounded_inverse(self) -> _GroundedInverse:
        """The grounded inverse with every row appended so far folded in."""
        if self._inverse is None:
            self._inverse = _GroundedInverse(self.n, _REFRESH_EVERY)
        self._inverse.sync(self)
        return self._inverse

    def append(self, row: IncidenceRow) -> None:
        if row.scale <= 0:
            raise ValueError("row scale must be positive")
        self.rows.append(row)
        u, v, s = row
        _stamp(self._gram, u, v, s * s)

    @property
    def gram(self) -> np.ndarray:
        """Symmetric PSD Gram matrix M^T M (ones vector in its kernel)."""
        return self._gram

    def __len__(self) -> int:
        return len(self.rows)


def ridge_leverage(sketch: SpectralSketch, row: IncidenceRow, lam: float) -> float:
    """a^T (M^T M + lam I)^{-1} a for the dense vector a of row.

    lam = 0 falls back to the pseudoinverse and requires a to lie in the
    image of the Gram matrix.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    a = row.dense(sketch.n)
    G = sketch.gram
    if lam > 0:
        x = np.linalg.solve(G + lam * np.eye(sketch.n), a)
        return float(a @ x)
    return _image_form(
        G, a, "lam = 0 requires the row to lie in the image of the sketch")


def rayleigh_error(L: np.ndarray, L_hat: np.ndarray,
                   two_sided: bool = True) -> float:
    """Multiplicative sparsifier error: the extreme generalized eigenvalue of
    the pencil (L - L_hat, L) restricted to image(L).

    two_sided=True (default) returns the largest magnitude; False returns the
    largest (signed) eigenvalue only.
    """
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
    if two_sided:
        return float(np.abs(ev).max())
    return float(ev.max())
