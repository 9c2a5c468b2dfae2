"""Text formats: edge lists, hyperedge lists, and SNAP pair files.

Edge list: one edge per line, "u v w". Hyperedge list: "w k v1 v2 ... vk".
SNAP: whitespace vertex pairs with arbitrary labels; weights are drawn
U(1, 10) from a seed at load time. '#' starts a comment in all formats.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph, WeightedEdge
from .hypergraph import Hyperedge, Hypergraph


class ParseError(ValueError):
    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


def _data_lines(path):
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def load_edge_list(path) -> Graph:
    """Parse "u v w" lines; n is the largest vertex + 1."""
    edges = []
    top = -1
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(path, lineno, f"expected 'u v w', got {line!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        if u < 0 or v < 0:
            raise ParseError(path, lineno, "negative vertex label")
        if u == v:
            raise ParseError(path, lineno, f"self-loop at vertex {u}")
        if not 0 < w < math.inf:
            raise ParseError(path, lineno, "weight must be positive and finite")
        edges.append(WeightedEdge(u, v, w))
        top = max(top, u, v)
    if top < 0:
        raise ParseError(path, 0, "no edges found")
    return Graph(top + 1, edges)


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w") as fh:
        write_edges(g, fh)


def write_edges(g: Graph, fh) -> None:
    """Write g's edges to the open text file fh as "u v w" lines, each
    weight as the shortest text that reads back to it bit for bit."""
    for u, v, w in g.edges:
        fh.write(f"{u} {v} {float(w)!r}\n")


def load_hyperedge_list(path) -> Hypergraph:
    """Parse "w k v1 v2 ... vk" lines; n is the largest vertex + 1."""
    hyperedges = []
    top = -1
    for lineno, line in _data_lines(path):
        parts = line.split()
        try:
            w = float(parts[0])
            k = int(parts[1])
            verts = [int(p) for p in parts[2:]]
        except (ValueError, IndexError) as exc:
            raise ParseError(path, lineno, str(exc)) from None
        if len(verts) != k:
            raise ParseError(
                path, lineno, f"declared {k} vertices, found {len(verts)}")
        if any(x < 0 for x in verts):
            raise ParseError(path, lineno, "negative vertex label")
        try:
            hyperedges.append(Hyperedge(tuple(verts), w))
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        top = max(top, *verts)
    if top < 0:
        raise ParseError(path, 0, "no hyperedges found")
    return Hypergraph(top + 1, hyperedges)


def save_hyperedge_list(h: Hypergraph, path) -> None:
    with open(path, "w") as fh:
        for e in h.hyperedges:
            fh.write(f"{e.w!r} {e.size} " + " ".join(map(str, e.vertices)) + "\n")


def load_snap(path, seed: int = 0) -> Graph:
    """SNAP pair format: "a b" per line with arbitrary labels, remapped to
    0..n-1 in first-seen order; each edge gets a U(1, 10) weight."""
    labels: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected 'u v', got {line!r}")
        uv = []
        for p in parts:
            if p not in labels:
                labels[p] = len(labels)
            uv.append(labels[p])
        if uv[0] == uv[1]:
            raise ParseError(path, lineno, "self-loop")
        pairs.append((uv[0], uv[1]))
    if not pairs:
        raise ParseError(path, 0, "no edges found")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(1.0, 10.0, size=len(pairs))
    edges = [WeightedEdge(u, v, float(w)) for (u, v), w in zip(pairs, weights)]
    return Graph(len(labels), edges)
