"""Seeded random graph generators for cross-checks and property tests."""
from __future__ import annotations

import numpy as np

from .graph import MetricGraph, analyze, build_graph

__all__ = [
    "random_tree",
    "random_connected_graph",
    "random_bipartite_graph",
    "random_equilateral_graph",
]


def _lengths(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    return rng.uniform(lo, hi, size=n)


def random_tree(rng: np.random.Generator, num_edges: int, lo: float = 0.5, hi: float = 2.0) -> MetricGraph:
    """Uniform random attachment tree with ``num_edges`` edges."""
    lengths = _lengths(rng, num_edges, lo, hi)
    decls = [("e1", "v0", "v1", float(lengths[0]))]
    for i in range(1, num_edges):
        attach = int(rng.integers(0, i + 1))
        decls.append((f"e{i+1}", f"v{attach}", f"v{i+1}", float(lengths[i])))
    return build_graph(decls)


def _tree_and_chords(rng, num_edges, lo, hi, extra_edges):
    """A random tree as edge declarations, and the number of chords that make ``num_edges`` edges with it."""
    if extra_edges is None:
        extra_edges = int(rng.integers(0, max(1, num_edges // 2) + 1))
    extra_edges = min(extra_edges, max(0, num_edges - 1))
    g = random_tree(rng, num_edges - extra_edges, lo, hi)
    decls = [(e.name, g.vertex_names[e.tail], g.vertex_names[e.head], e.length) for e in g.edges]
    return g, decls, extra_edges


def random_connected_graph(
    rng: np.random.Generator,
    num_edges: int,
    lo: float = 0.5,
    hi: float = 2.0,
    extra_edges: int | None = None,
) -> MetricGraph:
    """Random connected multigraph: a random tree plus random chords."""
    g, decls, extra_edges = _tree_and_chords(rng, num_edges, lo, hi, extra_edges)
    nv = g.num_vertices
    for j in range(extra_edges):
        u = int(rng.integers(0, nv))
        w = int(rng.integers(0, nv))
        decls.append((f"c{j+1}", f"v{u}", f"v{w}", float(rng.uniform(lo, hi))))
    return build_graph(decls)


def random_bipartite_graph(
    rng: np.random.Generator,
    num_edges: int,
    lo: float = 0.5,
    hi: float = 2.0,
    extra_edges: int | None = None,
) -> MetricGraph:
    """Random connected bipartite multigraph: tree plus chords between opposite colours."""
    g, decls, extra_edges = _tree_and_chords(rng, num_edges, lo, hi, extra_edges)
    # the tree has an edge, so both colours are nonempty
    color_a, color_b = (sorted(c) for c in analyze(g).bipartition)
    for j in range(extra_edges):
        u = color_a[int(rng.integers(0, len(color_a)))]
        w = color_b[int(rng.integers(0, len(color_b)))]
        decls.append((f"c{j+1}", u, w, float(rng.uniform(lo, hi))))
    return build_graph(decls)


def random_equilateral_graph(rng: np.random.Generator, num_edges: int) -> MetricGraph:
    """Random connected multigraph with unit-length edges and no loops.

    Loops are excluded because the equilateral transfer oracle does not
    cover them.
    """
    g = random_connected_graph(rng, num_edges, lo=1.0, hi=1.0)
    while any(e.tail == e.head for e in g.edges):
        g = random_connected_graph(rng, num_edges, lo=1.0, hi=1.0)
    return g
