"""Combinatorial and metric model of a compact metric graph.

A metric graph is a finite set of edges (intervals of positive length)
glued at vertices.  Each vertex is an equivalence class of edge
endpoints; loops and parallel edges are allowed.  Loops count twice
toward the degree of their vertex.

All structure (components, the 2-colouring, the Betti number, cycle
bases, bridges, independent cycles and tree distances) comes from one
breadth-first spanning-forest search, ``_search``, and the fundamental
cycles of its non-tree edges.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

__all__ = [
    "Edge",
    "MetricGraph",
    "GraphAnalysis",
    "CycleBasis",
    "GraphError",
    "build_graph",
    "analyze",
    "cycle_basis",
    "has_independent_cycles",
    "cut_vertex",
    "tree_diameter",
    "builtin",
    "parse_qgf",
    "load_qgf",
]


class GraphError(ValueError):
    """Raised for structurally invalid graphs or graph operations."""


@dataclass(frozen=True)
class Edge:
    """An edge parametrized by arclength from its tail (x=0) to its head (x=L)."""

    name: str
    tail: int
    head: int
    length: float


@dataclass(frozen=True)
class MetricGraph:
    """Immutable metric graph; vertices are referenced by index or by their unique name."""

    edges: tuple[Edge, ...]
    vertex_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.edges:
            raise GraphError("a metric graph needs at least one edge")
        for kind, names in (("edge", [e.name for e in self.edges]), ("vertex", self.vertex_names)):
            if len(set(names)) < len(names):
                dup = next(n for n, c in Counter(names).items() if c > 1)
                raise GraphError(f"duplicate {kind} name {dup!r}")
        for e in self.edges:
            if not (math.isfinite(e.length) and e.length > 0):
                raise GraphError(f"edge {e.name!r} has nonpositive or non-finite length")
            if not (0 <= e.tail < len(self.vertex_names) and 0 <= e.head < len(self.vertex_names)):
                raise GraphError(f"edge {e.name!r} references an unknown vertex")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_names)

    @property
    def total_length(self) -> float:
        return sum(e.length for e in self.edges)

    @cached_property
    def lengths(self) -> tuple[float, ...]:
        return tuple(e.length for e in self.edges)

    @cached_property
    def endpoints_of_vertex(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, the incident endpoints as sorted (edge_index, end) pairs.

        ``end`` is 0 for the tail (x=0) and 1 for the head (x=L); a loop
        contributes both its endpoints to the same vertex.
        """
        buckets: list[list[tuple[int, int]]] = [[] for _ in self.vertex_names]
        for i, e in enumerate(self.edges):
            buckets[e.tail].append((i, 0))
            buckets[e.head].append((i, 1))
        return tuple(tuple(sorted(b)) for b in buckets)

    def degree(self, v: int) -> int:
        return len(self.endpoints_of_vertex[v])

    @cached_property
    def degrees(self) -> dict[str, int]:
        return {name: self.degree(i) for i, name in enumerate(self.vertex_names)}

    def vertex_index(self, name: str) -> int:
        try:
            return self.vertex_names.index(name)
        except ValueError:
            raise GraphError(f"unknown vertex {name!r}") from None

    def edge_index(self, name: str) -> int:
        for i, e in enumerate(self.edges):
            if e.name == name:
                return i
        raise GraphError(f"unknown edge {name!r}")

    @cached_property
    def _systems(self) -> dict:
        """Secular systems compiled on this graph object, by the value of their conditions (``ConditionSpec._value``), each with the spectrum it solved: filled and read by ``secular``."""
        return {}

    @cached_property
    def _cuts(self) -> dict:
        """Graphs cut from this graph object, by vertex and endpoint parts: filled and read by ``theorems``."""
        return {}


@dataclass(frozen=True)
class GraphAnalysis:
    """Structural facts about a metric graph used by the spectral theory."""

    connected: bool
    component_count: int
    bipartite: bool
    bipartition: tuple[frozenset[str], frozenset[str]] | None
    betti: int
    boundary: frozenset[str]
    bridge_edges: frozenset[str]
    doubly_connected_length: float


@dataclass(frozen=True)
class CycleBasis:
    """The fundamental cycles of the edges off a spanning tree.

    Each cycle is an ordered closed walk of (edge_name, sign) pairs where
    sign +1 means the edge is traversed from tail to head.
    """

    fundamental_cycles: tuple[tuple[tuple[str, int], ...], ...]


def build_graph(edge_declarations: Sequence[tuple[str, str, str, float]]) -> MetricGraph:
    """Build a metric graph from (name, label_a, label_b, length) declarations.

    Vertices are the equivalence classes of shared labels, numbered in
    order of first appearance.  Loops (label_a == label_b) and parallel
    edges are permitted.
    """
    labels: dict[str, int] = {}
    edges = []
    for name, a, b, length in edge_declarations:
        for lab in (a, b):
            if lab not in labels:
                labels[lab] = len(labels)
        edges.append(Edge(name=str(name), tail=labels[a], head=labels[b], length=float(length)))
    return MetricGraph(edges=tuple(edges), vertex_names=tuple(labels))


def _search(g: MetricGraph, roots: Iterable[int] = ()) -> list[tuple[int, int, int]]:
    """Breadth-first spanning forest as (vertex, parent, parent edge) in visiting order.

    Trees grow from ``roots`` first, then from each unvisited vertex in
    index order; a root has parent and parent edge -1.  Neighbours are
    visited in the order of ``endpoints_of_vertex``, the other end of each
    endpoint read from its edge: edge order, a loop's vertex twice.
    """
    seen = [False] * g.num_vertices
    order: list[tuple[int, int, int]] = []
    head = 0
    for r in itertools.chain(roots, range(g.num_vertices)):
        if seen[r]:
            continue
        seen[r] = True
        order.append((r, -1, -1))
        while head < len(order):
            v = order[head][0]
            head += 1
            for ei, end in g.endpoints_of_vertex[v]:
                w = g.edges[ei].head if end == 0 else g.edges[ei].tail
                if not seen[w]:
                    seen[w] = True
                    order.append((w, v, ei))
    return order


def _fundamental_cycles(
    g: MetricGraph, order: list[tuple[int, int, int]]
) -> list[tuple[tuple[int, int], ...]]:
    """One signed closed walk of (edge index, sign) per edge off the forest ``order``.

    Sign +1 means the edge is traversed from tail to head.  The walk takes
    the chord from tail to head, climbs from the head to the lowest common
    ancestor and descends to the tail.  Cycles come in edge order.
    """
    parent = [(-1, -1)] * g.num_vertices
    for v, p, pe in order:
        parent[v] = (p, pe)
    tree = {pe for _, _, pe in order}

    def path_to_root(v: int) -> list[tuple[int, int]]:
        # list of (edge index, sign) walking from v toward the root
        out = []
        while parent[v][0] >= 0:
            p, ei = parent[v]
            e = g.edges[ei]
            sign = -1 if e.tail == p else 1  # traversed child -> parent
            out.append((ei, sign))
            v = p
        return out

    cycles = []
    for ci, e in enumerate(g.edges):
        if ci in tree:
            continue
        pa = path_to_root(e.tail)
        pb = path_to_root(e.head)
        # strip the common suffix up to the lowest common ancestor
        while pa and pb and pa[-1][0] == pb[-1][0]:
            pa.pop()
            pb.pop()
        walk: list[tuple[int, int]] = [(ci, 1)]
        walk.extend(pb)
        walk.extend((ei, -s) for ei, s in reversed(pa))
        cycles.append(tuple(walk))
    return cycles


def analyze(g: MetricGraph) -> GraphAnalysis:
    """Connectivity, bipartiteness, Betti number, boundary and bridge structure."""
    order = _search(g)
    ncomp = sum(1 for _, p, _ in order if p < 0)
    # 2-colouring by depth parity; a loop joins a colour to itself
    color = [0] * g.num_vertices
    for v, p, _ in order:
        if p >= 0:
            color[v] = 1 - color[p]
    bipartite = all(color[e.tail] != color[e.head] for e in g.edges)
    betti = g.num_edges - g.num_vertices + ncomp
    boundary = frozenset(n for i, n in enumerate(g.vertex_names) if g.degree(i) == 1)
    # a bridge is an edge on no cycle, hence on no fundamental cycle
    on_cycle = {ei for cyc in _fundamental_cycles(g, order) for ei, _ in cyc}
    bridge_edges = frozenset(e.name for i, e in enumerate(g.edges) if i not in on_cycle)
    dc_length = sum(e.length for i, e in enumerate(g.edges) if i in on_cycle)
    bipartition = None
    if bipartite:
        bipartition = (
            frozenset(n for i, n in enumerate(g.vertex_names) if color[i] == 0),
            frozenset(n for i, n in enumerate(g.vertex_names) if color[i] == 1),
        )
    return GraphAnalysis(
        connected=(ncomp == 1),
        component_count=ncomp,
        bipartite=bipartite,
        bipartition=bipartition,
        betti=betti,
        boundary=boundary,
        bridge_edges=bridge_edges,
        doubly_connected_length=dc_length,
    )


def cycle_basis(g: MetricGraph) -> CycleBasis:
    """One signed cycle per edge off the breadth-first spanning tree from vertex 0."""
    order = _search(g)
    if any(p < 0 for _, p, _ in order[1:]):
        raise GraphError("cycle basis requires a connected graph")
    return CycleBasis(
        fundamental_cycles=tuple(
            tuple((g.edges[ei].name, s) for ei, s in cyc) for cyc in _fundamental_cycles(g, order)
        ),
    )


def has_independent_cycles(g: MetricGraph) -> bool:
    """True iff no edge lies on two distinct cycles.

    Every cycle is the sum of the fundamental cycles of its chords, and a
    simple cycle is not a union of two or more edge-disjoint cycles, so
    this holds iff the fundamental cycles are pairwise edge-disjoint.
    """
    edges = [ei for cyc in _fundamental_cycles(g, _search(g)) for ei, _ in cyc]
    return len(edges) == len(set(edges))


def cut_vertex(
    g: MetricGraph,
    v: str,
    split: tuple[Iterable[tuple[str, int]], Iterable[tuple[str, int]]],
) -> MetricGraph:
    """Chop vertex ``v`` into two vertices along a partition of its endpoints.

    Each endpoint is given as (edge_name, end) with end 0 for the tail and
    1 for the head.  Edge lengths are unchanged; the result may be
    disconnected.
    """
    vi = g.vertex_index(v)
    if g.degree(vi) < 2:
        raise GraphError(f"cannot cut degree-1 vertex {v!r}")
    part_a = {(g.edge_index(n), e) for n, e in split[0]}
    part_b = {(g.edge_index(n), e) for n, e in split[1]}
    if not part_a or not part_b:
        raise GraphError("both parts of the split must be nonempty")
    here = set(g.endpoints_of_vertex[vi])
    if part_a & part_b or part_a | part_b != here:
        raise GraphError(f"split is not a partition of the endpoints of {v!r}")

    # the vertices after v move down one index, and v.1, v.2 come last
    names = (*g.vertex_names[:vi], *g.vertex_names[vi + 1 :], f"{v}.1", f"{v}.2")
    ia = g.num_vertices - 1

    def new_vertex(edge_idx: int, end: int, old: int) -> int:
        if old != vi:
            return old - (old > vi)
        return ia if (edge_idx, end) in part_a else ia + 1

    edges = tuple(
        Edge(e.name, new_vertex(i, 0, e.tail), new_vertex(i, 1, e.head), e.length)
        for i, e in enumerate(g.edges)
    )
    return MetricGraph(edges=edges, vertex_names=names)


def tree_diameter(g: MetricGraph) -> float:
    """Metric diameter of a connected tree (max distance between boundary vertices)."""
    a = analyze(g)
    if not (a.connected and a.betti == 0):
        raise GraphError("tree_diameter requires a connected tree")

    def farthest(src: int) -> tuple[int, float]:
        dist = [0.0] * g.num_vertices
        for v, p, pe in _search(g, (src,))[1:]:
            dist[v] = dist[p] + g.edges[pe].length
        far = max(range(g.num_vertices), key=lambda i: dist[i])
        return far, dist[far]

    u, _ = farthest(0)
    _, d = farthest(u)
    return d


# a builtin's integer counts multiply to its edge count, and the cost is linear in
# it: building and analysing star:100000,1 took 1.4 s and 130 MB on 2 x86-64 CPUs
_MAX_BUILTIN_EDGES = 100_000

# name -> (its parameters as builtin-list prints them, "..." for one or more lengths;
# how many leading parameters are integer counts; its edge declarations)
_BUILTINS = {
    "path": ("l1,l2,...", 0, lambda *ls: [
        (f"e{i+1}", f"v{i}", f"v{i+1}", x) for i, x in enumerate(ls)
    ]),
    "star": ("m,length", 1, lambda m, x: [(f"e{i+1}", "c", f"v{i+1}", x) for i in range(m)]),
    "cycle": ("l1,l2,...", 0, lambda *ls: [
        (f"e{i+1}", f"v{i}", f"v{(i+1) % len(ls)}", x) for i, x in enumerate(ls)
    ]),
    # a tail plus a two-edge cycle, which keeps the graph bipartite
    "lasso": ("loop_length,tail_length", 0, lambda loop, tail: [
        ("tail", "v1", "j", tail),
        ("loop_a", "j", "m", loop / 2),
        ("loop_b", "m", "j", loop / 2),
    ]),
    "dumbbell": ("total_length,loop_length", 0, lambda total, loop: [
        ("loop_l", "a", "a", loop),
        ("handle", "a", "b", total - 2 * loop),
        ("loop_r", "b", "b", loop),
    ]),
    "complete_bipartite": ("m,n,length", 2, lambda m, n, x: [
        (f"e{i+1}_{j+1}", f"a{i+1}", f"b{j+1}", x) for i in range(m) for j in range(n)
    ]),
}


def builtin(name: str, *params: float) -> MetricGraph:
    """Construct the example graph ``name`` of ``_BUILTINS`` from its parameters.

    Its counts must be finite integers of at least 1, whose product is at most
    ``_MAX_BUILTIN_EDGES``; ``MetricGraph`` refuses a length that is not
    positive and finite, naming its edge.
    """
    if name not in _BUILTINS:
        raise GraphError(f"unknown builtin graph {name!r}")
    shape, n_counts, declarations = _BUILTINS[name]
    wanted = shape.split(",")
    if (not params) if wanted[-1] == "..." else len(params) != len(wanted):
        raise GraphError(f"{name} needs ({', '.join(wanted)})")
    counts = params[:n_counts]
    # nan and inf are refused before int(), which raises on them
    if not all(c >= 1 and float(c).is_integer() for c in counts):
        raise GraphError(f"{name} needs integer {', '.join(wanted[:n_counts])} >= 1")
    if math.prod(counts) > _MAX_BUILTIN_EDGES:
        raise GraphError(f"{name} needs {' * '.join(wanted[:n_counts])} <= {_MAX_BUILTIN_EDGES} edges")
    return build_graph(declarations(*map(int, counts), *params[n_counts:]))


def parse_qgf(text: str) -> MetricGraph:
    """Parse the QGF text format: ``edge <name> <vertexA> <vertexB> <length>`` per line."""
    decls = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] != "edge" or len(tok) != 5:
            raise GraphError(f"QGF line {lineno}: expected 'edge <name> <vA> <vB> <length>'")
        try:
            length = float(tok[4])
        except ValueError:
            raise GraphError(f"QGF line {lineno}: bad length {tok[4]!r}") from None
        decls.append((tok[1], tok[2], tok[3], length))
    return build_graph(decls)


def load_qgf(path: str) -> MetricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_qgf(fh.read())
