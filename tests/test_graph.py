import math

import numpy as np
import pytest

from graphspec import (
    Edge,
    GraphError,
    MetricGraph,
    PhaseAssignment,
    analyze,
    assign_tree_phases,
    build_graph,
    builtin,
    cut_vertex,
    cycle_basis,
    has_independent_cycles,
    interior_phase_residual,
    parse_qgf,
    tree_diameter,
)
from graphspec.generate import random_bipartite_graph, random_connected_graph, random_tree
from graphspec.graph import _search


def neighbours(g):
    """Per vertex, the incident (edge index, other vertex) pairs in edge order, a loop twice."""
    adj = [[] for _ in g.vertex_names]
    for i, e in enumerate(g.edges):
        adj[e.tail].append((i, e.head))
        adj[e.head].append((i, e.tail))
    return adj


def brute_force_cycles(g):
    """All simple cycles as frozensets of edge names, by walk enumeration."""
    cycles = set()
    adj = neighbours(g)

    def extend(start, v, used, first_edge):
        for ei, w in adj[v]:
            if ei in used:
                continue
            if ei < first_edge:
                continue  # canonical: smallest edge index first
            if w == start:
                cycles.add(frozenset(g.edges[i].name for i in used | {ei}))
                continue
            if any(g.edges[i].tail == w or g.edges[i].head == w for i in used if i != ei):
                continue
            extend(start, w, used | {ei}, first_edge)

    for ei, e in enumerate(g.edges):
        if e.tail == e.head:
            cycles.add(frozenset({e.name}))
        else:
            extend(e.tail, e.head, {ei}, ei)
    return cycles


# ---------------------------------------------------------------- build_graph


def test_single_interval():
    g = build_graph([("e1", "u", "v", 1.0)])
    assert g.num_vertices == 2 and g.num_edges == 1


def test_star_by_shared_label():
    g = build_graph([("e1", "a", "c", 1.0), ("e2", "b", "c", 1.0), ("e3", "d", "c", 1.0)])
    assert g.degrees["c"] == 3


def test_loop_counts_twice():
    g = build_graph([("e1", "v", "v", 2.0)])
    assert g.degrees["v"] == 2


def test_build_errors():
    with pytest.raises(GraphError):
        build_graph([])
    with pytest.raises(GraphError):
        build_graph([("e1", "a", "b", 1.0), ("e1", "b", "c", 1.0)])
    with pytest.raises(GraphError):
        build_graph([("e1", "a", "b", -1.0)])
    with pytest.raises(GraphError):
        build_graph([("e1", "a", "b", math.inf)])


# -------------------------------------------------------------------- analyze


def test_analyze_triangle():
    a = analyze(builtin("cycle", 1, 1, 1))
    assert not a.bipartite and a.betti == 1 and not a.boundary


def test_analyze_lasso():
    a = analyze(builtin("lasso", 2, 1))
    assert a.bipartite and a.betti == 1 and a.boundary == frozenset({"v1"})


def test_analyze_tree():
    g = builtin("path", 1, 2, 3)
    a = analyze(g)
    assert a.betti == 0
    assert a.bridge_edges == frozenset(e.name for e in g.edges)
    assert a.doubly_connected_length == 0.0


def test_analyze_loop_not_bipartite():
    a = analyze(builtin("cycle", 2.0))
    assert not a.bipartite and a.betti == 1


def test_doubly_connected_pure_cycle():
    g = builtin("cycle", 1, 2, 3)
    assert analyze(g).doubly_connected_length == pytest.approx(6.0)


# ---------------------------------------------------------------- cycle basis


def test_cycle_basis_tree_empty():
    assert cycle_basis(builtin("star", 4, 1)).fundamental_cycles == ()


def test_cycle_basis_loop():
    cb = cycle_basis(builtin("cycle", 1.0))
    assert len(cb.fundamental_cycles) == 1
    assert len(cb.fundamental_cycles[0]) == 1


def test_cycle_basis_4cycle_matches_brute_force():
    g = builtin("cycle", 1, 1, 1, 1)
    cb = cycle_basis(g)
    assert len(cb.fundamental_cycles) == 1
    edge_set = frozenset(n for n, _ in cb.fundamental_cycles[0])
    assert edge_set in brute_force_cycles(g)
    assert len(edge_set) == 4


def test_cycle_basis_closed_walks():
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = random_connected_graph(rng, int(rng.integers(2, 7)))
        a = analyze(g)
        cb = cycle_basis(g)
        assert len(cb.fundamental_cycles) == a.betti
        for cyc in cb.fundamental_cycles:
            # traversal must return to its starting vertex
            idx = {e.name: i for i, e in enumerate(g.edges)}
            pos = None
            start = None
            for name, sign in cyc:
                e = g.edges[idx[name]]
                frm, to = (e.tail, e.head) if sign == 1 else (e.head, e.tail)
                if pos is None:
                    start = frm
                else:
                    assert frm == pos
                pos = to
            assert pos == start


def test_cycle_basis_disconnected_rejected():
    g = build_graph([("e1", "a", "b", 1.0), ("e2", "c", "d", 1.0)])
    with pytest.raises(GraphError):
        cycle_basis(g)


# ------------------------------------------------------- independent cycles


def test_figure_eight_independent():
    g = build_graph([("l1", "v", "v", 1.0), ("l2", "v", "v", 1.0)])
    assert has_independent_cycles(g)


def test_theta_not_independent():
    g = build_graph([("e1", "a", "b", 1.0), ("e2", "a", "b", 1.0), ("e3", "a", "b", 1.0)])
    assert not has_independent_cycles(g)
    # brute force: every edge lies on two of the three cycles
    cycles = brute_force_cycles(g)
    assert len(cycles) == 3
    for e in ("e1", "e2", "e3"):
        assert sum(1 for c in cycles if e in c) == 2


def test_lasso_independent():
    assert has_independent_cycles(builtin("lasso", 2, 1))


# ----------------------------------------------------------------- cut_vertex


def test_cut_loop_to_interval():
    g = builtin("cycle", 2.0)
    g2 = cut_vertex(g, "v0", ([("e1", 0)], [("e1", 1)]))
    a2 = analyze(g2)
    assert a2.betti == 0 and a2.connected
    assert g2.total_length == pytest.approx(2.0)


def test_cut_lasso_junction_disconnects():
    g = builtin("lasso", 2, 1)
    # separate the tail endpoint from the two cycle endpoints at the junction j
    g2 = cut_vertex(g, "j", ([("tail", 1)], [("loop_a", 0), ("loop_b", 1)]))
    a2 = analyze(g2)
    assert a2.component_count == 2
    assert a2.betti == 1  # the cycle survives


def test_cut_4cycle_opens():
    g = builtin("cycle", 1, 1, 1, 1)
    g2 = cut_vertex(g, "v0", ([("e1", 0)], [("e4", 1)]))
    assert analyze(g2).betti == 0


def test_cut_invariants_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = random_connected_graph(rng, int(rng.integers(2, 8)))
        a = analyze(g)
        # pick a vertex of degree >= 2 and a random split
        cands = [v for v, d in g.degrees.items() if d >= 2]
        v = cands[int(rng.integers(0, len(cands)))]
        eps = [
            (g.edges[i].name, end)
            for i, end in g.endpoints_of_vertex[g.vertex_index(v)]
        ]
        cutpoint = int(rng.integers(1, len(eps)))
        g2 = cut_vertex(g, v, (eps[:cutpoint], eps[cutpoint:]))
        a2 = analyze(g2)
        assert g2.num_edges == g.num_edges
        assert g2.total_length == pytest.approx(g.total_length)
        # Euler relation: beta = E - V + C with one extra vertex after the cut
        assert a2.betti - a2.component_count == a.betti - a.component_count - 1


def test_cut_errors():
    g = builtin("star", 3, 1)
    with pytest.raises(GraphError):
        cut_vertex(g, "v1", ([("e1", 1)], []))
    with pytest.raises(GraphError):
        cut_vertex(g, "c", ([("e1", 0)], []))


def test_duplicate_vertex_names_refused():
    with pytest.raises(GraphError, match="duplicate vertex name 'a'"):
        MetricGraph(edges=(Edge("e1", 0, 1, 1.0),), vertex_names=("a", "a"))
    # cutting a names its halves a.1 and a.2, and a.1 is taken
    g = build_graph([("e1", "a", "b", 1.0), ("e2", "a", "c", 1.0), ("e3", "a", "a.1", 1.0)])
    with pytest.raises(GraphError, match="duplicate vertex name 'a.1'"):
        cut_vertex(g, "a", ([("e1", 0)], [("e2", 0), ("e3", 0)]))


# -------------------------------------------------------------- tree diameter


def test_tree_diameter_path():
    assert tree_diameter(builtin("path", 1, 2)) == pytest.approx(3.0)


def test_tree_diameter_star():
    assert tree_diameter(builtin("star", 3, 1)) == pytest.approx(2.0)


def test_tree_diameter_random_vs_all_pairs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 10)), extra_edges=0)
        adj = neighbours(g)

        def dist_from(src):
            d = {src: 0.0}
            stack = [src]
            while stack:
                x = stack.pop()
                for ei, w in adj[x]:
                    if w not in d:
                        d[w] = d[x] + g.edges[ei].length
                        stack.append(w)
            return d

        best = max(max(dist_from(v).values()) for v in range(g.num_vertices))
        assert tree_diameter(g) == pytest.approx(best)


def test_tree_diameter_rejects_cycles():
    with pytest.raises(GraphError):
        tree_diameter(builtin("cycle", 1, 1, 1))


# ------------------------------------------------------------------- builtins


def test_builtin_star_is_paper_example():
    g = builtin("star", 3, 1)
    assert g.num_edges == 3 and g.degrees["c"] == 3


def test_builtin_cycle_lengths():
    g = builtin("cycle", 5, 3, 2, 2)
    assert [e.length for e in g.edges] == [5, 3, 2, 2]
    assert analyze(g).betti == 1


def test_builtin_dumbbell():
    g = builtin("dumbbell", 6, 1)
    a = analyze(g)
    assert a.betti == 2
    assert g.total_length == pytest.approx(6.0)


def test_builtin_complete_bipartite():
    g = builtin("complete_bipartite", 2, 3, 1)
    a = analyze(g)
    assert a.bipartite and g.num_edges == 6 and a.betti == 6 - 5 + 1


def test_builtin_errors():
    with pytest.raises(GraphError):
        builtin("star", 0, 1)
    with pytest.raises(GraphError):
        builtin("nope", 1)


def test_builtin_one_edge_graphs():
    # the cycle of one edge is a loop, from the general cycle formula
    assert builtin("cycle", 2.0).edges == (Edge("e1", 0, 0, 2.0),)
    assert builtin("complete_bipartite", 1, 1, 0.5) == build_graph([("e1_1", "a1", "b1", 0.5)])


@pytest.mark.parametrize(
    "params,edge",
    [
        (("path", 1, -1), "e2"),
        (("cycle", 1, math.nan), "e2"),
        (("star", 3, 0), "e1"),
        (("lasso", 0, 1), "loop_a"),
        (("dumbbell", 2, 1), "handle"),
        (("complete_bipartite", 2, 2, math.inf), "e1_1"),
    ],
)
def test_builtin_bad_length_names_its_edge(params, edge):
    with pytest.raises(GraphError, match=f"edge '{edge}' has nonpositive or non-finite length"):
        builtin(*params)


@pytest.mark.parametrize("params", [("path",), ("cycle",), ("star", 3), ("lasso", 1, 2, 3)])
def test_builtin_wrong_parameter_count(params):
    with pytest.raises(GraphError, match=f"{params[0]} needs"):
        builtin(*params)


@pytest.mark.parametrize(
    "params",
    [
        ("star", 100_001, 1),
        ("complete_bipartite", 317, 316, 1),
    ],
)
def test_builtin_edge_count_is_bounded(params):
    # one edge above graph._MAX_BUILTIN_EDGES, refused before any declaration is built
    with pytest.raises(GraphError, match="<= 100000 edges"):
        builtin(*params)


@pytest.mark.parametrize(
    "params",
    [
        ("star", math.inf, 1),
        ("star", math.nan, 1),
        ("complete_bipartite", math.inf, 1, 1),
        ("complete_bipartite", 1, math.nan, 1),
    ],
)
def test_builtin_non_finite_count_is_a_graph_error(params):
    # int() would raise OverflowError or ValueError on these
    with pytest.raises(GraphError, match="needs integer"):
        builtin(*params)


# ----------------------------------------------------------------- properties


def test_betti_identity_random():
    rng = np.random.default_rng(21)
    for _ in range(50):
        g = random_connected_graph(rng, int(rng.integers(1, 13)))
        a = analyze(g)
        assert a.betti == g.num_edges - g.num_vertices + 1


def _component_count(num_vertices, edges):
    """Connected components by union-find over (tail, head) pairs."""
    root = list(range(num_vertices))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b in edges:
        root[find(a)] = find(b)
    return len({find(v) for v in range(num_vertices)})


def test_bridges_match_brute_force_on_multigraphs():
    # loops, parallel edges and several components; an edge is a bridge
    # exactly when removing it raises the number of components
    rng = np.random.default_rng(24)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        decls = []
        for i in range(int(rng.integers(1, 10))):
            a = int(rng.integers(0, n))
            b = a if rng.random() < 0.15 else int(rng.integers(0, n))
            decls.append((f"e{i}", f"v{a}", f"v{b}", 1.0))
            if rng.random() < 0.15:
                decls.append((f"p{i}", f"v{a}", f"v{b}", 2.0))
        g = build_graph(decls)
        ends = [(e.tail, e.head) for e in g.edges]
        whole = _component_count(g.num_vertices, ends)
        want = {
            e.name for i, e in enumerate(g.edges)
            if _component_count(g.num_vertices, ends[:i] + ends[i + 1 :]) > whole
        }
        assert analyze(g).bridge_edges == want


def _subset_cycles(g):
    """Every cycle as a set of edge indices, by enumerating edge subsets.

    A subset is a cycle when it is connected and each vertex it touches has
    degree 2 in it, a loop counting 2.
    """
    cycles = []
    for mask in range(1, 1 << g.num_edges):
        sub = [i for i in range(g.num_edges) if mask >> i & 1]
        degree = {}
        for i in sub:
            for v in (g.edges[i].tail, g.edges[i].head):
                degree[v] = degree.get(v, 0) + 1
        if any(d != 2 for d in degree.values()):
            continue
        ends = [(g.edges[i].tail, g.edges[i].head) for i in sub]
        untouched = g.num_vertices - len(degree)
        if _component_count(g.num_vertices, ends) - untouched == 1:
            cycles.append(set(sub))
    return cycles


def test_independent_cycles_match_brute_force_on_multigraphs():
    # loops, parallel edges and several components; the property holds
    # exactly when no edge lies on two of the enumerated cycles
    rng = np.random.default_rng(25)
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 8))
        decls = []
        while len(decls) < m:
            a = int(rng.integers(0, n))
            b = a if rng.random() < 0.15 else int(rng.integers(0, n))
            decls.append((f"e{len(decls)}", f"v{a}", f"v{b}", 1.0))
            if rng.random() < 0.15:
                decls.append((f"e{len(decls)}", f"v{a}", f"v{b}", 2.0))
        g = build_graph(decls[:m])
        on_cycles = [i for c in _subset_cycles(g) for i in c]
        want = len(on_cycles) == len(set(on_cycles))
        assert has_independent_cycles(g) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def _multigraph(rng, n, m):
    """m edges on n vertices, each a loop with chance 0.15 and followed by a parallel edge with chance 0.15."""
    decls = []
    while len(decls) < m:
        a = int(rng.integers(0, n))
        b = a if rng.random() < 0.15 else int(rng.integers(0, n))
        decls.append((f"e{len(decls)}", f"v{a}", f"v{b}", float(rng.uniform(0.5, 2.0))))
        if rng.random() < 0.15:
            decls.append((f"e{len(decls)}", f"v{a}", f"v{b}", float(rng.uniform(0.5, 2.0))))
    return build_graph(decls)


def _search_on(adj, roots=()):
    """Breadth-first forest over the neighbour lists adj, as _search documents it."""
    seen, order, head = [False] * len(adj), [], 0
    for r in [*roots, *range(len(adj))]:
        if seen[r]:
            continue
        seen[r] = True
        order.append((r, -1, -1))
        while head < len(order):
            v = order[head][0]
            head += 1
            for ei, w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    order.append((w, v, ei))
    return order


def test_search_and_phases_follow_edge_order_neighbours():
    # the walks read the other end of each endpoint from g.edges: the order of
    # neighbours() in edge order, a loop twice, whatever the loops and parallel edges
    rng = np.random.default_rng(26)
    saw_loop = saw_parallel = False
    for _ in range(100):
        g = _multigraph(rng, int(rng.integers(1, 7)), int(rng.integers(1, 12)))
        adj = neighbours(g)
        saw_loop |= any(e.tail == e.head for e in g.edges)
        saw_parallel |= len({(e.tail, e.head) for e in g.edges}) < g.num_edges
        roots = [int(rng.integers(0, g.num_vertices))]
        assert _search(g) == _search_on(adj)
        assert _search(g, roots) == _search_on(adj, roots)
        phases = {e.name: float(rng.uniform(0.0, 2.0 * math.pi)) for e in g.edges}
        boundary = analyze(g).boundary
        want = max(
            (abs(sum(np.exp(1j * phases[g.edges[ei].name]) for ei, _ in adj[v]))
             for v, name in enumerate(g.vertex_names) if name not in boundary),
            default=0.0,
        )
        assert interior_phase_residual(g, PhaseAssignment(phases)) == pytest.approx(want, abs=1e-12)
    assert saw_loop and saw_parallel
    for _ in range(50):
        g = random_tree(rng, int(rng.integers(1, 12)))
        adj = neighbours(g)
        order = _search_on(adj, [g.vertex_index(sorted(analyze(g).boundary)[0])])
        want = {g.edges[order[1][2]].name: 0.0}
        for v, _, in_edge in order[1:]:
            others = [ei for ei, _ in adj[v] if ei != in_edge]
            for j, ei in enumerate(others, start=1):
                want[g.edges[ei].name] = (want[g.edges[in_edge].name] + 2.0 * math.pi * j / len(adj[v])) % (2.0 * math.pi)
        assert assign_tree_phases(g).phases == want


def test_loops_are_not_bridges():
    assert analyze(builtin("cycle", 2.0)).bridge_edges == frozenset()
    assert analyze(builtin("dumbbell", 5.0, 1.0)).bridge_edges == {"handle"}


def test_bipartite_matches_cycle_parity_random():
    rng = np.random.default_rng(22)
    for _ in range(200):
        g = random_connected_graph(rng, int(rng.integers(1, 13)))
        a = analyze(g)
        parity_ok = all(
            len(c) % 2 == 0 for c in cycle_basis(g).fundamental_cycles
        )
        assert a.bipartite == parity_ok


def test_bipartition_separates_edges():
    rng = np.random.default_rng(23)
    for _ in range(50):
        g = random_connected_graph(rng, int(rng.integers(1, 10)))
        a = analyze(g)
        if not a.bipartite:
            continue
        first, second = a.bipartition
        for e in g.edges:
            names = {g.vertex_names[e.tail], g.vertex_names[e.head]}
            assert names & first and names & second


def test_random_bipartite_graph_has_every_chord():
    # 150 chords: the generator stopped at 100 and returned 250 edges
    g = random_bipartite_graph(np.random.default_rng(0), 300, extra_edges=150)
    a = analyze(g)
    assert g.num_edges == 300 and a.connected and a.bipartite and a.betti == 150


# ------------------------------------------------------------------------ QGF


def test_qgf_roundtrip():
    text = """
    # lasso graph
    edge tail v1 j 1.0
    edge loop_a j m 1.0
    edge loop_b m j 1.0
    """
    g = parse_qgf(text)
    a = analyze(g)
    assert a.bipartite and a.betti == 1


def test_qgf_errors():
    with pytest.raises(GraphError):
        parse_qgf("edge e1 a b\n")
    with pytest.raises(GraphError):
        parse_qgf("edge e1 a b xx\n")
    with pytest.raises(GraphError):
        parse_qgf("vertex v\n")
