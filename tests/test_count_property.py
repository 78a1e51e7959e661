"""The solver's eigenvalue count against the bond-scattering eigenphase count and the finite-element oracle."""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402

from graphspec import (  # noqa: E402
    ALL_DIRICHLET,
    ANTI_STANDARD,
    STANDARD,
    ConditionKind,
    ConditionSpec,
    SecularSystem,
    analyze,
    anti_standard_neumann,
    build_graph,
    builtin,
    condition_rows,
    dual,
    find_spectrum,
    finite_difference_spectrum,
    solve_zero_modes,
    spectrum_values,
    standard_dirichlet,
)
from graphspec import secular  # noqa: E402
from graphspec.generate import (  # noqa: E402
    random_bipartite_graph,
    random_connected_graph,
    random_equilateral_graph,
    random_tree,
)

KINDS = ["st", "ast", "dir", "neu", "stD", "astN", "scinv"]
PI = math.pi


def _spec(kind, g, rng):
    """The spec of a kind on g; the mixed kinds take the first boundary vertex as B."""
    boundary = sorted(analyze(g).boundary)[:1]
    if kind == "scinv":
        # a random orthonormal X+ of random dimension at each vertex
        subspaces = {}
        for name, deg in g.degrees.items():
            q, _ = np.linalg.qr(rng.standard_normal((deg, deg)))
            subspaces[name] = q[:, : int(rng.integers(0, deg + 1))].T.copy()
        return ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces=subspaces)
    return {
        "st": STANDARD,
        "ast": ANTI_STANDARD,
        "dir": ALL_DIRICHLET,
        "neu": dual(ALL_DIRICHLET, g),
        "stD": standard_dirichlet(boundary),
        "astN": anti_standard_neumann(boundary),
    }[kind]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=hs.integers(0, 2**32 - 1), edges=hs.integers(1, 6), kind=hs.sampled_from(KINDS))
# the 30 drawn examples need not hold every kind; these make sure the mixed ones run
@example(seed=5, edges=5, kind="astN")
@example(seed=1, edges=5, kind="stD")
# one short edge, where the oracle's zero mode comes out at 1.37e-9
@example(seed=19030, edges=1, kind="st")
def test_count_matches_finite_elements(seed, edges, kind):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, edges)
    assume(kind not in ("stD", "astN") or analyze(g).boundary)
    spec = _spec(kind, g, rng)
    # 2000 elements in all keep the oracle's relative error below about 1e-4 here
    rho = 2000.0 / g.total_length
    fd = finite_difference_spectrum(g, spec, rho, 8)
    # cut the window in the widest gap of the oracle's first 8 roots
    fd_k = np.sqrt(fd)
    j = int(np.argmax(np.diff(fd_k)))
    k_cut = 0.5 * (fd_k[j] + fd_k[j + 1])
    assume(fd_k[j + 1] - fd_k[j] > 1e-3 * k_cut)
    s = find_spectrum(g, spec, k_cut**2)
    assert s.total_count() == j + 1
    zero_dim, _ = solve_zero_modes(g, spec)
    assert zero_dim + SecularSystem(g, spec).count(k_cut)[0] == j + 1
    # the P1 pencil's largest eigenvalue is about 12 rho^2, and shift-invert
    # leaves a zero mode about eps times that away from 0
    zero_abs = np.finfo(float).eps * 12.0 * rho**2
    for got, want in zip(s.values(), fd):
        assert got == pytest.approx(want, rel=1e-3, abs=zero_abs)


def eigenphase_count(g, spec, ks):
    """Eigenvalues in (0, k] from the eigenphases of the bond-scattering matrix, for each k > 0.

    ``U(k) = S J diag(e^{ikL})`` on the 2E edge ends (Kottos & Smilansky
    1999), with ``S = I - 2 P_V`` the reflection in the span of the value
    rows and J the swap of the ends of each edge, has eigenvalue 1 with
    multiplicity m exactly at an eigenvalue k of multiplicity m.  Its
    eigenphases turn counterclockwise as k grows, so with phases in
    [0, 2 pi) the count is ``(sum theta(0+) + 2 k L_total - sum theta(k)) / 2 pi``.
    """
    size = 2 * g.num_edges
    val = np.zeros((size, size))
    r = 0
    for vi, name in enumerate(g.vertex_names):
        eps = g.endpoints_of_vertex[vi]
        rows = condition_rows(name, len(eps), spec).value_rows
        val[r : r + len(rows), [2 * n + end for n, end in eps]] = rows
        r += len(rows)
    sj = (np.eye(size) - 2.0 * val.T @ val)[:, np.arange(size) ^ 1]
    w = np.linalg.eigvals(sj)
    # eigenphases of SJ at 1 leave phase 0 upwards as k grows from 0
    phase0 = np.sum(np.where(np.abs(w - 1.0) < 1e-8, 0.0, np.angle(w) % (2 * math.pi)))
    ks = np.asarray(ks, dtype=float).reshape(-1)
    u = sj * np.exp(1j * ks[:, None] * np.repeat(g.lengths, 2))[:, None, :]
    theta = np.angle(np.linalg.eigvals(u)) % (2 * math.pi)
    n = (phase0 + 2.0 * g.total_length * ks - theta.sum(axis=1)) / (2 * math.pi)
    assert np.all(np.abs(n - np.rint(n)) < 1e-6), n
    # a phase that has left 0 by less than its rounding (k near 1e-15) can
    # wrap to 2 pi and make the count negative
    return np.maximum(np.rint(n), 0).astype(int)


def _kinds_on(g):
    return [kind for kind in KINDS if kind not in ("stD", "astN") or analyze(g).boundary]


@pytest.mark.parametrize("kind", KINDS)
def test_count_matches_eigenphase_count(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    for _ in range(12):
        g = random_connected_graph(rng, int(rng.integers(1, 9)))
        if kind not in _kinds_on(g):
            continue
        spec = _spec(kind, g, rng)
        ks = rng.uniform(0.05, 25.0, 10)
        assert SecularSystem(g, spec).count(ks).tolist() == eigenphase_count(g, spec, ks).tolist()


# unit edges put the Dirichlet poles of every edge on multiples of pi; the
# rational cycle adds edges whose x = k L sits on pi / 2 and 3 pi / 2 there
POLE_GRAPHS = {
    "cycle4": builtin("cycle", 1, 1, 1, 1),
    "star3": builtin("star", 3, 1),
    "lasso": builtin("lasso", 2, 1),
    "K221": builtin("complete_bipartite", 2, 2, 1),
    "rational_cycle4": builtin("cycle", 1.0, 0.5, 1.5, 2.0),
}


@pytest.mark.parametrize("name", POLE_GRAPHS)
def test_count_near_poles_matches_eigenphase_count(name):
    g = POLE_GRAPHS[name]
    delta = np.array([1e-4, 1e-8, 1e-11, 1e-13])
    ks = np.outer([PI / 2, PI, 2 * PI, 3 * PI], np.concatenate((1 - delta, 1 + delta))).reshape(-1)
    for kind in _kinds_on(g):
        spec = _spec(kind, g, np.random.default_rng(0))
        assert SecularSystem(g, spec).count(ks).tolist() == eigenphase_count(g, spec, ks).tolist(), kind


@pytest.mark.parametrize("name", POLE_GRAPHS)
def test_count_on_a_pole_lies_between_its_neighbours(name):
    # at k = m pi / L_e edge e's symmetric or antisymmetric DtN mode is
    # infinite: its border entry psi is 0 up to rounding, of either sign
    g = POLE_GRAPHS[name]
    poles = np.outer(np.arange(1, 4) * PI, 1.0 / np.unique(g.lengths)).reshape(-1)
    for kind in _kinds_on(g):
        system = SecularSystem(g, _spec(kind, g, np.random.default_rng(0)))
        below, at, above = (system.count(poles * f) for f in (1 - 1e-13, 1.0, 1 + 1e-13))
        assert np.all((below <= at) & (at <= above)), kind


def test_count_is_zero_at_tiny_k():
    rng = np.random.default_rng(7)
    graphs = list(POLE_GRAPHS.values()) + [random_connected_graph(rng, e) for e in range(1, 9)]
    for g in graphs:
        for kind in _kinds_on(g):
            counts = SecularSystem(g, _spec(kind, g, rng)).count([1e-20, 1e-15, 1e-10])
            assert counts.tolist() == [0, 0, 0], kind


@pytest.mark.parametrize("kind", KINDS)
def test_fixed_mode_eigenvalues_fall_across_a_quarter_turn(kind):
    # with each edge's mode kept as at the midpoint, B is smooth and
    # decreasing in k across a quarter turn of the longest edge: its sorted
    # eigenvalues fall, and those that cross zero are the count's roots
    rng = np.random.default_rng(100 + KINDS.index(kind))
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(1, 9)))
        if kind not in _kinds_on(g):
            continue
        system = SecularSystem(g, _spec(kind, g, rng))
        lo = rng.uniform(0.05, 25.0)
        hi = lo + 0.5 * PI / max(g.lengths)
        ks = np.linspace(lo, hi, 41)
        w = system.dtn_eigenvalues(ks, np.full_like(ks, 0.5 * (lo + hi)))
        assert np.all(np.diff(w, axis=0) < 0), kind
        negative = np.count_nonzero(w < 0, axis=1)
        assert negative[-1] - negative[0] == system.count(hi)[0] - system.count(lo)[0], kind


# an eigenvalue of the all-bordered B within this of 0 puts k at a root up to
# rounding, where the count docstring lets rounding decide
_AT_A_ROOT = 1e-13


def _shortened(rng, num_edges):
    """A random connected graph with one to three edges shortened by a factor of 1e-2 to 1e-8."""
    g = random_connected_graph(rng, num_edges)
    lengths = list(g.lengths)
    for e in rng.choice(num_edges, size=min(num_edges, int(rng.integers(1, 4))), replace=False):
        lengths[e] *= 10.0 ** -int(rng.integers(2, 9))
    names = g.vertex_names
    return build_graph([(e.name, names[e.tail], names[e.head], L) for e, L in zip(g.edges, lengths)])


COUNT_FAMILIES = {
    "tree": random_tree,
    "connected": random_connected_graph,
    "bipartite": random_bipartite_graph,
    "equilateral": random_equilateral_graph,
    "shortened": _shortened,
}


@pytest.mark.parametrize("family", COUNT_FAMILIES)
def test_count_agrees_with_the_all_bordered_matrix(family):
    # count borders only the edges near a pole and eliminates the others; its
    # inertia must be that of B with every edge bordered (dtn_eigenvalues) on
    # its own side, near every pole, around every root and at tiny k: on X+
    # sum_e (j_e - 1) + n_-(B(f)), on X- sum_e (j_e + 1) - n_+(B(f))
    rng = np.random.default_rng(list(COUNT_FAMILIES).index(family))
    deltas = 10.0 ** -np.array([3, 5, 7, 9, 11, 12, 13, 14])
    kinds = ["st", "ast", "neu", "stD", "astN", "scinv"]
    points = 0
    for num_edges in range(1, 21):
        g = COUNT_FAMILIES[family](rng, num_edges)
        # four of the six kinds in turn, so that each meets many sizes and shapes
        for kind in (kinds[(num_edges + i) % len(kinds)] for i in range(4)):
            if kind not in _kinds_on(g):
                continue
            spec = _spec(kind, g, rng)
            system = SecularSystem(g, spec)
            if system.decoupled:
                continue
            roots = np.unique(np.sqrt(spectrum_values(g, spec, num_edges + 4)))
            roots = roots[roots > 0]
            top = 1.05 * roots[-1]
            poles = np.unique([m * PI / L for L in g.lengths for m in range(1, math.floor(top * L / PI) + 1)])
            half = 0.5 * secular._CLUSTER_REL
            ks = np.concatenate(
                (
                    rng.uniform(0.0, top, 20),
                    np.outer(poles, np.concatenate((1 - deltas, 1 + deltas))).ravel(),
                    np.outer(roots, [1 - half, 1 + half, 1 - 1e-9, 1 + 1e-9]).ravel(),
                    roots[0] * 10.0 ** -np.arange(1, 11),
                )
            )
            ks = ks[ks > 0]
            w = system.dtn_eigenvalues(ks)
            far = np.abs(w).min(axis=1) > _AT_A_ROOT
            ks, w = ks[far], w[far]
            j = np.rint(ks[:, None] * system.lengths / PI)
            if system._on_minus:
                bordered = (j + 1).sum(axis=1) - np.count_nonzero(w > 0, axis=1)
            else:
                bordered = (j - 1).sum(axis=1) + np.count_nonzero(w < 0, axis=1)
            bordered = np.maximum(bordered - system.nullity, 0)
            assert system.count(ks).tolist() == bordered.astype(int).tolist(), (num_edges, kind)
            points += len(ks)
    assert points > 5000


def test_count_borders_no_edge_far_from_its_poles(monkeypatch):
    # at k where no edge is near a pole, every edge is eliminated and each
    # eigvalsh is on matrices of order r (the vertices, under st), not r + E
    rng = np.random.default_rng(32)
    g = random_connected_graph(rng, 32)
    candidates = rng.uniform(1.0, 30.0, 2000)
    x = candidates[:, None] * np.array(g.lengths) / PI
    ks = candidates[np.all(np.abs(x - np.rint(x)) > 0.05, axis=1)][:12]
    assert len(ks) == 12
    system = SecularSystem(g, STANDARD)
    orders = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kwargs: orders.append(a.shape[-1]) or eigvalsh(a, *args, **kwargs))
    system.count(ks)
    assert orders and set(orders) == {g.num_vertices}


def test_anti_standard_count_works_on_the_vertices(monkeypatch):
    # ast's X- has one row per vertex and its X+ has r = 2E - V rows; at k where
    # no edge is near a pole, each eigvalsh is on matrices of order V = 19, not 45
    rng = np.random.default_rng(32)
    g = random_connected_graph(rng, 32)
    candidates = rng.uniform(1.0, 30.0, 2000)
    x = candidates[:, None] * np.array(g.lengths) / PI
    ks = candidates[np.all(np.abs(x - np.rint(x)) > 0.05, axis=1)][:12]
    assert len(ks) == 12
    system = SecularSystem(g, ANTI_STANDARD)
    orders = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kwargs: orders.append(a.shape[-1]) or eigvalsh(a, *args, **kwargs))
    system.count(ks)
    assert orders and set(orders) == {g.num_vertices} and 2 * g.num_edges - g.num_vertices == 45


def test_anti_standard_refinement_works_on_the_vertices(monkeypatch):
    # the all-bordered B that refines clusters is on the count's side: under
    # ast X- has one row per vertex, so on the 32-edge graph of the count test
    # each eigvalsh is of order V + E = 51, not 77 on X+; a tree under st
    # also works on X-, of E - 1 rows: order 39, not 41, on a 20-edge tree
    orders = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kwargs: orders.append(a.shape[-1]) or eigvalsh(a, *args, **kwargs))
    for g, spec, order in (
        (random_connected_graph(np.random.default_rng(32), 32), ANTI_STANDARD, 51),
        (random_tree(np.random.default_rng(5), 20), STANDARD, 39),
    ):
        orders.clear()
        SecularSystem(g, spec).dtn_eigenvalues(np.linspace(1.0, 30.0, 12))
        assert orders and set(orders) == {order}


def _one_edge_shortened(rng, num_edges):
    """A random bipartite or connected graph with one edge shortened to about 1e-6."""
    g = (random_bipartite_graph if rng.integers(2) else random_connected_graph)(rng, num_edges)
    lengths = list(g.lengths)
    lengths[int(rng.integers(num_edges))] = 1e-6 * rng.uniform(0.5, 2.0)
    names = g.vertex_names
    return build_graph([(e.name, names[e.tail], names[e.head], L) for e, L in zip(g.edges, lengths)])


def test_count_near_a_root_does_not_depend_on_its_batch():
    # within rounding of a root the count may go either way, but one k must get
    # the same answer alone and among other k, which border other numbers of edges
    rng = np.random.default_rng(2)
    deltas = np.array([-5e-13, -1e-13, -2e-14, 2e-14, 1e-13, 5e-13])
    points = 0
    for num_edges in [6, 9, 13] * 10:
        g = _one_edge_shortened(rng, num_edges)
        spec = _spec("scinv", g, rng)
        system = SecularSystem(g, spec)
        if system.decoupled:
            continue
        roots = np.unique(np.sqrt(spectrum_values(g, spec, num_edges + 4)))
        ks = np.outer(roots[roots > 0], 1.0 + deltas).ravel()
        alone = np.array([system.count(k)[0] for k in ks])
        for size in (41, 401):
            # each batch holds up to 10 of the points at random places among random k
            for part in np.array_split(np.arange(len(ks)), math.ceil(len(ks) / 10)):
                batch = rng.uniform(0.01, 1.05 * ks[-1], size)
                at = rng.choice(size, len(part), replace=False)
                batch[at] = ks[part]
                assert system.count(batch)[at].tolist() == alone[part].tolist(), (num_edges, size)
        points += len(ks)
    assert points > 1500
