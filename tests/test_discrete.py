import math

import numpy as np
import pytest

from graphspec import (
    ALL_DIRICHLET,
    ANTI_STANDARD,
    STANDARD,
    analyze,
    build_graph,
    build_normalized_laplacian,
    builtin,
    find_spectrum,
    finite_difference_spectrum,
    standard_dirichlet,
    symmetric_eigenvalues,
    von_below_metric_spectrum,
)
from graphspec.generate import random_connected_graph, random_equilateral_graph
from graphspec.graph import GraphError

PI = math.pi


# ------------------------------------------------------- normalized Laplacian


def test_laplacian_path2():
    g = builtin("path", 1, 1)
    mus = symmetric_eigenvalues(build_normalized_laplacian(g))
    assert np.allclose(mus, [0.0, 1.0, 2.0], atol=1e-10)


def test_laplacian_triangle():
    g = builtin("cycle", 1, 1, 1)
    mus = symmetric_eigenvalues(build_normalized_laplacian(g))
    assert np.allclose(mus, [0.0, 1.5, 1.5], atol=1e-10)


def test_laplacian_star3():
    g = builtin("star", 3, 1)
    mus = symmetric_eigenvalues(build_normalized_laplacian(g))
    assert np.allclose(mus, [0.0, 1.0, 1.0, 2.0], atol=1e-10)


def test_laplacian_loop_entry():
    # a loop contributes 2 to both degree and adjacency: diagonal term
    # 1 - 2 loops/deg
    g = build_graph([("l", "v", "v", 1.0), ("e", "v", "w", 1.0)])
    m = build_normalized_laplacian(g)
    vi = g.vertex_index("v")
    assert m[vi, vi] == pytest.approx(1.0 - 2.0 / 3.0)


def test_laplacian_spectrum_range_and_bipartite_top():
    rng = np.random.default_rng(51)
    for _ in range(60):
        g = random_connected_graph(rng, int(rng.integers(1, 10)))
        a = analyze(g)
        mus = symmetric_eigenvalues(build_normalized_laplacian(g))
        assert mus[0] == pytest.approx(0.0, abs=1e-9)
        assert mus[0] > -1e-9 and mus[-1] < 2.0 + 1e-9
        # mu = 2 occurs exactly for bipartite graphs
        assert (mus[-1] > 2.0 - 1e-9) == a.bipartite


# -------------------------------------------------------------- Jacobi solver


def test_jacobi_matches_char_poly_roots():
    # independent oracle: roots of the characteristic polynomial
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2
        got = symmetric_eigenvalues(m)
        want = np.sort(np.roots(np.poly(m)).real)
        assert np.allclose(got, want, atol=1e-8)


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.zeros((2, 3)))


def test_jacobi_trivial_sizes():
    assert symmetric_eigenvalues(np.array([[3.0]])) == pytest.approx([3.0])


# --------------------------------------------------------- equilateral oracle


def test_von_below_triangle():
    g = builtin("cycle", 1, 1, 1)
    s = von_below_metric_spectrum(g, 1.0, (2 * PI) ** 2 + 1)
    ks = [(r.k, r.multiplicity) for r in s.records]
    expected = [(0.0, 1), (2 * PI / 3, 2), (4 * PI / 3, 2), (2 * PI, 2)]
    assert len(ks) == len(expected)
    for (k, m), (ek, em) in zip(ks, expected):
        assert k == pytest.approx(ek, abs=1e-10) and m == em
    # no eigenvalue at pi: the odd lattice multiplicity beta - 1 = 0 vanishes
    assert all(abs(r.k - PI) > 1e-6 for r in s.records)


def test_von_below_unit_4cycle_is_circle():
    g = builtin("cycle", 1, 1, 1, 1)
    s = von_below_metric_spectrum(g, 1.0, 11.0)
    # circle of length 4: 0, then (2 pi m / 4)^2 with multiplicity 2
    ks = [(r.k, r.multiplicity) for r in s.records]
    assert ks[0] == (0.0, 1)
    assert ks[1][0] == pytest.approx(PI / 2) and ks[1][1] == 2
    assert ks[2][0] == pytest.approx(PI) and ks[2][1] == 2


def test_von_below_star_matches_secular():
    g = builtin("star", 3, 1)
    s = von_below_metric_spectrum(g, 1.0, 41.0)
    direct = find_spectrum(g, STANDARD, 41.0)
    assert s.total_count() == direct.total_count()
    for a, b in zip(s.values(), direct.values()):
        assert b == pytest.approx(a, rel=1e-9, abs=1e-9)


def test_von_below_window_count():
    # exactly 2E + 1 eigenvalues in [0, (2 pi / l)^2]
    rng = np.random.default_rng(57)
    for _ in range(10):
        g = random_equilateral_graph(rng, int(rng.integers(2, 7)))
        s = von_below_metric_spectrum(g, 1.0, (2 * PI) ** 2)
        assert s.total_count() == 2 * g.num_edges + 1


def test_von_below_random_matches_secular():
    rng = np.random.default_rng(59)
    for _ in range(6):
        g = random_equilateral_graph(rng, int(rng.integers(2, 6)))
        s = von_below_metric_spectrum(g, 1.0, (2.5 * PI) ** 2)
        direct = find_spectrum(g, STANDARD, (2.5 * PI) ** 2)
        assert s.total_count() == direct.total_count()
        for ka, kb in zip(s.k_values(), direct.k_values()):
            assert abs(ka - kb) < 1e-8


def test_von_below_rejects_non_equilateral():
    with pytest.raises(GraphError):
        von_below_metric_spectrum(builtin("cycle", 1, 2), 1.0, 10.0)


# ------------------------------------------------------ finite element oracle


def test_fd_interval_neumann():
    g = build_graph([("e1", "u", "v", 1.0)])
    vals = finite_difference_spectrum(g, STANDARD, 400.0, 3)
    assert vals[0] == pytest.approx(0.0, abs=1e-8)
    assert vals[1] == pytest.approx(PI**2, rel=1e-4)
    assert vals[2] == pytest.approx(4 * PI**2, rel=1e-4)


def test_fd_interval_dirichlet():
    g = build_graph([("e1", "u", "v", 1.0)])
    vals = finite_difference_spectrum(g, ALL_DIRICHLET, 400.0, 2)
    assert vals[0] == pytest.approx(PI**2, rel=1e-4)
    assert vals[1] == pytest.approx(4 * PI**2, rel=1e-4)


def test_fd_star_matches_secular():
    g = builtin("star", 3, 1)
    vals = finite_difference_spectrum(g, STANDARD, 500.0, 6)
    exact = find_spectrum(g, STANDARD, 41.0).values(6)
    for got, want in zip(vals, exact):
        assert got == pytest.approx(want, rel=2e-4, abs=1e-6)


def test_fd_mixed_boundary():
    g = build_graph([("e1", "u", "v", 1.0)])
    vals = finite_difference_spectrum(g, standard_dirichlet(["u"]), 500.0, 2)
    assert vals[0] == pytest.approx((PI / 2) ** 2, rel=1e-4)
    assert vals[1] == pytest.approx((1.5 * PI) ** 2, rel=1e-4)


def test_fd_unequal_lengths():
    g = builtin("cycle", 1, 3)
    vals = finite_difference_spectrum(g, STANDARD, 600.0, 4)
    exact = find_spectrum(g, STANDARD, 30.0).values(4)
    for got, want in zip(vals, exact):
        assert got == pytest.approx(want, rel=2e-4, abs=1e-6)


def test_fd_rejects_anti_standard_and_coarse_grids():
    g = builtin("star", 3, 1)
    with pytest.raises(ValueError):
        finite_difference_spectrum(g, ANTI_STANDARD, 400.0, 4)
    with pytest.raises(ValueError):
        finite_difference_spectrum(g, STANDARD, 2.0, 4)


def test_fd_is_deterministic():
    # the oracle's last digits must not depend on ARPACK's random start vector
    g = random_connected_graph(np.random.default_rng(7), 5)
    first = finite_difference_spectrum(g, STANDARD, 300.0, 8)
    assert np.array_equal(first, finite_difference_spectrum(g, STANDARD, 300.0, 8))
