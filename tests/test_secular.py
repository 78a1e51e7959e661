import math

import numpy as np
import pytest

from graphspec import (
    ALL_DIRICHLET,
    ANTI_STANDARD,
    STANDARD,
    SecularSystem,
    SolverOptions,
    analyze,
    apply_momentum,
    assemble,
    build_graph,
    builtin,
    condition_rows,
    dirichlet_spectrum,
    dual,
    eigenfunctions,
    find_spectrum,
    finite_difference_spectrum,
    residual,
    solve_zero_modes,
    spectrum_values,
    standard_dirichlet,
)
from graphspec.generate import random_bipartite_graph, random_connected_graph

PI = math.pi


def approx_list(values, expected, rel=1e-9, abs_=1e-9):
    assert len(values) >= len(expected)
    for got, want in zip(values, expected):
        assert got == pytest.approx(want, rel=rel, abs=abs_)


# ------------------------------------------------------------------ assembly


def test_assemble_interval_dirichlet_roots_at_multiples_of_pi():
    g = build_graph([("e1", "u", "v", 1.0)])
    sig = SecularSystem(g, ALL_DIRICHLET).sigma_min([PI, 2 * PI, 1.3])
    for s, is_root in zip(sig, (True, True, False)):
        assert (s < 1e-12) == is_root


def test_assemble_interval_standard_roots():
    # Neumann interval: eigenvalues at k = m pi
    g = build_graph([("e1", "u", "v", 1.0)])
    system = SecularSystem(g, STANDARD)
    assert system.sigma_min(PI)[0] < 1e-12
    assert system.sigma_min(0.5 * PI)[0] > 1e-3


def test_assemble_requires_positive_k():
    g = build_graph([("e1", "u", "v", 1.0)])
    with pytest.raises(ValueError):
        assemble(g, STANDARD, 0.0)


def test_secular_system_requires_positive_k():
    # k = 0 has its own system (zero_matrix); the k > 0 formula must not stand in for it
    system = SecularSystem(build_graph([("e1", "u", "v", 1.0)]), STANDARD)
    for ks in (0.0, -1.0, [1.0, 0.0]):
        with pytest.raises(ValueError):
            system.sigma_min(ks)


def test_assemble_loop_fully_degenerate_at_2pi():
    # both coefficients are free on a unit loop at k = 2 pi
    g = builtin("cycle", 1.0)
    sv = SecularSystem(g, STANDARD).singular_values(2 * PI)[0]
    assert sv[0] < 1e-12


BIPARTITE_AND_LOOP = pytest.mark.parametrize(
    "graph",
    [
        build_graph([("e1", "u", "v", 1.0), ("e2", "v", "w", 0.7), ("e3", "w", "x", 1.3), ("e4", "x", "u", 0.9)]),
        builtin("lasso", 1.0, 0.6),
    ],
    ids=["bipartite", "loop"],
)


@BIPARTITE_AND_LOOP
def test_chunked_evaluation_matches_single_k(graph):
    # the array spans several chunks; splitting it must not change any value
    system = SecularSystem(graph, STANDARD)
    ks = np.linspace(0.05, 25.0, 3 * system.chunk + 7)
    sig = system.sigma_min(ks)
    mats = system.matrices(ks)
    for k, s, m in zip(ks, sig, mats):
        assert s == system.sigma_min(k)[0]
        assert np.array_equal(m, assemble(graph, STANDARD, k))


def _reference_matrix(g, spec, k):
    """Vertex by vertex: condition rows times the traces of that vertex's endpoints."""
    blocks = []
    for vi, name in enumerate(g.vertex_names):
        eps = g.endpoints_of_vertex[vi]
        rows = condition_rows(name, len(eps), spec)
        val = np.zeros((len(eps), 2 * g.num_edges))
        der = np.zeros_like(val)
        for j, (n, end) in enumerate(eps):
            L = g.edges[n].length
            if end == 0:
                val[j, 2 * n], der[j, 2 * n + 1] = 1.0, 1.0
            elif k == 0:
                val[j, 2 * n : 2 * n + 2], der[j, 2 * n + 1] = (1.0, L), -1.0
            else:
                c, s = math.cos(k * L), math.sin(k * L)
                val[j, 2 * n : 2 * n + 2], der[j, 2 * n : 2 * n + 2] = (c, s), (s, -c)
        blocks += [rows.value_rows @ val, rows.derivative_rows @ der]
    return np.vstack(blocks)


@BIPARTITE_AND_LOOP
def test_compiled_rows_match_reference_assembly(graph):
    # a loop entry sums two products, which may round differently; nothing else does
    has_loop = any(e.tail == e.head for e in graph.edges)
    atol = 4 * np.finfo(float).eps if has_loop else 0.0
    for spec in (STANDARD, ANTI_STANDARD, ALL_DIRICHLET, dual(ALL_DIRICHLET, graph)):
        system = SecularSystem(graph, spec)
        np.testing.assert_allclose(system.zero_matrix(), _reference_matrix(graph, spec, 0.0), rtol=0, atol=atol)
        for k in (0.7, 3.1, 11.9):
            np.testing.assert_allclose(system.matrices(k)[0], _reference_matrix(graph, spec, k), rtol=0, atol=atol)


# ----------------------------------------------------------------- zero modes


@pytest.mark.parametrize(
    "maker,spec,expected",
    [
        (lambda: builtin("star", 3, 1), STANDARD, 1),
        (lambda: builtin("star", 3, 1), ANTI_STANDARD, 0),
        (lambda: builtin("cycle", 1, 1, 1), ANTI_STANDARD, 0),
        (lambda: builtin("cycle", 1, 1, 1, 1), ANTI_STANDARD, 1),
        (lambda: builtin("star", 3, 1), ALL_DIRICHLET, 0),
    ],
)
def test_zero_mode_counts(maker, spec, expected):
    dim, basis = solve_zero_modes(maker(), spec)
    assert dim == expected == len(basis)


def test_zero_modes_satisfy_conditions():
    g = builtin("cycle", 1, 2, 1, 2)
    dim, basis = solve_zero_modes(g, ANTI_STANDARD)
    assert dim == 1
    assert residual(g, ANTI_STANDARD, basis[0], 0.0) < 1e-12


# --------------------------------------------------------------- find_spectrum


def test_interval_neumann_spectrum():
    g = build_graph([("e1", "u", "v", 1.0)])
    s = find_spectrum(g, STANDARD, 40.0)
    approx_list(s.values(), [0.0, PI**2, (2 * PI) ** 2])


def test_star_standard_spectrum_closed_form():
    # three unit edges: 0, (pi/2)^2 x2, pi^2, (3 pi/2)^2 x2, (2 pi)^2
    g = builtin("star", 3, 1)
    s = find_spectrum(g, STANDARD, 41.0)
    approx_list(
        s.values(),
        [0.0, (PI / 2) ** 2, (PI / 2) ** 2, PI**2, (1.5 * PI) ** 2, (1.5 * PI) ** 2, (2 * PI) ** 2],
    )


def test_star_dirichlet_spectrum():
    g = builtin("star", 3, 1)
    s = find_spectrum(g, ALL_DIRICHLET, 41.0)
    approx_list(s.values(), [PI**2, PI**2, PI**2, (2 * PI) ** 2, (2 * PI) ** 2, (2 * PI) ** 2])


def test_loop_standard_spectrum_with_degenerate_multiplicity():
    g = builtin("cycle", 1.0)
    s = find_spectrum(g, STANDARD, 41.0)
    assert s.records[0].multiplicity == 1 and s.records[0].lam == 0.0
    assert s.records[1].k == pytest.approx(2 * PI, rel=1e-10)
    assert s.records[1].multiplicity == 2


def test_even_cycle_standard_double_eigenvalues():
    g = builtin("cycle", 1, 1, 1, 1)
    s = find_spectrum(g, STANDARD, 10.0)
    # circle of length 4: 0, (pi/2)^2 x2
    approx_list(s.values(), [0.0, (PI / 2) ** 2, (PI / 2) ** 2])


def test_mixed_dirichlet_boundary_spectrum():
    # unit interval with Dirichlet at one end: k = (m + 1/2) pi
    g = build_graph([("e1", "u", "v", 1.0)])
    s = find_spectrum(g, standard_dirichlet(["u"]), 25.0)
    approx_list(s.values(), [(PI / 2) ** 2, (1.5 * PI) ** 2])


def test_spectrum_values_grows_window():
    g = builtin("star", 3, 1)
    vals = spectrum_values(g, STANDARD, 10)
    assert len(vals) == 10
    assert vals == sorted(vals)


def test_find_spectrum_rejects_bad_lmax():
    g = builtin("star", 3, 1)
    # 1e14 is a window of about 1e7 eigenvalues
    for lam_max in (0.0, -1.0, math.nan, math.inf, 1e14):
        with pytest.raises(ValueError):
            find_spectrum(g, STANDARD, lam_max)


def test_star_records_and_multiplicities_are_exact():
    g = builtin("star", 3, 1)
    cases = [
        (STANDARD, [(0.0, 1), (PI / 2, 2), (PI, 1), (1.5 * PI, 2), (2 * PI, 1)]),
        (ANTI_STANDARD, [(PI / 2, 2), (PI, 1), (1.5 * PI, 2), (2 * PI, 1)]),
        (ALL_DIRICHLET, [(PI, 3), (2 * PI, 3)]),
    ]
    for spec, want in cases:
        got = [(r.k, r.multiplicity) for r in find_spectrum(g, spec, 41.0).records]
        assert [m for _, m in got] == [m for _, m in want]
        for (k, _), (k_want, _) in zip(got, want):
            assert k == pytest.approx(k_want, rel=1e-14, abs=0)


def test_root_exactly_at_lam_max_is_kept():
    # equilateral graphs have roots at multiples of pi; here one is k_max itself
    g = builtin("star", 3, 1)
    st = find_spectrum(g, STANDARD, (2 * PI) ** 2).records
    assert st[-1].k == pytest.approx(2 * PI, rel=1e-14) and st[-1].multiplicity == 1
    dirichlet = find_spectrum(g, ALL_DIRICHLET, (2 * PI) ** 2).records
    assert [(round(r.k / PI, 12), r.multiplicity) for r in dirichlet] == [(1.0, 3), (2.0, 3)]


@pytest.mark.parametrize("lam_max", [1e-40, 1e-30, 1e-20])
def test_tiny_window_holds_zero_modes_only(lam_max):
    # at k below about 1e-15 an eigenphase leaving 0 can round to just
    # below 2 pi, which must not count as a root
    for g in (builtin("star", 3, 1), builtin("cycle", 1, 1, 1, 1), builtin("lasso", 1.0, 0.6)):
        for spec in (STANDARD, ANTI_STANDARD, ALL_DIRICHLET, dual(ALL_DIRICHLET, g)):
            assert all(r.k == 0.0 for r in find_spectrum(g, spec, lam_max).records)


# drawn by the verify_mix benchmark: 2 pi / L_total is an anti-standard
# root, and windows that are simple multiples of it put the root on a
# simple fraction of the window
ROOT_AT_WINDOW_FRACTION = [
    ("e1", "v0", "v1", 1.6302696630122098),
    ("e2", "v1", "v2", 1.3072149698289173),
    ("c1", "v2", "v1", 1.6826430551426066),
    ("c2", "v0", "v1", 0.9547922439374674),
]


def test_root_on_a_simple_fraction_of_the_window():
    g = build_graph(ROOT_AT_WINDOW_FRACTION)
    k_root = 2 * PI / g.total_length
    vals = spectrum_values(g, ANTI_STANDARD, 6)
    assert vals[2] == pytest.approx(1.27023029961, abs=1e-11)
    assert vals[2] == pytest.approx(k_root**2, rel=1e-13)
    for factor in (1, 2, 4, 8):
        ks = [r.k for r in find_spectrum(g, ANTI_STANDARD, (factor * k_root) ** 2).records]
        assert sum(k == pytest.approx(k_root, rel=1e-13) for k in ks) == 1


# random_bipartite_graph with seed 7: roots at k = 1.67653 and 1.67704,
# 5e-4 apart, which the earlier sigma_min grid scan could not separate
CLOSE_PAIR_GRAPH = [
    ("e1", "v0", "v1", 1.917422),
    ("e2", "v0", "v2", 1.855875),
    ("e3", "v0", "v3", 1.354579),
    ("c1", "v0", "v2", 1.891859),
    ("c2", "v0", "v1", 1.328490),
    ("c3", "v0", "v1", 1.826085),
]


@pytest.mark.parametrize("spec", [STANDARD, ANTI_STANDARD], ids=["st", "ast"])
def test_close_pair_resolved(spec):
    g = build_graph(CLOSE_PAIR_GRAPH)
    ks = [r.k for r in find_spectrum(g, spec, 1.70**2).records if r.k > 0]
    assert [round(k, 5) for k in ks[-2:]] == [1.67653, 1.67704]
    # positive st and ast spectra coincide on a bipartite graph; the finite
    # element oracle has no anti-standard conditions
    fd = np.sqrt(finite_difference_spectrum(g, STANDARD, 400.0, len(ks) + 3))
    fd = fd[(fd > 1e-3) & (fd < 1.70)]
    assert len(fd) == len(ks)
    for got, want in zip(ks, fd):
        assert got == pytest.approx(want, rel=2e-5)


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-9])
def test_parallel_pair_close_dirichlet_roots(delta):
    # Dirichlet roots m pi / L and m pi / (L + delta), about m pi delta / L^2 apart
    length = 1.3
    g = build_graph([("a", "u", "v", length), ("b", "u", "v", length + delta)])
    records = find_spectrum(g, ALL_DIRICHLET, (2.5 * PI / length) ** 2).records
    want = sorted(m * PI / x for m in (1, 2) for x in (length, length + delta))
    assert [r.multiplicity for r in records] == [1, 1, 1, 1]
    for r, k in zip(records, want):
        assert r.k == pytest.approx(k, rel=1e-13)


@pytest.mark.parametrize("density", [1, 2, 40])
def test_roots_do_not_depend_on_the_count_grid(density):
    # density 1 leaves the first roots, next to 3 zero modes, in the bracket (0, b]
    g = build_graph(CLOSE_PAIR_GRAPH)
    want = find_spectrum(g, ANTI_STANDARD, 9.0)
    got = find_spectrum(g, ANTI_STANDARD, 9.0, SolverOptions(grid_points_per_mean_gap=density))
    assert [r.multiplicity for r in got.records] == [r.multiplicity for r in want.records]
    for a, b in zip(got.records, want.records):
        assert a.k == pytest.approx(b.k, rel=1e-13, abs=0)


def test_weyl_counting_random():
    rng = np.random.default_rng(31)
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(1, 6)))
        lam_max = float(rng.uniform(10, 60))
        s = find_spectrum(g, STANDARD, lam_max)
        n = s.total_count()
        est = g.total_length * math.sqrt(lam_max) / PI
        assert abs(n - est) <= 2 * g.num_edges + 2


def test_scale_covariance():
    # scaling all lengths by t scales every eigenvalue by 1/t^2
    rng = np.random.default_rng(33)
    g = random_connected_graph(rng, 4)
    t = 1.7
    scaled = build_graph(
        [(e.name, g.vertex_names[e.tail], g.vertex_names[e.head], e.length * t) for e in g.edges]
    )
    v1 = spectrum_values(g, STANDARD, 8)
    v2 = spectrum_values(scaled, STANDARD, 8)
    for a, b in zip(v1, v2):
        assert b == pytest.approx(a / t**2, rel=1e-9, abs=1e-9)


# -------------------------------------------------------------- eigenfunctions


def test_eigenfunction_interval_cosine():
    g = build_graph([("e1", "u", "v", 1.0)])
    (f,) = eigenfunctions(g, STANDARD, PI)
    a, b = f.coeffs[0]
    assert abs(b) < 1e-9
    # L2-normalized cos(pi x) on [0, 1] has amplitude sqrt(2)
    assert abs(a) == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_eigenfunctions_orthonormal():
    g = builtin("star", 3, 1)
    fs = eigenfunctions(g, STANDARD, PI / 2)
    assert len(fs) == 2
    from graphspec.secular import _l2_inner

    for i, fi in enumerate(fs):
        for j, fj in enumerate(fs):
            ip = _l2_inner(g, PI / 2, fi.coeffs.reshape(-1), fj.coeffs.reshape(-1))
            assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)


def test_eigenfunctions_reject_non_root():
    g = builtin("star", 3, 1)
    with pytest.raises(ValueError):
        eigenfunctions(g, STANDARD, 1.1)


def test_residual_detects_wrong_conditions():
    g = builtin("star", 3, 1)
    (f,) = eigenfunctions(g, STANDARD, PI)
    assert residual(g, STANDARD, f, PI) < 1e-9
    assert residual(g, ALL_DIRICHLET, f, PI) > 1e-3


# ---------------------------------------------------------------- momentum map


def test_momentum_interval():
    g = build_graph([("e1", "u", "v", 1.0)])
    (f,) = eigenfunctions(g, STANDARD, PI)
    df = apply_momentum(f, g)
    # cos -> +-sin, which satisfies the anti-standard (Dirichlet) endpoint rows
    assert residual(g, ANTI_STANDARD, df, PI) < 1e-9


def test_momentum_intertwines_standard_and_anti_standard():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_bipartite_graph(rng, int(rng.integers(2, 7)))
        s = find_spectrum(g, STANDARD, 30.0)
        positives = [r for r in s.records if r.k > 0]
        if not positives:
            continue
        rec = positives[0]
        for f in eigenfunctions(g, STANDARD, rec.k):
            df = apply_momentum(f, g)
            assert residual(g, ANTI_STANDARD, df, rec.k) < 1e-7


def test_momentum_squares_to_minus_identity():
    g = builtin("cycle", 1, 1, 1, 1)
    s = find_spectrum(g, STANDARD, 10.0)
    k = next(r.k for r in s.records if r.k > 0)
    for f in eigenfunctions(g, STANDARD, k):
        ddf = apply_momentum(apply_momentum(f, g), g)
        assert np.max(np.abs(ddf.coeffs + f.coeffs)) < 1e-12


def test_momentum_rejects_non_bipartite():
    g = builtin("cycle", 1, 1, 1)
    s = find_spectrum(g, STANDARD, 20.0)
    k = next(r.k for r in s.records if r.k > 0)
    (f, *_) = eigenfunctions(g, STANDARD, k)
    with pytest.raises(ValueError):
        apply_momentum(f, g)


# ---------------------------------------------------------- dirichlet_spectrum


def test_dirichlet_closed_form_matches_secular():
    g = builtin("cycle", 1, 3)
    closed = dirichlet_spectrum(g, 50.0)
    secular = find_spectrum(g, ALL_DIRICHLET, 50.0)
    approx_list(secular.values(), closed.values())


def test_dirichlet_merges_coincident_edges():
    g = builtin("star", 3, 1)
    s = dirichlet_spectrum(g, 50.0)
    assert s.records[0].multiplicity == 3
    assert s.records[0].lam == pytest.approx(PI**2)


# ----------------------------------------------------------------- dual checks


def test_anti_standard_spectrum_matches_dual_route():
    # positive spectra of the standard and anti-standard Laplacians agree
    # on a bipartite graph; check on the 4-cycle against circle values
    g = builtin("cycle", 1, 1, 1, 1)
    st = find_spectrum(g, STANDARD, 11.0)
    ast = find_spectrum(g, dual(STANDARD), 11.0)
    st_pos = [v for v in st.values() if v > 1e-9]
    ast_pos = [v for v in ast.values() if v > 1e-9]
    approx_list(ast_pos, st_pos)


def test_solver_options_tighten_grid():
    g = builtin("star", 3, 1)
    opts = SolverOptions(grid_points_per_mean_gap=40)
    s = find_spectrum(g, STANDARD, 41.0, opts)
    assert s.total_count() == 7


def test_boundary_validation_happens_in_solver():
    g = builtin("star", 3, 1)
    from graphspec.conditions import ConditionError

    with pytest.raises(ConditionError):
        find_spectrum(g, standard_dirichlet(["c"]), 10.0)
