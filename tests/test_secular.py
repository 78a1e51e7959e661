import dataclasses
import gc
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from graphspec import (
    ALL_DIRICHLET,
    ANTI_STANDARD,
    STANDARD,
    ConditionKind,
    ConditionSpec,
    EdgeWave,
    EigenvalueRecord,
    MetricGraph,
    SecularSystem,
    Spectrum,
    anti_standard_neumann,
    analyze,
    apply_momentum,
    assemble,
    build_graph,
    builtin,
    condition_rows,
    dual,
    eigenfunctions,
    find_spectrum,
    finite_difference_spectrum,
    kernel_dimension_combinatorial,
    residual,
    solve_zero_modes,
    spectrum_values,
    standard_dirichlet,
    verify,
)
from graphspec import secular
from graphspec.conditions import ConditionError
from graphspec.generate import random_bipartite_graph, random_connected_graph, random_tree
from test_theorem_pin import GRAPHS as PINNED_GRAPHS

PI = math.pi


def approx_list(values, expected, rel=1e-9, abs_=1e-9):
    assert len(values) >= len(expected)
    for got, want in zip(values, expected):
        assert got == pytest.approx(want, rel=rel, abs=abs_)


def _dirichlet_roots(g, lam_max):
    """The all-Dirichlet spectrum of [0, lam_max] as the root finder gives it on the compiled system.

    ``find_spectrum`` lists it in closed form, so these tests call the root
    finder itself to keep it tested on decoupled edges.
    """
    roots = secular._positive_roots(secular._system(g, ALL_DIRICHLET), lam_max)
    return Spectrum(records=tuple(secular._records(roots)), complete_up_to=lam_max)


def dirichlet_intervals(g, lam_max):
    """The spectrum of g's edges as Dirichlet intervals on [0, lam_max], written out: k = m pi / L_e, m >= 1.

    Its window ends at ``secular._top(lam_max)`` in k, and roots within
    ``_CLUSTER_REL`` k of a record's k join it, as in every spectrum.
    """
    k_top = secular._top(lam_max)
    ks = sorted(m * PI / e.length for e in g.edges for m in range(1, math.floor(k_top * e.length / PI) + 2))
    records = []
    for k in (k for k in ks if k <= k_top):
        if records and k - records[-1][0] <= secular._CLUSTER_REL * k:
            records[-1][1] += 1
        else:
            records.append([k, 1])
    return Spectrum(records=tuple(EigenvalueRecord(k, k * k, m) for k, m in records), complete_up_to=lam_max)


# ------------------------------------------------------------------ assembly


def test_assemble_interval_dirichlet_roots_at_multiples_of_pi():
    g = build_graph([("e1", "u", "v", 1.0)])
    sig = SecularSystem(g, ALL_DIRICHLET).singular_values([PI, 2 * PI, 1.3])[:, -1]
    for s, is_root in zip(sig, (True, True, False)):
        assert (s < 1e-12) == is_root


def test_assemble_interval_standard_roots():
    # Neumann interval: eigenvalues at k = m pi
    g = build_graph([("e1", "u", "v", 1.0)])
    system = SecularSystem(g, STANDARD)
    assert system.singular_values(PI)[0, -1] < 1e-12
    assert system.singular_values(0.5 * PI)[0, -1] > 1e-3


def test_assemble_requires_positive_k():
    g = build_graph([("e1", "u", "v", 1.0)])
    with pytest.raises(ValueError):
        assemble(g, STANDARD, 0.0)


def test_secular_system_requires_positive_k():
    # k = 0 has its own system (zero_matrix); the k > 0 formula must not stand in for it
    system = SecularSystem(build_graph([("e1", "u", "v", 1.0)]), STANDARD)
    for ks in (0.0, -1.0, [1.0, 0.0]):
        with pytest.raises(ValueError):
            system.singular_values(ks)[:, -1]


_STAR = builtin("star", 3, 1)
_WAVE = EdgeWave(k=math.inf, coeffs=np.ones((3, 2)))


@pytest.mark.parametrize(
    "call",
    [
        *(pytest.param(lambda system, m=m: getattr(system, m)(math.inf), id=m)
          for m in ("count", "matrices", "determinant", "singular_values", "dtn_eigenvalues")),
        pytest.param(lambda system: system.count([1.0, math.inf]), id="count_batch"),
        pytest.param(lambda system: residual(_STAR, STANDARD, _WAVE, math.inf), id="residual"),
        pytest.param(lambda system: eigenfunctions(_STAR, STANDARD, math.inf), id="eigenfunctions"),
        # L_total k / pi >= 2^53: float64 does not hold the pole indices exactly
        pytest.param(lambda system: system.count(1e300), id="count_1e300"),
        pytest.param(lambda system: system.count(1e16), id="count_1e16"),
        pytest.param(lambda system: system.dtn_eigenvalues(1.0, at=math.nan), id="dtn_at_nan"),
        pytest.param(lambda system: system.dtn_eigenvalues(1.0, at=math.inf), id="dtn_at_inf"),
    ],
)
def test_non_finite_or_huge_k_is_refused(call):
    # each raised RuntimeWarning under -W error, and returned garbage without it
    with pytest.raises(ValueError) as refused:
        call(SecularSystem(_STAR, STANDARD))
    assert "\n" not in str(refused.value)


def test_count_up_to_its_bound():
    # k just below L_total k / pi = 2^53 is counted: the Weyl count, give or take the vertex terms
    system = SecularSystem(_STAR, STANDARD)
    k = 0.5 * 2.0**53 * math.pi / 3.0
    assert abs(int(system.count(k)[0]) - 3.0 * k / math.pi) < 10


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
    sig = system.singular_values(ks)[:, -1]
    mats = system.matrices(ks)
    for k, s, m in zip(ks, sig, mats):
        assert s == system.singular_values(k)[0, -1]
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


@pytest.mark.parametrize(
    "graph",
    [
        build_graph([("e1", "u", "v", 1.0), ("e2", "v", "w", 0.7), ("e3", "w", "x", 1.3), ("e4", "x", "u", 0.9)]),
        builtin("lasso", 1.0, 0.6),
        # two endpoints of one row on one edge, at two loops of one vertex, next to
        # a pair of parallel edges and a leaf
        build_graph(
            [("a", "u", "v", 1.0), ("b", "u", "v", 0.7), ("l1", "v", "v", 0.3), ("l2", "v", "v", 0.45), ("s", "u", "w", 0.8)]
        ),
    ],
    ids=["bipartite", "loop", "parallel_and_two_loops"],
)
def test_compiled_rows_match_reference_assembly(graph):
    # a loop entry sums two products, which may round differently; nothing else does
    has_loop = any(e.tail == e.head for e in graph.edges)
    atol = 4 * np.finfo(float).eps if has_loop else 0.0
    # st, ast, dir and its dual, stD and astN on a leaf, and a random scinv spec
    for spec in _every_kind(graph, np.random.default_rng(146)):
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


def test_lasso_with_a_tiny_loop_is_a_longer_stem():
    # under st a loop of 1e-8 acts as that much more stem: (m pi / (1 + 1e-8))^2,
    # with one zero mode, which an SVD of the 2E x 2E k = 0 matrix counted twice
    g = build_graph([("s", "u", "v", 1.0), ("l", "v", "v", 1e-8)])
    want = [(m * PI / (1 + 1e-8)) ** 2 for m in range(4)]
    assert spectrum_values(g, STANDARD, 4) == [pytest.approx(w, rel=1e-9, abs=0) for w in want]
    assert verify("KER", g).verdict == "holds"


@pytest.mark.parametrize("length", [1e5, 1e9])
def test_triangle_with_a_long_edge_keeps_its_zero_modes(length):
    g = build_graph([("a", "x", "y", 1.0), ("b", "y", "z", length), ("c", "z", "x", 2.0)])
    assert SecularSystem(g, STANDARD).nullity == 1
    assert SecularSystem(g, ANTI_STANDARD).nullity == 0


def _rescaled(rng, g):
    """g with each edge length scaled by 10^U(-9, 9)."""
    names = g.vertex_names
    return build_graph([(e.name, names[e.tail], names[e.head], e.length * 10.0 ** rng.uniform(-9, 9)) for e in g.edges])


def test_nullity_is_the_combinatorial_one_whatever_the_lengths():
    # a zero mode is edgewise constant, so its count cannot depend on the lengths
    rng = np.random.default_rng(29)
    checked = 0
    for i in range(120):
        g = _rescaled(rng, (random_bipartite_graph if i % 2 else random_connected_graph)(rng, int(rng.integers(1, 13))))
        a = analyze(g)
        leaf = sorted(a.boundary)[:1]
        specs = [STANDARD, ANTI_STANDARD] + ([standard_dirichlet(leaf)] if leaf else [])
        specs += [anti_standard_neumann(leaf)] if leaf and a.bipartite else []
        for spec in specs:
            system = SecularSystem(g, spec)
            assert system.nullity == len(system.zero_modes) == kernel_dimension_combinatorial(g, spec), (i, spec.token)
            for f in system.zero_modes:
                assert residual(g, spec, f, 0.0) < 1e-12
            checked += 1
    assert checked > 300


def test_nullity_takes_no_svd_wider_than_the_mode_matrix(monkeypatch):
    # the zero modes come from an (r, E) or (2E - r, E) mode matrix, not from the 2E x 2E k = 0 matrix
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: shapes.append(np.shape(a)) or svd(a, *args, **kwargs))
    rng = np.random.default_rng(31)
    for i in range(40):
        g = random_connected_graph(rng, int(rng.integers(2, 13)))
        for spec in _every_kind(g, rng):
            r = sum(len(condition_rows(v, d, spec).derivative_rows) for v, d in g.degrees.items())
            system = SecularSystem(g, spec)
            del shapes[:]
            assert system.nullity == len(system.zero_modes)
            assert shapes and max(max(s) for s in shapes) <= max(r, g.num_edges), (i, spec.token)


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
    s = _dirichlet_roots(g, 41.0)
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


def test_short_spectrum_refuses_both_expansions():
    # the Neumann interval up to 25 holds 0, pi^2 and 4 pi^2, each simple
    s = find_spectrum(build_graph([("e1", "u", "v", 1.0)]), STANDARD, 25.0)
    approx_list(s.k_values(2), [0.0, PI])
    for expand in (s.values, s.k_values):
        assert len(expand()) == 2
        with pytest.raises(ValueError, match="2 eigenvalues, 3 requested"):
            expand(3)


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
        s = _dirichlet_roots(g, 41.0) if spec == ALL_DIRICHLET else find_spectrum(g, spec, 41.0)
        got = [(r.k, r.multiplicity) for r in s.records]
        assert [m for _, m in got] == [m for _, m in want]
        for (k, _), (k_want, _) in zip(got, want):
            assert k == pytest.approx(k_want, rel=1e-14, abs=0)


def test_root_exactly_at_lam_max_is_kept():
    # equilateral graphs have roots at multiples of pi; here one is k_max itself
    g = builtin("star", 3, 1)
    st = find_spectrum(g, STANDARD, (2 * PI) ** 2).records
    assert st[-1].k == pytest.approx(2 * PI, rel=1e-14) and st[-1].multiplicity == 1
    dirichlet = _dirichlet_roots(g, (2 * PI) ** 2).records
    assert [(round(r.k / PI, 12), r.multiplicity) for r in dirichlet] == [(1.0, 3), (2.0, 3)]


@pytest.mark.parametrize("lam_max", [1e-40, 1e-30, 1e-20])
def test_tiny_window_holds_zero_modes_only(lam_max):
    # at tiny k a zero mode's DtN eigenvalue, about -k^2, is below rounding
    # and may come out positive; the count must not then report a root
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
        # a new graph object each time, so that each window is solved whole
        s = find_spectrum(build_graph(ROOT_AT_WINDOW_FRACTION), ANTI_STANDARD, (factor * k_root) ** 2)
        assert sum(r.k == pytest.approx(k_root, rel=1e-13) for r in s.records) == 1


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
    # positive st and ast spectra coincide on a bipartite graph, so one
    # finite-element spectrum serves both
    fd = np.sqrt(finite_difference_spectrum(g, STANDARD, 400.0, len(ks) + 3))
    fd = fd[(fd > 1e-3) & (fd < 1.70)]
    assert len(fd) == len(ks)
    for got, want in zip(ks, fd):
        assert got == pytest.approx(want, rel=2e-5)


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-9, 1e-11, 3e-12])
def test_parallel_pair_close_dirichlet_roots(delta):
    # Dirichlet roots m pi / L and m pi / (L + delta), about m pi delta / L^2 apart
    length = 1.3
    g = build_graph([("a", "u", "v", length), ("b", "u", "v", length + delta)])
    records = _dirichlet_roots(g, (2.5 * PI / length) ** 2).records
    want = sorted(m * PI / x for m in (1, 2) for x in (length, length + delta))
    assert [r.multiplicity for r in records] == [1, 1, 1, 1]
    for r, k in zip(records, want):
        assert r.k == pytest.approx(k, rel=1e-13)


@pytest.mark.parametrize("delta", [0.0, 1e-13])
def test_parallel_pair_below_the_cluster_width(delta):
    # under _CLUSTER_REL = 1e-12 (delta / L = 7.7e-14 here) a pair may be
    # one cluster or two roots, as the brackets fall; only the total is
    # fixed, and equal lengths give two double roots
    length = 1.3
    g = build_graph([("a", "u", "v", length), ("b", "u", "v", length + delta)])
    records = _dirichlet_roots(g, (2.5 * PI / length) ** 2).records
    assert sum(r.multiplicity for r in records) == 4
    if delta == 0.0:
        assert [(r.k, r.multiplicity) for r in records] == [
            (pytest.approx(m * PI / length, rel=1e-13), 2) for m in (1, 2)
        ]


def test_cycle_double_roots_in_few_count_calls(monkeypatch):
    # every positive root of a cycle is double, 2 pi n / L: each is found on
    # the eigenvalues of the bordered DtN matrix, and one count confirms it
    g = builtin("cycle", 0.5106377429047494, 1.4685813433624217, 1.5798640752630395, 0.8228272507444604)
    calls = {"count": 0, "empty determinant": 0, "singular_values": 0}
    count, determinant, singular_values = SecularSystem.count, SecularSystem.determinant, SecularSystem.singular_values

    def counted(self, ks):
        calls["count"] += 1
        return count(self, ks)

    def checked(self, ks):
        calls["empty determinant"] += np.size(ks) == 0
        return determinant(self, ks)

    def svd(self, ks):
        calls["singular_values"] += 1
        return singular_values(self, ks)

    monkeypatch.setattr(SecularSystem, "count", counted)
    monkeypatch.setattr(SecularSystem, "determinant", checked)
    monkeypatch.setattr(SecularSystem, "singular_values", svd)
    got = spectrum_values(g, STANDARD, 13)
    want = [0.0] + [(2 * PI * n / g.total_length) ** 2 for n in range(1, 7) for _ in range(2)]
    assert got == [pytest.approx(w, rel=1e-13, abs=1e-13) for w in want]
    assert calls["count"] <= 8
    assert calls["empty determinant"] == 0
    assert calls["singular_values"] == 0


@pytest.mark.parametrize(
    "name, value",
    [
        pytest.param("_GRID_POINTS_PER_MEAN_GAP", 1, id="1"),
        pytest.param("_GRID_POINTS_PER_MEAN_GAP", 2, id="2"),
        pytest.param("_GRID_POINTS_PER_MEAN_GAP", 40, id="40"),
        pytest.param("_SPLIT", 1 / math.sqrt(5), id="split-1/sqrt5"),
        pytest.param("_SPLIT", 1 / math.sqrt(7), id="split-1/sqrt7"),
        pytest.param("_SPLIT", 1 - 1 / math.sqrt(5), id="split-1-1/sqrt5"),
    ],
)
def test_roots_do_not_depend_on_the_count_grid(name, value, monkeypatch):
    # grid density 1 leaves the first roots, next to 3 zero modes, in the
    # bracket (0, b]; the split fraction moves the first grid and every split
    g = build_graph(CLOSE_PAIR_GRAPH)
    want = find_spectrum(g, ANTI_STANDARD, 9.0)
    monkeypatch.setattr(secular, name, value)
    # a new graph object, so that the window is solved again
    got = find_spectrum(build_graph(CLOSE_PAIR_GRAPH), ANTI_STANDARD, 9.0)
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
    # scaling all lengths by t scales every eigenvalue by 1/t^2, at any scale:
    # the slopes' step is a share of k, so the roots are refined alike
    for spec in (STANDARD, ANTI_STANDARD):
        rng = np.random.default_rng(33)
        for i in range(30):
            g = random_connected_graph(rng, 1 + i % 8)
            count = 2 * g.num_edges + 6
            values = spectrum_values(g, spec, count)
            for t in (1e-3, 1.7, 1e3):
                scaled = build_graph([(e.name, g.vertex_names[e.tail], g.vertex_names[e.head], e.length * t) for e in g.edges])
                for a, b in zip(values, spectrum_values(scaled, spec, count), strict=True):
                    # zero modes stay zeros
                    assert b == 0 if a == 0 else b == pytest.approx(a / t**2, rel=1e-13, abs=0)


# ------------------------------------------------------------------ refinement


@pytest.mark.parametrize("seed,kernel", [(5, "determinant"), (6, "dtn_eigenvalues")], ids=["determinant", "dtn_eigenvalues"])
def test_slope_is_the_derivative_at_the_midpoint(seed, kernel):
    # the forward quotient over k and k (1 + _SLOPE_REL) is the derivative at
    # their midpoint to second order: compared with a central difference there
    rng = np.random.default_rng(seed)
    for i in range(40):
        g = random_connected_graph(rng, 1 + i % 10)
        for spec in _five_kinds(g) + [_scinv(g, rng)]:
            system = SecularSystem(g, spec)
            # a decoupled system has no B, but its det M
            if system.decoupled and kernel == "dtn_eigenvalues":
                continue
            ks = rng.uniform(0.2, 20.0, 8) / g.total_length
            if kernel == "determinant":
                fn = system.determinant
            else:
                # B's eigenvalues, each edge keeping its mode at k, for ks and the points next to them
                fn = lambda y: system.dtn_eigenvalues(y, np.resize(ks, len(y)))
            value, slope = secular._slopes(fn, ks)
            assert value.tolist() == fn(ks).tolist()
            mid = ks * (1 + secular._SLOPE_REL / 2)
            h = 1e-6 * mid
            ahead, behind = np.split(fn(np.concatenate((mid + h, mid - h))), 2)
            central = ((ahead - behind).T / (2 * h)).T
            if kernel == "determinant":
                np.testing.assert_allclose(slope, central, rtol=2e-6, atol=0)
            else:
                # eigenvalue rounding, about eps |B|, over a step of 6e-8 k sets the floor: a share of the row's largest slope
                scale = np.abs(central).max(axis=1, keepdims=True)
                assert (np.abs(slope - central) <= 5e-6 * scale).all()


def test_refinement_takes_few_rounds(monkeypatch):
    # Newton steps on difference-quotient slopes: few batched evaluations per refinement call
    rounds = []
    newton = secular._newton

    def counted(f, *args):
        rounds.append(0)

        def f_counted(i, x):
            rounds[-1] += 1
            return f(i, x)

        return newton(f_counted, *args)

    monkeypatch.setattr(secular, "_newton", counted)
    rng = np.random.default_rng(13)
    for i in range(40):
        edges = 1 + i % 8
        g = random_bipartite_graph(rng, edges, extra_edges=(max(1, edges // 2) + 1) // 2)
        spectrum_values(g, STANDARD, 13)
    assert rounds and np.mean(rounds) <= 7 and max(rounds) <= 10


# -------------------------------------------------------------- eigenfunctions


def test_eigenfunction_interval_cosine():
    g = build_graph([("e1", "u", "v", 1.0)])
    (f,) = eigenfunctions(g, STANDARD, PI)
    a, b = f.coeffs[0]
    assert abs(b) < 1e-9
    # L2-normalized cos(pi x) on [0, 1] has amplitude sqrt(2)
    assert abs(a) == pytest.approx(math.sqrt(2.0), rel=1e-9)


def _quadrature_gram(g, fs, k):
    """L2 inner products of the waves by trapezoid quadrature on each edge,
    independent of the closed-form Gram matrix that eigenfunctions uses."""
    gram = np.zeros((len(fs), len(fs)))
    for n, length in enumerate(g.lengths):
        x, step = np.linspace(0.0, length, 20_001, retstep=True)
        weights = np.full(x.size, step)
        weights[[0, -1]] *= 0.5
        waves = np.array([f.coeffs[n] @ (np.cos(k * x), np.sin(k * x)) for f in fs])
        gram += (waves * weights) @ waves.T
    return gram


def test_eigenfunctions_orthonormal():
    g = builtin("star", 3, 1)
    fs = eigenfunctions(g, STANDARD, PI / 2)
    assert len(fs) == 2
    assert _quadrature_gram(g, fs, PI / 2) == pytest.approx(np.eye(2), abs=1e-7)


def test_eigenfunctions_normalised_where_the_edge_integrals_differ():
    # on the star every edge has k L = pi / 2, where the integrals of cos^2
    # and sin^2 agree and each wave is a pure cos or sin; on a triangle of
    # unequal edges the first positive root mixes both on every edge
    g = build_graph([("a", "u", "v", 1.0), ("b", "v", "w", 1.3), ("c", "w", "u", 0.7)])
    for k in find_spectrum(g, STANDARD, 30.0).k_values()[1:]:
        fs = eigenfunctions(g, STANDARD, k)
        assert _quadrature_gram(g, fs, k) == pytest.approx(np.eye(len(fs)), abs=1e-7)


def test_eigenfunctions_reject_non_root():
    g = builtin("star", 3, 1)
    with pytest.raises(ValueError):
        eigenfunctions(g, STANDARD, 1.1)


def test_residual_detects_wrong_conditions():
    g = builtin("star", 3, 1)
    (f,) = eigenfunctions(g, STANDARD, PI)
    assert residual(g, STANDARD, f, PI) < 1e-9
    assert residual(g, ALL_DIRICHLET, f, PI) > 1e-3


def test_residual_of_a_zero_wave_checks_its_k():
    # a wave of all-zero coefficients is refused at a k the matrices refuse, as any wave is
    g = builtin("star", 3, 1)
    for k in (math.inf, -1.0, math.nan):
        with pytest.raises(ValueError):
            residual(g, STANDARD, EdgeWave(k, np.zeros((3, 2))), k)
    assert residual(g, STANDARD, EdgeWave(0.0, np.zeros((3, 2))), 0.0) == 0.0


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


def test_momentum_maps_each_edge_by_its_orientation():
    # per edge, in the orientation from the first colour class: (a, b) -> (b, -a)
    rng = np.random.default_rng(43)
    for _ in range(10):
        g = random_bipartite_graph(rng, int(rng.integers(1, 9)))
        f = EdgeWave(k=1.0, coeffs=rng.standard_normal((g.num_edges, 2)))
        first = analyze(g).bipartition[0]
        expected = [(b, -a) if g.vertex_names[e.tail] in first else (-b, a) for e, (a, b) in zip(g.edges, f.coeffs)]
        assert apply_momentum(f, g).coeffs.tolist() == np.array(expected).tolist()


def test_momentum_rejects_non_bipartite():
    g = builtin("cycle", 1, 1, 1)
    s = find_spectrum(g, STANDARD, 20.0)
    k = next(r.k for r in s.records if r.k > 0)
    (f, *_) = eigenfunctions(g, STANDARD, k)
    with pytest.raises(ValueError):
        apply_momentum(f, g)


@pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
def test_momentum_rejects_a_k_that_is_not_finite_and_positive(k):
    g = build_graph([("e1", "u", "v", 1.0)])
    with pytest.raises(ValueError, match="finite k > 0"):
        apply_momentum(EdgeWave(k, np.ones((1, 2))), g)


# ------------------------------------------------------- Dirichlet intervals


def test_dirichlet_closed_form_matches_secular():
    g = builtin("cycle", 1, 3)
    closed = dirichlet_intervals(g, 50.0)
    secular = _dirichlet_roots(g, 50.0)
    approx_list(secular.values(), closed.values())
    assert find_spectrum(g, ALL_DIRICHLET, 50.0) == closed


def test_dirichlet_merges_coincident_edges():
    g = builtin("star", 3, 1)
    s = find_spectrum(g, ALL_DIRICHLET, 50.0)
    assert s.records[0].multiplicity == 3
    assert s.records[0].lam == pytest.approx(PI**2)


@pytest.mark.parametrize("lam_max", [9.869604401089328, PI**2, (2 * PI) ** 2 * (1 - 1e-13), 41.0])
def test_dirichlet_window_ends_where_find_spectrum_does(lam_max):
    # all-Dirichlet vertex conditions decouple the edges: a root a rounding below or above
    # the window's edge (9.869604401089328 < pi^2) is in both spectra or in neither
    g = builtin("star", 3, 1)
    closed, solved = dirichlet_intervals(g, lam_max), _dirichlet_roots(g, lam_max)
    assert find_spectrum(g, ALL_DIRICHLET, lam_max) == closed
    assert [r.multiplicity for r in closed.records] == [r.multiplicity for r in solved.records]
    for a, b in zip(closed.records, solved.records, strict=True):
        assert a.k == pytest.approx(b.k, rel=1e-14, abs=0)


def _decoupled_specs(g):
    """Graphs and conditions that leave no vertex value free: dir and an all-empty scinv spec on g, and ast on g's edges pulled apart."""
    empty = ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces={v: np.zeros((0, d)) for v, d in g.degrees.items()})
    apart = build_graph([(e.name, f"{e.name}.0", f"{e.name}.1", e.length) for e in g.edges])
    return [(g, ALL_DIRICHLET), (g, empty), (apart, ANTI_STANDARD)]


def test_decoupled_conditions_are_listed_in_closed_form(monkeypatch):
    rng = np.random.default_rng(31)
    graphs = [random_connected_graph(rng, 32)]
    for i in range(30):
        g = _looped(rng, 1 + i % 12)
        # and an edge of the same length as the first, parallel to it
        graphs.append(MetricGraph(g.edges + (dataclasses.replace(g.edges[0], name="twin"),), g.vertex_names))
    calls = _kernel_calls(monkeypatch)
    for g in graphs:
        for h, spec in _decoupled_specs(g):
            lam_max = (float(rng.uniform(1.0, 60.0)) * PI / h.total_length) ** 2
            assert find_spectrum(h, spec, lam_max).records == dirichlet_intervals(h, lam_max).records
            count = int(rng.integers(1, 30))
            values = spectrum_values(h, spec, count)
            closed = dirichlet_intervals(h, _kept(h, spec).complete_up_to)
            assert _kept(h, spec).records == closed.records and values == closed.values(count)
    # no count, determinant, DtN eigenvalue or SVD: not even the zero modes are counted numerically
    assert calls == []


def test_kept_system_holds_its_rows_sparse():
    # dense 2E x 2E value and derivative rows would hold 4.2 MB here
    tracemalloc.start()
    try:
        g = builtin("path", *[0.01] * 256)
        spectrum_values(g, STANDARD, 3)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1.5e6


def test_compile_allocates_no_dense_rows():
    # dense 2E x 2E value and derivative rows would peak at 18.4 MB here
    g = builtin("path", *[0.01] * 512)
    tracemalloc.start()
    try:
        assert SecularSystem(g, STANDARD)._entries.shape == (4, 2 * 2 * 512 - 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("spec", [ALL_DIRICHLET, STANDARD], ids=["dir", "st"])
def test_large_star_is_kept_or_refused_in_linear_time(spec):
    # a vertex of degree 100,000: its d x d rows (80 GB) are never built, so
    # dir is kept, in closed form, and st refused at once, in O(E) memory (8 MB)
    g = builtin("star", 100_000, 1.0)
    g.endpoints_of_vertex
    tracemalloc.start()
    try:
        if spec is STANDARD:
            with pytest.raises(ValueError, match="the graph has 100000 edges, more than 512"):
                SecularSystem(g, spec)
        else:
            assert SecularSystem(g, spec).decoupled
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _past_the_edge_bound():
    """Decoupled systems of more than ``_MAX_EDGES`` edges: dir and an all-empty scinv spec on a 2,000-edge path, ast on 600 disjoint edges."""
    rng = np.random.default_rng(2000)
    path = builtin("path", *rng.uniform(0.5, 2.0, 2000).tolist())
    empty = ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces={v: np.zeros((0, d)) for v, d in path.degrees.items()})
    apart = build_graph([(f"e{i}", f"a{i}", f"b{i}", float(x)) for i, x in enumerate(rng.uniform(0.5, 2.0, 600))])
    return [(path, ALL_DIRICHLET), (path, empty), (apart, ANTI_STANDARD)]


@pytest.mark.parametrize("case", range(3), ids=["dir", "empty_scinv", "ast_apart"])
def test_decoupled_systems_past_the_edge_bound_are_listed(case):
    g, spec = _past_the_edge_bound()[case]
    assert g.num_edges > secular._MAX_EDGES
    lam_max = (3 * PI) ** 2
    assert find_spectrum(g, spec, lam_max) == dirichlet_intervals(g, lam_max)
    h = _copy(g)
    values = spectrum_values(h, spec, 2500)
    assert values == dirichlet_intervals(h, _kept(h, spec).complete_up_to).values(2500)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda g: secular._system(g, ALL_DIRICHLET).matrices(1.0), id="matrices"),
        pytest.param(lambda g: assemble(g, ALL_DIRICHLET, 1.0), id="assemble"),
        pytest.param(lambda g: residual(g, ALL_DIRICHLET, EdgeWave(1.0, np.ones((g.num_edges, 2))), 1.0), id="residual"),
        pytest.param(lambda g: residual(g, ALL_DIRICHLET, EdgeWave(0.0, np.ones((g.num_edges, 2))), 0.0), id="residual_at_0"),
        pytest.param(lambda g: eigenfunctions(g, ALL_DIRICHLET, PI / 0.01), id="eigenfunctions"),
        pytest.param(lambda g: secular._system(g, ALL_DIRICHLET).count(1.0), id="count"),
        pytest.param(lambda g: secular._system(g, ALL_DIRICHLET).dtn_eigenvalues(100.0), id="dtn_eigenvalues"),
        pytest.param(lambda g: secular._system(g, ALL_DIRICHLET).nullity, id="nullity"),
    ],
)
def test_large_decoupled_system_refuses_its_matrices(call):
    # the system is kept and lists its spectrum, but no 4,000 x 4,000 matrix,
    # B or (rows, 2E) mode array is built
    g = builtin("path", *[0.01] * 2000)
    find_spectrum(g, ALL_DIRICHLET, 1e5)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="the graph has 2000 edges, more than 512"):
        call(g)
    assert time.perf_counter() - start < 1.0


def test_large_decoupled_system_has_no_zero_mode(monkeypatch):
    g = builtin("path", *[0.01] * 2000)
    calls = _kernel_calls(monkeypatch)
    start = time.perf_counter()
    assert solve_zero_modes(g, ALL_DIRICHLET) == (0, [])
    assert time.perf_counter() - start < 1.0 and calls == []


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


def test_dense_count_grid_keeps_the_star_spectrum(monkeypatch):
    g = builtin("star", 3, 1)
    monkeypatch.setattr(secular, "_GRID_POINTS_PER_MEAN_GAP", 40)
    s = find_spectrum(g, STANDARD, 41.0)
    assert s.total_count() == 7


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda g, spec: find_spectrum(g, spec, 10.0), id="find_spectrum"),
        pytest.param(lambda g, spec: spectrum_values(g, spec, 3), id="spectrum_values"),
        pytest.param(SecularSystem, id="SecularSystem"),
        pytest.param(lambda g, spec: assemble(g, spec, 1.0), id="assemble"),
        pytest.param(lambda g, spec: residual(g, spec, EdgeWave(1.0, np.ones((3, 2))), 1.0), id="residual"),
        pytest.param(solve_zero_modes, id="solve_zero_modes"),
        pytest.param(lambda g, spec: eigenfunctions(g, spec, PI / 2), id="eigenfunctions"),
    ],
)
def test_boundary_validation_happens_in_solver(call):
    # the centre c of the 3-star has degree 3, outside the natural boundary
    with pytest.raises(ConditionError):
        call(builtin("star", 3, 1), standard_dirichlet(["c"]))


def test_edge_count_is_bounded():
    # large-graph solves are measured at E = 128 and 256, so those must compile;
    # at the bound the system compiles; one edge more is refused before allocating
    assert secular._MAX_EDGES >= 256
    assert SecularSystem(builtin("path", *[0.01] * secular._MAX_EDGES), STANDARD).size == 2 * secular._MAX_EDGES
    with pytest.raises(ValueError, match=f"more than {secular._MAX_EDGES}"):
        SecularSystem(builtin("path", *[0.01] * (secular._MAX_EDGES + 1)), STANDARD)


def test_scaling_invariant_spec_without_a_vertex_is_refused():
    g = builtin("star", 3, 1)
    spec = ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces={"c": np.full((1, 3), 3**-0.5)})
    with pytest.raises(ConditionError, match="no subspace given for vertex 'v1'"):
        SecularSystem(g, spec)


def test_spectrum_values_checks_the_spec_once(monkeypatch):
    checked = []
    validate_for = ConditionSpec.validate_for
    monkeypatch.setattr(ConditionSpec, "validate_for", lambda spec, g: checked.append(spec) or validate_for(spec, g))
    spectrum_values(builtin("star", 3, 1), standard_dirichlet(["v1"]), 5)
    assert len(checked) == 1


# ------------------------------------------------------------------ zero modes


def _scinv(g, rng):
    """A scaling-invariant spec on g with random orthonormal subspaces of random rank."""
    subspaces = {}
    for name, deg in g.degrees.items():
        q, _ = np.linalg.qr(rng.standard_normal((deg, deg)))
        subspaces[name] = q[:, : int(rng.integers(0, deg + 1))].T.copy()
    return ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces=subspaces)


def _every_kind(g, rng):
    """Specs of every condition kind on g: the mixed kinds on the first leaf, scinv with random subspaces."""
    boundary = sorted(analyze(g).boundary)[:1]
    return [
        STANDARD,
        ANTI_STANDARD,
        ALL_DIRICHLET,
        dual(ALL_DIRICHLET, g),
        standard_dirichlet(boundary),
        anti_standard_neumann(boundary),
        _scinv(g, rng),
    ]


def test_nullity_counts_the_zero_modes():
    rng = np.random.default_rng(97)
    graphs = [make() for make in PINNED_GRAPHS.values()]
    graphs += [
        (random_bipartite_graph if i % 2 else random_connected_graph)(rng, int(rng.integers(1, 9)))
        for i in range(200)
    ]
    for g in graphs:
        for spec in _every_kind(g, rng):
            system = SecularSystem(g, spec)
            assert system.nullity == len(system.zero_modes)


# ------------------------------------------------------ spectra kept per graph


def _compiled(monkeypatch) -> list:
    """The specs of the SecularSystems compiled from now on."""
    specs = []
    init = SecularSystem.__init__
    monkeypatch.setattr(SecularSystem, "__init__", lambda self, g, spec: specs.append(spec) or init(self, g, spec))
    return specs


def _copy(g):
    """A new graph object with the same content."""
    return MetricGraph(g.edges, g.vertex_names)


def _kept(g, spec):
    """The spectrum kept with g under spec."""
    return g._systems[spec._value()].spectrum


def test_repeat_request_compiles_no_system(monkeypatch):
    # one zero mode and 12 positive eigenvalues were solved
    g = builtin("cycle", 1, 2, 1, 2)
    want = spectrum_values(g, ANTI_STANDARD, 12)
    compiled = _compiled(monkeypatch)
    for count in (13, 12, 5, 1, 0):
        assert spectrum_values(g, ANTI_STANDARD, count) == spectrum_values(g, ANTI_STANDARD, 13)[:count]
    assert spectrum_values(g, ANTI_STANDARD, 12) == want
    assert compiled == []


@pytest.mark.parametrize("kind", ["st", "ast", "dir", "stD"])
def test_prefix_reads_match_fresh_solves(kind):
    rng = np.random.default_rng(["st", "ast", "dir", "stD"].index(kind))
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(1, 7)))
        spec = {
            "st": STANDARD,
            "ast": ANTI_STANDARD,
            "dir": ALL_DIRICHLET,
            "stD": standard_dirichlet(sorted(analyze(g).boundary)),
        }[kind]
        large = int(rng.integers(6, 14))
        count = int(rng.integers(1, large + 1))
        spectrum_values(g, spec, large)
        fresh = _copy(g)
        got, want = spectrum_values(g, spec, count), spectrum_values(fresh, spec, count)
        kept = _kept(g, spec)
        assert kept.total_count() >= large
        assert [r.multiplicity for r in kept._expanded(count)] == [r.multiplicity for r in _kept(fresh, spec)._expanded(count)]
        for a, b in zip(got, want, strict=True):
            assert abs(a - b) <= 1e-14 * abs(b)


def test_larger_request_after_a_smaller_one():
    g = random_connected_graph(np.random.default_rng(5), 5)
    assert len(spectrum_values(g, STANDARD, 3)) == 3
    got = spectrum_values(g, STANDARD, 20)
    assert len(got) == 20
    assert got == [pytest.approx(w, rel=1e-14, abs=0) for w in spectrum_values(_copy(g), STANDARD, 20)]


def test_kept_spectrum_is_freed_with_its_graph():
    g = builtin("star", 3, 1)
    spectrum_values(g, STANDARD, 4)
    # the cut graph is kept with g, and its own systems and spectra with it
    assert verify("CUT_MONO", g, count=4, cut=("c", ([("e1", 0)], [("e2", 0), ("e3", 0)]))).verdict == "holds"
    (cut,) = g._cuts.values()
    # a graph seen only by find_spectrum keeps its system and spectrum the same way
    h = builtin("lasso", 1.0, 0.6)
    find_spectrum(h, ANTI_STANDARD, 10.0)
    kept = [weakref.ref(x) for x in (_kept(g, STANDARD), g._systems[STANDARD._value()], cut)]
    kept += [weakref.ref(x) for x in (*cut._systems.values(), *(s.spectrum for s in cut._systems.values()))]
    kept += [weakref.ref(x) for x in (_kept(h, ANTI_STANDARD), *h._systems.values())]
    assert len(kept) == 9
    del g, cut, h
    gc.collect()
    assert [ref() for ref in kept] == [None] * 9


def test_a_new_graph_object_is_solved_again(monkeypatch):
    g = builtin("star", 3, 1)
    spectrum_values(g, STANDARD, 5)
    compiled, lows = _compiled(monkeypatch), _solves(monkeypatch)
    spectrum_values(_copy(g), STANDARD, 5)
    assert compiled == [STANDARD] and [k_lo for _, k_lo in lows] == [0.0]


def test_scaling_invariant_spec_is_compiled_and_solved_once(monkeypatch):
    g = random_connected_graph(np.random.default_rng(11), 5)
    spec = _scinv(g, np.random.default_rng(12))
    compiled, lows = _compiled(monkeypatch), _solves(monkeypatch)
    want = spectrum_values(g, spec, 8)
    # the same subspaces in new arrays are the same conditions
    same = ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces={v: p.copy() for v, p in spec.plus_subspaces.items()})
    assert spectrum_values(g, spec, 8) == spectrum_values(g, same, 8) == want
    assert compiled == [spec] and [k_lo for _, k_lo in lows] == [0.0]


def test_dual_dirichlet_built_twice_shares_one_system(monkeypatch):
    g = builtin("star", 3, 1)
    compiled = _compiled(monkeypatch)
    first, second = dual(ALL_DIRICHLET, g), dual(ALL_DIRICHLET, g)
    assert first is not second
    assert spectrum_values(g, first, 5) == spectrum_values(g, second, 5)
    assert compiled == [first] and len(g._systems) == 1


def test_different_subspace_specs_keep_different_systems():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(1, 7)))
        specs = [_scinv(g, rng), _scinv(g, rng)]
        for spec in specs:
            spectrum_values(g, spec, 8)
        assert len(g._systems) == 2
        for spec in specs:
            _assert_fresh(_kept(g, spec), g, spec)


def test_subspace_changed_in_place_gets_a_new_system(monkeypatch):
    # unequal edges: on the equilateral star both subspaces give the same spectrum
    g = build_graph([(f"e{i + 1}", "c", f"v{i + 1}", length) for i, length in enumerate((1.0, 1.3, 0.7))])
    plus = np.full((1, 3), 3**-0.5)
    spec = ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces={"c": plus, "v1": np.eye(1), "v2": np.eye(1), "v3": np.eye(1)})
    before = spectrum_values(g, spec, 6)
    compiled = _compiled(monkeypatch)
    # in place, the centre's X+ becomes the first edge's end: the kept spectrum is not read for it
    plus[0] = [1.0, 0.0, 0.0]
    after = spectrum_values(g, spec, 6)
    assert compiled == [spec] and len(g._systems) == 2
    assert after != before
    assert after == [pytest.approx(x, rel=1e-14, abs=0) for x in spectrum_values(_copy(g), spec, 6)]
    _assert_fresh(_kept(g, spec), g, spec)


# ------------------------------------------------------- kept spectra grown


def _looped(rng, edges):
    """A random connected graph with a loop or a pair of parallel edges."""
    if edges == 1:
        return build_graph([("e1", "v0", "v0", float(rng.uniform(0.5, 2.0)))])
    while True:
        g = random_connected_graph(rng, edges, extra_edges=max(1, edges // 2))
        ends = [tuple(sorted((e.tail, e.head))) for e in g.edges]
        if any(a == b for a, b in ends) or len(set(ends)) < len(ends):
            return g


def _five_kinds(g):
    """st, ast and dir, and stD and astN on the first leaf if there is one."""
    leaf = sorted(analyze(g).boundary)[:1]
    return [STANDARD, ANTI_STANDARD, ALL_DIRICHLET] + (
        [standard_dirichlet(leaf), anti_standard_neumann(leaf)] if leaf else []
    )


def _solves(monkeypatch) -> list:
    """(system, lower end) of the windows solved from now on: the lower end is 0 for a whole solve, the seam for a growth."""
    lows = []
    positive_roots = secular._positive_roots

    def recorded(system, lam_max, k_lo=0.0, c_lo=0):
        lows.append((system, k_lo))
        return positive_roots(system, lam_max, k_lo, c_lo)

    monkeypatch.setattr(secular, "_positive_roots", recorded)
    return lows


def _kernel_calls(monkeypatch) -> list:
    """(name, system) of each count, determinant and DtN eigenvalue call from now on, and ("svd", None) of each numpy SVD."""
    calls = []

    def recorded(name):
        kernel = getattr(SecularSystem, name)
        return lambda self, *args: calls.append((name, self)) or kernel(self, *args)

    for name in ("count", "determinant", "dtn_eigenvalues"):
        monkeypatch.setattr(SecularSystem, name, recorded(name))
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(("svd", None)) or svd(*args, **kwargs))
    return calls


def _assert_fresh(kept, g, spec):
    """The kept spectrum is what find_spectrum gives on its window, on a new graph object."""
    fresh = find_spectrum(_copy(g), spec, kept.complete_up_to)
    assert [r.multiplicity for r in kept.records] == [r.multiplicity for r in fresh.records]
    for a, b in zip(kept.records, fresh.records, strict=True):
        assert abs(a.lam - b.lam) <= 1e-14 * b.lam


@pytest.mark.parametrize("family", ["bipartite", "looped", "tree"])
def test_grown_spectra_match_fresh_solves(family, monkeypatch):
    make = {"bipartite": random_bipartite_graph, "looped": _looped, "tree": random_tree}[family]
    rng = np.random.default_rng(["bipartite", "looped", "tree"].index(family))
    lows, calls = _solves(monkeypatch), _kernel_calls(monkeypatch)
    for i in range(100):
        g = make(rng, 1 + i % 12)
        # two of the kinds in turn, so that each kind meets many sizes and shapes
        kinds = _five_kinds(g)
        for spec in (kinds[i % len(kinds)], kinds[(i + 2) % len(kinds)]):
            small = int(rng.integers(1, 5))
            spectrum_values(g, spec, small)
            # a request past the kept spectrum, then a larger window: each solves only past the kept window
            large = _kept(g, spec).total_count() + int(rng.integers(1, 5))
            assert len(spectrum_values(g, spec, large)) == large
            kept = _kept(g, spec)
            _assert_fresh(kept, g, spec)
            wider = find_spectrum(g, spec, kept.complete_up_to * float(rng.uniform(1.1, 1.5)))
            _assert_fresh(wider, g, spec)
            assert wider.records[: len(kept.records) - 1] == kept.records[:-1]
            system = g._systems[spec._value()]
            if system.decoupled:
                # no vertex value is free (dir, or ast on one edge): listed in closed form
                assert [s for s, _ in lows if s is system] == [] and [s for _, s in calls if s is system] == []
                assert _kept(g, spec).records == dirichlet_intervals(g, _kept(g, spec).complete_up_to).records
            else:
                assert [k_lo > 0 for s, k_lo in lows if s is system] == [False, True, True]
            del lows[:], calls[:]


def test_window_ending_on_a_double_eigenvalue_grows(monkeypatch):
    # every positive root of the equilateral 4-cycle is double, at k = pi n / 2
    g = builtin("cycle", 1, 1, 1, 1)
    lows = _solves(monkeypatch)
    kept = find_spectrum(g, STANDARD, PI**2)
    assert [(r.k, r.multiplicity) for r in kept.records] == [(0.0, 1), (pytest.approx(PI / 2, rel=1e-14), 2), (pytest.approx(PI, rel=1e-14), 2)]
    grown = find_spectrum(g, STANDARD, (2 * PI) ** 2)
    assert [k_lo for _, k_lo in lows] == [0.0, secular._top(PI**2)]
    assert [r.multiplicity for r in grown.records] == [1] + [2] * 4
    assert [r.k for r in grown.records[1:]] == [pytest.approx(PI * n / 2, rel=1e-14) for n in range(1, 5)]
    _assert_fresh(grown, g, STANDARD)
    # the smaller window, read from the grown spectrum
    assert find_spectrum(g, STANDARD, PI**2).values() == find_spectrum(_copy(g), STANDARD, PI**2).values()


def test_seam_mismatch_solves_the_whole_window(monkeypatch):
    g = random_connected_graph(np.random.default_rng(11), 6)
    kept = find_spectrum(g, ANTI_STANDARD, 10.0)
    seam = secular._top(kept.complete_up_to)
    count = SecularSystem.count
    # a count that disagrees with the kept spectrum at its seam
    monkeypatch.setattr(SecularSystem, "count", lambda self, ks: count(self, ks) + (np.asarray(ks) == seam))
    lows = _solves(monkeypatch)
    grown = find_spectrum(g, ANTI_STANDARD, 30.0)
    assert [k_lo for _, k_lo in lows] == [0.0]
    monkeypatch.undo()
    _assert_fresh(grown, g, ANTI_STANDARD)
    assert grown.complete_up_to == 30.0


def test_kept_system_serves_residual_eigenfunctions_and_zero_modes(monkeypatch):
    g = builtin("cycle", 1, 2, 1, 2)
    spectrum_values(g, STANDARD, 6)
    compiled = _compiled(monkeypatch)
    f, _ = eigenfunctions(g, STANDARD, 2 * PI / 6)
    assert residual(g, STANDARD, f, 2 * PI / 6) < 1e-12
    assert solve_zero_modes(g, STANDARD)[0] == 1
    assemble(g, STANDARD, 1.0)
    assert compiled == []


def test_find_spectrum_reads_and_grows_the_kept_spectrum(monkeypatch):
    g = random_connected_graph(np.random.default_rng(3), 5)
    for spec in (STANDARD, ANTI_STANDARD, ALL_DIRICHLET):
        spectrum_values(g, spec, 20)
        kept = _kept(g, spec)
        # windows inside the kept one, two of them ending on a kept eigenvalue
        lams = [kept.records[3].lam, kept.records[-1].lam, 0.3 * kept.complete_up_to, kept.complete_up_to]
        compiled, lows, calls = _compiled(monkeypatch), _solves(monkeypatch), _kernel_calls(monkeypatch)
        got = [find_spectrum(g, spec, lam) for lam in lams]
        assert compiled == [] and lows == []
        wider = find_spectrum(g, spec, 2.0 * kept.complete_up_to)
        if spec == ALL_DIRICHLET:
            # a larger window is listed in closed form again
            assert compiled == [] and lows == [] and [name for name, _ in calls] == []
            for s in (kept, _kept(g, spec)):
                assert s.records == dirichlet_intervals(g, s.complete_up_to).records
        else:
            # a larger window grows from the seam
            assert compiled == [] and [k_lo for _, k_lo in lows] == [secular._top(kept.complete_up_to)]
        monkeypatch.undo()
        for lam, s in zip(lams + [2.0 * kept.complete_up_to], got + [wider]):
            assert s.complete_up_to == lam
            _assert_fresh(s, g, spec)
        assert _kept(g, spec) is not kept and _kept(g, spec).complete_up_to == 2.0 * kept.complete_up_to


def test_refused_window_leaves_the_kept_state_as_it_was(monkeypatch):
    g = random_connected_graph(np.random.default_rng(7), 4)
    spectrum_values(g, STANDARD, 5)
    kept = _kept(g, STANDARD)
    # the window is checked before the kept spectrum is read or grown
    for lam in (math.inf, math.nan, 1e14):
        with pytest.raises(ValueError):
            find_spectrum(g, STANDARD, lam)
    # a count past the int64 range of the exact count, too, at once
    for count in (10**6, 10**19):
        with pytest.raises(ValueError):
            spectrum_values(g, STANDARD, count)
    assert _kept(g, STANDARD) is kept
    compiled, lows = _compiled(monkeypatch), _solves(monkeypatch)
    spectrum_values(g, STANDARD, 5)
    assert compiled == [] and lows == []


def test_refused_count_is_named_in_the_refusal(monkeypatch):
    # the message names the count asked for, not a window the caller never gave,
    # and no count is taken first
    counted = []
    count = SecularSystem.count
    monkeypatch.setattr(SecularSystem, "count", lambda self, ks: counted.append(ks) or count(self, ks))
    for n in (20000, 10**19):
        with pytest.raises(ValueError, match=f"^count must be below 10000, got {n}$"):
            spectrum_values(builtin("star", 3, 1), STANDARD, n)
    # SHIFT reads lambda_{k+1}: its largest count asks the solver for one more
    with pytest.raises(ValueError, match="^count must be below 10000, got 10001$"):
        verify("SHIFT", builtin("cycle", 1, 1, 1, 1), count=10000)
    assert counted == []
