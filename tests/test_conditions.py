import gc
import tracemalloc

import numpy as np
import pytest

from graphspec import (
    ALL_DIRICHLET,
    ANTI_STANDARD,
    STANDARD,
    ConditionKind,
    ConditionSpec,
    Edge,
    MetricGraph,
    analyze,
    anti_standard_neumann,
    build_graph,
    builtin,
    condition_rows,
    dual,
    find_spectrum,
    kernel_dimension_combinatorial,
    solve_zero_modes,
    standard_dirichlet,
)
from graphspec import secular
from graphspec.conditions import ConditionError, _plus_dimension
from graphspec.generate import random_bipartite_graph, random_connected_graph

TOL = 1e-12


def scinv_spec(g, rng):
    """Random scaling-invariant spec with orthonormal plus-subspace rows."""
    subs = {}
    for name, deg in g.degrees.items():
        r = int(rng.integers(0, deg + 1))
        m = rng.standard_normal((deg, deg))
        q, _ = np.linalg.qr(m)
        subs[name] = q[:, :r].T.copy()
    return ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces=subs)


def all_specs(g, rng):
    boundary = sorted(analyze(g).boundary)
    specs = [STANDARD, ANTI_STANDARD, ALL_DIRICHLET, scinv_spec(g, rng)]
    if boundary:
        specs.append(standard_dirichlet(boundary[:1]))
        specs.append(anti_standard_neumann(boundary))
    return specs


# ------------------------------------------------------------ row structure


def test_rows_orthonormal_and_complete():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = random_connected_graph(rng, int(rng.integers(1, 9)))
        for spec in all_specs(g, rng):
            for v, d in g.degrees.items():
                rows = condition_rows(v, d, spec)
                nv, nd = rows.value_rows.shape[0], rows.derivative_rows.shape[0]
                assert nv + nd == d
                stacked = [m for m in (rows.value_rows, rows.derivative_rows) if m.size]
                for m in stacked:
                    gram = m @ m.T
                    assert np.max(np.abs(gram - np.eye(m.shape[0]))) < TOL


def test_standard_rows():
    rows = condition_rows("v", 3, STANDARD)
    assert rows.value_rows.shape == (2, 3)
    # value rows annihilate constants, derivative row is the balanced sum
    assert np.max(np.abs(rows.value_rows @ np.ones(3))) < TOL
    assert np.allclose(rows.derivative_rows, np.full((1, 3), 1 / np.sqrt(3)))


def test_rows_built_once_per_degree_are_the_callers_to_write():
    first = condition_rows("v", 4, STANDARD).value_rows
    want = first.copy()
    first[:] = 0.0
    for spec in (STANDARD, ANTI_STANDARD):
        rows = condition_rows("w", 4, spec)
        again = rows.value_rows if spec == STANDARD else rows.derivative_rows
        assert np.array_equal(again, want) and again.flags.writeable


def test_large_degree_complement_is_not_kept():
    # a complement above the kept degrees is built on each call and freed with its rows;
    # a small one first, so that what the first call allocates is not counted
    condition_rows("c", 4, ANTI_STANDARD)
    tracemalloc.start()
    try:
        rows = condition_rows("c", 512, ANTI_STANDARD)
        assert rows.derivative_rows.shape == (511, 512) and rows.derivative_rows.flags.writeable
        del rows
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 0.05e6
    again = condition_rows("c", 512, STANDARD).value_rows
    assert np.max(np.abs(again @ again.T - np.eye(511))) < TOL and np.max(np.abs(again.sum(axis=1))) < TOL


def test_degree_one_standard_is_neumann():
    rows = condition_rows("v", 1, STANDARD)
    assert rows.value_rows.shape == (0, 1)
    assert np.allclose(rows.derivative_rows, [[1.0]])


def test_degree_one_anti_standard_is_dirichlet():
    rows = condition_rows("v", 1, ANTI_STANDARD)
    assert np.allclose(rows.value_rows, [[1.0]])
    assert rows.derivative_rows.shape == (0, 1)


def test_mixed_rows_switch_on_boundary():
    spec = standard_dirichlet(["b"])
    at_b = condition_rows("b", 1, spec)
    assert np.allclose(at_b.value_rows, [[1.0]])
    interior = condition_rows("v", 3, spec)
    assert interior.derivative_rows.shape == (1, 3)


@pytest.mark.parametrize("d", [*range(1, 9), 512])
def test_plus_dimension_is_the_count_of_derivative_rows(d):
    # the system reads dim X+ without building rows; both come from one role rule
    rng = np.random.default_rng(d)
    cases = [(spec, "v") for spec in (STANDARD, ANTI_STANDARD, ALL_DIRICHLET)]
    for mixed in (standard_dirichlet({"b"}), anti_standard_neumann({"b"})):
        # B holds degree-1 vertices only: at d = 1, v is inside B as well as outside
        cases += [(mixed, v) for v in ("v", "b")[: 2 if d == 1 else 1]]
    for r in sorted({0, d, *rng.integers(0, d + 1, size=3).tolist()}):
        rows = np.linalg.qr(rng.standard_normal((d, d)))[0][:, :r].T.copy()
        cases.append((ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces={"v": rows}), "v"))
    for spec, v in cases:
        assert _plus_dimension(v, d, spec) == len(condition_rows(v, d, spec).derivative_rows)


def test_scinv_rows_split_given_subspace():
    # X+ spanned by (1,1,0)/sqrt(2): one derivative row, two value rows
    subs = {"v": np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2)}
    spec = ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces=subs)
    rows = condition_rows("v", 3, spec)
    assert rows.value_rows.shape == (2, 3)
    assert rows.derivative_rows.shape == (1, 3)
    # values must lie in X+: rows annihilate it
    assert np.max(np.abs(rows.value_rows @ subs["v"].T)) < TOL
    # derivatives lie in the complement
    assert np.max(np.abs(rows.derivative_rows @ rows.value_rows.T)) < TOL


@pytest.mark.parametrize("rows", [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 1.0]]])
def test_scinv_rows_must_be_orthonormal(rows):
    # with a zero row or two parallel ones the split would take a wrong X+;
    # the vertex is refused by name, also as a system compiles
    spec = ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces={"c": np.array(rows), "v1": np.eye(1), "v2": np.eye(1), "v3": np.eye(1)})
    with pytest.raises(ConditionError, match="'c'.*orthonormal"):
        condition_rows("c", 3, spec)
    with pytest.raises(ConditionError, match="'c'"):
        find_spectrum(builtin("star", 3, 1), spec, 10.0)


# -------------------------------------------------------------------- duality


def test_dual_swaps_families():
    assert dual(STANDARD) == ANTI_STANDARD
    assert dual(ANTI_STANDARD) == STANDARD
    s = standard_dirichlet(["b"])
    assert dual(s) == anti_standard_neumann(["b"])
    assert dual(dual(s)) == s


def test_specs_compare_and_hash_by_value():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 5)
    spec = scinv_spec(g, rng)
    # equal subspaces in distinct arrays
    same = ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces={v: p.copy() for v, p in spec.plus_subspaces.items()})
    assert spec == same and hash(spec) == hash(same)
    other = dict(spec.plus_subspaces)
    v = next(v for v, p in other.items() if p.size)
    other[v] = -other[v]
    assert spec != ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces=other)
    assert spec != scinv_spec(g, rng) and spec != STANDARD
    for s in (STANDARD, ANTI_STANDARD, standard_dirichlet(["b"]), anti_standard_neumann(["b"])):
        assert dual(dual(s)) == s and hash(dual(dual(s))) == hash(s)


def same_span(m1, m2):
    """Orthonormal rows m1 and m2 span the same subspace."""
    assert m1.shape == m2.shape
    if m1.size:
        assert np.max(np.abs(m2 - (m2 @ m1.T) @ m1)) < 1e-10


@pytest.mark.parametrize("token", ["st", "ast", "dir", "scinv", "stD", "astN"])
def test_dual_swaps_subspaces_numerically(token):
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, 5)
    spec = {s.token: s for s in all_specs(g, rng)}[token]
    ds = dual(spec, g)
    dds = dual(ds, g)
    for v, d in g.degrees.items():
        a = condition_rows(v, d, spec)
        b = condition_rows(v, d, ds)
        # dual value rows span the same space as the original derivative rows
        same_span(a.value_rows, b.derivative_rows)
        same_span(a.derivative_rows, b.value_rows)
        # the dual of the dual has the original X+
        same_span(a.derivative_rows, condition_rows(v, d, dds).derivative_rows)


def test_dual_dirichlet_needs_graph():
    with pytest.raises(ConditionError):
        dual(ALL_DIRICHLET)
    g = builtin("star", 3, 1)
    dn = dual(ALL_DIRICHLET, g)
    rows = condition_rows("c", 3, dn)
    assert rows.value_rows.shape == (0, 3)
    assert rows.derivative_rows.shape == (3, 3)


# ------------------------------------------------------- one (X+, X-) model


def test_named_kinds_are_their_plus_subspaces():
    # every named kind solves like the scaling-invariant spec whose X+ at
    # each vertex is the span of its derivative rows
    pairs = 0
    for seed in range(60):
        gen = random_connected_graph if seed % 2 else random_bipartite_graph
        g = gen(np.random.default_rng(seed), 1 + seed % 6)
        boundary = sorted(analyze(g).boundary)
        specs = [STANDARD, ANTI_STANDARD, ALL_DIRICHLET]
        if boundary:
            specs += [standard_dirichlet(boundary[:1]), anti_standard_neumann(boundary)]
        lam_max = (np.pi * (g.num_edges + 4) / g.total_length) ** 2
        for spec in specs:
            plus = {v: condition_rows(v, d, spec).derivative_rows for v, d in g.degrees.items()}
            scinv = ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces=plus)
            named, model = find_spectrum(g, spec, lam_max), find_spectrum(g, scinv, lam_max)
            assert [r.multiplicity for r in named.records] == [r.multiplicity for r in model.records]
            for r, s in zip(named.records, model.records):
                assert abs(r.k - s.k) <= 1e-12 * max(r.k, s.k)
            pairs += 1
    assert pairs > 250


# ---------------------------------------------------------------- validation


def test_validate_boundary_must_be_degree_one():
    g = builtin("star", 3, 1)
    standard_dirichlet(["v1"]).validate_for(g)
    with pytest.raises(ConditionError):
        standard_dirichlet(["c"]).validate_for(g)
    # the rows refuse it too, instead of Dirichlet rows at a degree-3 vertex
    for spec in (standard_dirichlet(["c"]), anti_standard_neumann(["c"])):
        with pytest.raises(ConditionError, match="degree-1"):
            condition_rows("c", 3, spec)


def test_spec_shape_errors():
    with pytest.raises(ConditionError):
        ConditionSpec(ConditionKind.ALL_DIRICHLET, boundary=frozenset({"v"}))
    with pytest.raises(ConditionError):
        ConditionSpec(ConditionKind.ALL_DIRICHLET, plus_subspaces={"v": np.eye(2)})


def test_boundary_set_is_a_field_of_st_and_ast():
    # the mixed conditions are st and ast with X+ and X- swapped on B
    assert [kind.value for kind in ConditionKind] == ["st", "ast", "dir", "scinv"]
    assert standard_dirichlet([]) == STANDARD and anti_standard_neumann([]) == ANTI_STANDARD
    assert [s.token for s in (standard_dirichlet([]), standard_dirichlet(["b"]), anti_standard_neumann(["b"]))] == ["st", "stD", "astN"]
    # one graph object compiles one system for the two
    g = builtin("cycle", 1, 2, 3)
    assert secular._system(g, standard_dirichlet([])) is secular._system(g, STANDARD)
    assert len(g._systems) == 1


_TWO_EDGES = build_graph([("a", "u", "v", 1.0), ("b", "x", "y", 1.0)])  # two components


@pytest.mark.parametrize(
    "call,fragment",
    [
        pytest.param(
            lambda: condition_rows("c", 3, ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces={"c": np.eye(2)})),
            "has dimension 2, degree is 3",
            id="scinv_width",
        ),
        # a vertex name that no edge uses has degree 0
        pytest.param(
            lambda: find_spectrum(MetricGraph((Edge("e", 0, 1, 1.0),), ("u", "v", "w")), STANDARD, 10.0),
            "degree must be at least 1",
            id="degree_0",
        ),
        pytest.param(lambda: _plus_dimension("c", 3, standard_dirichlet(["c"])), "degree-1", id="plus_dimension_of_b"),
        pytest.param(lambda: kernel_dimension_combinatorial(_TWO_EDGES, STANDARD), "connected graph", id="kernel_disconnected"),
        pytest.param(
            lambda: kernel_dimension_combinatorial(builtin("star", 3, 1), dual(ALL_DIRICHLET, builtin("star", 3, 1))),
            "no combinatorial formula",
            id="kernel_scinv",
        ),
    ],
)
def test_conditions_refusals(call, fragment):
    with pytest.raises(ConditionError, match=fragment):
        call()


# ------------------------------------------------------------ kernel formulas


@pytest.mark.parametrize(
    "maker,spec_name,expected",
    [
        (lambda: builtin("star", 3, 1), "st", 1),
        (lambda: builtin("star", 3, 1), "ast", 0),
        (lambda: builtin("cycle", 1, 1, 1, 1), "ast", 1),
        (lambda: builtin("cycle", 1, 1, 1), "ast", 0),
        (lambda: builtin("dumbbell", 6, 1), "st", 1),
        (lambda: builtin("cycle", 2.0), "ast", 0),
    ],
)
def test_kernel_dimension_examples(maker, spec_name, expected):
    g = maker()
    spec = {"st": STANDARD, "ast": ANTI_STANDARD}[spec_name]
    assert kernel_dimension_combinatorial(g, spec) == expected


def test_kernel_dimension_mixed():
    g = builtin("lasso", 2, 1)
    assert kernel_dimension_combinatorial(g, standard_dirichlet(["v1"])) == 0
    assert kernel_dimension_combinatorial(g, anti_standard_neumann(["v1"])) == 1 + 1 - 1


def test_kernel_dimension_is_the_zero_mode_count_on_every_connected_graph():
    # st, ast, stD and astN with B empty, one leaf, half the leaves or all of
    # them, on connected multigraphs with loops and parallel edges: the
    # combinatorial count is the nullity of the solver's zero modes,
    # astN on graphs that are not bipartite included
    rng = np.random.default_rng(41)
    pairs = astn_odd = loops = 0
    for _ in range(400):
        g = random_connected_graph(rng, int(rng.integers(1, 11)))
        a = analyze(g)
        loops += any(e.tail == e.head for e in g.edges)
        leaves = sorted(a.boundary)
        for boundary in ([], leaves[:1], leaves[: len(leaves) // 2], leaves):
            for spec in (standard_dirichlet(boundary), anti_standard_neumann(boundary)):
                assert kernel_dimension_combinatorial(g, spec) == solve_zero_modes(g, spec)[0], (g.edges, spec.token, boundary)
                pairs += 1
                astn_odd += spec.token == "astN" and not a.bipartite
    assert pairs == 3200 and astn_odd >= 100 and loops >= 10, (pairs, astn_odd, loops)


def test_kernel_basis_ast_satisfies_conditions():
    # the anti-standard zero modes of solve_zero_modes: beta independent
    # edgewise constants, balanced at every vertex
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = random_bipartite_graph(rng, int(rng.integers(2, 9)))
        a = analyze(g)
        count, modes = solve_zero_modes(g, ANTI_STANDARD)
        basis = np.array([m.coeffs[:, 0] for m in modes]).reshape(count, g.num_edges)
        assert count == a.betti
        assert all(np.all(m.coeffs[:, 1] == 0.0) for m in modes)
        if a.betti:
            assert np.linalg.matrix_rank(basis) == a.betti
        for row in basis:
            # edgewise constants: derivative zero everywhere; at each vertex the
            # incoming values must be balanced so the mean-value row vanishes
            for vi in range(g.num_vertices):
                vals = [row[ei] for ei, _end in g.endpoints_of_vertex[vi]]
                assert abs(sum(vals)) < TOL


def test_kernel_basis_ast_mean_zero_is_alternating():
    count, modes = solve_zero_modes(builtin("cycle", 1, 1, 1, 1), ANTI_STANDARD)
    assert count == 1
    c = modes[0].coeffs[:, 0]
    np.testing.assert_allclose(c * np.sign(c[0]), [0.5, -0.5, 0.5, -0.5], rtol=0, atol=TOL)
