"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest -v`` to see the per-criterion verdicts; each test also
prints an ``ACCEPTANCE n: PASS`` line summarizing what was established.
"""
import math
import time

import numpy as np
import pytest

from graphspec import (
    ALL_DIRICHLET,
    ANTI_STANDARD,
    STANDARD,
    analyze,
    anti_standard_neumann,
    assign_tree_phases,
    builtin,
    check_cycle_sign_condition,
    find_spectrum,
    finite_difference_spectrum,
    interior_phase_residual,
    kernel_dimension_combinatorial,
    solve_zero_modes,
    spectrum_values,
    standard_dirichlet,
    verify,
    von_below_metric_spectrum,
)
from graphspec.generate import (
    random_bipartite_graph,
    random_connected_graph,
    random_equilateral_graph,
    random_tree,
)
# the Dirichlet side written out, k = m pi / L_e, independent of the solver's listing
from test_secular import dirichlet_intervals

PI = math.pi
REL = 1e-8


def rel_close(got, want):
    return abs(got - want) <= REL * max(1.0, abs(want))


def assert_spectrum(values, expected):
    assert len(values) >= len(expected)
    for got, want in zip(values, expected):
        assert rel_close(got, want), f"eigenvalue {got} != {want}"


def test_criterion_01_star_reproduction():
    t0 = time.perf_counter()
    g = builtin("star", 3, 1)
    st = find_spectrum(g, STANDARD, (2 * PI) ** 2 + 1e-6).values()
    assert_spectrum(
        st,
        [0.0, (PI / 2) ** 2, (PI / 2) ** 2, PI**2, (1.5 * PI) ** 2, (1.5 * PI) ** 2, (2 * PI) ** 2],
    )
    dv = find_spectrum(g, ALL_DIRICHLET, (2 * PI) ** 2 + 1e-6).values()
    assert_spectrum(dv, [PI**2] * 3 + [(2 * PI) ** 2] * 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1: PASS - unit 3-star standard and Dirichlet spectra exact ({elapsed:.2f}s)")


def test_criterion_02_loop_counterexample():
    g = builtin("cycle", 1.0)
    st = spectrum_values(g, STANDARD, 2)
    d1 = dirichlet_intervals(g, 50.0).values(1)[0]
    assert rel_close(st[1], 4 * PI**2)
    assert rel_close(d1, PI**2)
    # interlacing lambda_{n+1}(st) <= lambda_n(D) fails at n = 1
    assert st[1] > d1 * (1 + 1e-9)
    print("\nACCEPTANCE 2: PASS - unit loop: lambda_2(st)=4pi^2 > lambda_1(D)=pi^2")


def test_criterion_03_cycle_1_3():
    g = builtin("cycle", 1, 3)
    st = spectrum_values(g, STANDARD, 2)
    d1 = dirichlet_intervals(g, 50.0).values(1)[0]
    assert rel_close(st[1], PI**2 / 4)
    assert rel_close(d1, PI**2 / 9)
    r = verify("EQUI_FRIED", g)
    assert r.verdict == "inapplicable"
    print("\nACCEPTANCE 3: PASS - cycle(1,3): lambda_2(st)=pi^2/4, lambda_1(D)=pi^2/9, EQUI_FRIED inapplicable")


def test_criterion_04_equilateral_violation_pattern():
    tri = verify("EQUI_FRIED", builtin("cycle", 1, 1, 1), count=10)
    assert tri.verdict == "violated"
    assert tri.details["observed_violations"] == [3, 9]
    sq = verify("EQUI_FRIED", builtin("cycle", 1, 1, 1, 1), count=16)
    assert sq.verdict == "holds"
    print("\nACCEPTANCE 4: PASS - triangle violates exactly at n in {3,9} (n<=10); 4-cycle holds (n<=16)")


def test_criterion_05_shift_identity_random():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    for i in range(50):
        g = random_bipartite_graph(rng, int(rng.integers(1, 9)))
        beta = analyze(g).betti
        st = spectrum_values(g, STANDARD, 13)
        ast = spectrum_values(g, ANTI_STANDARD, 12 + beta)
        for k in range(1, 13):
            got, want = ast[k + beta - 1], st[k]
            assert abs(got - want) <= REL * max(1.0, abs(want)), (
                f"graph {i}: shifted eigenvalue {got} != {want} at k={k}"
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 5: PASS - shift identity on 50 random bipartite graphs, k=1..12 ({elapsed:.1f}s)")


def test_criterion_06_kernel_dimensions():
    rng = np.random.default_rng(1006)
    checked = 0
    non_bipartite = 0
    mixed = 0
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(1, 9)))
        a = analyze(g)
        specs = [STANDARD, ANTI_STANDARD, ALL_DIRICHLET]
        boundary = sorted(a.boundary)
        if boundary:
            specs.append(standard_dirichlet(boundary[:1]))
            if a.bipartite:
                specs.append(anti_standard_neumann(boundary))
                mixed += 1
        if not a.bipartite:
            non_bipartite += 1
        for spec in specs:
            numeric, _ = solve_zero_modes(g, spec)
            assert numeric == kernel_dimension_combinatorial(g, spec)
            checked += 1
    assert non_bipartite > 10 and mixed > 10  # the sample covers both regimes
    print(f"\nACCEPTANCE 6: PASS - kernel dimensions exact on 100 random graphs ({checked} spec pairs)")


def test_criterion_07_oracle_equivalence():
    rng = np.random.default_rng(1007)
    lam_max = (3 * PI) ** 2
    for _ in range(30):
        g = random_equilateral_graph(rng, int(rng.integers(2, 7)))
        oracle = von_below_metric_spectrum(g, 1.0, lam_max)
        direct = find_spectrum(g, STANDARD, lam_max)
        o_records = [(r.k, r.multiplicity) for r in oracle.records]
        d_records = [(r.k, r.multiplicity) for r in direct.records]
        assert len(o_records) == len(d_records)
        for (ko, mo), (kd, md) in zip(o_records, d_records):
            assert abs(ko - kd) <= 1e-8
            assert mo == md
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(1, 6)))
        fd = finite_difference_spectrum(g, STANDARD, 2000.0, 10)
        exact = spectrum_values(g, STANDARD, 10)
        for got, want in zip(fd, exact):
            assert abs(got - want) <= 1e-4 * max(1.0, abs(want))
    print("\nACCEPTANCE 7: PASS - secular = equilateral transfer (30 graphs) and = FD oracle (20 graphs)")


def test_criterion_08_cycle_5322():
    g = builtin("cycle", 5, 3, 2, 2)
    w = check_cycle_sign_condition(g)
    (c,) = w.cycles
    ref5 = next(n for n in c.cycle_edges if g.edges[g.edge_index(n)].length == 5.0)
    # exhaustive-search certificate: no sign choice works for the length-5
    # reference; the achievable quotients witness the search
    assert c.per_reference[ref5] is None
    # exhaustive certificate: recompute all 2^4 sign choices independently
    # and confirm none yields a positive even integer quotient
    lengths = [g.edges[g.edge_index(n)].length for n in c.cycle_edges]
    all_quotients = set()
    for mask in range(2 ** len(lengths)):
        signs = [1 if mask & (1 << i) else -1 for i in range(len(lengths))]
        all_quotients.add(sum(s * L for s, L in zip(signs, lengths)) / 5.0)
    assert all_quotients == set(c.achievable_quotients[ref5])
    assert not any(
        q > 0 and abs(q - round(q)) < 1e-12 and round(q) % 2 == 0 for q in all_quotients
    )
    st = spectrum_values(g, STANDARD, 21)
    dv = dirichlet_intervals(g, 500.0).values(20)
    for n in range(1, 21):
        assert st[n] <= dv[n - 1] * (1 + 1e-9) + 1e-12
    print("\nACCEPTANCE 8: PASS - cycle(5,3,2,2): length-5 reference unsatisfiable; inequality holds n<=20")


def test_criterion_09_tree_constructions():
    rng = np.random.default_rng(1009)
    for _ in range(50):
        g = random_tree(rng, int(rng.integers(1, 9)))
        phases = assign_tree_phases(g)
        assert interior_phase_residual(g, phases) < 1e-12
        assert verify("TREE_FRIED", g, count=12).verdict == "holds"
        boundary = sorted(analyze(g).boundary)
        b = boundary[: max(1, len(boundary) // 2)]
        assert verify("MIXED_TREE", g, count=12, boundary=b).verdict == "holds"
    print("\nACCEPTANCE 9: PASS - 50 random trees: phases < 1e-12, TREE_FRIED and MIXED_TREE hold k<=12")


def test_criterion_10_topological_perturbation():
    rng = np.random.default_rng(1010)
    done = 0
    while done < 20:
        g = random_bipartite_graph(rng, int(rng.integers(2, 8)))
        cands = [v for v, d in g.degrees.items() if d >= 2]
        if not cands:
            continue
        v = cands[int(rng.integers(0, len(cands)))]
        eps = [(g.edges[i].name, end) for i, end in g.endpoints_of_vertex[g.vertex_index(v)]]
        cutpoint = int(rng.integers(1, len(eps)))
        cut = (v, (eps[:cutpoint], eps[cutpoint:]))
        assert verify("CUT_MONO", g, count=10, cut=cut).verdict == "holds"
        assert verify("CHOP_SHIFT", g, count=10, cut=cut).verdict == "holds"
        done += 1
    print("\nACCEPTANCE 10: PASS - 20 random bipartite graphs: CUT_MONO and CHOP_SHIFT hold k<=10")
