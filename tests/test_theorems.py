import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from graphspec import (
    ALL_DIRICHLET,
    ANTI_STANDARD,
    STANDARD,
    THEOREM_IDS,
    EigenvalueRecord,
    SecularSystem,
    Spectrum,
    analyze,
    assign_tree_phases,
    build_graph,
    builtin,
    check_cycle_sign_condition,
    cycle_basis,
    interior_phase_residual,
    rational_cycle_counterexample,
    verify,
)
from graphspec import secular, theorems
from graphspec.generate import random_bipartite_graph, random_tree
from graphspec.graph import GraphError
from graphspec.theorems import CycleSignReport, CycleSignWitness, _run_rule

PI = math.pi


def triangle_with_tail():
    return build_graph(
        [
            ("e1", "a", "b", 1.0),
            ("e2", "b", "c", 1.0),
            ("e3", "c", "a", 1.0),
            ("tail", "a", "t", 1.0),
        ]
    )


def two_cycles_joined_by_a_bridge():
    return build_graph(
        [
            ("a1", "x", "y", 1.0),
            ("a2", "x", "y", 1.5),
            ("h", "y", "z", 0.8),
            ("b1", "z", "w", 1.2),
            ("b2", "z", "w", 0.9),
            ("t", "w", "u", 0.7),
        ]
    )


# ------------------------------------------------------------------ shift laws


def test_shift_holds_on_even_cycle():
    r = verify("SHIFT", builtin("cycle", 1, 2, 1, 2), count=8)
    assert r.verdict == "holds" and r.max_residual < 1e-8


def test_shift_inapplicable_on_odd_cycle():
    assert verify("SHIFT", builtin("cycle", 1, 1, 1)).verdict == "inapplicable"


def test_pos_iso_holds_on_lasso():
    r = verify("POS_ISO", builtin("lasso", 2, 1), count=8)
    assert r.verdict == "holds"


def test_tree_shift_and_fried_on_star():
    assert verify("TREE_SHIFT", builtin("star", 3, 1), count=8).verdict == "holds"
    assert verify("TREE_FRIED", builtin("star", 3, 1), count=8).verdict == "holds"


def test_tree_checks_inapplicable_on_cycle():
    g = builtin("cycle", 1, 1, 1, 1)
    assert verify("TREE_SHIFT", g).verdict == "inapplicable"
    assert verify("TREE_FRIED", g).verdict == "inapplicable"


# ------------------------------------------------------------------- kernels


def test_ker_on_examples():
    for g in (builtin("star", 3, 1), builtin("cycle", 1, 1, 1, 1), triangle_with_tail()):
        assert verify("KER", g).verdict == "holds"


# -------------------------------------------------------------- isospectrality


def test_iso_iff_positive_case():
    # bipartite with beta = 1: fully isospectral
    r = verify("ISO_IFF", builtin("cycle", 1, 1, 1, 1), lam_max=30.0)
    assert r.verdict == "holds" and r.details["isospectral_up_to_lam_max"]


def test_iso_iff_negative_case():
    # tree: kernels differ, not isospectral, and the criterion predicts that
    r = verify("ISO_IFF", builtin("star", 3, 1), lam_max=30.0)
    assert r.verdict == "holds" and not r.details["isospectral_up_to_lam_max"]


# ----------------------------------------------------------------- mixed laws


def test_mixed_shift_on_lasso():
    r = verify("MIXED_SHIFT", builtin("lasso", 2, 1), count=6, boundary=["v1"])
    assert r.verdict == "holds"


def test_mixed_tree_on_star():
    r = verify("MIXED_TREE", builtin("star", 4, 1), count=6, boundary=["v1", "v2"])
    assert r.verdict == "holds"


def test_mixed_shift_requires_boundary():
    r = verify("MIXED_SHIFT", builtin("cycle", 1, 1, 1, 1), count=4)
    assert r.verdict == "inapplicable"


# --------------------------------------------------- interlacing with Dirichlet


def test_ast_le_dir_universal():
    for g in (builtin("star", 3, 1), builtin("cycle", 1, 1, 1), builtin("lasso", 2, 1)):
        assert verify("AST_LE_DIR", g, count=10).verdict == "holds"


def test_dirichlet_side_with_a_short_edge():
    # the Dirichlet window follows the total length: one sized by the
    # 1e-3 edge would hold about 6e4 roots, past the solver's window cap
    g = build_graph([("a", "u", "v", 1e-3), ("b", "v", "w", 2.0), ("c", "v", "x", 2.5)])
    report = verify("GLUING", g, count=12)
    assert report.verdict == "holds" and report.checked_range == (1, 12)


def test_equi_fried_non_bipartite_pattern():
    r = verify("EQUI_FRIED", builtin("cycle", 1, 1, 1), count=10)
    assert r.verdict == "violated"
    assert r.details["observed_violations"] == [3, 9]
    assert r.details["pattern_matches_prediction"]


def test_equi_fried_bipartite_holds():
    r = verify("EQUI_FRIED", builtin("cycle", 1, 1, 1, 1), count=16)
    assert r.verdict == "holds"
    assert r.details["pattern_matches_prediction"]


def test_equi_fried_inapplicable_unequal_lengths():
    assert verify("EQUI_FRIED", builtin("cycle", 1, 3)).verdict == "inapplicable"


def test_rule_runner_orders_pairs_k_major():
    # two pairs that both fail at k = 3 and 9 on the triangle, after a
    # closed-form pair that fails at k = 3 and 8 but whose rhs list ends at
    # k = 5: violations come k by k, pair by pair within each k, as CUT_MONO
    # reports them, and the short list ends its pair, not the range
    def rule(g, a, *, count):
        ks = range(1, count + 1)
        closed = ([2.0 if k in (3, 8) else 0.0 for k in ks], [1.0] * 5)
        sides = [closed, ((g, STANDARD, 1), (g, ALL_DIRICHLET, 0)), ((g, STANDARD, 1), (g, ALL_DIRICHLET, 0))]
        return ks, "<=", sides, {"x": 1}

    g = builtin("cycle", 1, 1, 1)
    r = _run_rule("TEST", rule(g, analyze(g), count=10))
    assert r.verdict == "violated" and r.checked_range == (1, 10) and r.details == {"x": 1}
    assert [n for n, _, _ in r.violations] == [3, 3, 3, 9, 9]
    assert r.violations[0] == (3, 2.0, 1.0) and r.violations[1] == r.violations[2]


@pytest.mark.parametrize("kind", ["st", "ast"])
def test_shift_rules_read_the_kernel_count(monkeypatch, kind):
    # SHIFT, TREE_SHIFT and MIXED_SHIFT count each side past the zero modes of
    # kernel_dimension_combinatorial, and KER compares that count: one zero mode
    # too many on one side breaks all four (one too many on both sides is the same
    # identity one index on).  POS_ISO reads the kept systems' nullity and holds
    count_of = theorems.kernel_dimension_combinatorial
    monkeypatch.setattr(theorems, "kernel_dimension_combinatorial", lambda g, spec: count_of(g, spec) + (spec.kind.value == kind))
    cycle = builtin("cycle", 1, 2, 1, 2)
    for tid, g in [("SHIFT", cycle), ("TREE_SHIFT", builtin("star", 3, 1)), ("MIXED_SHIFT", builtin("lasso", 2, 1)), ("KER", cycle)]:
        assert verify(tid, g, count=6).verdict == "violated", tid
    assert verify("POS_ISO", cycle, count=6).verdict == "holds"


def test_pos_iso_agrees_with_shift_on_random_bipartite_graphs():
    # POS_ISO skips the numerical zero modes, SHIFT the combinatorial ones:
    # on a connected bipartite graph they check the same pairs
    rng = np.random.default_rng(83)
    for _ in range(20):
        g = random_bipartite_graph(rng, int(rng.integers(1, 7)))
        shift, pos_iso = verify("SHIFT", g, count=6), verify("POS_ISO", g, count=6)
        assert shift.verdict == pos_iso.verdict == "holds"
        assert shift.checked_range == pos_iso.checked_range == (1, 6)
        assert shift.violations == pos_iso.violations == []


def _compiled_and_solved(monkeypatch) -> tuple[list, list, list]:
    """(graph, spec token) of each system compiled from now on, of each window solved from k = 0, and of each grown one."""
    compiled, owner, solved, grown = [], {}, [], []
    init, positive_roots = SecularSystem.__init__, secular._positive_roots

    def counted_init(self, g, spec):
        compiled.append(owner.setdefault(id(self), (g, spec.token)))
        init(self, g, spec)

    def counted_roots(system, lam_max, k_lo=0.0, c_lo=0):
        (grown if k_lo > 0 else solved).append(owner[id(system)])
        return positive_roots(system, lam_max, k_lo, c_lo)

    monkeypatch.setattr(SecularSystem, "__init__", counted_init)
    monkeypatch.setattr(secular, "_positive_roots", counted_roots)
    return compiled, solved, grown


@pytest.mark.parametrize(
    "tids",
    [("SHIFT",), ("POS_ISO",), ("SHIFT", "POS_ISO", "KER", "ISO_IFF")],
    ids=["SHIFT", "POS_ISO", "SHIFT-POS_ISO-KER-ISO_IFF"],
)
def test_index_shift_checks_compile_each_system_once(monkeypatch, tids):
    # POS_ISO takes its zero-mode counts and KER its nullities from the systems kept with
    # the graph, and ISO_IFF its windows from the spectra kept with it
    g = builtin("cycle", 1, 2, 1, 2)
    compiled, solved, grown = _compiled_and_solved(monkeypatch)
    for tid in tids:
        assert verify(tid, g, count=12).verdict == "holds"
    assert sorted(token for _, token in compiled) == (["ast", "dir", "st"] if "KER" in tids else ["ast", "st"])
    assert sorted(token for _, token in solved) == ["ast", "st"]
    # each spectrum is solved once, from k = 0, and no check grows it
    assert grown == []


def test_pos_iso_solves_the_positive_eigenvalues_it_reads(monkeypatch):
    # the zero modes are part of the count POS_ISO asks for, so each side solves
    # its count + z eigenvalues as z zero modes and 12 positive ones, no more
    solved = []
    positive_roots = secular._positive_roots

    def counted_roots(system, lam_max, k_lo=0.0, c_lo=0):
        roots = positive_roots(system, lam_max, k_lo, c_lo)
        solved.append(sum(m for _, m in roots))
        return roots

    monkeypatch.setattr(secular, "_positive_roots", counted_roots)
    assert verify("POS_ISO", builtin("cycle", 1, 2, 1, 2), count=12).verdict == "holds"
    assert solved == [12, 12]


def test_cut_checks_solve_each_spec_of_the_cut_graph_once(monkeypatch):
    g = builtin("cycle", 1, 2, 1, 2)
    # two equal cuts given as lists and as tuples are one cut graph
    cut = ("v0", ([("e1", 0)], [("e4", 1)]))
    compiled, solved, _ = _compiled_and_solved(monkeypatch)
    assert verify("CUT_MONO", g, count=8, cut=cut).verdict == "holds"
    assert verify("CHOP_SHIFT", g, count=8, cut=("v0", ([["e1", 0]], [["e4", 1]]))).verdict == "holds"
    assert verify("CHOP_SHIFT", g, count=10, cut=cut).verdict == "holds"
    (cut_graph,) = g._cuts.values()
    for log in (compiled, solved):
        assert sorted(token for graph, token in log if graph is cut_graph) == ["ast", "st"]
        assert sorted(token for graph, token in log if graph is g) == ["ast", "st"]


@pytest.mark.parametrize(
    "tid, graph, distinct",
    [
        # the anti-standard spectrum of the tree, read by all three pairs
        ("TREE_BOUNDS", builtin("star", 3, 1), 1),
        # dumbbell, lasso and the anti-standard spectrum of the graph
        ("DC_BOUNDS", builtin("lasso", 2, 1), 3),
        # no lasso bound: the non-bridge edges are not connected
        ("DC_BOUNDS", two_cycles_joined_by_a_bridge(), 2),
    ],
)
def test_bound_rules_solve_each_graph_and_spec_once(monkeypatch, tid, graph, distinct):
    solved = []
    positive_roots = secular._positive_roots

    def counted_roots(system, lam_max, k_lo=0.0, c_lo=0):
        solved.append(system)
        return positive_roots(system, lam_max, k_lo, c_lo)

    monkeypatch.setattr(secular, "_positive_roots", counted_roots)
    assert verify(tid, graph, count=6).verdict == "holds"
    # one solve of each system, none grown
    assert len(solved) == len({id(system) for system in solved}) == distinct


@pytest.mark.parametrize(
    "tid, make, cut, tokens",
    [
        ("AST_LE_DIR", lambda: builtin("star", 3, 1), None, ["ast", "dir"]),
        ("EQUI_FRIED", lambda: builtin("cycle", 1, 1, 1), None, ["dir", "st"]),
        ("GLUING", lambda: builtin("cycle", 5, 3, 2, 2), None, ["dir", "st"]),
        # st and ast of the graph and of its cut
        ("CUT_MONO", lambda: builtin("cycle", 1, 2, 1, 2), ("v0", ([("e1", 0)], [("e4", 1)])), ["ast", "ast", "st", "st"]),
        # three pairs read the one anti-standard spectrum
        ("TREE_BOUNDS", lambda: builtin("star", 3, 1), None, ["ast"]),
    ],
    ids=["AST_LE_DIR", "EQUI_FRIED", "GLUING", "CUT_MONO", "TREE_BOUNDS"],
)
def test_rule_runner_requests_each_graph_and_spec_once(monkeypatch, tid, make, cut, tokens):
    requests = []
    spectrum_values = theorems.spectrum_values

    def counted(g, spec, count):
        requests.append((id(g), spec))
        return spectrum_values(g, spec, count)

    monkeypatch.setattr(theorems, "spectrum_values", counted)
    verify(tid, make(), count=8, cut=cut)
    assert len(requests) == len(set(requests))
    assert sorted(spec.token for _, spec in requests) == tokens


@pytest.mark.parametrize(
    "tid, make, other",
    [
        ("AST_LE_DIR", lambda: builtin("star", 3, 1), "ast"),
        ("EQUI_FRIED", lambda: builtin("cycle", 1, 1, 1), "st"),
        ("GLUING", lambda: builtin("cycle", 5, 3, 2, 2), "st"),
    ],
    ids=["AST_LE_DIR", "EQUI_FRIED", "GLUING"],
)
def test_dirichlet_side_is_compiled_once_and_never_root_found(monkeypatch, tid, make, other):
    # the Dirichlet side is the ALL_DIRICHLET system kept with each graph object,
    # which lists its spectrum in closed form
    graphs = [make(), make()]
    compiled, solved, grown = _compiled_and_solved(monkeypatch)
    for g in graphs:
        for count in (4, 12, 8):
            verify(tid, g, count=count)
    for g in graphs:
        assert sorted(token for graph, token in compiled if graph is g) == sorted(["dir", other])
    assert "dir" not in [token for _, token in solved + grown]


def test_rational_cycle_and_equi_fried_share_their_systems(monkeypatch):
    g = builtin("cycle", 1, 1, 1)
    compiled, solved, _ = _compiled_and_solved(monkeypatch)
    assert rational_cycle_counterexample(g).verdict == "holds"
    assert verify("EQUI_FRIED", g, count=10).verdict == "violated"
    assert sorted(token for _, token in compiled) == ["dir", "st"]
    assert [token for _, token in solved] == ["st"]


# ------------------------------------------------------------------ cut checks


def test_cut_mono_and_chop_shift_on_4cycle():
    g = builtin("cycle", 1, 1, 1, 1)
    cut = ("v0", ([("e1", 0)], [("e4", 1)]))
    assert verify("CUT_MONO", g, count=8, cut=cut).verdict == "holds"
    assert verify("CHOP_SHIFT", g, count=8, cut=cut).verdict == "holds"


def test_cut_checks_random_bipartite():
    rng = np.random.default_rng(71)
    done = 0
    while done < 5:
        g = random_bipartite_graph(rng, int(rng.integers(3, 7)))
        cands = [v for v, d in g.degrees.items() if d >= 2]
        if not cands:
            continue
        v = cands[int(rng.integers(0, len(cands)))]
        eps = [(g.edges[i].name, end) for i, end in g.endpoints_of_vertex[g.vertex_index(v)]]
        cutpoint = int(rng.integers(1, len(eps)))
        cut = (v, (eps[:cutpoint], eps[cutpoint:]))
        assert verify("CUT_MONO", g, count=6, cut=cut).verdict == "holds"
        assert verify("CHOP_SHIFT", g, count=6, cut=cut).verdict == "holds"
        done += 1


def test_cut_checks_need_cut():
    g = builtin("cycle", 1, 1, 1, 1)
    assert verify("CUT_MONO", g).verdict == "inapplicable"
    assert verify("CHOP_SHIFT", g).verdict == "inapplicable"


# --------------------------------------------------------------- tree bounds


def test_tree_bounds_on_random_trees():
    rng = np.random.default_rng(73)
    for _ in range(5):
        g = random_tree(rng, int(rng.integers(2, 6)))
        assert verify("TREE_BOUNDS", g, count=6).verdict == "holds"


def test_dc_bounds_on_lasso():
    r = verify("DC_BOUNDS", builtin("lasso", 2, 1), count=4)
    assert r.verdict == "holds"
    assert "dumbbell_lambda2" in r.details and "lasso_lambda2" in r.details


def test_dc_bounds_two_cycles_joined_by_a_bridge():
    # bipartite, beta = 2; the non-bridge edges form two components, so
    # only the dumbbell bound applies
    g = two_cycles_joined_by_a_bridge()
    a = analyze(g)
    assert a.bipartite and a.betti == 2 and a.bridge_edges == {"h", "t"}
    r = verify("DC_BOUNDS", g, count=4)
    assert r.verdict == "holds"
    assert "dumbbell_lambda2" in r.details and "lasso_lambda2" not in r.details
    # the range names only the bound compared
    assert r.checked_range == (1, 1)


def test_dc_bounds_inapplicable_on_tree():
    assert verify("DC_BOUNDS", builtin("star", 3, 1)).verdict == "inapplicable"


# ---------------------------------------------------------------- tree phases


def test_tree_phases_star():
    g = builtin("star", 3, 1)
    phases = assign_tree_phases(g)
    assert interior_phase_residual(g, phases) < 1e-12
    got = sorted(phases.phases.values())
    assert np.allclose(got, [0.0, 2 * PI / 3, 4 * PI / 3], atol=1e-12)


def test_tree_phases_random_trees():
    rng = np.random.default_rng(79)
    for _ in range(25):
        g = random_tree(rng, int(rng.integers(1, 12)))
        phases = assign_tree_phases(g)
        assert interior_phase_residual(g, phases) < 1e-12


def test_tree_phases_reject_cycles():
    with pytest.raises(GraphError):
        assign_tree_phases(builtin("lasso", 2, 1))


# --------------------------------------------------------- cycle sign condition


def test_sign_condition_cycle_5322():
    # unique cycle of lengths 5, 3, 2, 2: the length-5 edge cannot serve as
    # reference; every other reference edge admits a valid sign choice
    g = builtin("cycle", 5, 3, 2, 2)
    w = check_cycle_sign_condition(g)
    assert len(w.cycles) == 1
    c = w.cycles[0]
    by_len = {g.edges[g.edge_index(n)].length: n for n in c.cycle_edges}
    assert c.per_reference[by_len[5.0]] is None
    assert c.per_reference[by_len[3.0]] is not None
    assert not w.all_references_satisfied
    assert c.zero_sum_signs is None  # 5+3+2+2 admits no vanishing signed sum
    assert not w.sufficient_condition_holds


def test_sign_condition_balanced_cycle():
    # lengths 1, 1, 1, 1: signed sum can vanish and quotient 2 is achievable
    g = builtin("cycle", 1, 1, 1, 1)
    w = check_cycle_sign_condition(g)
    c = w.cycles[0]
    assert c.zero_sum_signs is not None
    assert w.all_references_satisfied and w.sufficient_condition_holds


def test_sign_condition_witness_sums():
    g = builtin("cycle", 1, 1, 2)
    w = check_cycle_sign_condition(g)
    c = w.cycles[0]
    lengths = {n: g.edges[g.edge_index(n)].length for n in c.cycle_edges}
    for ref, signs in c.per_reference.items():
        if signs is None:
            continue
        total = sum(s * lengths[n] for s, n in zip(signs, c.cycle_edges))
        q = total / lengths[ref]
        assert q > 0 and abs(q - round(q)) < 1e-12 and round(q) % 2 == 0


def brute_force_sign_condition(g):
    """Reference: every one of the 2^m sign masks, smallest mask first (bit i: edge i is +1)."""
    reports = []
    for cyc in cycle_basis(g).fundamental_cycles:
        names = tuple(n for n, _ in cyc)
        lengths = [Fraction(g.edges[g.edge_index(n)].length).limit_denominator(10**6) for n in names]
        m = len(names)
        sums = []
        for mask in range(2**m):
            signs = tuple(1 if mask & (1 << i) else -1 for i in range(m))
            sums.append((signs, sum(s * L for s, L in zip(signs, lengths))))
        per_ref, quotients = {}, {}
        for ref, ref_len in zip(names, lengths):
            found, qs = None, set()
            for signs, total in sums:
                q = total / ref_len
                qs.add(float(q))
                if q.denominator == 1 and q > 0 and q % 2 == 0:
                    found = signs
                    break
            per_ref[ref] = found
            quotients[ref] = tuple(sorted(qs))
        zero = next((signs for signs, total in sums if total == 0), None)
        reports.append(CycleSignReport(names, per_ref, quotients, zero))
    return CycleSignWitness(tuple(reports))


def test_sign_condition_matches_brute_force():
    rng = np.random.default_rng(83)
    for _ in range(150):
        den = int(rng.integers(1, 5))
        parts = [[int(x) / den for x in rng.integers(1, 7, size=int(rng.integers(1, 11)))]]
        if rng.random() < 0.3:  # a second cycle, joined by a bridge
            parts.append([int(x) / den for x in rng.integers(1, 7, size=int(rng.integers(1, 5)))])
        decls = []
        for c, lengths in enumerate(parts):
            m = len(lengths)
            decls += [(f"c{c}e{i}", f"c{c}v{i}", f"c{c}v{(i + 1) % m}", x) for i, x in enumerate(lengths)]
        if len(parts) == 2:
            decls.append(("bridge", "c0v0", "c1v0", 1.0))
        g = build_graph(decls)
        assert check_cycle_sign_condition(g) == brute_force_sign_condition(g)


def test_gluing_on_a_25_edge_rational_cycle():
    # 2^25 sign vectors, but only a few hundred distinct signed sums
    rng = np.random.default_rng(89)
    quarters = [int(x) for x in rng.integers(1, 9, size=24)]
    quarters.append(2 - sum(quarters) % 2)  # an even total: a vanishing signed sum can exist
    g = builtin("cycle", *(q / 4 for q in quarters))
    r = verify("GLUING", g, count=6)
    assert r.verdict == "holds" and r.details["sufficient_condition"]
    (c,) = check_cycle_sign_condition(g).cycles
    exact = {n: Fraction(g.edges[g.edge_index(n)].length) for n in c.cycle_edges}
    if c.zero_sum_signs is not None:
        assert sum(s * exact[n] for s, n in zip(c.zero_sum_signs, c.cycle_edges)) == 0
    for ref, signs in c.per_reference.items():
        if signs is None:
            # every quotient was tried, and none is a positive even integer
            assert not any(q > 0 and q % 2 == 0 for q in c.achievable_quotients[ref])
        else:
            q = sum(s * exact[n] for s, n in zip(signs, c.cycle_edges)) / exact[ref]
            assert q.denominator == 1 and q > 0 and q % 2 == 0
    assert r.details["sufficient_condition"] == (
        all(v is not None for v in c.per_reference.values()) or c.zero_sum_signs is not None
    )


@pytest.mark.parametrize("edges", [16, 25])
def test_sign_search_stops_at_its_cap(edges):
    # random lengths k/999983 leave almost every one of the 2^edges signed sums distinct
    rng = np.random.default_rng(edges)
    g = builtin("cycle", *(int(k) / 999983 for k in rng.integers(1, 999983, size=edges)))
    start = time.perf_counter()
    with pytest.raises(GraphError, match="distinct signed sums"):
        check_cycle_sign_condition(g)
    assert time.perf_counter() - start < 2.0


def test_sign_search_on_a_200_edge_cycle_is_fast():
    # lengths u/61 with u = 1..39 repeated: the units sum to the odd S = 3915,
    # so the signed sums are u/61 for the 3916 odd u in [-S, S], no quotient
    # is an even integer, and every reference edge tries every sum
    units = [1 + i % 39 for i in range(200)]
    g = builtin("cycle", *(k / 61 for k in units))
    start = time.perf_counter()
    (c,) = check_cycle_sign_condition(g).cycles
    assert time.perf_counter() - start < 2.0
    assert c.zero_sum_signs is None
    assert all(signs is None for signs in c.per_reference.values())
    total = sum(units)
    for i, unit in enumerate(units):
        want = tuple(t / unit for t in range(-total, total + 1, 2))
        assert c.achievable_quotients[f"e{i + 1}"] == want


def test_sign_search_memory_is_one_level():
    # the same 200-edge cycle: one level of sums and the quotient tuples
    # trace near 25 MB; one dict per level would add about 25 MB more
    g = builtin("cycle", *((1 + i % 39) / 61 for i in range(200)))
    tracemalloc.start()
    try:
        check_cycle_sign_condition(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_sign_condition_requires_independent_cycles():
    g = build_graph([("e1", "a", "b", 1.0), ("e2", "a", "b", 1.0), ("e3", "a", "b", 1.0)])
    with pytest.raises(GraphError):
        check_cycle_sign_condition(g)


def test_gluing_holds_when_signs_balance():
    r = verify("GLUING", builtin("cycle", 1, 1, 1, 1), count=10)
    assert r.verdict == "holds"
    assert r.details["sufficient_condition"]


def test_gluing_inapplicable_for_5322():
    r = verify("GLUING", builtin("cycle", 5, 3, 2, 2), count=10)
    assert r.verdict == "inapplicable"
    assert r.details["direct_inequality_holds"] is True


# -------------------------------------------------- rational cycle parity test


def test_rational_cycle_odd_total_confirms_violation():
    r = rational_cycle_counterexample(builtin("cycle", 1, 1, 1))
    assert r.verdict == "holds"
    assert r.details["x_total_length"] == 3
    assert r.details["interlacing_violated_at"] == 3


def test_rational_cycle_half_lengths():
    r = rational_cycle_counterexample(builtin("cycle", 0.5, 0.5, 0.5, 0.5, 0.5))
    assert r.verdict == "holds"
    assert r.details["x_total_length"] == 5


def test_rational_cycle_even_total_silent():
    r = rational_cycle_counterexample(builtin("cycle", 1, 3))
    assert r.verdict == "inapplicable"


def test_rational_cycle_needs_single_cycle():
    r = rational_cycle_counterexample(builtin("lasso", 2, 1))
    assert r.verdict == "inapplicable"


def test_irrational_length_rejected():
    with pytest.raises(GraphError):
        rational_cycle_counterexample(builtin("cycle", 1.0, math.sqrt(2.0)))


# ---------------------------------------------------------------------- errors


def test_unknown_theorem_id():
    with pytest.raises(ValueError):
        verify("NOPE", builtin("star", 3, 1))


def test_negative_count_rejected():
    # 0 too: the last index checked is at least 1
    for count in (-3, 0):
        with pytest.raises(ValueError, match="count"):
            verify("SHIFT", builtin("cycle", 1, 1, 1, 1), count=count)


@pytest.mark.parametrize("theorem,count", [("KER", 10_001), ("TREE_BOUNDS", 10_001), ("TREE_BOUNDS", 2_000_000)])
def test_count_above_the_window_bound_rejected(theorem, count):
    # refused before any bound list is built or any side is solved
    with pytest.raises(ValueError, match=f"count must be at most 10000, got {count}"):
        verify(theorem, builtin("star", 3, 1), count=count)


def test_count_whose_shifted_index_reaches_the_window_bound_rejected():
    # TREE_SHIFT reads lambda_{count+1}(st): the request of 10,000 eigenvalues is refused
    with pytest.raises(ValueError, match="count must be below 10000, got 10000"):
        verify("TREE_SHIFT", builtin("star", 3, 1), count=9_999)


# the one option each check reads besides count; no other check reads any
_READS = {"KER": "boundary", "MIXED_SHIFT": "boundary", "MIXED_TREE": "boundary", "CUT_MONO": "cut", "CHOP_SHIFT": "cut", "ISO_IFF": "lam_max"}
_OPTIONS = {"boundary": ["zzz"], "cut": ("v0", ([("e1", 0)], [("e4", 1)])), "lam_max": 30.0}


@pytest.mark.parametrize("tid, option", [(tid, option) for tid in THEOREM_IDS for option in _OPTIONS if _READS.get(tid) != option])
def test_option_a_check_does_not_read_is_refused(monkeypatch, tid, option):
    # refused by name before any system is compiled, not ignored
    compiled, solved, grown = _compiled_and_solved(monkeypatch)
    with pytest.raises(ValueError, match=f"^{tid} reads no {option}, got {option}="):
        verify(tid, builtin("cycle", 1, 1, 1, 1), count=3, **{option: _OPTIONS[option]})
    assert compiled == solved == grown == []


def test_an_option_given_as_none_is_not_given():
    for tid in THEOREM_IDS:
        g = builtin("cycle", 1, 1, 1, 1)
        assert str(verify(tid, g, count=3, boundary=None, cut=None, lam_max=None)) == str(verify(tid, g, count=3)), tid


def _spectrum_of(values):
    return Spectrum(records=tuple(EigenvalueRecord(math.sqrt(v), v, 1) for v in values), complete_up_to=max(values))


def test_iso_iff_reports_its_first_violation(monkeypatch):
    # predicted isospectral (bipartite, beta = 1); the patched spectra differ first at index 3
    spectra = {STANDARD: [0.0, 1.0, 2.0, 3.0], ANTI_STANDARD: [0.0, 1.0, 2.5, 3.0]}
    monkeypatch.setattr(theorems, "find_spectrum", lambda g, spec, lam_max: _spectrum_of(spectra[spec]))
    r = verify("ISO_IFF", builtin("cycle", 1, 2, 1, 2))
    assert r.verdict == "violated" and r.violations == [(3, 2.5, 2.0)]
    assert r.details["isospectral_up_to_lam_max"] is False


def test_rational_cycle_reports_a_predicted_failure_that_does_not_show(monkeypatch):
    # x L = 3 is odd, so lambda_4(st) <= lambda_3(D) should fail; patched spectra satisfy it
    monkeypatch.setattr(theorems, "spectrum_values", lambda g, spec, count: [1.0] * count)
    r = rational_cycle_counterexample(builtin("cycle", 1, 1, 1))
    assert r.verdict == "violated" and r.violations == [(3, 1.0, 1.0)]


def test_report_str_mentions_verdict():
    r = verify("TREE_SHIFT", builtin("star", 3, 1), count=4)
    text = str(r)
    assert "TREE_SHIFT: holds" in text and "max residual" in text
