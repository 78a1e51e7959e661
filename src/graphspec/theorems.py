"""Executable checks of the spectral identities, inequalities and counterexamples.

Each check produces a VerificationReport.  Equalities are compared
value-by-value on eigenvalue lists expanded with multiplicity at relative
tolerance 1e-8; inequalities pass with the margin
``lhs <= rhs * (1 + 1e-9) + 1e-12`` so solver tolerance is absorbed while
order-one counterexample gaps still register.

Most checks compare two sides index by index, ``lhs_k R rhs_k`` for the k
of a range.  Each is a rule: a function of the graph, its analysis,
``count``, B and the cut that returns either the reason the theorem does
not apply, or the ``range`` of k (the report's checked range), the relation
``"=="`` or ``"<="``, a list of (lhs side, rhs side) pairs and the report
details.  A side is a tuple ``(graph, spec, s)``, ``lambda_{k+s}`` of that
graph under ``spec`` (the Dirichlet side is ``ALL_DIRICHLET``), or a list
of closed-form values, one per k of the range; a shorter list ends its
pair early.  ``_run_rule`` requests each (graph, conditions) once, at the
largest index its sides read, indexes every side into that list and
compares the pairs in k-major order.  Each graph object
keeps one compiled system per value of the conditions, with the spectrum
it solved, which only grows (``secular``), and the graphs cut from it
(``_cut``), so later checks of the same graph or cut read them again.
``_CHECKERS`` maps each theorem id to its check: most are a rule alone;
EQUI_FRIED and GLUING run a rule and add their own details to its report.  Only ISO_IFF keeps another shape: it
compares whole windows up to ``lam_max``, not eigenvalue pairs: the
``find_spectrum`` windows, which read and grow the same kept spectra.

A rule decides only the mathematics of its check.  Bad input is refused
where it is owned: a count below 1 by ``verify``, a vertex set B outside
the natural boundary by ``ConditionSpec.validate_for`` (``ConditionError``)
when a system under it is compiled.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .conditions import (
    ALL_DIRICHLET,
    ANTI_STANDARD,
    STANDARD,
    ConditionSpec,
    anti_standard_neumann,
    kernel_dimension_combinatorial,
    standard_dirichlet,
)
from .graph import (
    GraphError,
    MetricGraph,
    _search,
    analyze,
    build_graph,
    builtin,
    cut_vertex,
    cycle_basis,
    has_independent_cycles,
    tree_diameter,
)
from .secular import (
    _MAX_WEYL_COUNT,
    _system,
    find_spectrum,
    spectrum_values,
)

__all__ = [
    "VerificationReport",
    "PhaseAssignment",
    "CycleSignReport",
    "CycleSignWitness",
    "THEOREM_IDS",
    "verify",
    "assign_tree_phases",
    "check_cycle_sign_condition",
    "interior_phase_residual",
    "rational_cycle_counterexample",
]

EQ_RTOL = 1e-8
INEQ_RTOL = 1e-9
INEQ_ATOL = 1e-12
# the sign search keeps one entry per distinct signed sum; generic lengths
# double the count with every edge, so a long cycle must stop here
_MAX_SIGNED_SUMS = 10_000

@dataclass
class VerificationReport:
    theorem_id: str
    verdict: str  # 'holds' | 'violated' | 'inapplicable'
    checked_range: tuple[int, int] = (0, 0)
    violations: list[tuple[int, float, float]] = field(default_factory=list)
    max_residual: float = 0.0
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:
        lines = [f"{self.theorem_id}: {self.verdict}"]
        lo, hi = self.checked_range
        if hi >= lo and hi > 0:
            lines.append(f"  checked indices {lo}..{hi}")
        lines.append(f"  max residual {self.max_residual:.3e}")
        for n, lhs, rhs in self.violations:
            lines.append(f"  violated at n={n}: lhs={lhs:.12g} rhs={rhs:.12g}")
        for key, value in self.details.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PhaseAssignment:
    """Edge phases phi_n in [0, 2pi) with sum of e^{i phi} vanishing at interior vertices."""

    phases: dict[str, float]


@dataclass(frozen=True)
class CycleSignReport:
    cycle_edges: tuple[str, ...]
    # per reference edge: sign vector aligned with cycle_edges, or None if unsatisfiable
    per_reference: dict[str, tuple[int, ...] | None]
    achievable_quotients: dict[str, tuple[float, ...]]
    zero_sum_signs: tuple[int, ...] | None


@dataclass(frozen=True)
class CycleSignWitness:
    cycles: tuple[CycleSignReport, ...]

    @property
    def all_references_satisfied(self) -> bool:
        return all(all(v is not None for v in c.per_reference.values()) for c in self.cycles)

    @property
    def sufficient_condition_holds(self) -> bool:
        """The gluing hypothesis: per cycle, every reference edge works or the signed sum vanishes."""
        return all(
            all(v is not None for v in c.per_reference.values()) or c.zero_sum_signs is not None
            for c in self.cycles
        )


def _eq_residual(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _ineq_excess(lhs: float, rhs: float) -> float:
    """Positive when lhs <= rhs fails beyond the margin."""
    return lhs - (rhs * (1.0 + INEQ_RTOL) + INEQ_ATOL)


def _inapplicable(theorem_id: str, reason: str) -> VerificationReport:
    return VerificationReport(
        theorem_id=theorem_id, verdict="inapplicable", details={"reason": reason}
    )


def verify(
    theorem_id: str,
    g: MetricGraph,
    *,
    count: int = 12,
    boundary=None,
    cut=None,
    lam_max: float | None = None,
) -> VerificationReport:
    """Run one named verification on a graph.

    ``count`` is the last index checked, from 1 to ``_MAX_WEYL_COUNT``, the
    most eigenvalues a solved window may hold.
    ``boundary`` selects the Dirichlet/Neumann set B for the mixed checks
    (``ConditionError`` if it is not a set of degree-1 vertices), ``cut`` is
    (vertex, split) for the topological perturbation checks and ``lam_max``
    bounds the isospectrality window of ISO_IFF.
    """
    checker = _CHECKERS.get(theorem_id)
    if checker is None:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if count > _MAX_WEYL_COUNT:
        raise ValueError(f"count must be at most {_MAX_WEYL_COUNT}, got {count}")
    return checker(g, theorem_id=theorem_id, count=count, boundary=boundary, cut=cut, lam_max=lam_max)


def _run_rule(rule, g, *, theorem_id, count, boundary, cut, **_) -> VerificationReport:
    """Report of one rule (module docstring): spectra of its sides, then the pairs in k-major order."""
    out = rule(g, analyze(g), count=count, boundary=boundary, cut=cut)
    if isinstance(out, str):
        return _inapplicable(theorem_id, out)
    ks, relation, sides, details = out
    # largest shift first: each (graph object, conditions) is requested once, at the
    # largest index its sides read, and every side indexes into that list (secular)
    spectra: dict = {}
    solver = [side for pair in sides for side in pair if isinstance(side, tuple)]
    for graph, spec, s in sorted(solver, key=lambda side: -side[2]):
        if (id(graph), spec) not in spectra:
            spectra[id(graph), spec] = spectrum_values(graph, spec, ks.stop - 1 + s)

    def along(side) -> list[float]:
        if isinstance(side, list):
            return side
        graph, spec, s = side
        values = spectra[id(graph), spec]
        # indexed, not sliced: s = -1 reads index k - 2
        return [values[k + s - 1] for k in ks]

    # the sort is stable, so pairs keep their order within each k
    pairs = sorted((p for lhs, rhs in sides for p in zip(ks, along(lhs), along(rhs))), key=lambda p: p[0])
    report = VerificationReport(theorem_id, "holds", checked_range=(ks.start, ks.stop - 1), details=details)
    # an inequality fails exactly where its residual is positive
    tolerance = EQ_RTOL if relation == "==" else 0.0
    for k, lhs, rhs in pairs:
        if relation == "==":
            residual = _eq_residual(lhs, rhs)
        else:
            residual = max(0.0, _ineq_excess(lhs, rhs)) / max(1.0, abs(rhs))
        report.max_residual = max(report.max_residual, residual)
        if residual > tolerance:
            report.violations.append((k, lhs, rhs))
    report.verdict = "violated" if report.violations else "holds"
    return report


def _shift(g, a, *, count, **_):
    """lambda_{k+beta}(ast) = lambda_{k+1}(st) on a connected bipartite graph."""
    if not a.connected:
        return "graph is not connected"
    if not a.bipartite:
        return "graph is not bipartite"
    return range(1, count + 1), "==", [((g, ANTI_STANDARD, a.betti), (g, STANDARD, 1))], {}


def _pos_iso(g, a, *, count, **_):
    """The positive st and ast eigenvalues coincide on a connected bipartite graph."""
    if not (a.connected and a.bipartite):
        return "graph is not connected and bipartite"
    # past the numerical zero modes, not KER's kernel dimensions: the check must not assume them.
    # The nullity of the kept system is what the zero record of its spectrum holds, so the pair
    # reads each spectrum once, up to count + z
    z_st, z_ast = (_system(g, spec).nullity for spec in (STANDARD, ANTI_STANDARD))
    return range(1, count + 1), "==", [((g, ANTI_STANDARD, z_ast), (g, STANDARD, z_st))], {}


def _tree_shift(g, a, *, count, **_):
    """lambda_k(ast) = lambda_{k+1}(st) on a tree."""
    if not (a.connected and a.betti == 0):
        return "graph is not a connected tree"
    return range(1, count + 1), "==", [((g, ANTI_STANDARD, 0), (g, STANDARD, 1))], {}


def _tree_fried(g, a, *, count, **_):
    """lambda_{k+1}(st) <= lambda_k(st, Dirichlet on the boundary) on a tree."""
    if not (a.connected and a.betti == 0):
        return "graph is not a connected tree"
    return range(1, count + 1), "<=", [((g, STANDARD, 1), (g, standard_dirichlet(a.boundary), 0))], {}


def _mixed_shift(g, a, *, count, boundary, **_):
    """lambda_{k+beta+|B|-1}(ast, Neumann on B) = lambda_k(st, Dirichlet on B), bipartite."""
    if not (a.connected and a.bipartite):
        return "graph is not connected and bipartite"
    # a B outside the natural boundary is refused where its spectrum is solved
    boundary = frozenset(boundary or sorted(a.boundary)[:1])
    if not boundary:
        return "B must be a nonempty subset of the natural boundary"
    shift = a.betti + len(boundary) - 1
    sides = [((g, anti_standard_neumann(boundary), shift), (g, standard_dirichlet(boundary), 0))]
    return range(1, count + 1), "==", sides, {}


def _mixed_tree(g, a, *, count, boundary, **_):
    """lambda_k(st, Dirichlet on B) <= lambda_{k+|B|-1}(st, Dirichlet on the rest of the boundary), a tree."""
    if not (a.connected and a.betti == 0):
        return "graph is not a connected tree"
    if boundary is None:
        boundary = sorted(a.boundary)[: max(1, len(a.boundary) // 2)]
    boundary = frozenset(boundary)
    b = len(boundary)
    sides = [((g, standard_dirichlet(boundary), 0), (g, standard_dirichlet(a.boundary - boundary), b - 1))]
    # both indices must be >= 1
    return range(max(1, 2 - b), count + 1), "<=", sides, {"B": ",".join(sorted(boundary))}


def _ker(g, a, *, boundary, **_):
    """dim ker of st, ast, dir, and of stD and astN on B (first leaf by default) = the combinatorial count."""
    if not a.connected:
        return "graph is not connected"
    if boundary is None:
        boundary = sorted(a.boundary)[:1]
    specs: list[ConditionSpec] = [STANDARD, ANTI_STANDARD, ALL_DIRICHLET]
    if boundary:
        specs.append(standard_dirichlet(boundary))
        if a.bipartite:
            specs.append(anti_standard_neumann(boundary))
    numeric = [_system(g, spec).nullity for spec in specs]
    combinatorial = [kernel_dimension_combinatorial(g, spec) for spec in specs]
    details = {
        spec.token + (f"[B={','.join(sorted(spec.boundary))}]" if spec.boundary else ""): f"numeric={n} combinatorial={c}"
        for spec, n, c in zip(specs, numeric, combinatorial)
    }
    return range(1, len(specs) + 1), "==", [(numeric, combinatorial)], details


def _ast_le_dir(g, a, *, count, **_):
    """lambda_k(ast) <= lambda_k(D), D the decoupled Dirichlet spectrum."""
    return range(1, count + 1), "<=", [((g, ANTI_STANDARD, 0), (g, ALL_DIRICHLET, 0))], {}


def _equi_fried(g, a, *, count, **_):
    """lambda_{k+1}(st) <= lambda_k(D) on an equilateral graph (fails at k = E mod 2E unless bipartite)."""
    if not a.connected:
        return "graph is not connected"
    if not _is_equilateral(g):
        return "graph is not equilateral"
    return range(1, count + 1), "<=", [((g, STANDARD, 1), (g, ALL_DIRICHLET, 0))], {"bipartite": a.bipartite}


def _gluing(g, a, *, count, **_):
    """lambda_{k+1}(st) <= lambda_k(D) where every cycle satisfies the sign condition."""
    if not a.connected:
        return "graph is not connected"
    if not has_independent_cycles(g):
        return "graph has an edge on two distinct cycles"
    witness = check_cycle_sign_condition(g)
    details = {
        "sign_condition_all_references": witness.all_references_satisfied,
        "sufficient_condition": witness.sufficient_condition_holds,
    }
    for c in witness.cycles:
        unsat = sorted(e for e, v in c.per_reference.items() if v is None)
        if unsat:
            details[f"unsatisfiable_references[{','.join(c.cycle_edges)}]"] = ",".join(unsat)
    return range(1, count + 1), "<=", [((g, STANDARD, 1), (g, ALL_DIRICHLET, 0))], details


def _cut(g: MetricGraph, cut) -> MetricGraph:
    """``cut_vertex(g, *cut)``, kept with g under the vertex and the endpoints of each part.

    Every check of one cut of one graph object reads one cut graph, and so
    the spectra kept with it.
    """
    v, split = cut
    key = (v, *(tuple(map(tuple, part)) for part in split))
    if key not in g._cuts:
        g._cuts[key] = cut_vertex(g, v, split)
    return g._cuts[key]


def _cut_mono(g, a, *, count, cut, **_):
    """lambda_k(st, cut) <= lambda_k(st) and lambda_k(ast) <= lambda_k(ast, cut)."""
    if cut is None:
        return "no cut specified"
    g2 = _cut(g, cut)
    sides = [((g2, STANDARD, 0), (g, STANDARD, 0)), ((g, ANTI_STANDARD, 0), (g2, ANTI_STANDARD, 0))]
    return range(1, count + 1), "<=", sides, {}


def _chop_shift(g, a, *, count, cut, **_):
    """lambda_{k+1}(st, cut) = lambda_{k+beta-1}(ast, cut) for a cut of a connected bipartite graph."""
    if not (a.connected and a.bipartite):
        return "graph is not connected and bipartite"
    if cut is None:
        return "no cut specified"
    g2 = _cut(g, cut)
    sides = [((g2, STANDARD, 1), (g2, ANTI_STANDARD, a.betti - 1))]
    # both indices must be >= 1
    return range(max(1, 2 - a.betti), count + 1), "==", sides, {"cut_disconnects": not analyze(g2).connected}


def _tree_bounds(g, a, *, count, **_):
    """(k+1)^2 pi^2/4L^2 <= lambda_k(ast) <= k^2 pi^2/diam^2, and <= k^2 E^2 pi^2/4L^2 if E >= 2, on a tree."""
    if not (a.connected and a.betti == 0):
        return "graph is not a connected tree"
    ks = range(1, count + 1)
    total, diam, E = g.total_length, tree_diameter(g), g.num_edges
    ast = (g, ANTI_STANDARD, 0)
    sides = [
        ([(k + 1) ** 2 * math.pi**2 / (4.0 * total**2) for k in ks], ast),
        (ast, [k**2 * math.pi**2 / diam**2 for k in ks]),
    ]
    if E >= 2:
        sides.append((ast, [k**2 * E**2 * math.pi**2 / (4.0 * total**2) for k in ks]))
    return ks, "<=", sides, {}


def _dc_bounds(g, a, **_):
    """lambda_2 of the comparison dumbbell and lasso <= lambda_{beta+1}(ast) on a bipartite graph."""
    if not (a.connected and a.bipartite):
        return "graph is not connected and bipartite"
    if a.betti < 1:
        return "graph has no doubly connected part"
    total, l_dc = g.total_length, a.doubly_connected_length
    if total <= l_dc * (1 + 1e-12):
        return "doubly connected part exhausts the graph"
    details = {"dumbbell_lambda2": spectrum_values(builtin("dumbbell", total, l_dc / 2.0), STANDARD, 2)[1]}
    # the lasso bound needs the non-bridge edges (betti >= 1: there are some) to be connected
    dc = [(e.name, g.vertex_names[e.tail], g.vertex_names[e.head], e.length) for e in g.edges if e.name not in a.bridge_edges]
    if analyze(build_graph(dc)).connected:
        details["lasso_lambda2"] = spectrum_values(builtin("lasso", l_dc, total - l_dc), STANDARD, 2)[1]
    rhs = spectrum_values(g, ANTI_STANDARD, a.betti + 1)[a.betti]
    # k numbers the bound, 1 the dumbbell and 2 the lasso
    bounds = list(details.values())
    return range(1, len(bounds) + 1), "<=", [(bounds, [rhs] * len(bounds))], details


def _check_equi_fried(g, *, count, **kw):
    report = _run_rule(_equi_fried, g, count=count, **kw)
    if report.verdict == "inapplicable":
        return report
    observed = {n for n, _, _ in report.violations}
    E = g.num_edges
    predicted = set() if report.details["bipartite"] else {n for n in range(1, count + 1) if n % (2 * E) == E}
    report.details["predicted_violations"] = sorted(predicted)
    report.details["observed_violations"] = sorted(observed)
    report.details["pattern_matches_prediction"] = observed == predicted
    return report


def _check_gluing(g, *, count, **kw):
    report = _run_rule(_gluing, g, count=count, **kw)
    if report.details.get("sufficient_condition") is False:
        # theorem hypothesis fails; direct check result is still reported
        report.details["direct_inequality_holds"] = not report.violations
        report.verdict = "inapplicable"
        report.details["reason"] = "cycle sign condition not satisfied"
    return report


def _check_iso_iff(g, *, lam_max, **_):
    a = analyze(g)
    if not a.connected:
        return _inapplicable("ISO_IFF", "graph is not connected")
    if lam_max is None:
        lam_max = 40.0
    st, ast = (find_spectrum(g, spec, lam_max).values() for spec in (STANDARD, ANTI_STANDARD))
    iso = len(st) == len(ast) and all(_eq_residual(x, y) <= EQ_RTOL for x, y in zip(st, ast))
    predicted = a.bipartite and a.betti == 1
    report = VerificationReport(
        "ISO_IFF",
        "holds" if iso == predicted else "violated",
        checked_range=(1, max(len(st), len(ast))),
        details={
            "isospectral_up_to_lam_max": iso,
            "bipartite_and_beta_1": predicted,
            "lam_max": lam_max,
        },
    )
    if iso != predicted:
        for i in range(max(len(st), len(ast))):
            x = st[i] if i < len(st) else math.inf
            y = ast[i] if i < len(ast) else math.inf
            if _eq_residual(x, y) > EQ_RTOL:
                report.violations.append((i + 1, y, x))
                break
    return report


def _is_equilateral(g: MetricGraph) -> bool:
    lengths = [e.length for e in g.edges]
    return max(lengths) - min(lengths) <= 1e-12 * max(lengths)


# the one table of theorem ids, in the order verify --help lists them;
# a rule alone runs through _run_rule (module docstring)
_CHECKERS = {
    "SHIFT": functools.partial(_run_rule, _shift),
    "POS_ISO": functools.partial(_run_rule, _pos_iso),
    "KER": functools.partial(_run_rule, _ker),
    "ISO_IFF": _check_iso_iff,
    "TREE_SHIFT": functools.partial(_run_rule, _tree_shift),
    "TREE_FRIED": functools.partial(_run_rule, _tree_fried),
    "MIXED_SHIFT": functools.partial(_run_rule, _mixed_shift),
    "MIXED_TREE": functools.partial(_run_rule, _mixed_tree),
    "AST_LE_DIR": functools.partial(_run_rule, _ast_le_dir),
    "EQUI_FRIED": _check_equi_fried,
    "GLUING": _check_gluing,
    "CUT_MONO": functools.partial(_run_rule, _cut_mono),
    "CHOP_SHIFT": functools.partial(_run_rule, _chop_shift),
    "TREE_BOUNDS": functools.partial(_run_rule, _tree_bounds),
    "DC_BOUNDS": functools.partial(_run_rule, _dc_bounds),
}
THEOREM_IDS = tuple(_CHECKERS)


def assign_tree_phases(g: MetricGraph) -> PhaseAssignment:
    """Edge phases making the unit numbers e^{i phi} sum to zero at interior vertices.

    Breadth-first from a boundary vertex: the edge entering a vertex keeps
    its phase; the remaining deg(v) - 1 edges receive the other deg(v)-th
    roots of unity times the entering phase.  Only trees admit such an
    assignment (a lasso already forces a contradiction).
    """
    a = analyze(g)
    if not (a.connected and a.betti == 0):
        raise GraphError("phase assignment exists only on trees")
    start = g.vertex_index(sorted(a.boundary)[0])
    order = _search(g, (start,))
    phases = {g.edges[order[1][2]].name: 0.0}
    for v, _, in_edge in order[1:]:
        d = g.degree(v)
        incoming = phases[g.edges[in_edge].name]
        others = [ei for ei, _ in g.endpoints_of_vertex[v] if ei != in_edge]
        for j, ei in enumerate(others, start=1):
            phases[g.edges[ei].name] = (incoming + 2.0 * math.pi * j / d) % (2.0 * math.pi)
    return PhaseAssignment(phases=phases)


def interior_phase_residual(g: MetricGraph, assignment: PhaseAssignment) -> float:
    """Max over interior vertices of |sum of e^{i phi} over incident edges|."""
    a = analyze(g)
    worst = 0.0
    for vi, name in enumerate(g.vertex_names):
        if name in a.boundary:
            continue
        total = 0j
        for ei, _ in g.endpoints_of_vertex[vi]:
            total += complex(math.cos(assignment.phases[g.edges[ei].name]),
                             math.sin(assignment.phases[g.edges[ei].name]))
        worst = max(worst, abs(total))
    return worst


def _integer_lengths(lengths) -> list[int]:
    """Rational lengths as integers over their common denominator; ``GraphError`` past denominator 10^6."""
    fracs = [Fraction(x).limit_denominator(10**6) for x in lengths]
    for x, frac in zip(lengths, fracs):
        if float(frac) != x:
            raise GraphError(f"length {x!r} is not recognized as rational")
    denom = math.lcm(*(f.denominator for f in fracs))
    return [int(f * denom) for f in fracs]


def check_cycle_sign_condition(g: MetricGraph) -> CycleSignWitness:
    """Sign search over every cycle and reference edge.

    For each cycle C and reference edge e-hat the search looks for signs
    nu(e) in {-1, +1} with (sum nu(e) L(e)) / L(e-hat) a positive even
    integer; separately it records whether some signed sum vanishes (the
    simpler sufficient condition).  Exact when the lengths are rational.
    Lengths are scaled to integers over their common denominator, and
    only distinct signed sums are kept, each with the first of its sign
    vectors in the order of the 2^m masks (bit i set: nu(e_i) = +1), so
    the work grows as m times the number of distinct sums (at most
    ``2 x L(C) x common denominator + 1``), not as 2^m; the search holds
    one level of sums at a time, each with its vector as an int mask.
    More than ``_MAX_SIGNED_SUMS`` distinct sums on one cycle raises
    ``GraphError``.
    """
    if not has_independent_cycles(g):
        raise GraphError("sign condition requires independent cycles")
    basis = cycle_basis(g)
    reports = []
    for cyc in basis.fundamental_cycles:
        names = tuple(n for n, _ in cyc)
        # lengths as integers over their common denominator: quotients of sums stay exact
        lengths = _integer_lengths([g.edges[g.edge_index(n)].length for n in names])
        # each distinct sum keeps, as a mask, the first of its sign vectors
        # in mask order: the last edge is the highest bit, so choosing it
        # first, -1 before +1, visits the vectors in mask order, and
        # setdefault keeps the first; only the current level stays alive
        sums: dict[int, int] = {0: 0}
        for i in reversed(range(len(lengths))):
            length, bit = lengths[i], 1 << i
            grown: dict[int, int] = {}
            for total, mask in sums.items():
                grown.setdefault(total - length, mask)
                grown.setdefault(total + length, mask | bit)
            sums = grown
            if len(sums) > _MAX_SIGNED_SUMS:
                raise GraphError(
                    f"sign search on a cycle of {len(names)} edges needs more than "
                    f"{_MAX_SIGNED_SUMS} distinct signed sums"
                )

        def signs_of(total: int) -> tuple[int, ...]:
            mask = sums[total]
            return tuple(1 if mask >> i & 1 else -1 for i in range(len(lengths)))

        totals = list(sums)
        per_ref: dict[str, tuple[int, ...] | None] = {}
        quotients: dict[str, tuple[float, ...]] = {}
        for ref, ref_len in zip(names, lengths):
            hit = next(
                (i for i, t in enumerate(totals) if t > 0 and t % (2 * ref_len) == 0), None
            )
            per_ref[ref] = None if hit is None else signs_of(totals[hit])
            # the quotients stop at the first hit; int / int is correctly
            # rounded, so each is the float of the exact quotient
            seen = totals if hit is None else totals[: hit + 1]
            quotients[ref] = tuple(sorted({t / ref_len for t in seen}))
        reports.append(
            CycleSignReport(
                cycle_edges=names,
                per_reference=per_ref,
                achievable_quotients=quotients,
                zero_sum_signs=signs_of(0) if 0 in sums else None,
            )
        )
    return CycleSignWitness(cycles=tuple(reports))


def rational_cycle_counterexample(g: MetricGraph) -> VerificationReport:
    """Parity counterexample for a single-cycle graph with rational lengths.

    With x minimal such that x L(e) is a natural number for every edge,
    an odd x L(Gamma) forces the standard/Dirichlet interlacing to fail
    at index n = x L(Gamma); the failure is checked numerically.
    """
    a = analyze(g)
    if not (a.connected and a.betti == 1 and all(d == 2 for d in g.degrees.values())):
        return _inapplicable("RATIONAL_CYCLE", "graph is not a single cycle")
    units = _integer_lengths(g.lengths)
    g0 = math.gcd(*units)
    units = [u // g0 for u in units]
    n_tilde = sum(units)
    report = VerificationReport("RATIONAL_CYCLE", "holds", checked_range=(n_tilde, n_tilde))
    report.details["x_total_length"] = n_tilde
    if n_tilde % 2 == 0:
        report.verdict = "inapplicable"
        report.details["reason"] = "x * total length is even; parity criterion silent"
        return report
    lhs = spectrum_values(g, STANDARD, n_tilde + 1)[n_tilde]
    rhs = spectrum_values(g, ALL_DIRICHLET, n_tilde)[n_tilde - 1]
    report.details["lambda_st"] = lhs
    report.details["lambda_dir"] = rhs
    if _ineq_excess(lhs, rhs) > 0:
        report.verdict = "holds"  # predicted interlacing failure confirmed
        report.details["interlacing_violated_at"] = n_tilde
    else:
        report.verdict = "violated"  # prediction failed to materialize
        report.violations.append((n_tilde, lhs, rhs))
    return report
