"""Spectra of Laplacians on compact metric graphs.

Builds metric graphs, imposes standard / anti-standard / Dirichlet /
mixed / scaling-invariant vertex conditions, computes spectra by secular
root finding, cross-checks them against discrete oracles and verifies the
spectral identities and inequalities relating the condition families.
"""
from .graph import (
    CycleBasis,
    Edge,
    GraphAnalysis,
    GraphError,
    MetricGraph,
    analyze,
    build_graph,
    builtin,
    cut_vertex,
    cycle_basis,
    has_independent_cycles,
    load_qgf,
    parse_qgf,
    tree_diameter,
)
from .conditions import (
    ALL_DIRICHLET,
    ANTI_STANDARD,
    STANDARD,
    ConditionKind,
    ConditionRows,
    ConditionSpec,
    anti_standard_neumann,
    condition_rows,
    dual,
    kernel_dimension_combinatorial,
    standard_dirichlet,
)
from .secular import (
    EdgeWave,
    EigenvalueRecord,
    SecularSystem,
    Spectrum,
    apply_momentum,
    assemble,
    eigenfunctions,
    find_spectrum,
    residual,
    solve_zero_modes,
    spectrum_values,
)
from .discrete import (
    build_normalized_laplacian,
    finite_difference_spectrum,
    symmetric_eigenvalues,
    von_below_metric_spectrum,
)
from .theorems import (
    THEOREM_IDS,
    CycleSignWitness,
    PhaseAssignment,
    VerificationReport,
    assign_tree_phases,
    check_cycle_sign_condition,
    interior_phase_residual,
    rational_cycle_counterexample,
    verify,
)

__version__ = "0.1.0"
