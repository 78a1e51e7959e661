"""Self-adjoint vertex condition families and their zero-mode combinatorics.

Every family is one scaling-invariant condition (Berkolaiko & Kuchment
2013, Sec. 1.4): at a vertex of degree d the endpoint values lie in a
subspace X+ of R^d and the outward derivatives in X- = (X+)^perp.
Standard conditions take X+ = span(1), anti-standard ones its complement,
all-Dirichlet X+ = 0, and the scaling-invariant kind the subspace it is
given.  The mixed kinds swap X+ and X- on B, which holds only degree-1
vertices: there the swap turns standard (Neumann) into Dirichlet and
anti-standard (Dirichlet) into Neumann.  ``dual`` swaps them everywhere.

A condition is stored as per-vertex constraint rows: ``value_rows`` span
X- and annihilate the vector of endpoint values, ``derivative_rows`` span
X+ and annihilate the vector of outward derivatives, with orthonormal
rows and ``rows(value) + rows(derivative) = deg v``.  Both come from one
complete QR of the rows spanning X+ (``_split``): the ones row for the
named kinds, whose complement is kept per degree, or the given rows for
the scaling-invariant kind.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .graph import MetricGraph, analyze, cycle_basis

__all__ = [
    "ConditionKind",
    "ConditionSpec",
    "ConditionRows",
    "ConditionError",
    "condition_rows",
    "dual",
    "kernel_dimension_combinatorial",
    "kernel_basis_ast",
    "STANDARD",
    "ANTI_STANDARD",
    "ALL_DIRICHLET",
]


class ConditionError(ValueError):
    """Raised for invalid or inapplicable condition specifications."""


class ConditionKind(enum.Enum):
    STANDARD = "st"
    ANTI_STANDARD = "ast"
    ALL_DIRICHLET = "dir"
    STANDARD_DIRICHLET_B = "stD"
    ANTI_STANDARD_NEUMANN_B = "astN"
    SCALING_INVARIANT = "scinv"


@dataclass(frozen=True)
class ConditionSpec:
    """Which vertex conditions to impose.

    ``boundary`` names the vertex set B for the two mixed kinds (Dirichlet
    or Neumann there, standard or anti-standard elsewhere).  For the
    scaling-invariant kind, ``plus_subspaces`` maps each vertex name to a
    matrix whose orthonormal rows span the subspace constraining the
    endpoint values; derivatives are constrained to its orthogonal
    complement.
    """

    kind: ConditionKind
    boundary: frozenset[str] = frozenset()
    plus_subspaces: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        mixed = (ConditionKind.STANDARD_DIRICHLET_B, ConditionKind.ANTI_STANDARD_NEUMANN_B)
        if self.boundary and self.kind not in mixed:
            raise ConditionError("boundary set only applies to the mixed kinds")
        if self.plus_subspaces and self.kind is not ConditionKind.SCALING_INVARIANT:
            raise ConditionError("subspaces only apply to the scaling-invariant kind")

    def __eq__(self, other) -> bool:
        return isinstance(other, ConditionSpec) and self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def _value(self) -> tuple:
        """What makes two specs the same conditions: the kind, B, and the shape and entries of each given subspace."""
        plus = ((v, np.shape(p), tuple(np.ravel(np.asarray(p, dtype=float)).tolist())) for v, p in self.plus_subspaces.items())
        return self.kind, self.boundary, tuple(sorted(plus))

    @property
    def token(self) -> str:
        return self.kind.value

    def validate_for(self, g: MetricGraph) -> None:
        """Check that B lies in the natural boundary of a concrete graph.

        A scaling-invariant spec's subspaces are checked vertex by vertex, as
        a system under it reads its dimensions (``_plus_dimension``).
        """
        if self.kind in (ConditionKind.STANDARD_DIRICHLET_B, ConditionKind.ANTI_STANDARD_NEUMANN_B):
            # the natural boundary: the degree-1 vertices
            bad = self.boundary - {name for name, deg in g.degrees.items() if deg == 1}
            if bad:
                raise ConditionError(
                    f"B must consist of degree-1 vertices; offending: {sorted(bad)}"
                )


STANDARD = ConditionSpec(ConditionKind.STANDARD)
ANTI_STANDARD = ConditionSpec(ConditionKind.ANTI_STANDARD)
ALL_DIRICHLET = ConditionSpec(ConditionKind.ALL_DIRICHLET)


def standard_dirichlet(boundary) -> ConditionSpec:
    return ConditionSpec(ConditionKind.STANDARD_DIRICHLET_B, boundary=frozenset(boundary))


def anti_standard_neumann(boundary) -> ConditionSpec:
    return ConditionSpec(ConditionKind.ANTI_STANDARD_NEUMANN_B, boundary=frozenset(boundary))


@dataclass(frozen=True)
class ConditionRows:
    """Orthonormal constraint rows at a single vertex."""

    value_rows: np.ndarray
    derivative_rows: np.ndarray


def _split(rows: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows spanning the row span of the independent ``rows`` in R^d and its complement, from one complete QR."""
    q = np.linalg.qr(rows.T, mode="complete")[0]
    return q[:, : len(rows)].T.copy(), q[:, len(rows) :].T.copy()


def _ones_complement(d: int) -> np.ndarray:
    """Orthonormal rows spanning the complement of the all-ones vector in R^d."""
    return _split(np.ones((1, d)), d)[1]


# kept for the life of the process up to this degree, above every vertex of the bench graphs:
# about 87 kB in all; a larger complement, d x (d - 1) numbers, is built on each call
_MAX_KEPT_DEGREE = 32
_kept_ones_complement = functools.cache(_ones_complement)


def _plus_rows(spec: ConditionSpec, v: str, d: int) -> np.ndarray:
    """Rows of the subspace X+ that a scaling-invariant spec gives at vertex ``v`` of degree ``d``, shape (rank, d)."""
    plus = spec.plus_subspaces.get(v)
    if plus is None:
        raise ConditionError(f"no subspace given for vertex {v!r}")
    plus = np.atleast_2d(np.asarray(plus, dtype=float))
    if plus.size == 0:
        plus = plus.reshape(0, d)
    if plus.shape[1] != d:
        raise ConditionError(f"subspace at {v!r} has dimension {plus.shape[1]}, degree is {d}")
    # _split takes the given rows to be independent: P P^T = I up to rounding
    if np.abs(plus @ plus.T - np.eye(len(plus))).max(initial=0.0) > 1e-10:
        raise ConditionError(f"subspace at {v!r} is not given by orthonormal rows")
    return plus


def _plus_is_ones(v: str, d: int, spec: ConditionSpec) -> bool:
    """Whether X+ at vertex ``v`` is the ones row, not its complement: st and stD off B, ast and astN on B.

    Only those four kinds read the answer; every kind has its degree ``d``
    checked here, with ``ConditionError`` below 1.
    """
    if d < 1:
        raise ConditionError("vertex degree must be at least 1")
    return (spec.kind in (ConditionKind.ANTI_STANDARD, ConditionKind.ANTI_STANDARD_NEUMANN_B)) == (v in spec.boundary)


def condition_rows(v: str, d: int, spec: ConditionSpec) -> ConditionRows:
    """Constraint rows (X-, X+) at vertex ``v`` of degree ``d`` for the given spec (module docstring).

    ``scinv`` splits R^d along its given rows, ``dir`` takes X+ = 0, and the
    other kinds take the ones row or its complement, swapped on B.  Raises
    ``ConditionError`` for a ``scinv`` vertex with no subspace, one of
    another dimension or one whose rows are not orthonormal, and for a
    vertex of B whose degree is not 1.
    """
    plus_is_ones = _plus_is_ones(v, d, spec)
    kind = spec.kind
    if kind is ConditionKind.SCALING_INVARIANT:
        plus, minus = _split(_plus_rows(spec, v, d), d)
        return ConditionRows(value_rows=minus, derivative_rows=plus)
    if kind is ConditionKind.ALL_DIRICHLET:
        return ConditionRows(value_rows=np.eye(d), derivative_rows=np.zeros((0, d)))
    if v in spec.boundary and d != 1:
        raise ConditionError(f"B must consist of degree-1 vertices; offending: {[v]}")
    # a kept complement is copied, so that a caller may write the rows without touching the cache
    complement = _kept_ones_complement(d).copy() if d <= _MAX_KEPT_DEGREE else _ones_complement(d)
    ones = np.full((1, d), 1.0 / np.sqrt(d))
    if plus_is_ones:
        return ConditionRows(value_rows=complement, derivative_rows=ones)
    return ConditionRows(value_rows=ones, derivative_rows=complement)


def _plus_dimension(v: str, d: int, spec: ConditionSpec) -> int:
    """dim X+ at vertex ``v`` of degree ``d``, as ``condition_rows`` gives it, with no row built; B is taken as checked (``validate_for``)."""
    plus_is_ones = _plus_is_ones(v, d, spec)
    if spec.kind is ConditionKind.SCALING_INVARIANT:
        return len(_plus_rows(spec, v, d))
    if spec.kind is ConditionKind.ALL_DIRICHLET:
        return 0
    return 1 if plus_is_ones else d - 1


def dual(spec: ConditionSpec, g: MetricGraph | None = None) -> ConditionSpec:
    """Interchange the value and derivative subspaces at every vertex."""
    kind = spec.kind
    if kind is ConditionKind.STANDARD:
        return ANTI_STANDARD
    if kind is ConditionKind.ANTI_STANDARD:
        return STANDARD
    if kind is ConditionKind.STANDARD_DIRICHLET_B:
        return ConditionSpec(ConditionKind.ANTI_STANDARD_NEUMANN_B, boundary=spec.boundary)
    if kind is ConditionKind.ANTI_STANDARD_NEUMANN_B:
        return ConditionSpec(ConditionKind.STANDARD_DIRICHLET_B, boundary=spec.boundary)
    # dir and scinv: the dual X+ is X- = (X+)^perp, the span of the value rows
    if g is None:
        raise ConditionError(f"dual of a {kind.value} spec needs the graph degrees")
    swapped = {name: condition_rows(name, deg, spec).value_rows for name, deg in g.degrees.items()}
    return ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces=swapped)


def kernel_dimension_combinatorial(g: MetricGraph, spec: ConditionSpec) -> int:
    """Zero-mode count from the graph combinatorics (connected graphs only)."""
    a = analyze(g)
    if not a.connected:
        raise ConditionError("the combinatorial kernel formulas assume a connected graph")
    kind = spec.kind
    if kind is ConditionKind.STANDARD:
        return 1
    if kind is ConditionKind.ANTI_STANDARD:
        return a.betti if a.bipartite else a.betti - 1
    if kind is ConditionKind.ALL_DIRICHLET:
        return 0
    if kind is ConditionKind.STANDARD_DIRICHLET_B:
        return 0 if spec.boundary else 1
    if kind is ConditionKind.ANTI_STANDARD_NEUMANN_B:
        if not a.bipartite:
            raise ConditionError("the mixed Neumann formula assumes a bipartite graph")
        if not spec.boundary:
            raise ConditionError("the mixed Neumann formula assumes nonempty B")
        return a.betti + len(spec.boundary) - 1
    raise ConditionError("no combinatorial formula for this kind; use solve_zero_modes")


def kernel_basis_ast(g: MetricGraph) -> np.ndarray:
    """Edgewise-constant anti-standard zero modes of a connected bipartite graph.

    Returns an array of shape (beta, E): one alternating +-1 function per
    fundamental cycle, zero off the cycle.
    """
    a = analyze(g)
    if not a.connected:
        raise ConditionError("kernel_basis_ast requires a connected graph")
    if not a.bipartite:
        raise ConditionError("an odd cycle admits no alternating assignment")
    basis = cycle_basis(g)
    out = np.zeros((len(basis.fundamental_cycles), g.num_edges))
    name_to_idx = {e.name: i for i, e in enumerate(g.edges)}
    for j, cyc in enumerate(basis.fundamental_cycles):
        for pos, (name, _sign) in enumerate(cyc):
            out[j, name_to_idx[name]] = 1.0 if pos % 2 == 0 else -1.0
    return out
