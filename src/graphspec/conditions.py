"""Self-adjoint vertex condition families and their zero-mode combinatorics.

Every family is one scaling-invariant condition (Berkolaiko & Kuchment
2013, Sec. 1.4): at a vertex of degree d the endpoint values lie in a
subspace X+ of R^d and the outward derivatives in X- = (X+)^perp.
Standard conditions take X+ = span(1), anti-standard ones its complement,
all-Dirichlet X+ = 0, and the scaling-invariant kind the subspace it is
given.  Standard and anti-standard conditions may swap X+ and X- on a set B
of degree-1 vertices, turning standard (Neumann) into Dirichlet there, stD,
and anti-standard (Dirichlet) into Neumann, astN; with B empty they are st
and ast.  ``dual`` swaps X+ and X- everywhere.

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

from .graph import MetricGraph, analyze

__all__ = [
    "ConditionKind",
    "ConditionSpec",
    "ConditionRows",
    "ConditionError",
    "condition_rows",
    "dual",
    "kernel_dimension_combinatorial",
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
    SCALING_INVARIANT = "scinv"


@dataclass(frozen=True)
class ConditionSpec:
    """Which vertex conditions to impose.

    ``boundary`` names a vertex set B for the standard or anti-standard
    kind: Dirichlet or Neumann there, the kind elsewhere.  For the
    scaling-invariant kind, ``plus_subspaces`` maps each vertex name to a
    matrix whose orthonormal rows span the subspace constraining the
    endpoint values; derivatives are constrained to its orthogonal
    complement.
    """

    kind: ConditionKind
    boundary: frozenset[str] = frozenset()
    plus_subspaces: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.boundary and self.kind not in (ConditionKind.STANDARD, ConditionKind.ANTI_STANDARD):
            raise ConditionError("boundary set only applies to the standard and anti-standard kinds")
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
        """The kind's value; st and ast with a nonempty B read stD and astN."""
        if self.boundary:
            return "stD" if self.kind is ConditionKind.STANDARD else "astN"
        return self.kind.value

    def validate_for(self, g: MetricGraph) -> None:
        """Check that B lies in the natural boundary, the degree-1 vertices, of a concrete graph.

        A scaling-invariant spec's subspaces are checked vertex by vertex, as
        a system under it reads its dimensions (``_plus_dimension``).
        """
        bad = self.boundary - {name for name, deg in g.degrees.items() if deg == 1}
        if bad:
            raise ConditionError(f"B must consist of degree-1 vertices; offending: {sorted(bad)}")


STANDARD = ConditionSpec(ConditionKind.STANDARD)
ANTI_STANDARD = ConditionSpec(ConditionKind.ANTI_STANDARD)
ALL_DIRICHLET = ConditionSpec(ConditionKind.ALL_DIRICHLET)


def standard_dirichlet(boundary) -> ConditionSpec:
    """Standard conditions, Dirichlet on B: ``STANDARD`` itself when B is empty."""
    return ConditionSpec(ConditionKind.STANDARD, boundary=frozenset(boundary))


def anti_standard_neumann(boundary) -> ConditionSpec:
    """Anti-standard conditions, Neumann on B: ``ANTI_STANDARD`` itself when B is empty."""
    return ConditionSpec(ConditionKind.ANTI_STANDARD, boundary=frozenset(boundary))


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
    """Whether X+ at vertex ``v`` is the ones row, not its complement: st off B, ast on B.

    Only those two kinds read the answer; every kind has its degree ``d``
    checked here, with ``ConditionError`` below 1 or, for a vertex of B,
    other than 1.
    """
    if d < 1:
        raise ConditionError("vertex degree must be at least 1")
    if v in spec.boundary and d != 1:
        raise ConditionError(f"B must consist of degree-1 vertices; offending: {[v]}")
    return (spec.kind is ConditionKind.ANTI_STANDARD) == (v in spec.boundary)


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
    # a kept complement is copied, so that a caller may write the rows without touching the cache
    complement = _kept_ones_complement(d).copy() if d <= _MAX_KEPT_DEGREE else _ones_complement(d)
    ones = np.full((1, d), 1.0 / np.sqrt(d))
    if plus_is_ones:
        return ConditionRows(value_rows=complement, derivative_rows=ones)
    return ConditionRows(value_rows=ones, derivative_rows=complement)


def _plus_dimension(v: str, d: int, spec: ConditionSpec) -> int:
    """dim X+ at vertex ``v`` of degree ``d``, as ``condition_rows`` gives it, with no row built."""
    plus_is_ones = _plus_is_ones(v, d, spec)
    if spec.kind is ConditionKind.SCALING_INVARIANT:
        return len(_plus_rows(spec, v, d))
    if spec.kind is ConditionKind.ALL_DIRICHLET:
        return 0
    return 1 if plus_is_ones else d - 1


def dual(spec: ConditionSpec, g: MetricGraph | None = None) -> ConditionSpec:
    """Interchange the value and derivative subspaces at every vertex."""
    kind = spec.kind
    if kind in (ConditionKind.STANDARD, ConditionKind.ANTI_STANDARD):
        # st and ast swap, and B with them: stD and astN
        swapped = ConditionKind.ANTI_STANDARD if kind is ConditionKind.STANDARD else ConditionKind.STANDARD
        return ConditionSpec(swapped, boundary=spec.boundary)
    # dir and scinv: the dual X+ is X- = (X+)^perp, the span of the value rows
    if g is None:
        raise ConditionError(f"dual of a {kind.value} spec needs the graph degrees")
    swapped = {name: condition_rows(name, deg, spec).value_rows for name, deg in g.degrees.items()}
    return ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces=swapped)


def kernel_dimension_combinatorial(g: MetricGraph, spec: ConditionSpec) -> int:
    """Zero-mode count from the graph combinatorics, on every connected graph.

    The zero modes are edgewise constants c: under st one constant, 0 on a
    nonempty B; under ast (Neumann on B), c sums to 0 at each vertex off B.
    The unsigned incidence rows off B have rank V - 1 on a bipartite graph
    with B empty and V - |B| otherwise (they are independent once one row is
    gone), so ast has z = beta - 1 + |B| + [bipartite and B empty].
    """
    a = analyze(g)
    if not a.connected:
        raise ConditionError("the combinatorial kernel formulas assume a connected graph")
    kind, b = spec.kind, len(spec.boundary)
    if kind is ConditionKind.STANDARD:
        return 0 if b else 1
    if kind is ConditionKind.ANTI_STANDARD:
        return a.betti - 1 + b + (a.bipartite and not b)
    if kind is ConditionKind.ALL_DIRICHLET:
        return 0
    raise ConditionError("no combinatorial formula for this kind; use solve_zero_modes")
