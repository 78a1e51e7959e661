"""Spectrum of the Laplacian on a metric graph by secular-matrix root finding.

On each edge an eigenfunction at energy k^2 > 0 is
``f(x) = a cos(kx) + b sin(kx)`` in the edge's arclength coordinate.
``SecularSystem`` compiles the vertex condition rows of one (graph,
conditions) pair once, vertex by vertex, into the O(sum_v deg v^2) entries
they can make nonzero.  Applied to the endpoint traces they give a real
2E x 2E matrix M(k), singular exactly at the eigenvalues; at k = 0 they give
one over per-edge linear functions (``zero_matrix``), which ``residual`` uses.

Roots are counted on the vertex Dirichlet-to-Neumann (DtN) matrix
(Friedlander 1991; Berkolaiko, Kennedy, Kurasov & Mugnolo 2019).  The
derivative rows span X+, the r-dimensional space the endpoint values lie
in, and the value rows span X-, of dimension 2E - r, where the outward
derivatives lie.  On X+ the DtN matrix is ``Lambda(k) = sum_e phi q q^T``
over the symmetric and the antisymmetric mode q of each edge, with
``phi_s = -k tan(x/2)``, ``phi_a = k cot(x/2)`` and ``x = k L_e``; the
number of eigenvalues in [0, k) is the number of edge Dirichlet
eigenvalues below k^2 plus the number of negative eigenvalues of Lambda.
Each edge keeps one mode and borders the other, which carries the pole at
its Dirichlet eigenvalues, with ``psi = -1/phi``; scaled by
``diag(k^-1/2 I_r, k^1/2 I_E)`` this gives a real symmetric matrix B of
order r + E with entries ``-tan(x/2)`` or ``cot(x/2)``.  By Haynsworth's
inertia additivity the count is ``sum_e (j_e - 1) + n_-(B)``, with j_e pi
the bordered mode's pole nearest x_e, so no term jumps at a pole.  On X-
the Neumann-to-Dirichlet map ``Lambda^-1``, with modes 1 / phi, counts the
other way: edge Neumann eigenvalues up and its negative eigenvalues down.
Its B keeps the mode that X+ borders, on the coordinates of the value rows:
written B(f) for the matrix of entries f, it is B(-f), and the count is
``sum_e (j_e + 1) - n_-(B(-f))``.  Each system works on the side with fewer
rows: X+, with one row per vertex under standard conditions, or X- when
2E - r < r, with one row per vertex under anti-standard ones; the count,
the refinement of clusters and the zero modes all use it.  The same
additivity removes the bordered row of an edge whose pivot f (its diagonal
entry) is at least ``_BORDER_BELOW`` in size: its Schur complement adds the
bordered mode's phi / k = -1 / f to the block of the side and [f < 0] to
n_-(B).  ``count`` borders only the edges within that guard of a pole, and
takes the k of a batch in groups by their number m of such edges, so that
each k's B has order r + m, r the rows of its side, whatever the other k.
``dtn_eigenvalues`` borders every edge of B(f): on X- its eigenvalues are
those of B(-f) negated (S B(f) S = -B(-f), S = diag(I, -I)), so it falls
through every root as on X+.
Splitting each bracket at one point on the count isolates the roots;
Newton steps on det M(k) refine a simple root where it changes sign.
After two splits, any other bracket at most a quarter turn of the longest
edge wide keeps each edge's mode of its midpoint: B is then smooth and
decreasing in k, and the bracket's m roots are the zeros of the sorted
eigenvalues p+1 .. p+m of B, p = n_-(B(lo)).  Their sum, smooth at a
cluster, is refined first, by Newton steps too; two counts confirm that
all m roots are there, or else each eigenvalue is refined alone.  Both
take a Newton step's slope from one rule: the difference quotient of the
function they refine over k and k (1 + ``_SLOPE_REL``), both points in one
batched evaluation.  Every Newton step that leaves its bracket is a
bisection instead.  Every step is batched, in bounded memory.

A zero mode is edgewise constant, c_e on edge e, since the quadratic form
is ``sum_e int |f'|^2``: its endpoint values are the symmetric modes
``sqrt(2) c_e q_s``, which must lie in X+.  The zero modes are thus a null
space of the (rows, E) coordinates of the modes, which do not depend on the
lengths, on the side ``count`` uses: c with ``sym c = 0`` on X-, or the
values y in X+ with ``anti^T y = 0`` and ``c = y . sym`` on X+.  ``nullity``
is E - rank(sym) or r - rank(anti).

When r = 0, no vertex leaves an endpoint value free: every edge is a
Dirichlet interval, decoupled from the others, and the spectrum is the
closed form k = m pi / L_e, m >= 1, with no zero mode.  Such a system
(``SecularSystem.decoupled``: all-Dirichlet conditions, a
scaling-invariant spec whose subspaces are all empty, or any kind on a
graph whose vertices all fix their values) lists it and finds no root.
The check is on each vertex's dim X+, not on the kind.  Such a system is
kept at any number of edges, in O(E); ``_MAX_EDGES`` refuses a system that
leaves a vertex value free, and the M(k) and edge modes of any system.

Each graph object keeps, for as long as it lives and per value of the
conditions (``ConditionSpec._value``: the kind, B and the entries of any
given subspaces), one compiled ``SecularSystem`` (``_system``), and the
system keeps the one ``Spectrum`` it solved, which only grows
(``SecularSystem.solved``).  ``find_spectrum`` and ``spectrum_values``
read a window or a request inside the kept spectrum from it; a larger one
solves only the part of its window past the kept one, from the seam
``sqrt(lam_old) (1 + _TOP_REL)`` up, when the count at the seam equals the
kept positive total, and the whole window otherwise.  ``assemble``,
``residual``, ``eigenfunctions`` and ``solve_zero_modes`` read the kept
system.  A new graph object is compiled and solved from k = 0 again: it is
the reference the kept spectra are tested against.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conditions import ConditionSpec, _plus_dimension, condition_rows
from .graph import MetricGraph, analyze

__all__ = [
    "EdgeWave",
    "EigenvalueRecord",
    "Spectrum",
    "SecularSystem",
    "assemble",
    "find_spectrum",
    "solve_zero_modes",
    "eigenfunctions",
    "apply_momentum",
    "residual",
    "spectrum_values",
]

# refinement stops at this relative width: a few units in the last place
_ULP_REL = 4.0 * np.finfo(float).eps
# a window whose Weyl estimate L_total k / pi exceeds this many eigenvalues is refused
_MAX_WEYL_COUNT = 10_000
# a system of more edges is refused if a vertex leaves a value free, its M(k) and modes always:
# each k costs O(E^3), and find_spectrum on a path of edges 0.01 long up to
# lam_max 1, one BLAS thread on a 2-CPU x86-64 machine, took 0.26 s at E = 256,
# 3.4 s at 512 and 84 s (404 MB peak RSS) at 1,024
_MAX_EDGES = 512
# safeguarded Newton converges quadratically near a root and halves its
# bracket otherwise; this only bounds a pathological bracket
_MAX_NEWTON_STEPS = 100
# a Newton step's slope is the difference quotient of its function over this
# share of x, about sqrt(eps): the root is fixed by the sign change in its
# bracket, so the slope only has to steer the step
_SLOPE_REL = 2.0**-24
# the first grid's points and the one split point of each bracket sit at this
# irrational fraction, so that none lands on the roots at rational points of
# a window that equilateral and rational graphs have
_SPLIT = 1.0 / math.sqrt(5.0)
# the first count grid has this many points per mean gap pi / L_total of the roots
_GRID_POINTS_PER_MEAN_GAP = 2
# a singular value of the zero modes' map below this share of the largest (at
# least 1) marks a zero mode (``nullity``)
_MULT_REL = 1e-7
# roots closer than this share of k are one record; a cluster is confirmed,
# and an eigenspace's dimension read, by counts this share of k apart around it
_CLUSTER_REL = 1e-12
# a window [0, lam_max] is counted and solved up to sqrt(lam_max) (1 + _TOP_REL),
# so that a root at its edge counts whatever the rounding of the inertia there
_TOP_REL = 1e-12
# the count borders an edge only while its pivot f = -tan(x/2) or cot(x/2) is
# below this in size, near the pole of its bordered mode, and eliminates it
# elsewhere; with no guard, or none at j = 0, eliminating an edge at a pivot
# of rounding size can change the count near a pole
_BORDER_BELOW = 1e-2


@dataclass(frozen=True)
class EdgeWave:
    """Per-edge wave coefficients of an eigenfunction candidate.

    For k > 0 the function on edge n is ``a_n cos(k x) + b_n sin(k x)``;
    for k = 0 it is ``a_n + b_n x``.  ``coeffs`` has shape (E, 2).
    """

    k: float
    coeffs: np.ndarray


@dataclass(frozen=True)
class EigenvalueRecord:
    k: float
    lam: float
    multiplicity: int


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalue records, complete (with multiplicity) up to ``complete_up_to``."""

    records: tuple[EigenvalueRecord, ...]
    complete_up_to: float

    def _expanded(self, count: int | None) -> list[EigenvalueRecord]:
        """Records repeated by multiplicity, smallest first: all, or the first ``count``."""
        out = [r for r in self.records for _ in range(r.multiplicity)]
        if count is None:
            return out
        if len(out) < count:
            raise ValueError(
                f"spectrum holds {len(out)} eigenvalues, {count} requested; raise lam_max"
            )
        # a negative count asks for nothing, as spectrum_values reads it
        return out[: max(count, 0)]

    def values(self, count: int | None = None) -> list[float]:
        """Eigenvalues expanded with multiplicity, smallest first."""
        return [r.lam for r in self._expanded(count)]

    def k_values(self, count: int | None = None) -> list[float]:
        """Square roots of ``values``, expanded the same way."""
        return [r.k for r in self._expanded(count)]

    def total_count(self) -> int:
        return sum(r.multiplicity for r in self.records)


# chunks of a batched evaluation hold at most this many bytes of matrices,
# so memory stays bounded however many values of k are asked for
_CHUNK_BYTES = 1 << 18


def _chunk(order: int) -> int:
    """Number of float matrices of this order in one chunk (a count with no vertex value free has order 0)."""
    return max(1, _CHUNK_BYTES // (8 * max(order, 1) ** 2))


def _positive_ks(ks) -> np.ndarray:
    ks = np.asarray(ks, dtype=float).reshape(-1)
    if not ((ks > 0) & np.isfinite(ks)).all():
        raise ValueError("the secular matrix requires a finite k > 0; zero modes use solve_zero_modes")
    return ks


def _check_edges(n_edges: int) -> None:
    """Refuse order-2E work on a graph of more than ``_MAX_EDGES`` edges with ``ValueError``."""
    if n_edges > _MAX_EDGES:
        raise ValueError(f"the graph has {n_edges} edges, more than {_MAX_EDGES}")


class SecularSystem:
    """Secular matrix of one (graph, conditions) pair, compiled once.

    The condition rows, stacked vertex by vertex (value rows, then
    derivative rows), are compiled once into the entries they give M(k) on
    the 2E endpoint columns, endpoint (n, end) -> column 2n + end, which
    are nonzero only on the edges at the row's vertex.  ``M(k)`` on an
    array of k then takes a few array operations on those entries,
    scattered into zeros, and its singular values one batched SVD
    per chunk of ``chunk`` matrices.  The rows of the side with fewer of
    them (module docstring) give the coordinates of the edge modes there,
    built on first use, behind the bordered DtN matrix B of the exact
    ``count`` and of the refinement of clusters, and behind the zero modes.
    Batched evaluations run in bounded memory.
    It checks the spec against the graph and reads dim X+ at each vertex,
    so every solve, scan, residual and eigenfunction refuses a misfit with
    ``ConditionError``.  Past ``_MAX_EDGES`` edges it raises ``ValueError``
    if a vertex leaves a value free; a decoupled system is kept, in O(E)
    whatever the degrees, but compiles no entry and refuses its M(k) and modes.
    """

    def __init__(self, g: MetricGraph, spec: ConditionSpec):
        spec.validate_for(g)
        size = 2 * g.num_edges
        degree = np.array([len(eps) for eps in g.endpoints_of_vertex], dtype=int)
        # dim X+ at each vertex, read without building a row
        n_plus = np.array([_plus_dimension(name, d, spec) for name, d in zip(g.vertex_names, degree.tolist())], dtype=int)
        # r = 0: no vertex leaves a value free, every edge is a Dirichlet interval and the
        # spectrum is solved in closed form (``solved``); else roots are found on 2E x 2E matrices
        self.decoupled = not n_plus.any()
        if not self.decoupled:
            _check_edges(g.num_edges)
        self.size = size
        self.lengths = np.array(g.lengths)
        self.total_length = g.total_length
        self.chunk = _chunk(size)
        # vertex v's rows are rows first_v .. of M, its value rows first: the
        # derivative rows are a basis of X+ and the value rows one of X-
        first = np.cumsum(degree) - degree
        self._derivative_row = np.arange(size) - np.repeat(first, degree) >= np.repeat(degree - n_plus, degree)
        # the count, the refinement and the zero modes work on X- when it is the smaller side, 2E - r < r
        self._on_minus = 2 * int(n_plus.sum()) > size
        # the spectrum solved on this system, which only grows (``solved``)
        self.spectrum: Spectrum | None = None
        if g.num_edges > _MAX_EDGES:
            return  # decoupled: listed in closed form, its entries never compiled (``_check_edges``)
        # only the entries of M(k) that can be nonzero are kept, O(sum_v deg v^2)
        # of them: each vertex's d x d block of rows on its d endpoints, value
        # rows first.  Coefficient (i, j) of vertex v's block is on row first_v + i
        # and endpoint first_v + j, the endpoints listed vertex by vertex
        blocks = (condition_rows(name, d, spec) for name, d in zip(g.vertex_names, degree.tolist()))
        coefficients = np.concatenate([rows.ravel() for b in blocks for rows in (b.value_rows, b.derivative_rows)])
        edge, end = np.array([ep for eps in g.endpoints_of_vertex for ep in eps]).T
        squares = degree * degree
        vertex = np.repeat(np.arange(len(degree)), squares)
        i, j = np.divmod(np.arange(len(vertex)) - np.repeat(np.cumsum(squares) - squares, squares), degree[vertex])
        row, edge, end = first[vertex] + i, edge[first[vertex] + j], end[first[vertex] + j]
        # each (row, edge) pair's offset in a flat matrix (at column 2n), in order;
        # a loop's two ends at a row are one pair
        at = row * size + 2 * edge
        new = np.append(True, at[1:] != at[:-1])
        self._at, self._length_at = at[new], self.lengths[edge[new]]
        # each pair's value and derivative row entries on its edge's tail and head
        self._entries = np.zeros((4, len(self._at)))
        self._entries[2 * self._derivative_row[row] + end, np.cumsum(new) - 1] = coefficients

    @cached_property
    def _side(self) -> np.ndarray:
        """Coordinates of each edge's symmetric, then antisymmetric, unit mode in the basis of the side (X- or X+): shape (rows, 2E)."""
        _check_edges(len(self.lengths))
        rows = ~self._derivative_row if self._on_minus else self._derivative_row
        tail, head = self._entries[:2] if self._on_minus else self._entries[2:]
        row_at, column = np.divmod(self._at, self.size)
        on = rows[row_at]
        row, edge = np.cumsum(rows)[row_at[on]] - 1, column[on] // 2
        modes = np.zeros((int(np.count_nonzero(rows)), self.size))
        modes[row, edge] = math.sqrt(0.5) * (tail[on] + head[on])
        modes[row, edge + len(self.lengths)] = math.sqrt(0.5) * (tail[on] - head[on])
        return modes

    def _sym_anti(self) -> tuple[np.ndarray, np.ndarray]:
        """The symmetric and the antisymmetric modes' coordinates (``_side``), shape (rows, E) each: views, not copies."""
        n_edges = len(self.lengths)
        return self._side[:, :n_edges], self._side[:, n_edges:]

    def _zero_map(self) -> np.ndarray:
        """A matrix of E columns on X-, r on X+, whose null space holds the zero modes (module docstring)."""
        sym, anti = self._sym_anti()
        return sym if self._on_minus else anti.T

    @cached_property
    def zero_modes(self) -> tuple[EdgeWave, ...]:
        """Orthonormal basis of the zero modes: edgewise constants c_e, coefficients (c_e, 0).

        On X-, c spans the null space of the symmetric modes' coordinates;
        on X+, the null space of the antisymmetric ones' transpose holds the
        values y in X+, and c = y . sym.
        """
        if self.decoupled:
            # no zero mode, and no SVD of the E x 0 map, whose factor u is E x E
            return ()
        # the last ``nullity`` rows of vt span the null space, by the one rank test of ``nullity``
        vt = np.linalg.svd(self._zero_map())[2]
        c = vt[len(vt) - self.nullity :]
        if not self._on_minus:
            c = c @ self._sym_anti()[0]
        return tuple(EdgeWave(k=0.0, coeffs=np.stack((v, np.zeros_like(v)), axis=1)) for v in c)

    @cached_property
    def nullity(self) -> int:
        """``len(zero_modes)``, from the singular values of a matrix of order at most max(r, E) alone, whatever the lengths."""
        m = self._zero_map()
        sv = np.linalg.svd(m, compute_uv=False)
        return m.shape[1] - int(np.count_nonzero(sv >= _MULT_REL * sv.max(initial=1.0)))

    def _build(self, val_a, val_b, der_a, der_b) -> np.ndarray:
        """Matrices whose head traces are (val_a a + val_b b, der_a a + der_b b).

        A trace is (value, outward derivative / k) of the wave with
        coefficients (a_n, b_n) on edge n; its tail traces are (a_n, b_n).
        Each argument has shape (K, number of entries), at the edge of each
        entry; the result has shape (K, 2E, 2E).
        """
        tail_val, head_val, tail_der, head_der = self._entries
        m = np.zeros((val_a.shape[0], self.size * self.size))
        m[:, self._at] = tail_val + head_val * val_a + head_der * der_a
        m[:, self._at + 1] = tail_der + head_val * val_b + head_der * der_b
        return m.reshape(-1, self.size, self.size)

    def matrices(self, ks) -> np.ndarray:
        """Secular matrices at each k > 0, shape (K, 2E, 2E); the one check of k behind ``singular_values`` and ``determinant``."""
        _check_edges(len(self.lengths))
        kl = _positive_ks(ks)[:, None] * self._length_at
        c, s = np.cos(kl), np.sin(kl)
        return self._build(c, s, s, -c)

    def zero_matrix(self) -> np.ndarray:
        """k = 0 system over per-edge linear functions a + b x."""
        _check_edges(len(self.lengths))
        one = np.ones((1, len(self._length_at)))
        return self._build(one, self._length_at[None, :], np.zeros_like(one), -one)[0]

    @staticmethod
    def _batched(fn, step: int, *per_k) -> np.ndarray:
        """fn on rows of ``per_k``, ``step`` rows at a time (``_chunk``)."""
        if len(per_k[0]) <= step:
            return fn(*per_k)
        return np.concatenate([fn(*(a[i : i + step] for a in per_k)) for i in range(0, max(len(per_k[0]), 1), step)])

    def singular_values(self, ks) -> np.ndarray:
        """Singular values of M(k), descending, for each k > 0: shape (K, 2E)."""
        return self._batched(lambda k: np.linalg.svd(self.matrices(k), compute_uv=False), _chunk(self.size), np.reshape(ks, -1))

    def determinant(self, ks) -> np.ndarray:
        """det M(k) for each k > 0: zero exactly at the eigenvalues, changing sign at each simple one."""
        return self._batched(lambda k: np.linalg.det(self.matrices(k)), _chunk(self.size), np.reshape(ks, -1))

    def _modes(self, ks: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(j, kept, f) of each edge at each k, shape (K, E) each.

        j pi is the multiple of pi nearest x at k = ``at``.  The edge keeps
        its symmetric mode (``kept``) where j is even on X+, odd on X-, and
        borders the other.  f is -tan(x/2) or cot(x/2) as j is even or odd:
        phi / k of the mode X+ keeps and k psi of the one it borders.
        """
        j = np.rint(at[:, None] * self.lengths / math.pi)
        even = j % 2 == 0
        t = np.tan(0.5 * ks[:, None] * self.lengths)
        return j, even != self._on_minus, np.where(even, -t, 1.0 / np.where(even, 1.0, t))

    def _bordered(self, kept, f, border) -> np.ndarray:
        """B on the side's r rows at each k, bordering the edges of ``border`` only: shape (K, r + m, r + m).

        Every k borders the same number m of edges.  Every other edge is
        eliminated (Haynsworth): the Schur complement of its pivot f adds its
        bordered mode's -1 / f to the r x r block, next to its kept mode's f.
        The block is one product per k over the side's 2E modes, whose
        rounding no other k of the call changes.
        """
        modes = self._side
        (r, size), n = modes.shape, len(f)
        m = int(border[:1].sum())
        # with no edge bordered, every pivot f is eliminated
        eliminated = np.where(border, 0.0, -1.0 / np.where(border, 1.0, f)) if m else -1.0 / f
        weighted = modes * np.concatenate((np.where(kept, f, eliminated), np.where(kept, eliminated, f)), axis=1)[:, None, :]
        block = weighted @ modes.T
        if not m:
            return block
        b = np.zeros((n, r + m, r + m))
        b[:, :r, :r] = block
        # each k's m bordered edges e, in turn, on rows r .. r + m - 1, with f on the
        # diagonal: the bordered mode is the antisymmetric one, column E + e of
        # the modes, where e keeps its symmetric one
        e = border.nonzero()[1]
        b[:, r:, :r] = modes.T[e + size // 2 * kept[border]].reshape(n, m, r)
        b.reshape(n, -1)[:, (r + m + 1) * r :: r + m + 1] = f[border].reshape(n, m)
        return b

    def dtn_eigenvalues(self, ks, at=None) -> np.ndarray:
        """Sorted eigenvalues of B(f) on the side at each k > 0, each edge keeping its mode at k = ``at`` (default k): shape (K, rows + E).

        Every edge is bordered, so that across a bracket that keeps each
        edge's mode B is smooth in k (module docstring); on X- it has the
        entries f, not -f.  Its values are refined, not counted: all k at once.
        """
        ks = _positive_ks(ks)
        _, kept, f = self._modes(ks, ks if at is None else _positive_ks(at))
        return self._batched(
            lambda kept, f: np.linalg.eigvalsh(self._bordered(kept, f, np.ones_like(kept))),
            _chunk(self._side.shape[0] + len(self.lengths)),
            kept,
            f,
        )

    def count(self, ks) -> np.ndarray:
        """Number of eigenvalues in (0, k], with multiplicity, for each k > 0.

        On the side (module docstring), the inertia of B, B(-f) on X-,
        counts the eigenvalues in [0, k), less the zero modes.  Only an edge
        whose pivot f is within ``_BORDER_BELOW`` of 0, near the pole of its
        bordered mode, is bordered; every other edge is eliminated and adds
        the sign of its pivot instead.  The k of a batch are grouped by their
        number m of bordered edges, so that each k's B has order r + m, r the
        rows of the side, and the answer at one k does not depend on the
        others.  At a root itself rounding decides whether it counts, and so
        it does within rounding of one: where the all-bordered B
        (``dtn_eigenvalues``) has an eigenvalue within about 1e-13 of 0, as an
        eliminated edge puts entries up to 1 / ``_BORDER_BELOW`` in B.
        """
        ks = _positive_ks(ks)
        # past 2^53 float64 no longer holds the pole indices j exactly, and far past it their sum overflows an int
        if (self.total_length * ks / math.pi >= 2.0**53).any():
            raise ValueError(f"the count requires L_total k / pi below 2^53, got k = {ks.max():g}")
        # the bordered mode's pole nearest x is the multiple of pi nearest x
        j, kept, f = self._modes(ks, ks)
        border = np.abs(f) < _BORDER_BELOW
        # B of k Lambda^-1 on X- (module docstring) has -f in place of each entry f
        f, sign = (-f, -1) if self._on_minus else (f, 1)
        r, n_edges = self._side.shape[0], len(self.lengths)
        # each eliminated edge adds the sign of its pivot: f <= -_BORDER_BELOW is negative
        negative = (f <= -_BORDER_BELOW).sum(axis=1)
        bordered = border.sum(axis=1)
        # the k that border m edges, for each m; when none borders one, all k, with no gathers
        groups = (
            [(m, np.flatnonzero(bordered == m)) for m in np.flatnonzero(np.bincount(bordered)).tolist()]
            if bordered.any()
            else [(0, slice(None))]
        )
        for m, at in groups:
            # a chunk holds at most _CHUNK_BYTES of matrices B, or of the (r, 2E) factors of their products
            negative[at] += self._batched(
                lambda *a: (np.linalg.eigvalsh(self._bordered(*a)) < 0).sum(axis=1),
                _chunk(max(r + m, math.isqrt(2 * r * n_edges))),
                kept[at],
                f[at],
                border[at],
            )
        # on X+, sum_e (j_e - 1) + n_-(B); on X-, sum_e (j_e + 1) - n_-(B)
        n = j.sum(axis=1) + sign * (negative - n_edges) - self.nullity
        # rounding can hide a zero mode's negative eigenvalue (of order -k L) at tiny k
        return np.maximum(n, 0).astype(int)

    def _total_up_to(self, k: float) -> int:
        """Number of eigenvalues in [0, k], zero modes included; in closed form on a decoupled system."""
        if self.decoupled:
            return len(_decoupled_ks(self.lengths, k))
        return self.nullity + int(self.count(k)[0])

    def solved(self, lam_max: float) -> Spectrum:
        """``spectrum``, grown if need be to hold [0, lam_max].

        Only the roots past the seam ``_top(spectrum.complete_up_to)`` are
        solved when the count there equals the kept positive total; otherwise,
        and on the first solve, the whole window is.  A decoupled system
        lists its whole window in closed form instead, k = m pi / L_e, with no
        root finding.  Raises ``ValueError``,
        with ``spectrum`` as it was, for the windows ``_window_k_max`` refuses.
        """
        _window_k_max(self.total_length, lam_max)
        kept = self.spectrum
        if kept is not None and kept.complete_up_to >= lam_max:
            return kept
        if self.decoupled:
            ks = _decoupled_ks(self.lengths, _top(lam_max)).tolist()
            self.spectrum = Spectrum(records=tuple(_records((k, 1) for k in ks)), complete_up_to=lam_max)
            return self.spectrum
        roots: list[tuple[float, int]] = []
        seam = 0.0
        if kept is not None:
            positive = [(r.k, r.multiplicity) for r in kept.records if r.k > 0]
            if self.count(_top(kept.complete_up_to))[0] == sum(m for _, m in positive):
                roots, seam = positive, _top(kept.complete_up_to)
        # the kept roots lie at or below the seam and the new ones at or above it, so all are in order
        roots += _positive_roots(self, lam_max, seam, sum(m for _, m in roots))
        zero = [EigenvalueRecord(0.0, 0.0, self.nullity)] if self.nullity else []
        self.spectrum = Spectrum(records=tuple(zero + _records(roots)), complete_up_to=lam_max)
        return self.spectrum


def _system(g: MetricGraph, spec: ConditionSpec) -> SecularSystem:
    """The system of (g, spec), compiled once and kept with g under a snapshot of the value of spec (module docstring)."""
    key = spec._value()
    if key not in g._systems:
        g._systems[key] = SecularSystem(g, spec)
    return g._systems[key]


def assemble(g: MetricGraph, spec: ConditionSpec, k: float) -> np.ndarray:
    """Secular matrix at k > 0: vertex condition rows applied to the traces."""
    return _system(g, spec).matrices(k)[0]


def solve_zero_modes(g: MetricGraph, spec: ConditionSpec) -> tuple[int, list[EdgeWave]]:
    """Number of zero modes and an orthonormal basis of them, edgewise constants, from the kept system (module docstring)."""
    modes = _system(g, spec).zero_modes
    # copies: the kept system's basis must not change with what a caller writes
    return len(modes), [EdgeWave(m.k, m.coeffs.copy()) for m in modes]


def _slopes(fn, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fn(x) and its slope at x, the difference quotient over x (1 + ``_SLOPE_REL``): one call of fn on both points, one row of its result per point."""
    past = x * (1.0 + _SLOPE_REL)
    values = fn(np.concatenate((x, past)))
    at, ahead = values[: len(x)], values[len(x) :]
    return at, ((ahead - at).T / (past - x)).T


def _newton(f, lo, hi, f_lo, f_hi) -> np.ndarray:
    """Roots of functions between lo and hi, where each changes sign, all at once.

    ``f(i, x)`` gives the values of the functions i at x and their slopes
    there (``_slopes``).  The first iterate is regula falsi on the bracket,
    every other one a Newton step from the last, or the bracket's midpoint
    where that step leaves the bracket; each iterate replaces the end of the
    bracket where f has its sign.  A root is done when f is 0 at it, when
    its Newton step is at most ``_ULP_REL`` x (that step is taken, with no
    further evaluation), or when its bracket falls to that width.  Done
    roots leave the working arrays.
    """
    out = np.empty(len(lo))
    i = np.arange(len(lo))
    x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
    for _ in range(_MAX_NEWTON_STEPS):
        fx, slope = f(i, x)
        # x replaces the end where f has its sign: hi, whose sign f_hi keeps, or lo
        up = fx * f_hi > 0
        lo, hi = np.where(up, lo, x), np.where(up, x, hi)
        step = np.divide(fx, slope, out=np.full_like(fx, np.inf), where=slope != 0)
        newton, tol = x - step, _ULP_REL * x
        inside = (lo < newton) & (newton < hi)
        # where f = 0, x is an end of the bracket and is kept
        small = np.abs(step) <= tol
        done = small | (hi - lo <= tol) | (fx == 0)
        root, x = np.where(small & inside, newton, x), np.where(inside, newton, 0.5 * (lo + hi))
        if done.any():
            out[i[done]] = root[done]
            more = ~done
            i, x, lo, hi, f_hi = i[more], x[more], lo[more], hi[more], f_hi[more]
            if not len(i):
                return out
    out[i] = x
    return out


def _records(roots) -> list[EigenvalueRecord]:
    """Sorted (k, multiplicity) pairs as records; roots within _CLUSTER_REL * k of a record's k join it."""
    groups: list[list] = []
    for k, m in roots:
        if not groups or k - groups[-1][0] > _CLUSTER_REL * k:
            groups.append([k, 0])
        groups[-1][1] += m
    return [EigenvalueRecord(k, k * k, m) for k, m in groups]


def _dtn_roots(system: SecularSystem, lo, hi, m) -> list[tuple[float, int]]:
    """Roots (k, multiplicity) of brackets (lo, hi] holding m roots each, on the eigenvalues of B (module docstring)."""
    mid = 0.5 * (lo + hi)
    w_lo, w_hi = np.split(system.dtn_eigenvalues(np.concatenate((lo, hi)), np.concatenate((mid, mid))), 2)

    def refine(b, window):
        """Zeros of the sums of the eigenvalues in each row of window, in brackets b."""
        def f(i, x):
            # _slopes asks for x and a point past it: both with the rows and modes of their bracket
            rows, at = np.tile(window[i], (2, 1)), np.tile(mid[b[i]], 2)
            return _slopes(lambda y: np.where(rows, system.dtn_eigenvalues(y, at), 0.0).sum(axis=1), x)

        # rounding can leave a root at lo on the wrong side of it; it is then found at lo
        f0 = np.maximum(np.where(window, w_lo[b], 0.0).sum(axis=1), 0.0)
        return _newton(f, lo[b], hi[b], f0, np.where(window, w_hi[b], 0.0).sum(axis=1))

    # eigenvalues p .. p + m - 1 (from 0) each fall through zero once, at a root
    j, p = np.arange(w_hi.shape[1]), np.count_nonzero(w_hi < 0, axis=1) - m
    k = refine(np.arange(len(lo)), (j >= p[:, None]) & (j < (p + m)[:, None]))
    # all m roots sit at k if the count grows by m across it
    below, above = system.count(np.outer(k, [1.0 - 0.5 * _CLUSTER_REL, 1.0 + 0.5 * _CLUSTER_REL])).reshape(-1, 2).T
    apart = np.flatnonzero(above - below != m)
    roots = [(float(x), int(n)) for x, n in zip(np.delete(k, apart), np.delete(m, apart))]
    if len(apart):
        # each root of the other brackets on one eigenvalue of its own
        b = np.repeat(apart, m[apart])
        branch = p[b] + np.arange(len(b)) - np.searchsorted(b, b)
        roots.extend((float(x), 1) for x in refine(b, j == branch[:, None]))
    return roots


def _window_k_max(total_length: float, lam_max: float) -> float:
    """k_max = sqrt(lam_max) of a window [0, lam_max] that can be solved on a graph of this total length.

    Raises ``ValueError`` unless lam_max is a positive finite number and the
    Weyl estimate L_total k_max / pi of the window is at most
    ``_MAX_WEYL_COUNT`` eigenvalues.
    """
    if not 0 < lam_max < math.inf:
        raise ValueError(f"lam_max must be a positive finite number, got {lam_max}")
    k_max = math.sqrt(lam_max)
    weyl = total_length * k_max / math.pi
    if weyl > _MAX_WEYL_COUNT:
        raise ValueError(
            f"lam_max = {lam_max:g} holds about {weyl:.3g} eigenvalues, more than {_MAX_WEYL_COUNT}"
        )
    return k_max


def _top(lam_max: float) -> float:
    """The k up to which the window [0, lam_max] is counted and solved (_TOP_REL)."""
    return math.sqrt(lam_max) * (1.0 + _TOP_REL)


def find_spectrum(g: MetricGraph, spec: ConditionSpec, lam_max: float) -> Spectrum:
    """All eigenvalues in [0, lam_max] with multiplicities, read from the spectrum kept with g.

    The spectrum kept on the system of (g, spec) is grown to the window if
    need be (``SecularSystem.solved``);
    its records up to ``_top(lam_max)`` are what a whole solve of the window
    gives, so a new graph object with the same edges gives the same
    spectrum.  Zero modes are counted as edgewise constants on the modes'
    coordinates; positive roots are isolated by the exact DtN inertia count
    and refined as the module docstring describes.  When the conditions leave
    no vertex value free (r = 0, ``ALL_DIRICHLET`` among them), the window
    is listed in closed form, on a graph of any number of edges, and no
    root is found or counted.  Raises ``ValueError`` if
    lam_max is not a positive finite number or if the Weyl estimate of its
    window exceeds ``_MAX_WEYL_COUNT`` eigenvalues.
    """
    _window_k_max(g.total_length, lam_max)  # before the system is compiled
    kept, k_top = _system(g, spec).solved(lam_max), _top(lam_max)
    return Spectrum(records=tuple(r for r in kept.records if r.k <= k_top), complete_up_to=lam_max)


def _positive_roots(system: SecularSystem, lam_max: float, k_lo: float = 0.0, c_lo: int = 0) -> list[tuple[float, int]]:
    """Sorted roots (k, multiplicity) in (k_lo, _top(lam_max)], where ``c_lo`` is the count at k_lo: brackets split on the count, then refinement."""
    k_top = _top(lam_max)
    n = math.ceil(_GRID_POINTS_PER_MEAN_GAP * system.total_length * (k_top - k_lo) / math.pi)
    hi = np.append(k_lo + (k_top - k_lo) * (np.arange(n) + _SPLIT) / (n + _SPLIT), k_top)
    c_hi = np.maximum.accumulate(np.maximum(system.count(hi), c_lo))
    lo, c_lo = np.append(k_lo, hi[:-1]), np.append(c_lo, c_hi[:-1])
    simple = []  # (lo, hi, det M(lo), det M(hi)) of brackets where det M changes sign once
    roots: list[tuple[float, int]] = []
    for level in itertools.count():
        # bracket (lo, hi] holds c_hi - c_lo roots
        keep = c_hi > c_lo
        lo, hi, c_lo, c_hi = lo[keep], hi[keep], c_lo[keep], c_hi[keep]
        # refine one root where det M changes sign; det M(0) = 0 when zero
        # modes exist, and det M can keep its sign when the root sits on an end
        one = np.flatnonzero((c_hi - c_lo == 1) & (lo > 0))
        split = np.ones(len(lo), dtype=bool)
        if len(one):
            f_lo, f_hi = np.split(system.determinant(np.concatenate((lo[one], hi[one]))), 2)
            sign = f_lo * f_hi < 0
            simple.append((lo[one][sign], hi[one][sign], f_lo[sign], f_hi[sign]))
            split[one[sign]] = False
        # after two splits, a bracket of several roots mostly holds a cluster, which no
        # count splits; B keeps each edge's mode across a quarter turn of the longest edge
        dtn = split & (lo > 0) & ((hi - lo) * system.lengths.max() <= 0.5 * math.pi) & (level > 1)
        if dtn.any():
            roots.extend(_dtn_roots(system, lo[dtn], hi[dtn], (c_hi - c_lo)[dtn]))
        split &= ~dtn
        if not split.any():
            break
        lo, hi, c_lo, c_hi = lo[split], hi[split], c_lo[split], c_hi[split]
        # one point per bracket, all in one batched count: (lo, mid] and (mid, hi]
        mid = lo + _SPLIT * (hi - lo)
        c_mid = np.clip(system.count(mid), c_lo, c_hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        c_lo, c_hi = np.concatenate((c_lo, c_mid)), np.concatenate((c_mid, c_hi))
    if simple:
        x0, x1, f0, f1 = (np.concatenate(p) for p in zip(*simple))
        roots.extend((float(k), 1) for k in _newton(lambda i, x: _slopes(system.determinant, x), x0, x1, f0, f1))
    return sorted(roots)


def eigenfunctions(g: MetricGraph, spec: ConditionSpec, k: float) -> list[EdgeWave]:
    """L2-orthonormal basis of the eigenspace at an accepted root k > 0.

    Its dimension m is the growth of the exact count across k (1 -+
    ``_CLUSTER_REL`` / 2), as a cluster is confirmed; ``ValueError`` if m = 0.
    The right singular vectors of M(k)'s m smallest singular values are
    orthonormalised by the Gram matrix of their waves, one closed form over
    all edges: on edge e, the integrals over [0, L_e] of cos^2, cos sin and
    sin^2 of k x.
    """
    system = _system(g, spec)
    _, sv, vt = np.linalg.svd(system.matrices(k)[0])
    below, above = system.count([k * (1.0 - 0.5 * _CLUSTER_REL), k * (1.0 + 0.5 * _CLUSTER_REL)])
    null = vt[len(vt) - int(above - below) :]
    if not len(null):
        raise ValueError(f"k = {k} is not a root: smallest singular value {sv[-1]:.3e}")
    lengths = np.array(g.lengths)
    half, s2, cs = 0.5 * lengths, np.sin(2 * k * lengths) / (4 * k), np.sin(k * lengths) ** 2 / (2 * k)
    waves = null.reshape(len(null), -1, 2)
    gram = np.einsum("iea,abe,jeb->ij", waves, np.array([[half + s2, cs], [cs, half - s2]]), waves)
    w, u = np.linalg.eigh(gram)
    transform = u @ np.diag(1.0 / np.sqrt(w)) @ u.T
    basis = null.T @ transform
    return [EdgeWave(k=k, coeffs=basis[:, j].reshape(-1, 2).copy()) for j in range(basis.shape[1])]


def apply_momentum(f: EdgeWave, g: MetricGraph) -> EdgeWave:
    """Image of a wave under the first-derivative map, up to the scalar -ik.

    Requires a bipartite graph; each edge is read in the orientation from
    the first colour class to the second, so that standard eigenfunctions
    map to anti-standard ones and vice versa.  Mapping a wave (a, b)
    in that orientation gives (b, -a); applying the map twice yields -f.
    """
    if not 0 < f.k < math.inf:
        raise ValueError(f"the momentum map acts on waves of finite k > 0, got k = {f.k}")
    a = analyze(g)
    if not a.bipartite:
        raise ValueError("the momentum map needs a bipartite graph")
    first = a.bipartition[0]
    sign = np.array([1.0 if g.vertex_names[e.tail] in first else -1.0 for e in g.edges])
    return EdgeWave(k=f.k, coeffs=sign[:, None] * f.coeffs[:, ::-1] * [1.0, -1.0])


def residual(g: MetricGraph, spec: ConditionSpec, f: EdgeWave) -> float:
    """Max violation of the vertex condition rows by the wave at its own ``f.k``, per unit coefficient norm."""
    system = _system(g, spec)
    # built first, so that a k the matrices refuse is refused for a zero wave too
    m = system.zero_matrix() if f.k == 0 else system.matrices(f.k)[0]
    c = f.coeffs.reshape(-1)
    norm = float(np.linalg.norm(c))
    if norm == 0:
        return 0.0
    return float(np.max(np.abs(m @ c))) / norm


def _decoupled_ks(lengths, k_top: float) -> np.ndarray:
    """Sorted k = m pi / L_e <= k_top, m >= 1, over edges of these lengths: the roots of Dirichlet intervals."""
    ks = np.concatenate([np.arange(1, math.floor(k_top * length / math.pi) + 2) * math.pi / length for length in lengths])
    return np.sort(ks[ks <= k_top])


def spectrum_values(g: MetricGraph, spec: ConditionSpec, count: int) -> list[float]:
    """First ``count`` eigenvalues with multiplicity.

    The spectrum is the one kept on the system of (g, spec), which
    ``find_spectrum`` reads too (module docstring).  A request for no more
    eigenvalues than it holds reads its prefix, which is what a new solve
    would give.  Otherwise the window grows from the Weyl estimate on the
    exact count alone until it holds ``count`` eigenvalues, its zero modes
    included (all of them, if there are more), on the closed-form count
    when the conditions leave no vertex value free; the kept spectrum is grown
    to that window, solving only the part past its own, and is what
    ``find_spectrum`` on a new graph object gives on that window.  A count
    past the kept one of ``_MAX_WEYL_COUNT`` or more raises ``ValueError``.
    """
    system = _system(g, spec)
    kept = system.spectrum
    if kept is None or kept.total_count() < count:
        # refused before a count at a huge k overflows: the Weyl estimate of the first window is count + 1/2
        if count >= _MAX_WEYL_COUNT:
            raise ValueError(f"count must be below {_MAX_WEYL_COUNT}, got {count}")
        gap = math.pi / g.total_length  # mean spacing of the roots in k
        k = gap * (max(count, 0) + 0.5)
        while (short := count - system._total_up_to(k)) > 0:
            k += gap * short
        kept = system.solved(k * k)
    return kept.values(count)
