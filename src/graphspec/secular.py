"""Spectrum of the Laplacian on a metric graph by secular-matrix root finding.

On each edge an eigenfunction at energy k^2 > 0 is
``f(x) = a cos(kx) + b sin(kx)`` in the edge's arclength coordinate.
``SecularSystem`` compiles the vertex condition rows of one (graph,
conditions) pair once.  Applied to the endpoint traces they give a real
2E x 2E matrix M(k), singular exactly at the eigenvalues; k = 0 is handled
separately with per-edge linear functions, from the same rows.

Roots come from the bond-scattering matrix of the same rows (Kottos &
Smilansky 1999; Berkolaiko & Kuchment 2013): ``U(k) = S J diag(e^{ikL})``
on the 2E edge ends, with ``S = I - 2 P_V`` the reflection in the span of
the value rows and J the swap of the ends of each edge.  k > 0 is an
eigenvalue of multiplicity m exactly when U(k) has eigenvalue 1 m times.
The eigenphases turn counterclockwise as k grows, so with phases in
[0, 2 pi) the number of eigenvalues in (0, k] is exactly
``N = (sum theta(0+) + 2 k L_total - sum theta(k)) / 2 pi``.  Bisection on
this count isolates the roots; a bracketed Illinois iteration on the real
function ``F(k) = Re[det(I - U(k)) e^{-ik L_total} det(SJ)^{-1/2}]``
refines each simple one.  A bracket narrower than ``refine_rel_k * k`` is
a cluster whose count is its multiplicity.  Every step is batched over
all brackets, in chunks of bounded memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import ConditionSpec, condition_rows
from .graph import MetricGraph, analyze

__all__ = [
    "EdgeWave",
    "EigenvalueRecord",
    "Spectrum",
    "SolverOptions",
    "WeylMismatch",
    "SecularSystem",
    "assemble",
    "find_spectrum",
    "solve_zero_modes",
    "eigenfunctions",
    "apply_momentum",
    "residual",
    "dirichlet_spectrum",
    "spectrum_values",
]

_TWO_PI = 2.0 * math.pi
# refinement stops at this relative width: a few units in the last place
_ULP_REL = 4.0 * np.finfo(float).eps
# a window whose Weyl estimate L_total k / pi exceeds this many eigenvalues is refused
_MAX_WEYL_COUNT = 10_000
# Illinois converges superlinearly; this only bounds a pathological bracket
_MAX_ILLINOIS_STEPS = 100
# grid points and bracket splits sit at this irrational fraction, so that
# none lands on the roots at rational points of a window that equilateral
# and rational graphs have
_SPLIT = 1.0 / math.sqrt(5.0)


class WeylMismatch(RuntimeError):
    """The bond-scattering eigenvalue count came out non-integer: an internal inconsistency."""


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

    def values(self, count: int | None = None) -> list[float]:
        """Eigenvalues expanded with multiplicity, smallest first."""
        out: list[float] = []
        for r in self.records:
            out.extend([r.lam] * r.multiplicity)
            if count is not None and len(out) >= count:
                return out[:count]
        if count is not None and len(out) < count:
            raise ValueError(
                f"spectrum holds {len(out)} eigenvalues, {count} requested; raise lam_max"
            )
        return out

    def k_values(self, count: int | None = None) -> list[float]:
        out: list[float] = []
        for r in self.records:
            out.extend([r.k] * r.multiplicity)
            if count is not None and len(out) >= count:
                return out[:count]
        return out

    def total_count(self) -> int:
        return sum(r.multiplicity for r in self.records)


@dataclass(frozen=True)
class SolverOptions:
    """Numerical thresholds of the root finder (defaults are the production values).

    ``grid_points_per_mean_gap``: density of the first batched count grid;
    ``mult_rel``: relative singular-value threshold of a null vector (zero
    modes, eigenfunctions); ``refine_rel_k``: relative width below which a
    bracket is one cluster, whose count is its multiplicity.
    """

    grid_points_per_mean_gap: int = 2
    mult_rel: float = 1e-7
    refine_rel_k: float = 1e-12


# chunks of a batched evaluation hold at most this many bytes of secular
# or bond matrices, so memory stays bounded however many values of k are asked for
_CHUNK_BYTES = 1 << 18
# an exact count is an integer; rounding in the phases moves it far less than this
_COUNT_TOL = 1e-6


def _positive_ks(ks) -> np.ndarray:
    ks = np.asarray(ks, dtype=float).reshape(-1)
    if not np.all(ks > 0):
        raise ValueError("the secular matrix requires k > 0; zero modes use solve_zero_modes")
    return ks


class SecularSystem:
    """Secular matrix of one (graph, conditions) pair, compiled once.

    The condition rows, stacked vertex by vertex (value rows, then
    derivative rows), are scattered once into the 2E endpoint columns,
    endpoint (n, end) -> column 2n + end.  ``M(k)`` on an array of k then
    takes a few array operations, and its singular values one batched SVD
    per chunk of ``chunk`` matrices.  The value rows also give the bond
    scattering matrix ``U(k)`` (module docstring), behind the exact
    eigenvalue ``count`` and the real ``secular_function``, evaluated in
    chunks of bounded memory.
    """

    def __init__(self, g: MetricGraph, spec: ConditionSpec):
        size = 2 * g.num_edges
        val = np.zeros((size, size))
        der = np.zeros((size, size))
        r = 0
        for vi, name in enumerate(g.vertex_names):
            eps = g.endpoints_of_vertex[vi]
            rows = condition_rows(name, len(eps), spec)
            cols = [2 * n + end for n, end in eps]
            nv, nd = rows.value_rows.shape[0], rows.derivative_rows.shape[0]
            val[r : r + nv, cols] = rows.value_rows
            der[r + nv : r + nv + nd, cols] = rows.derivative_rows
            r += nv + nd
        self.size = size
        self.lengths = np.array(g.lengths)
        self.chunk = max(1, _CHUNK_BYTES // (8 * size * size))
        self._tail_val, self._head_val = val[:, 0::2], val[:, 1::2]
        self._tail_der, self._head_der = der[:, 0::2], der[:, 1::2]

        self.total_length = g.total_length
        # S = I - 2 P_V, then J: column 2n + end of SJ is column 2n + 1 - end of S
        self._sj = (np.eye(size) - 2.0 * val.T @ val)[:, np.arange(size) ^ 1]
        self._bond_lengths = np.repeat(self.lengths, 2)
        w = np.linalg.eigvals(self._sj)
        # eigenphases of SJ at 1 leave phase 0 upwards as k grows from 0
        self._phase0 = float(np.sum(np.where(np.abs(w - 1.0) < 1e-8, 0.0, np.angle(w) % _TWO_PI)))
        self._det_norm = 1.0 / np.sqrt(complex(np.linalg.det(self._sj)))

    def _build(self, val_a, val_b, der_a, der_b) -> np.ndarray:
        """Matrices whose head traces are (val_a a + val_b b, der_a a + der_b b).

        A trace is (value, outward derivative / k) of the wave with
        coefficients (a_n, b_n) on edge n; its tail traces are (a_n, b_n).
        Each argument has shape (K, E); the result has shape (K, 2E, 2E).
        """
        m = np.empty((val_a.shape[0], self.size, self.size // 2, 2))
        m[..., 0] = self._tail_val + self._head_val * val_a[:, None, :] + self._head_der * der_a[:, None, :]
        m[..., 1] = self._tail_der + self._head_val * val_b[:, None, :] + self._head_der * der_b[:, None, :]
        return m.reshape(-1, self.size, self.size)

    def matrices(self, ks) -> np.ndarray:
        """Secular matrices at each k > 0, shape (K, 2E, 2E)."""
        kl = _positive_ks(ks)[:, None] * self.lengths
        c, s = np.cos(kl), np.sin(kl)
        return self._build(c, s, s, -c)

    def zero_matrix(self) -> np.ndarray:
        """k = 0 system over per-edge linear functions a + b x."""
        one = np.ones((1, len(self.lengths)))
        return self._build(one, self.lengths[None, :], np.zeros_like(one), -one)[0]

    def _batched(self, fn, ks, itemsize: int) -> np.ndarray:
        """fn on an array of k > 0, in chunks of at most _CHUNK_BYTES of itemsize-byte matrices."""
        ks = _positive_ks(ks)
        step = max(1, _CHUNK_BYTES // (itemsize * self.size**2))
        return np.concatenate([fn(ks[i : i + step]) for i in range(0, max(len(ks), 1), step)])

    def singular_values(self, ks) -> np.ndarray:
        """Singular values of M(k), descending, for each k > 0: shape (K, 2E)."""
        return self._batched(lambda k: np.linalg.svd(self.matrices(k), compute_uv=False), ks, 8)

    def sigma_min(self, ks) -> np.ndarray:
        """Smallest singular value of M(k) for each k > 0."""
        return self.singular_values(ks)[:, -1]

    def _bond(self, ks: np.ndarray) -> np.ndarray:
        """U(k) = S J diag(e^{ikL}) at each k, shape (K, 2E, 2E)."""
        return self._sj * np.exp(1j * ks[:, None] * self._bond_lengths)[:, None, :]

    def count(self, ks) -> np.ndarray:
        """Number of eigenvalues in (0, k], with multiplicity, for each k > 0.

        Raises ``WeylMismatch`` if a count is not an integer, which only an
        internal inconsistency can cause.
        """

        def counts(k):
            theta = np.angle(np.linalg.eigvals(self._bond(k))) % _TWO_PI
            return (self._phase0 + 2.0 * self.total_length * k - theta.sum(axis=1)) / _TWO_PI

        n = self._batched(counts, ks, 16)
        rounded = np.rint(n)
        bad = np.flatnonzero(np.abs(n - rounded) > _COUNT_TOL)
        if len(bad):
            k = float(np.reshape(ks, -1)[bad[0]])
            raise WeylMismatch(f"eigenvalue count {n[bad[0]]:.6f} at k = {k:.6g} is not an integer")
        # a phase that has left 0 by less than its rounding (k near 1e-15)
        # can wrap to 2 pi and make the count negative
        return np.maximum(rounded, 0).astype(int)

    def secular_function(self, ks) -> np.ndarray:
        """F(k) = Re[det(I - U(k)) e^{-ik L_total} det(SJ)^{-1/2}] for each k > 0.

        The bracket is real up to rounding; F vanishes exactly at the
        eigenvalues and changes sign at each simple one.
        """

        def f(k):
            det = np.linalg.det(np.eye(self.size) - self._bond(k))
            return (det * np.exp(-1j * self.total_length * k) * self._det_norm).real

        return self._batched(f, ks, 16)


def assemble(g: MetricGraph, spec: ConditionSpec, k: float) -> np.ndarray:
    """Secular matrix at k > 0: vertex condition rows applied to the traces."""
    return SecularSystem(g, spec).matrices(k)[0]


def solve_zero_modes(
    g: MetricGraph,
    spec: ConditionSpec,
    options: SolverOptions = SolverOptions(),
    system: SecularSystem | None = None,
) -> tuple[int, list[EdgeWave]]:
    """Numerical nullity and basis of the k = 0 system; ``system``: g and spec, if already compiled."""
    spec.validate_for(g)
    _, sv, vt = np.linalg.svd((system or SecularSystem(g, spec)).zero_matrix())
    smax = sv[0] if sv[0] > 0 else 1.0
    null = sv < options.mult_rel * max(smax, 1.0)
    dim = int(np.sum(null))
    basis = [EdgeWave(k=0.0, coeffs=vt[i].reshape(-1, 2).copy()) for i in range(len(sv)) if null[i]]
    return dim, basis


def _polish_cluster(system: SecularSystem, a: float, b: float) -> float:
    """Minimum of sigma_min over [a, b], to a few ulp: each batched step keeps 2 of 8 grid gaps."""
    while b - a > _ULP_REL * b:
        ks = np.linspace(a, b, 9)
        i = int(np.argmin(system.sigma_min(ks)))
        a, b = ks[max(i - 1, 0)], ks[min(i + 1, 8)]
    return float(0.5 * (a + b))


def _illinois(system: SecularSystem, x0, x1, f0, f1) -> np.ndarray:
    """Roots of the secular function between x0 and x1, where it changes sign, all at once.

    Illinois steps: regula falsi on the latest iterate x1 and the other
    end x0 of the bracket, halving f0 each time x0 stays.  A root is done
    when its step or its bracket falls to a few ulp.
    """
    i = np.arange(len(x0))
    for _ in range(_MAX_ILLINOIS_STEPS):
        x = x1[i] - f1[i] * (x1[i] - x0[i]) / (f1[i] - f0[i])
        fx = system.secular_function(x)
        flip = fx * f1[i] < 0
        x0[i], f0[i] = np.where(flip, x1[i], x0[i]), np.where(flip, f1[i], 0.5 * f0[i])
        done = (np.abs(x - x1[i]) <= _ULP_REL * x) | (np.abs(x - x0[i]) <= _ULP_REL * x) | (fx == 0)
        x1[i], f1[i] = x, fx
        if not len(i := i[~done]):
            break
    return x1


def find_spectrum(
    g: MetricGraph,
    spec: ConditionSpec,
    lam_max: float,
    options: SolverOptions = SolverOptions(),
) -> Spectrum:
    """All eigenvalues in [0, lam_max] with multiplicities.

    Zero modes are counted by a separate linear solve; positive roots are
    isolated by the exact bond-scattering count and refined as the module
    docstring describes.  Raises ``ValueError`` if lam_max is not a
    positive finite number or if the Weyl estimate of its window exceeds
    ``_MAX_WEYL_COUNT`` eigenvalues.
    """
    if not 0 < lam_max < math.inf:
        raise ValueError(f"lam_max must be a positive finite number, got {lam_max}")
    k_max = math.sqrt(lam_max)
    weyl = g.total_length * k_max / math.pi
    if weyl > _MAX_WEYL_COUNT:
        raise ValueError(
            f"lam_max = {lam_max:g} holds about {weyl:.3g} eigenvalues, more than {_MAX_WEYL_COUNT}"
        )
    spec.validate_for(g)
    system = SecularSystem(g, spec)
    zero_dim, _ = solve_zero_modes(g, spec, options, system)
    records = [EigenvalueRecord(0.0, 0.0, zero_dim)] if zero_dim else []
    records.extend(EigenvalueRecord(k, k * k, m) for k, m in _positive_roots(system, k_max, options))
    return Spectrum(records=tuple(records), complete_up_to=lam_max)


def _positive_roots(system: SecularSystem, k_max: float, options: SolverOptions) -> list[tuple[float, int]]:
    """Roots (k, multiplicity) in (0, k_max]: count bisection, then refinement."""
    # count a little past k_max, so that a root at k_max counts whatever
    # the rounding of its phase
    k_top = k_max * (1.0 + 1e-12)
    n = math.ceil(options.grid_points_per_mean_gap * system.total_length * k_top / math.pi)
    hi = np.append(k_top * (np.arange(n) + _SPLIT) / (n + _SPLIT), k_top)
    c_hi = np.maximum.accumulate(system.count(hi))
    lo, c_lo = np.append(0.0, hi[:-1]), np.append(0, c_hi[:-1])
    cluster_rel = max(options.refine_rel_k, _ULP_REL)
    roots: list[tuple[float, int]] = []
    simple = []  # (lo, hi, F(lo), F(hi)) of brackets where F changes sign once
    while True:
        # bracket (lo, hi] holds c_hi - c_lo roots
        keep = c_hi > c_lo
        lo, hi, c_lo, c_hi = lo[keep], hi[keep], c_lo[keep], c_hi[keep]
        tiny = hi - lo <= cluster_rel * hi
        for a, b, m in zip(lo[tiny], hi[tiny], (c_hi - c_lo)[tiny]):
            roots.append((_polish_cluster(system, 2 * a - b, 2 * b - a), int(m)))
        # refine one root where F changes sign; F(0) = 0 when zero modes
        # exist, and F can keep its sign when the root sits on an end
        one = np.flatnonzero(~tiny & (c_hi - c_lo == 1) & (lo > 0))
        f_lo, f_hi = np.split(system.secular_function(np.concatenate((lo[one], hi[one]))), 2)
        sign = f_lo * f_hi < 0
        simple.append((lo[one][sign], hi[one][sign], f_lo[sign], f_hi[sign]))
        split = ~tiny
        split[one[sign]] = False
        if not split.any():
            break
        lo, hi, c_lo, c_hi = lo[split], hi[split], c_lo[split], c_hi[split]
        mid = lo + _SPLIT * (hi - lo)
        c_mid = np.clip(system.count(mid), c_lo, c_hi)
        lo, hi, c_lo, c_hi = (np.concatenate(p) for p in ((lo, mid), (mid, hi), (c_lo, c_mid), (c_mid, c_hi)))
    x0, x1, f0, f1 = (np.concatenate(p) for p in zip(*simple))
    roots.extend((float(k), 1) for k in _illinois(system, x0, x1, f0, f1))
    return sorted(roots)


def eigenfunctions(
    g: MetricGraph,
    spec: ConditionSpec,
    k: float,
    options: SolverOptions = SolverOptions(),
) -> list[EdgeWave]:
    """L2-orthonormal basis of the eigenspace at an accepted root k > 0."""
    spec.validate_for(g)
    m = assemble(g, spec, k)
    _, sv, vt = np.linalg.svd(m)
    null = [vt[i] for i in range(len(sv)) if sv[i] < options.mult_rel * max(sv[0], 1.0)]
    if not null:
        raise ValueError(f"k = {k} is not a root: smallest singular value {sv[-1]:.3e}")
    gram = np.empty((len(null), len(null)))
    for i, ci in enumerate(null):
        for j, cj in enumerate(null):
            gram[i, j] = _l2_inner(g, k, ci, cj)
    w, u = np.linalg.eigh(gram)
    transform = u @ np.diag(1.0 / np.sqrt(w)) @ u.T
    basis = np.asarray(null).T @ transform
    return [EdgeWave(k=k, coeffs=basis[:, j].reshape(-1, 2).copy()) for j in range(basis.shape[1])]


def _l2_inner(g: MetricGraph, k: float, ci: np.ndarray, cj: np.ndarray) -> float:
    """Closed-form L2 inner product of two waves at the same k."""
    total = 0.0
    for n, e in enumerate(g.edges):
        L = e.length
        ai, bi = ci[2 * n], ci[2 * n + 1]
        aj, bj = cj[2 * n], cj[2 * n + 1]
        s2 = math.sin(2 * k * L)
        icc = L / 2.0 + s2 / (4.0 * k)
        iss = L / 2.0 - s2 / (4.0 * k)
        ics = math.sin(k * L) ** 2 / (2.0 * k)
        total += ai * aj * icc + bi * bj * iss + (ai * bj + aj * bi) * ics
    return total


def apply_momentum(f: EdgeWave, g: MetricGraph) -> EdgeWave:
    """Image of a wave under the first-derivative map, up to the scalar -ik.

    Requires a bipartite graph; each edge is read in the orientation from
    the first colour class to the second, so that standard eigenfunctions
    map to anti-standard ones and vice versa.  Mapping a wave (a, b)
    in that orientation gives (b, -a); applying the map twice yields -f.
    """
    if f.k <= 0:
        raise ValueError("the momentum map acts on positive-energy waves")
    a = analyze(g)
    if not a.bipartite:
        raise ValueError("the momentum map needs a bipartite graph")
    first = a.bipartition[0]
    out = np.empty_like(f.coeffs)
    for n, e in enumerate(g.edges):
        sign = 1.0 if g.vertex_names[e.tail] in first else -1.0
        an, bn = f.coeffs[n]
        out[n, 0] = sign * bn
        out[n, 1] = -sign * an
    return EdgeWave(k=f.k, coeffs=out)


def residual(g: MetricGraph, spec: ConditionSpec, f: EdgeWave, k: float) -> float:
    """Max violation of the vertex condition rows by the wave, per unit coefficient norm."""
    c = f.coeffs.reshape(-1)
    norm = float(np.linalg.norm(c))
    if norm == 0:
        return 0.0
    system = SecularSystem(g, spec)
    m = system.zero_matrix() if k == 0 else system.matrices(k)[0]
    return float(np.max(np.abs(m @ c))) / norm


def dirichlet_spectrum(g: MetricGraph, lam_max: float, rel_tol: float = 1e-12) -> Spectrum:
    """Closed-form fully decoupled Dirichlet spectrum: m^2 pi^2 / L_e^2 over all edges."""
    ks: list[float] = []
    for e in g.edges:
        m = 1
        while (m * math.pi / e.length) ** 2 <= lam_max * (1 + 1e-15):
            ks.append(m * math.pi / e.length)
            m += 1
    ks.sort()
    records: list[EigenvalueRecord] = []
    for k in ks:
        if records and abs(k - records[-1].k) <= rel_tol * k:
            last = records[-1]
            records[-1] = EigenvalueRecord(last.k, last.lam, last.multiplicity + 1)
        else:
            records.append(EigenvalueRecord(k, k * k, 1))
    return Spectrum(records=tuple(records), complete_up_to=lam_max)


def spectrum_values(
    g: MetricGraph,
    spec: ConditionSpec,
    count: int,
    options: SolverOptions = SolverOptions(),
) -> list[float]:
    """First ``count`` eigenvalues with multiplicity.

    The window grows from the Weyl estimate on the exact count alone until
    it holds ``count`` positive eigenvalues, enough with or without zero
    modes; one ``find_spectrum`` call then solves it.
    """
    spec.validate_for(g)
    system = SecularSystem(g, spec)
    gap = math.pi / g.total_length  # mean spacing of the roots in k
    k = gap * (max(count, 0) + 0.5)
    while (short := count - int(system.count(k)[0])) > 0:
        k += gap * short
    return find_spectrum(g, spec, k * k, options).values(count)
