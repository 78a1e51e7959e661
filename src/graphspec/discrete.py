"""Independent spectral oracles for cross-checking the secular solver.

Two routes: the normalized discrete Laplacian with the equilateral
transfer 1 - cos(k l) = mu, and a piecewise-linear finite element
discretization for graphs with arbitrary edge lengths.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .conditions import ConditionKind, ConditionSpec
from .graph import GraphError, MetricGraph, analyze
from .secular import EigenvalueRecord, Spectrum

__all__ = [
    "build_normalized_laplacian",
    "symmetric_eigenvalues",
    "von_below_metric_spectrum",
    "finite_difference_spectrum",
]


def build_normalized_laplacian(g: MetricGraph) -> np.ndarray:
    """Normalized Laplacian of the underlying discrete graph.

    Parallel edges count with multiplicity; loops contribute twice to both
    the degree and the adjacency count of their vertex.
    """
    if not analyze(g).connected:
        raise GraphError("normalized Laplacian oracle assumes a connected graph")
    V = g.num_vertices
    adj = np.zeros((V, V))
    for e in g.edges:
        if e.tail == e.head:
            adj[e.tail, e.tail] += 2.0
        else:
            adj[e.tail, e.head] += 1.0
            adj[e.head, e.tail] += 1.0
    deg = np.array([float(g.degree(v)) for v in range(V)])
    dinv = 1.0 / np.sqrt(deg)
    return np.eye(V) - (dinv[:, None] * adj * dinv[None, :])


def symmetric_eigenvalues(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Sorted eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Deliberately self-contained so the discrete oracle shares no numerics
    with the secular solver's SVD path.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(m - m.T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise ValueError("matrix is not symmetric")
    a = m.copy()
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    for _ in range(100):
        off = math.sqrt(np.sum(np.square(a - np.diag(a.diagonal()))))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
    return np.sort(a.diagonal())


def von_below_metric_spectrum(
    g: MetricGraph, edge_length: float, lam_max: float, cluster_tol: float = 1e-9
) -> Spectrum:
    """Standard-Laplacian spectrum of an equilateral graph via the discrete transfer.

    Each discrete eigenvalue mu in (0, 2) produces the k-values with
    ``1 - cos(k l) = mu``; the lattice points k l in pi N carry the extra
    multiplicities of eigenfunctions vanishing at all vertices.
    """
    a = analyze(g)
    if not a.connected:
        raise GraphError("equilateral transfer oracle assumes a connected graph")
    for e in g.edges:
        if abs(e.length - edge_length) > 1e-12 * edge_length:
            raise GraphError(f"graph is not equilateral: edge {e.name!r} has length {e.length}")
    ell = edge_length
    beta = a.betti
    k_max = math.sqrt(lam_max)

    mus = symmetric_eigenvalues(build_normalized_laplacian(g))
    # generic eigenvalues strictly inside (0, 2); the ends are the lattice points
    clusters: list[tuple[float, int]] = []
    for mu in mus:
        if mu <= cluster_tol or mu >= 2.0 - cluster_tol:
            continue
        if clusters and abs(mu - clusters[-1][0]) <= cluster_tol:
            clusters[-1] = (clusters[-1][0], clusters[-1][1] + 1)
        else:
            clusters.append((mu, 1))

    entries: list[tuple[float, int]] = []
    for mu, mult in clusters:
        base = math.acos(min(1.0, max(-1.0, 1.0 - mu)))
        m = 0
        while True:
            added = False
            for kl in (base + 2 * math.pi * m, 2 * math.pi - base + 2 * math.pi * m):
                k = kl / ell
                if k <= k_max * (1 + 1e-12):
                    entries.append((k, mult))
                    added = True
            if not added:
                break
            m += 1

    # lattice points k l = j pi
    j = 1
    while j * math.pi / ell <= k_max * (1 + 1e-12):
        if j % 2 == 1:
            mult = beta + 1 if a.bipartite else beta - 1
        else:
            mult = beta + 1
        if mult > 0:
            entries.append((j * math.pi / ell, mult))
        j += 1

    entries.sort()
    records = [EigenvalueRecord(0.0, 0.0, 1)]
    for k, mult in entries:
        if records and abs(k - records[-1].k) <= 1e-12 * max(1.0, k):
            last = records[-1]
            records[-1] = EigenvalueRecord(last.k, last.lam, last.multiplicity + mult)
        else:
            records.append(EigenvalueRecord(k, k * k, mult))
    return Spectrum(records=tuple(records), complete_up_to=lam_max)


_FD_KINDS = (
    ConditionKind.STANDARD,
    ConditionKind.ALL_DIRICHLET,
    ConditionKind.STANDARD_DIRICHLET_B,
)


def finite_difference_spectrum(
    g: MetricGraph, spec: ConditionSpec, rho: float, count: int
) -> np.ndarray:
    """Lowest ``count`` eigenvalues of a P1 discretization with ~rho points per unit length.

    Vertex values are shared across incident edge endpoints (continuity);
    the assembled vertex rows realize the derivative balance to second
    order.  Anti-standard conditions are out of scope here and validated
    through the shift identity and the equilateral transfer instead.
    """
    if spec.kind not in _FD_KINDS:
        raise ValueError(f"finite-difference oracle does not support kind {spec.kind}")
    spec.validate_for(g)
    min_len = min(e.length for e in g.edges)
    if rho * min_len < 8:
        raise ValueError("rho too small: need at least 8 points on the shortest edge")

    dirichlet: set[int] = set()
    if spec.kind is ConditionKind.ALL_DIRICHLET:
        dirichlet = set(range(g.num_vertices))
    elif spec.kind is ConditionKind.STANDARD_DIRICHLET_B:
        dirichlet = {g.vertex_index(v) for v in spec.boundary}

    # global DOF numbering: one DOF per non-Dirichlet vertex, then edge interiors
    vertex_dof = {}
    ndof = 0
    for v in range(g.num_vertices):
        if v not in dirichlet:
            vertex_dof[v] = ndof
            ndof += 1

    rows_k, cols_k, vals_k = [], [], []
    rows_m, cols_m, vals_m = [], [], []

    def add(mat_r, mat_c, mat_v, i, j, x):
        if i is None or j is None:
            return
        mat_r.append(i)
        mat_c.append(j)
        mat_v.append(x)

    for e in g.edges:
        n_int = max(int(round(rho * e.length)) - 1, 7)
        h = e.length / (n_int + 1)
        chain = []
        chain.append(vertex_dof.get(e.tail))
        for _ in range(n_int):
            chain.append(ndof)
            ndof += 1
        chain.append(vertex_dof.get(e.head))
        for i in range(len(chain) - 1):
            a_, b_ = chain[i], chain[i + 1]
            add(rows_k, cols_k, vals_k, a_, a_, 1.0 / h)
            add(rows_k, cols_k, vals_k, b_, b_, 1.0 / h)
            add(rows_k, cols_k, vals_k, a_, b_, -1.0 / h)
            add(rows_k, cols_k, vals_k, b_, a_, -1.0 / h)
            add(rows_m, cols_m, vals_m, a_, a_, h / 3.0)
            add(rows_m, cols_m, vals_m, b_, b_, h / 3.0)
            add(rows_m, cols_m, vals_m, a_, b_, h / 6.0)
            add(rows_m, cols_m, vals_m, b_, a_, h / 6.0)

    k_mat = sp.csc_matrix((vals_k, (rows_k, cols_k)), shape=(ndof, ndof))
    m_mat = sp.csc_matrix((vals_m, (rows_m, cols_m)), shape=(ndof, ndof))
    # a fixed start vector: ARPACK's default is random, which moves the last digits from run to run
    v0 = np.random.default_rng(0).standard_normal(ndof)
    vals = spla.eigsh(
        k_mat, k=count, M=m_mat, sigma=-1e-3, which="LM", v0=v0, return_eigenvectors=False
    )
    vals = np.sort(vals)
    return np.clip(vals, 0.0, None)
