"""Independent spectral oracles for cross-checking the secular solver.

Two routes: the normalized discrete Laplacian with the equilateral
transfer 1 - cos(k l) = mu, and a piecewise-linear finite element
discretization for graphs with arbitrary edge lengths under every
condition kind.  The finite elements read each vertex's value subspace
X+ from its condition rows and take its coordinates in that orthonormal
basis as the vertex degrees of freedom; the rest of their numerics is
shared with nothing in the secular solver.

scipy is used by ``finite_difference_spectrum`` only and is imported on
its first call, so importing graphspec loads numpy alone.
"""
from __future__ import annotations

import math

import numpy as np

from .conditions import ConditionSpec, condition_rows
from .graph import GraphError, MetricGraph, analyze
from .secular import EigenvalueRecord, Spectrum

__all__ = [
    "build_normalized_laplacian",
    "symmetric_eigenvalues",
    "von_below_metric_spectrum",
    "finite_difference_spectrum",
]

# the Jacobi sweeps stop once the off-diagonal Frobenius norm falls below this
_JACOBI_TOL = 1e-12
# discrete eigenvalues this close are one cluster; this close to 0 or 2, a lattice point
_CLUSTER_TOL = 1e-9


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


def symmetric_eigenvalues(m: np.ndarray) -> np.ndarray:
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
        if off < _JACOBI_TOL:
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


def von_below_metric_spectrum(g: MetricGraph, edge_length: float, lam_max: float) -> Spectrum:
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
        if mu <= _CLUSTER_TOL or mu >= 2.0 - _CLUSTER_TOL:
            continue
        if clusters and abs(mu - clusters[-1][0]) <= _CLUSTER_TOL:
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


def finite_difference_spectrum(
    g: MetricGraph, spec: ConditionSpec, rho: float, count: int
) -> np.ndarray:
    """Lowest ``count`` eigenvalues of a P1 discretization with ~rho points per unit length.

    For scaling-invariant conditions the quadratic form is the edgewise
    Dirichlet energy on functions whose endpoint values at each vertex lie
    in ``X+(v)``, the span of its derivative rows, with no Robin part
    (Berkolaiko & Kuchment 2013, Sec. 1.4).  The free coordinates are each
    vertex's coordinates in that orthonormal basis, then the edge-interior
    nodes; a sparse ``T`` maps them to the broken nodal values (per edge:
    tail, interior nodes, head), and ``K = T' K_b T``, ``M = T' M_b T``
    with the edgewise stiffness and mass.  The method is conforming, so
    its eigenvalues approach the exact ones from above.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    spec.validate_for(g)
    min_len = min(e.length for e in g.edges)
    if rho * min_len < 8:
        raise ValueError("rho too small: need at least 8 points on the shortest edge")

    n_int = np.array([max(int(round(rho * e.length)) - 1, 7) for e in g.edges])
    h = np.array(g.lengths) / (n_int + 1)
    # broken nodes of edge n: its tail tails[n], its interior nodes, its head heads[n]
    tails = np.concatenate(([0], np.cumsum(n_int + 2)[:-1]))
    heads = tails + n_int + 1
    n_broken = int(heads[-1]) + 1

    # T: each vertex's X+ coordinates scattered to its endpoint nodes, then the interior nodes
    t_rows, t_cols, t_vals = [], [], []
    ndof = 0
    for vi, name in enumerate(g.vertex_names):
        eps = g.endpoints_of_vertex[vi]
        basis = condition_rows(name, len(eps), spec).derivative_rows
        nodes = np.array([heads[n] if end else tails[n] for n, end in eps])
        r, c = np.nonzero(basis)
        t_rows.append(nodes[c])
        t_cols.append(ndof + r)
        t_vals.append(basis[r, c])
        ndof += basis.shape[0]
    interior = np.setdiff1d(np.arange(n_broken), np.concatenate((tails, heads)))
    t_rows.append(interior)
    t_cols.append(ndof + np.arange(len(interior)))
    t_vals.append(np.ones(len(interior)))
    ndof += len(interior)
    t_mat = sp.csc_matrix(
        (np.concatenate(t_vals), (np.concatenate(t_rows), np.concatenate(t_cols))),
        shape=(n_broken, ndof),
    )

    # element j joins broken nodes j and j + 1; every node but a head starts one
    a = np.setdiff1d(np.arange(n_broken), heads)
    b = a + 1
    h_el = np.repeat(h, n_int + 1)
    pairs = (np.concatenate((a, b, a, b)), np.concatenate((a, b, b, a)))
    shape = (n_broken, n_broken)
    k_b = sp.csc_matrix((np.kron([1.0, 1.0, -1.0, -1.0], 1.0 / h_el), pairs), shape=shape)
    m_b = sp.csc_matrix((np.kron([2.0, 2.0, 1.0, 1.0], h_el / 6.0), pairs), shape=shape)
    k_mat = (t_mat.T @ k_b @ t_mat).tocsc()
    m_mat = (t_mat.T @ m_b @ t_mat).tocsc()
    # a fixed start vector: ARPACK's default is random, which moves the last digits from run to run
    v0 = np.random.default_rng(0).standard_normal(ndof)
    vals = spla.eigsh(
        k_mat, k=count, M=m_mat, sigma=-1e-3, which="LM", v0=v0, return_eigenvectors=False
    )
    vals = np.sort(vals)
    return np.clip(vals, 0.0, None)
