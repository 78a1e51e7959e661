"""Property test: the solver's eigenvalue count against the finite-element oracle."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402

from graphspec import (  # noqa: E402
    ALL_DIRICHLET,
    ANTI_STANDARD,
    STANDARD,
    ConditionKind,
    ConditionSpec,
    SecularSystem,
    analyze,
    anti_standard_neumann,
    dual,
    find_spectrum,
    finite_difference_spectrum,
    solve_zero_modes,
    standard_dirichlet,
)
from graphspec.generate import random_connected_graph  # noqa: E402

KINDS = ["st", "ast", "dir", "neu", "stD", "astN", "scinv"]


def _spec(kind, g, rng):
    """The spec of a kind on g; the mixed kinds take the first boundary vertex as B."""
    boundary = sorted(analyze(g).boundary)[:1]
    if kind == "scinv":
        # a random orthonormal X+ of random dimension at each vertex
        subspaces = {}
        for name, deg in g.degrees.items():
            q, _ = np.linalg.qr(rng.standard_normal((deg, deg)))
            subspaces[name] = q[:, : int(rng.integers(0, deg + 1))].T.copy()
        return ConditionSpec(ConditionKind.SCALING_INVARIANT, plus_subspaces=subspaces)
    return {
        "st": STANDARD,
        "ast": ANTI_STANDARD,
        "dir": ALL_DIRICHLET,
        "neu": dual(ALL_DIRICHLET, g),
        "stD": standard_dirichlet(boundary),
        "astN": anti_standard_neumann(boundary),
    }[kind]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=hs.integers(0, 2**32 - 1), edges=hs.integers(1, 6), kind=hs.sampled_from(KINDS))
# the 30 drawn examples need not hold every kind; these make sure the mixed ones run
@example(seed=5, edges=5, kind="astN")
@example(seed=1, edges=5, kind="stD")
def test_count_matches_finite_elements(seed, edges, kind):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, edges)
    assume(kind not in ("stD", "astN") or analyze(g).boundary)
    spec = _spec(kind, g, rng)
    # 2000 elements in all keep the oracle's relative error below about 1e-4 here
    fd = finite_difference_spectrum(g, spec, 2000.0 / g.total_length, 8)
    # cut the window in the widest gap of the oracle's first 8 roots
    fd_k = np.sqrt(fd)
    j = int(np.argmax(np.diff(fd_k)))
    k_cut = 0.5 * (fd_k[j] + fd_k[j + 1])
    assume(fd_k[j + 1] - fd_k[j] > 1e-3 * k_cut)
    s = find_spectrum(g, spec, k_cut**2)
    assert s.total_count() == j + 1
    zero_dim, _ = solve_zero_modes(g, spec)
    assert zero_dim + SecularSystem(g, spec).count(k_cut)[0] == j + 1
    for got, want in zip(s.values(), fd):
        assert got == pytest.approx(want, rel=1e-3, abs=1e-9)
