"""Property test: the solver's eigenvalue count against the finite-element oracle."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402

from graphspec import (  # noqa: E402
    ALL_DIRICHLET,
    STANDARD,
    SecularSystem,
    analyze,
    find_spectrum,
    finite_difference_spectrum,
    solve_zero_modes,
    standard_dirichlet,
)
from graphspec.generate import random_connected_graph  # noqa: E402


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=hs.integers(0, 2**32 - 1), edges=hs.integers(1, 6), kind=hs.sampled_from(["st", "dir", "stD"]))
def test_count_matches_finite_elements(seed, edges, kind):
    g = random_connected_graph(np.random.default_rng(seed), edges)
    boundary = sorted(analyze(g).boundary)
    assume(kind != "stD" or boundary)
    spec = {"st": STANDARD, "dir": ALL_DIRICHLET, "stD": standard_dirichlet(boundary[:1])}[kind]
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
