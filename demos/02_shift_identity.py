"""Shift identity between the standard and anti-standard spectra.

On a connected bipartite graph with beta independent cycles the two
spectra are identical up to an index shift:

    lambda_{k + beta}(anti-standard) = lambda_{k + 1}(standard).

The mechanism is the first-derivative map: differentiating a standard
eigenfunction (with the right edge orientations) produces an
anti-standard eigenfunction at the same energy.  Both facts are shown
numerically on a graph with two independent cycles.
"""
from graphspec import (
    ANTI_STANDARD,
    STANDARD,
    analyze,
    apply_momentum,
    build_graph,
    eigenfunctions,
    find_spectrum,
    residual,
    spectrum_values,
    verify,
)

# two digons (even 2-cycles) joined by a handle: bipartite with beta = 2
g = build_graph(
    [
        ("c1a", "a", "b", 1.0),
        ("c1b", "a", "b", 1.0),
        ("handle", "b", "c", 1.0),
        ("c2a", "c", "d", 1.0),
        ("c2b", "c", "d", 1.0),
    ]
)
a = analyze(g)
print(f"bipartite: {a.bipartite}, beta = {a.betti}")

st = spectrum_values(g, STANDARD, 10)
ast = spectrum_values(g, ANTI_STANDARD, 10 + a.betti)
print("\n k | lambda_{k+1}(st) | lambda_{k+beta}(a-st)")
for k in range(1, 9):
    print(f"{k:2d} | {st[k]:16.9f} | {ast[k + a.betti - 1]:16.9f}")

print("\nverification report:")
print(verify("SHIFT", g, count=10))

# the intertwining map in action on the first positive standard eigenvalue
s = find_spectrum(g, STANDARD, 10.0)
k1 = next(r.k for r in s.records if r.k > 0)
f = eigenfunctions(g, STANDARD, k1)[0]
df = apply_momentum(f, g)
print(f"\nfirst positive standard eigenvalue: k = {k1:.6f}")
print(f"residual of f in the standard rows:        {residual(g, STANDARD, f):.2e}")
print(f"residual of f' in the anti-standard rows:  {residual(g, ANTI_STANDARD, df):.2e}")
