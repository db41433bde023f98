#!/usr/bin/env python3
"""Walk through the triangle fractal: counts, boundaries, and minimum cuts.

The selector graph starts as a single marked edge between two terminals and
grows by erecting a triangle on every marked edge, one round per depth
level.  Each round's fresh edges form a boundary ring, and every boundary is
an edge-disjoint terminal-to-terminal path.
"""

from fractalcut import build_fractal, enumerate_min_cuts, fractal_to_dot

for q in range(0, 5):
    f = build_fractal(q)
    print(f"depth {q}: {f.graph.n} vertices, {len(f.graph.edges)} edges, "
          f"boundary sizes {[len(b) for b in f.boundaries]}")

f = build_fractal(3)
print("\nvertex ids are positions along the deepest boundary path:")
print(f"  sigma = {f.sigma}, tau = {f.tau}")
for level, boundary in enumerate(f.boundaries):
    path = [f.graph.edges[i] for i in boundary]
    stops = [path[0].u] + [e.v for e in path]
    print(f"  boundary {level}: visits {stops}")

cuts = enumerate_min_cuts(f)
print(f"\n{len(cuts)} minimum terminal cuts, one edge per boundary;")
print("the cut for gap i separates deepest-boundary vertices i-1 and i:")
for gap, cut in enumerate(cuts[:3], start=1):
    pairs = [(f.graph.edges[i].u, f.graph.edges[i].v) for i in cut.edges]
    print(f"  gap {gap}: cut {pairs}")

print("\nDOT export (boundaries colored by ring):\n")
print(fractal_to_dot(build_fractal(2)))
