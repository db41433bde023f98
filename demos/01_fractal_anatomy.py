#!/usr/bin/env python3
"""Walk through the triangle fractal: counts, boundaries, and the dual tree.

The selector graph starts as a single marked edge between two terminals and
grows by erecting a triangle on every marked edge, one round per depth
level.  Each round's fresh edges form a boundary ring, and every boundary is
an edge-disjoint terminal-to-terminal path.
"""

from fractalcut import build_fractal, fractal_to_dot

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

d = f.dual
print(f"\ndual tree: {d.node_count} nodes, {len(d.leaf_order)} leaves")
print("each root-leaf path names one minimum terminal cut:")
for leaf in d.leaf_order[:3]:
    edges = d.root_leaf_edges(leaf)
    pairs = [(f.graph.edges[i].u, f.graph.edges[i].v) for i in edges]
    print(f"  leaf gap {d.leaf_gap[leaf]}: cut {pairs}")

print("\nDOT export (boundaries colored by ring):\n")
print(fractal_to_dot(build_fractal(2)))
