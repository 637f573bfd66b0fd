"""
The exact solver against brute-force enumeration
================================================

The joint selection problem is a binary linear program: pick edges and
triangles to minimize total cost subject to cardinality floors and the
rule that a triangle needs its three edges.  ``solve`` runs branch and
bound on LP relaxations; ``oracle_enumerate`` brute-forces triangle
subsets.  They share nothing but the instance, which is the point.
"""

import tempfile
from pathlib import Path

import numpy as np

from sctopo import (
    CostVectors,
    build_candidate_complex,
    build_joint_instance,
    lp_bound,
    oracle_enumerate,
    read_instance,
    solve,
    write_instance,
)

rng = np.random.default_rng(42)
cx = build_candidate_complex(7)

# near-flat costs make the LP root fractional, so the tree actually grows
costs = CostVectors(h1=1.0 + 0.01 * rng.random(cx.n_edges),
                    h2=0.5 + 0.01 * rng.random(cx.n_triangles),
                    h2_kind="curl")
inst = build_joint_instance(cx, costs, c1=10, c2=3)

sol = solve(inst)
print(f"branch and bound: objective {sol.objective:.6f} "
      f"({sol.nodes_explored} nodes, {sol.wall_time * 1e3:.1f} ms)")

ref = oracle_enumerate(cx, costs, 10, 3)
print(f"enumeration:      objective {ref.objective:.6f} "
      f"({ref.nodes_explored} subsets scanned)")
print("objectives agree:", abs(sol.objective - ref.objective) < 1e-9)
print("selections agree:", sol.selection.same_as(ref.selection))
print("edges:    ", [int(e) for e in sol.selection.edge_indices])
print("triangles:", [cx.triangles[t] for t in sol.selection.triangle_indices])

# the LP relaxation brackets the integer optimum from below, and
# tightens as variables get pinned
root = lp_bound(inst)
t0 = int(sol.selection.triangle_indices[0])
pinned = lp_bound(inst, fixed_triangles={t0: 0})
print(f"\nLP root bound {root:.6f} <= optimum {sol.objective:.6f}")
print(f"forbidding triangle {cx.triangles[t0]} lifts the bound to {pinned:.6f}")

# a hard node budget still returns a usable answer: the incumbent plus a
# valid lower bound
capped = solve(inst, node_limit=2, warm_start=ref.selection)
print(f"\nnode_limit=2: status {capped.status!r}, incumbent "
      f"{capped.objective:.6f}, bound {capped.lower_bound:.6f}")

# instances round-trip through a plain text format (the CLI `solve`
# subcommand reads the same files)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "instance.txt"
    write_instance(inst, path)
    again = solve(read_instance(path))
print("\nre-solved from disk, same objective:",
      again.objective == sol.objective)
