"""Communication graphs, Metropolis mixing, and resilience diagnostics.

Shows why Metropolis weights average correctly (doubly stochastic rows),
how fast repeated mixing reaches the network average, and how r-robustness
and F-locality describe what an adversary placement can get away with.
"""
import numpy as np

from resilient_marl.graphs import (
    GraphSchedule,
    adversary_fractions,
    is_r_local,
    is_r_robust,
    max_r_robustness,
    metropolis_weights,
    weight_matrix,
)

g = GraphSchedule.erdos_renyi(8, p=0.4, seed=7)
while not g.is_connected():
    g = GraphSchedule.erdos_renyi(8, p=0.4, seed=8)
print(f"random graph: 8 nodes, {len(g.edges_at(0))} edges, degrees {g.degrees(0).tolist()}")

mat = weight_matrix(metropolis_weights(g), g.n_nodes)
print("\nMetropolis matrix is symmetric:", np.allclose(mat, mat.T))
print("row sums:", np.round(mat.sum(axis=1), 12).tolist())

x = np.arange(8, dtype=float)
target = x.mean()
for k in range(1, 201):
    x = mat @ x
    if np.abs(x - target).max() < 1e-9:
        break
print(f"repeated mixing reached the average {target} after {k} rounds")

print("\nrobustness of standard topologies:")
for name, graph in [("ring(6)", GraphSchedule.ring(6)),
                    ("star(6)", GraphSchedule.star(6)),
                    ("complete(6)", GraphSchedule.complete(6))]:
    print(f"  {name:12s} max r-robust = {max_r_robustness(graph)}")

k5 = GraphSchedule.complete(5)
print(f"\ncomplete(5) is 3-robust: {is_r_robust(k5, 3)} "
      "(enough to trim one adversary per neighborhood)")

ring = GraphSchedule.ring(6)
print(f"one adversary on ring(6) is 1-local: {is_r_local(ring, {0}, 1)}")
print("fraction of adversarial neighbors per node:",
      adversary_fractions(ring, {0}).round(2).tolist())
