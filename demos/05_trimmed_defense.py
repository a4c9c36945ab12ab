"""Coordinate-wise trimming contains the broadcast attack.

Same attacker as demo 04, but the graph is the 3-robust complete graph on
five nodes and every agent drops the highest and lowest received value per
coordinate (f=1). The outlandish broadcast never survives the trim: the
regular agents keep consenting among themselves and their critics stay in
a sane range.
"""
import numpy as np

from resilient_marl.consensus import ConstantStrategy
from resilient_marl.engine import Simulation, StepSizeSchedule, run, tabular_features
from resilient_marl.graphs import GraphSchedule, is_r_robust
from resilient_marl.mdp import generate_random_mdp

BROADCAST = 100.0

graph = GraphSchedule.complete(5)
print(f"complete(5) is 3-robust: {is_r_robust(graph, 3)}")

mdp = generate_random_mdp(n_agents=5, n_states=8, actions_per_agent=2,
                          reward_range=(0.0, 4.0), seed=11)
sim = Simulation(
    mdp=mdp,
    graph=graph,
    features=tabular_features(mdp),
    critic_schedule=StepSizeSchedule.polynomial(1.0, 0.65),
    actor_schedule=StepSizeSchedule.polynomial(1.0, 0.85),
    n_rounds=40_000,
    seed=0,
    strategies={4: ConstantStrategy(BROADCAST)},
    log_interval=4000,
    check_regular_hull=True,  # raises if any update leaves the regular span
    trim_f=1,
)
log = run(sim)

print(f"\nadversary broadcasts {BROADCAST}; every agent trims 1 high + 1 low per coordinate\n")
print("round      J(policy)   regular disagreement")
for row in log.rows:
    print(f"{row.t:>6d}   {row.j_oracle:.6f}   {row.disagreement:.3e}")

regular = [e for e in log.final_params["agents"] if e["role"] == "regular"]
min_gap = min(np.abs(np.array(e["omega"]) - BROADCAST).min() for e in regular)
max_abs = max(np.abs(np.array(e["omega"])).max() for e in regular)
n_trims = len(log.trim_events)
print(f"\nrounds with a fully-discarded sender: {n_trims}")
print(f"closest any regular critic coordinate ever got to the broadcast: {min_gap:.1f}")
print(f"largest regular critic magnitude: {max_abs:.2f} (task-scale, not attacker-scale)")
print("the attack was filtered out every single round")
