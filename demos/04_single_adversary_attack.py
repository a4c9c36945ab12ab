"""One stubborn broadcaster hijacks every undefended critic.

Agent 0 ignores the algorithm and broadcasts the same vector forever.
With no trimming the regular agents keep averaging it in, and all their
critic parameters converge to the attacker's value instead of anything
related to the task.
"""
import numpy as np

from resilient_marl.consensus import ConstantStrategy
from resilient_marl.engine import Simulation, StepSizeSchedule, run, tabular_features
from resilient_marl.graphs import GraphSchedule
from resilient_marl.mdp import generate_random_mdp

BROADCAST = 5.0

mdp = generate_random_mdp(n_agents=5, n_states=8, actions_per_agent=2,
                          reward_range=(0.0, 4.0), seed=11)
sim = Simulation(
    mdp=mdp,
    graph=GraphSchedule.ring(5),
    features=tabular_features(mdp),
    critic_schedule=StepSizeSchedule.polynomial(1.0, 0.65),
    actor_schedule=StepSizeSchedule.polynomial(1.0, 0.85),
    n_rounds=40_000,
    seed=0,
    strategies={0: ConstantStrategy(BROADCAST)},
    log_interval=4000,
    trim_f=0,
)
log = run(sim)

print(f"adversary broadcasts {BROADCAST} on every coordinate; trimming disabled (f=0)\n")
print("round      regular-agent disagreement")
for row in log.rows:
    print(f"{row.t:>6d}   {row.disagreement:.3e}")

worst = max(
    np.abs(np.array(e["omega"]) - BROADCAST).max()
    for e in log.final_params["agents"]
    if e["role"] == "regular"
)
print(f"\nfinal max per-coordinate distance of regular critics to the broadcast: {worst:.2e}")
print("every regular critic has been dragged onto the attacker's vector")
