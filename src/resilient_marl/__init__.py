"""Decentralized multi-agent actor-critic with trimmed-consensus resilience."""

from resilient_marl.mdp import (
    Mdp,
    JointPolicy,
    NonErgodicChainError,
    encode_joint_action,
    decode_joint_action,
    generate_random_mdp,
    sample_transition,
    induced_chain,
    stationary_distribution,
    global_return,
)
from resilient_marl.graphs import (
    GraphSchedule,
    ConsensusRow,
    GraphError,
    PlacementError,
    neighborhood,
    is_r_local,
    is_r_robust,
    place_adversaries,
    metropolis_weights,
    metropolis_pair_weight,
    weight_matrix,
)
from resilient_marl.agents import (
    ActorParams,
    LocalFeatures,
    TabularJointFeatures,
    ProjectionJointFeatures,
    policy_probs,
    score,
    td_error,
    critic_local_step,
    advantage,
    actor_step,
    avg_reward_update,
    select_action,
)
from resilient_marl.consensus import (
    AgentView,
    Inbox,
    TrimResult,
    ConsensusError,
    ConstantStrategy,
    DriftStrategy,
    NoiseStrategy,
    SelfishStrategy,
    MixingWeights,
    trim,
    mixing_weights,
    consensus_combine,
    adversary_message,
)
from resilient_marl.engine import (
    EarlyStop,
    MetricsRow,
    NonFiniteParameterError,
    SafetyViolationError,
    Simulation,
    SimulationError,
    StepSizeSchedule,
    TrajectoryLog,
    run,
    tabular_features,
    projection_features,
)
from resilient_marl.config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    load_config,
    config_from_dict,
    build_simulation,
    resolve_graph,
)

__all__ = [
    # mdp
    "Mdp", "JointPolicy", "NonErgodicChainError", "encode_joint_action",
    "decode_joint_action", "generate_random_mdp", "sample_transition",
    "induced_chain", "stationary_distribution", "global_return",
    # graphs
    "GraphSchedule", "ConsensusRow", "GraphError", "PlacementError",
    "neighborhood", "is_r_local", "is_r_robust", "place_adversaries",
    "metropolis_weights", "metropolis_pair_weight", "weight_matrix",
    # agents
    "ActorParams", "LocalFeatures", "TabularJointFeatures",
    "ProjectionJointFeatures", "policy_probs", "score", "td_error",
    "critic_local_step", "advantage", "actor_step", "avg_reward_update",
    "select_action",
    # consensus
    "AgentView", "Inbox", "TrimResult", "ConsensusError", "ConstantStrategy",
    "DriftStrategy", "NoiseStrategy", "SelfishStrategy", "MixingWeights", "trim",
    "mixing_weights", "consensus_combine", "adversary_message",
    # engine
    "EarlyStop", "MetricsRow", "NonFiniteParameterError", "SafetyViolationError",
    "Simulation", "SimulationError", "StepSizeSchedule", "TrajectoryLog",
    "run", "tabular_features", "projection_features",
    # config
    "ConfigError", "ExperimentConfig", "parse_config", "load_config",
    "config_from_dict", "build_simulation", "resolve_graph",
]

__version__ = "0.1.0"
