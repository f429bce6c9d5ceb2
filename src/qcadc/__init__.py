"""Density-classifying cellular automata, their quantum-circuit
counterparts, and flip-time experiments."""

from .ca import (FlipTimeStats, RuleTable, flip_time_stats, flip_time_trial,
                 island_growth_enumeration, rule_from_wolfram)
from .circuits import Circuit, QcaStepper, build_step, decompose_toffoli
from .experiments import (CampaignConfig, FitParams, compare_backends,
                          evaluate_fit, qca_flip_times, run_campaign)
from .qsim import Gate, NoiseModel, StateVector
from .reversible import extend_rule, is_permutation, is_self_dual
from .voting import VotingParams, flip_prob_after, logical_flip_prob, mean_flip_time

__version__ = "0.1.0"

__all__ = [
    "RuleTable", "FlipTimeStats", "rule_from_wolfram", "flip_time_trial",
    "flip_time_stats", "island_growth_enumeration",
    "extend_rule", "is_permutation", "is_self_dual",
    "VotingParams", "flip_prob_after", "logical_flip_prob", "mean_flip_time",
    "Gate", "NoiseModel", "StateVector",
    "Circuit", "QcaStepper",
    "build_step", "decompose_toffoli",
    "CampaignConfig", "FitParams", "evaluate_fit", "run_campaign", "compare_backends",
    "qca_flip_times",
]
