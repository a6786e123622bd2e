"""Online algorithms: LCP (Section 3), the 2-competitive fractional
threshold rule + randomized rounding (Section 4), algorithm B (Section 5),
and baselines."""

from .bansal_b import AlgorithmB
from .base import OnlineAlgorithm, OnlineResult, run_online
from .greedy import FollowTheMinimizer, NeverSwitchOn, solve_static
from .lcp import LCP, EagerLCP, lookahead_bounds
from .memoryless import MemorylessBalance
from .randomized import (RandomizedRounding, RoundingDistribution, ceil_star,
                         exact_rounding_distribution, expected_cost_exact,
                         expected_cost_independent, independent_rounding,
                         sample_rounding, transition_prob_up)
from .receding import AveragingFixedHorizonControl, RecedingHorizonControl
from .threshold import ThresholdFractional
from .workfunction import WorkFunctions, update_CL, update_CU

__all__ = [
    "OnlineAlgorithm", "OnlineResult", "run_online",
    "WorkFunctions", "update_CL", "update_CU",
    "LCP", "EagerLCP", "lookahead_bounds",
    "ThresholdFractional", "AlgorithmB",
    "RandomizedRounding", "RoundingDistribution", "ceil_star",
    "exact_rounding_distribution", "expected_cost_exact", "sample_rounding",
    "independent_rounding", "expected_cost_independent",
    "transition_prob_up",
    "MemorylessBalance",
    "RecedingHorizonControl", "AveragingFixedHorizonControl",
    "FollowTheMinimizer", "NeverSwitchOn", "solve_static",
]
