"""Training-time budget arithmetic and greedy pilot-allocation heuristics.

Every heuristic starts from one orthogonal block per hop (rep = 1) and
greedily spends the excess budget: at each step the highest-weight hop that
still fits gets one more repetition of its minimum-length block. Ties break
toward the earliest hop; zero-weight hops are never selected.
"""

from enum import Enum

import numpy as np

from .channel import HopStatistics
from .estimation import PilotPlan
from .topology import Topology
from .utils import integer


class Heuristic(str, Enum):
    """Pilot-allocation strategies, keyed by their CLI names."""

    UNIFORM = "uniform"
    PROPORTIONAL_TO_MIN = "prop_min"
    FRONT_LOADED = "front_loaded"
    ALL_TO_FIRST_HOP = "all_first"
    CHANNEL_AWARE = "channel_aware"


def tau_minimums(topology: Topology) -> np.ndarray:
    """Minimum per-phase pilot lengths (N_t, K_1, ..., K_L)."""
    return np.array([topology.n_tx, *topology.group_sizes], dtype=int)


def tau_min_total(topology: Topology) -> int:
    """Minimum total training time: N_t + sum of the group sizes."""
    return int(tau_minimums(topology).sum())


def pilot_dictionary_size(topology: Topology) -> int:
    """Distinct orthogonal sequences needed across all TDMA phases."""
    return int(tau_minimums(topology).max())


def heuristic_weights(heuristic: Heuristic, rep, tau_min,
                      stats: HopStatistics = None) -> np.ndarray:
    """Selection weight of each hop, given its current repetitions rep and
    minimum block length tau_min."""
    heuristic = Heuristic(heuristic)
    m = np.asarray(rep, dtype=float)
    tau_min = np.asarray(tau_min, dtype=float)
    if heuristic is Heuristic.UNIFORM:
        return 1.0 / m
    if heuristic is Heuristic.PROPORTIONAL_TO_MIN:
        return tau_min / m
    if heuristic is Heuristic.FRONT_LOADED:
        hop = np.arange(m.size, dtype=float)
        return 1.0 / ((hop + 1.0) * m * tau_min)
    if heuristic is Heuristic.CHANNEL_AWARE:
        if stats is None:
            raise ValueError("channel_aware weights need hop statistics")
        beta = np.asarray(stats.beta, dtype=float)
        if beta.size != m.size:
            raise ValueError(f"expected {m.size} hop gains, got {beta.size}")
        return 1.0 / (beta * m * tau_min)
    w = np.zeros(m.size)
    w[0] = 1.0
    return w


def allocate(heuristic: Heuristic, topology: Topology, excess_budget: int,
             stats: HopStatistics = None, pilot_power: float = 1.0) -> PilotPlan:
    """Spend the excess training budget greedily and return the pilot plan.

    Each increment costs a whole tau_min[l] block (partial repetitions would
    break pilot orthogonality); budget too small for any eligible hop is
    discarded.
    """
    heuristic = Heuristic(heuristic)
    remaining = integer(excess_budget, 0, "excess budget")
    tau_min = tau_minimums(topology)
    rep = np.ones(tau_min.size, dtype=int)
    while True:
        w = heuristic_weights(heuristic, rep, tau_min, stats)
        w[tau_min > remaining] = 0.0  # a block that no longer fits; w is this step's own
        chosen = np.argmax(w)  # the first of equal weights: ties go to the earliest hop
        if not w[chosen] > 0:
            break
        rep[chosen] += 1
        remaining -= int(tau_min[chosen])
    return PilotPlan(pilot_power, tuple(rep), tuple(tau_min))
