"""Pilot-based least-squares channel estimation over the TDMA hop schedule.

Training phase l is the slot in which hop l's transmitters send pilots:
phase 0 is the BS (received by group 1), phase l (1 <= l < L) is group l
(received by group l+1), and phase L is group L (received by the Rx). Each
phase uses an orthogonal pilot matrix of length tau[l] = rep[l] * tau_min[l]
channel uses; repetition is realized as a longer orthogonal block.

The pilot exchange defines the estimate; it is computed in closed form. With
truncated DFT pilots (tau x m, entry (t, k) = exp(-2j pi t k / tau)),
correlating the received block with the pilots returns the channel plus the
inverse DFT of the slot noise, so no pilot matrix and no tau-long product is
formed.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, NoiseModel, check_noise_model
from .utils import complex_normal, integer, positive_real


@dataclass(frozen=True)
class PilotPlan:
    """Per-phase pilot repetitions and the common pilot transmit power.

    Phase l sends rep[l] >= 1 orthogonal blocks of its minimum length
    tau_min[l], the orthogonality minima (N_t, K_1, ..., K_L).
    """

    pilot_power: float
    rep: tuple
    tau_min: tuple

    def __post_init__(self):
        # perfect CSI is the estimator "perfect", not an infinite pilot power
        object.__setattr__(self, "pilot_power", positive_real(self.pilot_power, "pilot power"))
        for key in ("rep", "tau_min"):
            object.__setattr__(self, key, tuple(integer(v, 1, key) for v in getattr(self, key)))
        if len(self.rep) != len(self.tau_min):
            raise ValueError("rep and tau_min must have equal length")

    @property
    def tau(self) -> tuple:
        """Pilot length of each phase, rep[l] * tau_min[l]."""
        return tuple(m * t for m, t in zip(self.rep, self.tau_min))

    @property
    def num_phases(self) -> int:
        return len(self.rep)

    @property
    def tau_total(self) -> int:
        return sum(self.tau)


def estimate_hop(h_true: np.ndarray, plan: PilotPlan, hop: int,
                 noise_var: float, rng_seed) -> np.ndarray:
    """LS estimate of one hop matrix from a pilot exchange.

    Transmitters are the columns of h_true. The received block is
    Y = sqrt(p_p) H Phi^T + N with i.i.d. CN(0, noise_var) noise on the tau
    slots, Phi the tau x n_tx truncated DFT pilots of the module docstring,
    and the estimate is Y Phi^* / (sqrt(p_p) tau). Since Phi^T Phi^* = tau I
    and column k of Phi^* / tau is the k-th row of the inverse DFT of length
    tau, that estimate is H + ifft(N)[:, :n_tx] / sqrt(p_p), which is how it
    is computed, from the same draw of N: H plus an i.i.d.
    CN(0, noise_var / (p_p tau)) error.
    """
    if not 0 <= hop < plan.num_phases:
        raise ValueError(f"phase index {hop} out of range")
    tau = plan.tau[hop]
    n_rx, n_tx = h_true.shape
    if tau < n_tx:
        raise ValueError(
            f"phase {hop}: pilot length {tau} shorter than {n_tx} transmitters"
        )
    slot_noise = complex_normal(np.random.default_rng(rng_seed), (n_rx, tau), noise_var)
    return h_true + np.fft.ifft(slot_noise, axis=1)[:, :n_tx] / np.sqrt(plan.pilot_power)


def _per_phase(ch: ChannelSet, plan: PilotPlan, noise: NoiseModel, rng_seed,
               estimate) -> ChannelSet:
    """Apply estimate(h, phase, receive_noise_var, rng) to every link.

    Links are visited in one fixed order (hop 1, the direct link when
    present, hops 2..L, the last hop), so a seed maps to the same draws.
    A blocked direct link stays exactly zero.
    """
    check_noise_model(ch, noise)
    L = ch.num_groups
    if plan.num_phases != L + 1:
        raise ValueError(f"plan has {plan.num_phases} phases, channel needs {L + 1}")
    rng = np.random.default_rng(rng_seed)
    recv_var = noise.stage_var  # phase l is heard by stage l + 1

    hops = [estimate(ch.h_hop[0], 0, recv_var[0], rng)]
    if ch.has_direct:
        h_direct = estimate(ch.h_direct, 0, noise.rx_noise_var, rng)
    else:
        h_direct = np.zeros_like(ch.h_direct)
    for l in range(1, L):
        hops.append(estimate(ch.h_hop[l], l, recv_var[l], rng))
    h_last = estimate(ch.h_last, L, recv_var[L], rng)
    return ChannelSet(h_direct=h_direct, h_hop=tuple(hops), h_last=h_last)


def estimate_all(ch: ChannelSet, plan: PilotPlan, noise: NoiseModel,
                 rng_seed) -> ChannelSet:
    """Run every training phase and assemble the estimated channel set.

    The direct link, when present, is estimated during the BS phase (the Rx
    correlates with the BS pilots like a group-1 device, at its own noise
    floor); otherwise it stays exactly zero.
    """
    def estimate(h, phase, var, rng):
        return estimate_hop(h, plan, phase, var, rng)
    return _per_phase(ch, plan, noise, rng_seed, estimate)


def inject_error(ch: ChannelSet, plan: PilotPlan, noise: NoiseModel,
                 rng_seed) -> ChannelSet:
    """Closed-form shortcut: add CN(0, sigma^2 / (p_p tau_l)) errors directly.

    Distributionally identical to estimate_all because orthogonal-pilot LS
    errors are exactly i.i.d. complex Gaussian at that variance.
    """
    def perturbed(h, phase, var, rng):
        return h + complex_normal(rng, h.shape, var / (plan.pilot_power * plan.tau[phase]))
    return _per_phase(ch, plan, noise, rng_seed, perturbed)
