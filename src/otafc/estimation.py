"""Pilot-based least-squares channel estimation over the TDMA hop schedule.

Training phase l is the slot in which hop l's transmitters send pilots:
phase 0 is the BS (received by group 1), phase l (1 <= l < L) is group l
(received by group l+1), and phase L is group L (received by the Rx). Each
phase uses an orthogonal pilot matrix of length tau[l] = rep[l] * tau_min[l]
channel uses; repetition is realized as a longer orthogonal block.

The pilot exchange defines the estimate; it is computed in closed form. With
the truncated DFT pilots of make_pilots, correlating the received block with
the pilots returns the channel plus the inverse DFT of the slot noise, so no
pilot matrix and no tau-long product is formed.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, NoiseModel
from .utils import complex_normal


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
        object.__setattr__(self, "rep", tuple(int(m) for m in self.rep))
        object.__setattr__(self, "tau_min", tuple(int(t) for t in self.tau_min))
        if not self.pilot_power > 0:  # NaN too; +inf is perfect training
            raise ValueError("pilot power must be positive")
        if len(self.rep) != len(self.tau_min):
            raise ValueError("rep and tau_min must have equal length")
        if any(t < 1 for t in self.tau_min):
            raise ValueError("minimum pilot lengths must be >= 1")
        if any(m < 1 for m in self.rep):
            raise ValueError("repetition factors must be >= 1")

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


def make_pilots(tau: int, m: int) -> np.ndarray:
    """Orthogonal tau x m pilot matrix with Phi^H Phi = tau * I.

    Truncated DFT columns; every entry has unit modulus so each column
    carries energy tau.
    """
    if tau < m:
        raise ValueError(f"pilot length {tau} cannot support {m} orthogonal sequences")
    t = np.arange(tau)[:, None]
    k = np.arange(m)[None, :]
    return np.exp(-2j * np.pi * t * k / tau)


def estimate_hop(h_true: np.ndarray, plan: PilotPlan, hop: int,
                 noise_var: float, rng_seed) -> np.ndarray:
    """LS estimate of one hop matrix from a pilot exchange.

    Transmitters are the columns of h_true. The received block is
    Y = sqrt(p_p) H Phi^T + N with i.i.d. CN(0, noise_var) noise on the tau
    slots, Phi = make_pilots(tau, n_tx), and the estimate is
    Y Phi^* / (sqrt(p_p) tau). Since Phi^T Phi^* = tau I and column k of
    Phi^* / tau is the k-th row of the inverse DFT of length tau, that
    estimate is H + ifft(N)[:, :n_tx] / sqrt(p_p), which is how it is
    computed, from the same draw of N: H plus an i.i.d.
    CN(0, noise_var / (p_p tau)) error. At zero noise or infinite pilot power
    (perfect training) the estimate is H itself, and no noise is drawn.
    """
    if not 0 <= hop < plan.num_phases:
        raise ValueError(f"phase index {hop} out of range")
    tau = plan.tau[hop]
    n_rx, n_tx = h_true.shape
    if tau < n_tx:
        raise ValueError(
            f"phase {hop}: pilot length {tau} shorter than {n_tx} transmitters"
        )
    if plan.pilot_power == np.inf or noise_var == 0:
        return h_true.copy()
    slot_noise = complex_normal(np.random.default_rng(rng_seed), (n_rx, tau), noise_var)
    return h_true + np.fft.ifft(slot_noise, axis=1)[:, :n_tx] / np.sqrt(plan.pilot_power)


def _per_phase(ch: ChannelSet, plan: PilotPlan, noise: NoiseModel, rng_seed,
               estimate) -> ChannelSet:
    """Apply estimate(h, phase, receive_noise_var, rng) to every link.

    Links are visited in one fixed order (hop 1, the direct link when
    present, hops 2..L, the last hop), so a seed maps to the same draws.
    A blocked direct link stays exactly zero.
    """
    L = ch.num_groups
    if plan.num_phases != L + 1:
        raise ValueError(f"plan has {plan.num_phases} phases, channel needs {L + 1}")
    rng = np.random.default_rng(rng_seed)
    recv_var = noise.relay_noise_var + (noise.rx_noise_var,)  # phase l is heard by stage l + 1

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
        err_var = var / (plan.pilot_power * plan.tau[phase])
        if err_var == 0:
            return h.copy()
        return h + complex_normal(rng, h.shape, err_var)
    return _per_phase(ch, plan, noise, rng_seed, perturbed)
