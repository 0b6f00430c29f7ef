"""Pilot-based least-squares channel estimation over the TDMA hop schedule.

Training phase l is the slot in which hop l's transmitters send pilots:
phase 0 is the BS (received by group 1), phase l (1 <= l < L) is group l
(received by group l+1), and phase L is group L (received by the Rx). Each
phase uses an orthogonal pilot matrix of length tau[l] = rep[l] * tau_min[l]
channel uses; repetition is realized as a longer orthogonal block.

With orthogonal pilots (Phi^H Phi = tau I), the LS estimate
Y Phi^* / (sqrt(p_p) tau) of Y = sqrt(p_p) H Phi^T + N is H plus an i.i.d.
CN(0, sigma^2 / (p_p tau)) error, sigma^2 the receiver's noise variance. The
estimators draw that error directly; no pilot matrix is formed. They differ
only in their random stream: estimate_all (estimator "ls") draws on a stream
per plan, inject_error (estimator "inject") draws once per seed and scales
that draw across plans.
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


def _per_phase(ch: ChannelSet, plan: PilotPlan, noise: NoiseModel, rng_seed) -> ChannelSet:
    """ch plus an i.i.d. CN(0, sigma^2 / (p_p tau_l)) error on every link.

    Phase l is heard at the noise variance of the stage it reaches; the
    direct link, when present, in the BS phase at the receiver's. Links are
    drawn in one fixed order (hop 1, the direct link, hops 2..L, the last
    hop), so a seed maps to the same draws. A blocked direct link stays as
    it is, exactly zero. A phase shorter than its transmitters has no
    orthogonal pilots and is refused before any draw.
    """
    check_noise_model(ch, noise)
    L = ch.num_groups
    if plan.num_phases != L + 1:
        raise ValueError(f"plan has {plan.num_phases} phases, channel needs {L + 1}")
    for phase, (h, tau) in enumerate(zip(ch.chain, plan.tau)):
        if tau < h.shape[1]:
            raise ValueError(
                f"phase {phase}: pilot length {tau} shorter than {h.shape[1]} transmitters")
    rng = np.random.default_rng(rng_seed)
    recv_var = noise.stage_var  # phase l is heard by stage l + 1

    def estimate(h, phase, var):
        return h + complex_normal(rng, h.shape, var / (plan.pilot_power * plan.tau[phase]))

    hops = [estimate(ch.h_hop[0], 0, recv_var[0])]
    h_direct = estimate(ch.h_direct, 0, noise.rx_noise_var) if ch.has_direct else ch.h_direct
    for l in range(1, L):
        hops.append(estimate(ch.h_hop[l], l, recv_var[l]))
    h_last = estimate(ch.h_last, L, recv_var[L])
    return ChannelSet(h_direct=h_direct, h_hop=tuple(hops), h_last=h_last)


def estimate_all(ch: ChannelSet, plan: PilotPlan, noise: NoiseModel,
                 rng_seed) -> ChannelSet:
    """LS estimates of every link under plan, on a stream of its own.

    rng_seed (an int or a SeedSequence) and plan.tau key the draw: one
    plan always gives one estimate, and a plan of other pilot lengths an
    independent one. rng_seed is read, never spawned from.
    """
    if not isinstance(rng_seed, np.random.SeedSequence):
        rng_seed = np.random.SeedSequence(rng_seed)
    stream = np.random.SeedSequence(rng_seed.entropy, spawn_key=rng_seed.spawn_key + plan.tau)
    return _per_phase(ch, plan, noise, stream)


def inject_error(ch: ChannelSet, plan: PilotPlan, noise: NoiseModel,
                 rng_seed) -> ChannelSet:
    """The LS error law drawn from rng_seed itself: every plan of one seed
    gets the same draw, scaled by its pilot lengths."""
    return _per_phase(ch, plan, noise, rng_seed)
