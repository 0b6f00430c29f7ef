"""Channel generation and the cascaded-relay linear algebra.

Large-scale attenuation follows the TR 38.901 UMi Street Canyon curves
(NLoS by default); small-scale fading is i.i.d. unit-variance circular
complex Gaussian on all relay-involved links and Ricean on the optional
direct transmitter-receiver link.

Arguments named ``gains`` are sequences of per-group complex amplification
vectors (a_1 ... a_L); group l applies diag(a_l) to the signal it forwards.
"""

from dataclasses import dataclass, field

import numpy as np

from .topology import BS_RX_HEIGHT_M, RELAY_HEIGHT_M, Placement
from .utils import complex_normal, hermitize, positive_real, read_each, read_only

SPEED_OF_LIGHT = 299_792_458.0
RICEAN_KAPPA_DB = 0.0  # Ricean K-factor of the direct link


@dataclass(frozen=True)
class PathlossParams:
    """Large-scale model configuration.

    model is one of "nlos" (default, the operative configuration), "los",
    or "mixed" (deterministic LoS-probability blend of the two curves in
    the linear-gain domain).
    """

    carrier_ghz: float = 28.0
    model: str = "nlos"

    def __post_init__(self):
        object.__setattr__(self, "carrier_ghz",
                           positive_real(self.carrier_ghz, "carrier frequency"))
        if self.model not in ("nlos", "los", "mixed"):
            raise ValueError(f"unknown pathloss model {self.model!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Per-group relay noise variances and the receiver noise variance, watts."""

    relay_noise_var: tuple
    rx_noise_var: float

    def __post_init__(self):
        object.__setattr__(self, "relay_noise_var", tuple(
            positive_real(v, "noise variances") for v in self.relay_noise_var))
        object.__setattr__(self, "rx_noise_var",
                           positive_real(self.rx_noise_var, "noise variances"))


def noise_power_watts(psd_dbm_per_hz: float = -174.0, bandwidth_hz: float = 300e6) -> float:
    """Thermal noise power N_o * B in watts (default -174 dBm/Hz over 300 MHz)."""
    dbm = psd_dbm_per_hz + 10.0 * np.log10(bandwidth_hz)
    return float(10.0 ** ((dbm - 30.0) / 10.0))


def default_noise_model(num_groups: int, psd_dbm_per_hz: float = -174.0,
                        bandwidth_hz: float = 300e6) -> NoiseModel:
    """All relay groups and the receiver at the common thermal floor N_o*B."""
    p = noise_power_watts(psd_dbm_per_hz, bandwidth_hz)
    return NoiseModel(relay_noise_var=(p,) * num_groups, rx_noise_var=p)


def _pl_nlos_db(d, f_ghz):
    return 35.3 * np.log10(d) + 22.4 + 21.3 * np.log10(f_ghz)


def _pl_los_db(d, f_ghz):
    h_bs, h_ut = BS_RX_HEIGHT_M, RELAY_HEIGHT_M  # every link uses the BS-to-relay heights
    d_bp = 4.0 * (h_bs - 1.0) * (h_ut - 1.0) * f_ghz * 1e9 / SPEED_OF_LIGHT
    pl_near = 32.4 + 21.0 * np.log10(d) + 20.0 * np.log10(f_ghz)
    pl_far = (32.4 + 40.0 * np.log10(d) + 20.0 * np.log10(f_ghz)
              - 9.5 * np.log10(d_bp ** 2 + (h_bs - h_ut) ** 2))
    return np.where(d < d_bp, pl_near, pl_far)


def _los_probability(d):
    # TR 38.901 UMi outdoor LoS probability vs distance
    p = np.minimum(18.0 / d, 1.0)
    return p + np.exp(-d / 36.0) * (1.0 - p)


def pathloss_db(distance_m, params: PathlossParams):
    """Pathloss in dB at the given distance(s); distances clamp at 1 m.

    "nlos": 35.3 log10(d) + 22.4 + 21.3 log10(f_GHz).
    "los": dual-slope UMi LoS curve with the breakpoint distance from the
    transmitter and relay antenna heights of topology.
    "mixed": -10 log10 of the LoS-probability-weighted linear gain.
    """
    d = np.maximum(np.asarray(distance_m, dtype=float), 1.0)
    f = params.carrier_ghz
    if params.model == "nlos":
        pl = _pl_nlos_db(d, f)
    elif params.model == "los":
        pl = _pl_los_db(d, f)
    else:
        p = _los_probability(d)
        g = (p * 10.0 ** (-_pl_los_db(d, f) / 10.0)
             + (1.0 - p) * 10.0 ** (-_pl_nlos_db(d, f) / 10.0))
        pl = -10.0 * np.log10(g)
    return pl if np.ndim(distance_m) else float(pl)


def linear_gain(distance_m, params: PathlossParams):
    """Linear power gain 10^(-PL/10)."""
    return 10.0 ** (-np.asarray(pathloss_db(distance_m, params)) / 10.0)


@dataclass(frozen=True, eq=False)  # == is identity: fields are arrays
class ChannelSet:
    """One realization of every channel matrix in the cascade.

    h_hop[0] is the BS-to-group-1 matrix (K_1 x N_t); h_hop[l] maps group l
    to group l+1 (K_{l+1} x K_l); h_last maps group L to the receiver
    (N_r x K_L); h_direct is the N_r x N_t direct link (all zeros when the
    link is blocked). has_direct is False when h_direct is exactly zero, so
    products with it, all exact zeros, can be skipped without changing a bit.
    chain is h_hop followed by h_last, so chain[l] maps group l to the next
    stage. The matrices are read-only complex copies of the arrays given.
    """

    h_direct: np.ndarray
    h_hop: tuple
    h_last: np.ndarray
    has_direct: bool = field(init=False, repr=False)
    chain: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "h_direct", read_only(self.h_direct, complex, "h_direct"))
        object.__setattr__(self, "h_hop", read_each(self.h_hop, complex, "h_hop"))
        object.__setattr__(self, "h_last", read_only(self.h_last, complex, "h_last"))
        if not self.h_hop:
            raise ValueError("need at least one hop matrix")
        for l in range(len(self.h_hop) - 1):
            if self.h_hop[l + 1].shape[1] != self.h_hop[l].shape[0]:
                raise ValueError(
                    f"hop {l + 1} expects {self.h_hop[l].shape[0]} columns, "
                    f"got {self.h_hop[l + 1].shape[1]}"
                )
        if self.h_last.shape[1] != self.h_hop[-1].shape[0]:
            raise ValueError("last-hop column count must match final group size")
        if self.h_direct.shape != (self.h_last.shape[0], self.h_hop[0].shape[1]):
            raise ValueError("direct-link matrix must be N_r x N_t")
        object.__setattr__(self, "has_direct", bool(np.any(self.h_direct)))
        object.__setattr__(self, "chain", self.h_hop + (self.h_last,))

    @property
    def num_groups(self) -> int:
        return len(self.h_hop)

    @property
    def group_sizes(self) -> tuple:
        return tuple(h.shape[0] for h in self.h_hop)

    @property
    def n_tx(self) -> int:
        return self.h_hop[0].shape[1]

    @property
    def n_rx(self) -> int:
        return self.h_last.shape[0]


@dataclass(frozen=True, eq=False)  # == is identity: fields are arrays
class HopStatistics:
    """Average large-scale linear gain per hop; index 0 is the BS hop."""

    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", read_only(self.beta, float, "beta", True))


def _hop_gains(placement: Placement, params: PathlossParams) -> tuple:
    """Linear large-scale gain of every link, per hop: (K_1,) from the BS,
    (K_{l+1}, K_l) from group l to group l+1, and (K_L,) to the receiver."""
    stations = ([placement.bs_position[None, :]] + list(placement.relay_positions)
                + [placement.rx_position[None, :]])
    gains = [linear_gain(np.linalg.norm(q[:, None, :] - p[None, :, :], axis=2), params)
             for p, q in zip(stations[:-1], stations[1:])]
    return (gains[0][:, 0], *gains[1:-1], gains[-1][0, :])


def draw_channels(placement: Placement, params: PathlossParams, rng_seed) -> ChannelSet:
    """Draw one channel realization: pathloss amplitude times small-scale fading.

    Relay-involved links are rich scattering (i.i.d. CN(0,1) small scale);
    the direct link, when present, is Ricean with K-factor RICEAN_KAPPA_DB
    and a random-phase rank-one unit-modulus LoS part. Deterministic given
    the seed.
    """
    rng = np.random.default_rng(rng_seed)
    top = placement.topology
    amp = [np.sqrt(g) for g in _hop_gains(placement, params)]
    hops = [amp[0][:, None] * complex_normal(rng, (top.group_sizes[0], top.n_tx))]
    hops += [a * complex_normal(rng, a.shape) for a in amp[1:-1]]
    h_last = amp[-1][None, :] * complex_normal(rng, (top.n_rx, top.group_sizes[-1]))

    if top.direct_link_present:
        kappa = 10.0 ** (RICEAN_KAPPA_DB / 10.0)
        d0 = float(np.linalg.norm(placement.rx_position - placement.bs_position))
        los = np.outer(np.exp(2j * np.pi * rng.random(top.n_rx)),
                       np.exp(-2j * np.pi * rng.random(top.n_tx)))
        scatter = complex_normal(rng, (top.n_rx, top.n_tx))
        small = (np.sqrt(kappa / (1.0 + kappa)) * los
                 + np.sqrt(1.0 / (1.0 + kappa)) * scatter)
        h_direct = np.sqrt(linear_gain(d0, params)) * small
    else:
        h_direct = np.zeros((top.n_rx, top.n_tx), dtype=complex)

    return ChannelSet(h_direct=h_direct, h_hop=tuple(hops), h_last=h_last)


def check_gains(ch: ChannelSet, gains) -> tuple:
    """The gains as arrays; ValueError unless there is one (K_l,) vector per group."""
    if len(gains) != ch.num_groups:
        raise ValueError(f"expected {ch.num_groups} gain vectors, got {len(gains)}")
    for l, (a, k) in enumerate(zip(gains, ch.group_sizes)):
        if np.shape(a) != (k,):
            raise ValueError(f"gain vector {l} must have shape ({k},)")
    return tuple(np.asarray(a) for a in gains)


def check_noise_model(ch: ChannelSet, noise: NoiseModel) -> None:
    """ValueError unless noise has one relay variance per group of ch."""
    if len(noise.relay_noise_var) != ch.num_groups:
        raise ValueError("noise model group count must match the channel set")


# A gain within 8 ulps of its limit sits at the limit: one rounding of the
# clip a * limit / |a| can leave |a| an ulp or two above the limit.
_CLIP_SLACK = 1.0 + 8.0 * np.finfo(float).eps


def project_gains(a: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Entrywise projection onto |a_k| <= limit_k; a itself if none clips.

    An entry within _CLIP_SLACK of its limit counts as on it, so projecting
    a projected vector hands back that very array.
    """
    mag = np.abs(a)
    clipped = mag > limit * _CLIP_SLACK
    if not clipped.any():
        return a
    return a * np.where(clipped, limit / np.where(mag > 0, mag, 1.0), 1.0)


class Cascade:
    """The products of one design (gains a, F1, F2), each from O(L) matmuls.

    u[l-1] = H_l A_{l-1} ... A_1 H_1 F1 enters group l, b = Heff F1, and
    d[l-1] = F2 H_last A_L ... H_{l+1}, so F2 T_l = d[l-1] diag(a_l).
    stage_noise(l) is the noise covariance entering group l: N_1 = s_1 I,
    N_{l+1} = s_{l+1} I + H_{l+1} A_l N_l A_l^H H_{l+1}^H, and N_{L+1} = R.
    f2_direct is F2 H_direct, direct_residual(W) is W - F2 H_direct F1, and
    f2_gram is B B^H + R.
    The prefixes are walked on construction; the rest is built on first
    use, so f2 may be None when no product of it is read. suffix(l) builds
    d[l-1] and the suffixes downstream of it only; d builds them all.

    With caps, the per-relay power caps of each group, the walk fits each
    gain as it goes to a_l = project(l, a_l), the clip to limit(l) =
    sqrt(cap_l / incident_powers(l)); a gain of None starts at limit(l).
    """

    def __init__(self, ch: ChannelSet, gains, f1: np.ndarray, f2: np.ndarray,
                 noise: NoiseModel, caps=None):
        check_noise_model(ch, noise)
        self._walk(ch, gains, f1, f2, noise, caps, None)

    def moved(self, gains, f1: np.ndarray, f2: np.ndarray) -> "Cascade":
        """The cascade of the design (gains, f1, f2) on these channels, noise
        model and caps, lent every product that depends only on parts of the
        design that are the very same arrays as this one's: u_l, its incident
        powers and limits while F1 and a_1..a_{l-1} are, b while F1 and every
        gain are, N_l while a_1..a_{l-1} are, F2 H_direct while F2 is, the
        direct residual while F1 and F2 are, and d[l-1] while F2 and
        a_{l+1}..a_L are. A gain that is this cascade's own a_l on a prefix
        it lends was fitted here, so the walk keeps it. Products not built
        here yet are built there on first use; the lists are copied, so the
        candidate keeps no reference to this cascade. No array
        of a design or of a product is ever written in place, so the same
        array means the same values.
        """
        cand = Cascade.__new__(Cascade)
        cand._walk(self.ch, gains, f1, f2, self.noise, self._caps, self)
        return cand

    def _walk(self, ch, gains, f1, f2, noise, caps, base):
        # the prefixes, each gain fitted to its caps; base lends as moved says
        self.ch, self.f1, self.f2, self.noise = ch, f1, f2, noise
        self._caps = caps
        self.a = list(gains)
        self.u, self._p_in, self._limits, same = [], [], [], []
        shared = base is not None and f1 is base.f1  # u_{l+1} is base's
        m = None if shared else ch.h_hop[0] @ f1
        for l in range(len(self.a)):
            if shared:
                m = base.u[l]
            self.u.append(m)
            self._p_in.append(base._p_in[l] if shared else None)
            self._limits.append(base._limits[l] if shared else None)
            if caps is not None and not (shared and self.a[l] is base.a[l]):
                a = self.a[l]
                self.a[l] = self.project(l + 1, self.limit(l + 1).astype(complex)
                                         if a is None else a)
            same.append(base is not None and self.a[l] is base.a[l])
            shared = shared and same[-1]
            if not shared:
                m = ch.chain[l + 1] @ (self.a[l][:, None] * m)
        if shared:
            self.b = base.b
        else:
            self.b = ch.h_direct @ f1 + m if ch.has_direct else m
        self._noise, self._d = [], []
        self._f2_direct = self._residual = self._f2_gram = None
        if base is not None:  # N_{l+1} reads a_1..a_l
            self._noise = base._noise[:(same + [False]).index(False) + 1]
        if base is not None and f2 is base.f2:
            # d[j] reads F2 and a_{j+2}..a_L: n kept trailing gains keep the
            # last n + 1 suffixes, of those the base has built
            n = (same[::-1] + [False]).index(False)
            self._d = base._d[max(len(base._d) - 1 - n, 0):]
            self._f2_direct = base._f2_direct
            if f1 is base.f1:
                self._residual = base._residual

    @classmethod
    def of(cls, ch: ChannelSet, params, noise: NoiseModel) -> "Cascade":
        """The cascade of a design (f1, f2 and gains a, as in OtaParams) on ch."""
        return cls(ch, check_gains(ch, params.a), params.f1, params.f2, noise)

    def incident_powers(self, l: int) -> np.ndarray:
        if self._p_in[l - 1] is None:
            # u is a complex matmul product, so its rows read as (re, im)
            # float pairs, and each row's |u|^2 sum is one (1 x 2n)(2n x 1)
            # product over them
            v = self.u[l - 1].view(float)
            self._p_in[l - 1] = ((v[:, None, :] @ v[:, :, None]).ravel()
                                 + self.noise.relay_noise_var[l - 1])
        return self._p_in[l - 1]

    def limit(self, l: int) -> np.ndarray:
        """sqrt(cap / incident_powers(l)): the largest |a_k| of group l under
        its relay caps."""
        if self._caps is None:
            raise ValueError("the cascade has no relay caps; pass caps= when building it")
        if self._limits[l - 1] is None:
            self._limits[l - 1] = np.sqrt(self._caps[l - 1] / self.incident_powers(l))
        return self._limits[l - 1]

    def project(self, l: int, a: np.ndarray) -> np.ndarray:
        """project_gains(a, limit(l)): a gain vector for group l that meets
        its relay caps at these incident powers; a itself when a was
        projected against this limit before (see project_gains)."""
        return project_gains(a, self.limit(l))

    @property
    def f2_direct(self) -> np.ndarray:
        """F2 H_direct."""
        if self._f2_direct is None:
            self._f2_direct = self.f2 @ self.ch.h_direct
        return self._f2_direct

    def direct_residual(self, w: np.ndarray) -> np.ndarray:
        """W - F2 H_direct F1, built once for the array w given; w itself
        when the direct link is blocked."""
        if not self.ch.has_direct:
            return w
        if self._residual is None or self._residual[0] is not w:
            self._residual = (w, w - self.f2_direct @ self.f1)
        return self._residual[1]

    @property
    def f2_gram(self) -> np.ndarray:
        """G = B B^H + R, the Gram matrix of the objective in F2."""
        if self._f2_gram is None:
            self._f2_gram = hermitize(self.b @ self.b.conj().T
                                      + self.stage_noise(len(self.a) + 1))
        return self._f2_gram

    def suffix(self, l: int) -> np.ndarray:
        """d[l-1], building only the suffixes from it to d[L-1]."""
        d, L = self._d, len(self.a)
        if not d:
            d.append(self.f2 @ self.ch.h_last)
        for j in range(L - len(d), l - 1, -1):  # _d holds d[L - len(_d):]
            d.insert(0, (d[0] * self.a[j][None, :]) @ self.ch.chain[j])
        return d[l - 1 - L + len(d)]

    @property
    def d(self) -> list:
        self.suffix(1)
        return self._d

    def stage_noise(self, l: int) -> np.ndarray:
        variances = self.noise.relay_noise_var + (self.noise.rx_noise_var,)
        if not self._noise:
            self._noise.append(variances[0] * np.eye(self.ch.group_sizes[0], dtype=complex))
        for j in range(len(self._noise), l):  # only the hops upstream of group l
            h, a = self.ch.chain[j], self.a[j - 1]
            x = (a[:, None] * self._noise[-1]) * a.conj()[None, :]
            n = h @ x @ h.conj().T  # a new C-ordered array, so reshape is a view
            n.reshape(-1)[::n.shape[0] + 1] += variances[j]  # the noise floor
            self._noise.append(n)
        return self._noise[l - 1]


# perfbench/workloads.py imports this at module level for its design check
def relay_input_powers(ch: ChannelSet, gains, f1: np.ndarray,
                       noise: NoiseModel, l: int) -> np.ndarray:
    """Incident-signal power surrogate for every relay of group l (1-based).

    Row powers of H_l A_{l-1} ... A_1 H_1 F_1 for a unit-variance input,
    plus the group's own noise floor; upstream relay noise is excluded by
    construction of the surrogate.
    """
    if not 1 <= l <= ch.num_groups:
        raise ValueError(f"hop index {l} out of range 1..{ch.num_groups}")
    return Cascade(ch, check_gains(ch, gains), f1, None, noise).incident_powers(l)


def hop_statistics(placement: Placement, params: PathlossParams) -> HopStatistics:
    """Average linear large-scale gain per hop, from the placement geometry."""
    # relay hops average transmitter-major, as (K_l, K_{l+1}) arrays
    g = _hop_gains(placement, params)
    return HopStatistics(beta=[np.mean(g[0])] + [np.mean(x.T.copy()) for x in g[1:-1]]
                         + [np.mean(g[-1])])
