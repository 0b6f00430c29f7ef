"""Alternating optimization of the precoder, relay gains, and combiner.

Minimizes  ||F2 Heff F1 - W||_F^2 + tr(F2 R F2^H)  over the estimated
channels, subject to the transmit-power cap on F1 and per-relay power caps
on the gains (via the incident-power surrogate). One AO map updates F1,
then the gain vectors a_1..a_L, then F2; SQUAREM extrapolates the maps.

F2 is stored as the (out_dim x N_r) map applied to the received vector, so
the emulated layer is F2 @ Heff @ F1. The objective and the block updates
read a design, its channels and its noise model from one channel.Cascade.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import Cascade, ChannelSet, NoiseModel, check_caps, check_noise_model
from .utils import hermitize, integer, positive_real, read_each, read_only


class SolverDivergenceError(RuntimeError):
    """Raised when an update produces non-finite values."""


@dataclass(frozen=True, eq=False)  # == is identity: fields are arrays
class TargetLayer:
    """Target linear layer y = W x + b; the bias is applied digitally.
    w and bias are read-only complex copies of the arrays given."""

    w: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", read_only(self.w, complex, "w"))
        object.__setattr__(self, "bias", read_only(self.bias, complex, "bias"))
        if self.w.ndim != 2:
            raise ValueError("weight matrix must be 2-D")
        if self.bias.shape != (self.w.shape[0],):
            raise ValueError("bias length must match the output dimension")

    @property
    def out_dim(self) -> int:
        return self.w.shape[0]

    @property
    def in_dim(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True, eq=False)  # == is identity: fields are arrays
class OtaParams:
    """One design point: precoder f1, combiner f2, per-group complex gains a;
    each array is a read-only copy of the one given."""

    f1: np.ndarray
    f2: np.ndarray
    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "f1", read_only(self.f1, None, "f1"))
        object.__setattr__(self, "f2", read_only(self.f2, None, "f2"))
        object.__setattr__(self, "a", read_each(self.a, complex, "a"))


@dataclass(frozen=True, eq=False)  # == is identity: fields are arrays
class PowerBudget:
    """Transmit-power cap (watts) and per-relay caps p_relay[l][k], each
    group's a read-only copy of the array given."""

    p_max_bs: float
    p_relay: tuple

    def __post_init__(self):
        object.__setattr__(self, "p_max_bs", positive_real(self.p_max_bs, "power budgets"))
        object.__setattr__(self, "p_relay", read_each(self.p_relay, float, "p_relay", True))

    @classmethod
    def uniform(cls, group_sizes, p_max_bs: float, relay_w: float) -> "PowerBudget":
        return cls(p_max_bs=p_max_bs,
                   p_relay=tuple(np.full(k, relay_w) for k in group_sizes))


@dataclass(frozen=True)
class SolverConfig:
    max_outer_iters: int = 100
    objective_tolerance: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "objective_tolerance",
                           positive_real(self.objective_tolerance, "tolerances"))
        object.__setattr__(self, "max_outer_iters",
                           integer(self.max_outer_iters, 1, "max_outer_iters"))


# A block whose last FAILS_TO_REST tries failed sits out the next map
# (shrinking, Joachims 1999); see _map.
FAILS_TO_REST = 2


@dataclass
class BlockTally:
    """The maps in which one AO block moved, failed and sat out. A try
    fails when the accept rule refuses the block's candidate, or when
    update_a hands back the incumbent's own gains. streak, the block's
    consecutive failed tries, and resting, whether it sits out the next
    map, are the resting rule's live state; == and repr leave them out."""

    moved: int = 0
    failed: int = 0
    rested: int = 0
    streak: int = field(default=0, compare=False, repr=False)
    resting: bool = field(default=False, compare=False, repr=False)


@dataclass(eq=False)  # == is identity: fields are arrays
class SolveResult:
    params: OtaParams
    objective_trace: np.ndarray
    iterations: int
    status: str  # converged | max_iters
    tallies: tuple = ()  # BlockTally of F1, then of a_1..a_L; F2 always moves


def objective(cas: Cascade, target: TargetLayer) -> float:
    """Imitation error plus propagated-noise penalty on the cascade's channels."""
    noise = cas.noise
    resid = cas.f2 @ cas.b - target.w
    # tr(F2 R F2^H) = s_c ||F2||^2 + sum_l s_l ||d_l diag(a_l)||^2
    value = np.vdot(resid, resid).real + noise.rx_noise_var * np.vdot(cas.f2, cas.f2).real
    for var, d, a in zip(noise.relay_noise_var, cas.d, cas.a):
        da = d * a[None, :]
        value += var * np.vdot(da, da).real
    return float(value)


def _solve_hermitian(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve g x = rhs for Hermitian g, with a trace-scaled ridge fallback.

    SolverDivergenceError when the fallback is not finite either.
    """
    try:
        x = np.linalg.solve(g, rhs)
        if np.isfinite(x).all():
            return x
    except np.linalg.LinAlgError:
        pass
    eps = 1e-12 * np.trace(g).real
    if eps <= 0:
        eps = 1e-30
    x = np.linalg.solve(g + eps * np.eye(g.shape[0]), rhs)
    _check_finite(x)
    return x


def update_f2(cas: Cascade, target: TargetLayer) -> np.ndarray:
    """Unconstrained minimizer of the objective in F2 (closed form).

    With B = Heff F1: F2 = W B^H G^{-1}, G = B B^H + R = cas.f2_gram.
    """
    rhs = target.w @ cas.b.conj().T
    return _solve_hermitian(cas.f2_gram, rhs.conj().T).conj().T


def _f2_move(cas: Cascade, target: TargetLayer) -> tuple:
    """update_f2's combiner and the objective change of moving cas.f2 to
    it: (f2, change).

    In F2 the objective is the quadratic tr(F2 G F2^H) - 2 Re tr(W B^H F2^H)
    + ||W||^2, minimized at F2* = W B^H G^{-1}, so moving F2 to F2* changes
    it by -tr(E G E^H), E = cas.f2 - F2*. The move leaves F1 and every gain
    as they are, so the change is exact.
    """
    f2 = update_f2(cas, target)
    e = cas.f2 - f2
    return f2, -float(np.vdot(e, e @ cas.f2_gram).real)


def update_f1(cas: Cascade, target: TargetLayer, budget: PowerBudget,
              tol: float = 1e-9) -> np.ndarray:
    """Transmit-power-constrained minimizer of the objective in F1.

    With C = F2 Heff: F1(mu) = (C^H C + mu I)^{-1} C^H W. mu = 0 when the
    unconstrained (minimum-norm) solution already fits the power budget.
    Otherwise mu solves the secular equation power(mu)^-1/2 = P^-1/2, which
    is nearly linear in mu, by Newton's method (More & Sorensen 1983) with a
    bisection step whenever a Newton step leaves the bracket. The target P
    sits tol/2 below the budget, so the search lands one-sided, with
    P_max - tol <= ||F1||_F^2 <= P_max. The noise penalty does not involve F1.
    """
    c = (cas.d[0] * cas.a[0][None, :]) @ cas.ch.h_hop[0]
    if cas.ch.has_direct:
        c = cas.f2_direct + c
    cc = hermitize(c.conj().T @ c)
    lam, u = np.linalg.eigh(cc)
    lam = np.maximum(lam, 0.0)
    gt = u.conj().T @ (c.conj().T @ target.w)
    row_energy = (np.abs(gt) ** 2).sum(axis=1)
    p_max = budget.p_max_bs

    def f1_of(coef):
        return u @ (coef[:, None] * gt)

    # minimum-norm least-squares solution (mu = 0)
    lam_floor = lam.max() * 1e-12 if lam.size else 0.0
    coef0 = np.where(lam > lam_floor, 1.0 / np.where(lam > lam_floor, lam, 1.0), 0.0)
    if (row_energy * coef0 ** 2).sum() <= p_max * (1.0 + 1e-12):
        f1 = f1_of(coef0)
        _check_finite(f1)
        return f1

    def power(mu):
        """power(mu) and the Newton step on power^-1/2 towards target."""
        x = 1.0 / (lam + mu)
        w = row_energy * x * x
        p = float(w.sum())
        return p, p * (np.sqrt(p / target) - 1.0) / float((w * x).sum())

    # aim at the middle of the one-sided window [p_max - tol, p_max], so the
    # returned precoder never exceeds the budget
    target = p_max - 0.5 * min(tol, p_max)
    total = float(row_energy.sum())
    lo, hi = 0.0, np.sqrt(total / p_max)  # power(hi) <= p_max by construction
    p, step = power(hi)
    while p > p_max:  # defensive: expand on rounding pathologies
        hi *= 2.0
        if not np.isfinite(hi):
            raise SolverDivergenceError("precoder multiplier bracket diverged")
        p, step = power(hi)
    mu, p_hi = hi, p
    for _ in range(300):
        if p_hi >= p_max - tol or hi - lo <= 4e-16 * hi:  # or mu is resolved
            break
        mu += step
        if not lo < mu < hi:  # also catches a NaN step
            mu = 0.5 * (lo + hi)
        p, step = power(mu)
        if p > p_max:
            lo = mu
        else:
            hi, p_hi = mu, p
    f1 = f1_of(1.0 / (lam + hi))
    _check_finite(f1)
    return f1


def _check_finite(arr):
    if not np.isfinite(arr).all():
        raise SolverDivergenceError("update produced non-finite values")


def _gain_quadratic(cas: Cascade, target: TargetLayer, l: int):
    """Gram matrix and linear term of the objective as a quadratic in a_l.

    The signal term is d_l diag(a_l) u_l plus the direct path, and every
    noise term F2 T_j with j <= l factors through diag(a_l) too, its
    upstream part summing to N_l. Hadamard identities turn all of it into
    a K_l x K_l normal system.
    """
    lft, rgt = cas.suffix(l), cas.u[l - 1]
    lft_h, rgt_c = lft.conj().T, rgt.conj()
    quad = cas.stage_noise(l) + rgt @ rgt_c.T
    g = hermitize((lft_h @ lft) * quad.T)
    b = ((lft_h @ cas.direct_residual(target.w)) * rgt_c).sum(axis=1)
    return g, b


def update_a(cas: Cascade, target: TargetLayer, l: int) -> tuple:
    """One gain-vector block update (1-based hop l) of a capped cascade:
    (gains, change).

    Solves the normal equations of the quadratic subproblem, projects each
    entry onto its relay power cap, and falls back to the current gains
    cas.a[l-1], which the cascade fitted to their caps, if the projected
    candidate would worsen the subproblem. change is q(gains) - q(cas.a[l-1])
    for the subproblem q, the exact change of the objective when a_l alone
    moves to gains. With q(a) = a^H g a - 2 Re b^H a and g Hermitian, it is
    Re[(c - a)^H g (c + a)] - 2 Re b^H (c - a) for the candidate c and the
    current gains a: one matvec.
    """
    g, b = _gain_quadratic(cas, target, l)
    cur = cas.a[l - 1]
    cand = cas.project(l, _solve_hermitian(g, b))
    step = cand - cur
    change = float(np.vdot(step, g @ (cand + cur)).real - 2.0 * np.vdot(b, step).real)
    if change <= 0:
        return cand, change
    return cur, 0.0


def _s3_alpha(r: np.ndarray, v: np.ndarray) -> float:
    """SQUAREM S3 step min(-||r|| / ||v||, -1) (Varadhan & Roland 2008)."""
    norm_v = np.linalg.norm(v)
    return min(-np.linalg.norm(r) / norm_v, -1.0) if norm_v > 0 else -1.0


def _check_start(ch: ChannelSet, target: TargetLayer, start: OtaParams) -> None:
    """ValueError naming F1 or F2 of start when its shape does not fit the
    problem; the Cascade built from start checks its gains."""
    for name, arr, shape in (("F1", start.f1, (ch.n_tx, target.in_dim)),
                             ("F2", start.f2, (target.out_dim, ch.n_rx))):
        if arr.shape != shape:
            raise ValueError(f"start {name} must have shape {shape}, got {arr.shape}")


def _in_ball(f1: np.ndarray, budget: PowerBudget) -> np.ndarray:
    """F1 scaled into the transmit-power ball; f1 itself inside it."""
    power = np.vdot(f1, f1).real
    if power > budget.p_max_bs:
        f1 = f1 * np.sqrt(budget.p_max_bs / power)
    return f1


def _flat(cas):
    """The design of cas as one vector [F1, a_1..a_L, F2]."""
    return np.concatenate([cas.f1.ravel(), *cas.a, cas.f2.ravel()])


def _step(cur, obj, target, gains, f1, f2, change=None):
    """The accept rule: (cand, its objective) for the candidate
    cur.moved(gains, f1, f2) when its objective is not above obj, else
    (cur, obj).

    A candidate that keeps every gain array it was given differs from cur
    in one block only, so with change, that block's exact objective change
    (update_a's for a_l, _f2_move's for F2), it is scored as obj + change
    rather than by a full objective.
    """
    cand = cur.moved(gains, f1, f2)
    if change is not None and all(x is y for x, y in zip(cand.a, gains)):
        cand_obj = obj + change
    else:
        cand_obj = objective(cand, target)
    if not np.isfinite(cand_obj):
        raise SolverDivergenceError("non-finite objective during iteration")
    if cand_obj <= obj:
        return cand, cand_obj
    return cur, obj


def _map(cur, obj, target, budget, blocks):
    """One AO map from cur, the F1 -> a_1..a_L -> F2 pass: (cascade, objective).

    A precoder or gain block move shifts the incident powers of downstream
    relays, so each candidate is a capped Cascade, whose walk fits the
    downstream gains to their caps, and the accept rule (_step) keeps it
    only when the full objective does not increase. A gain move that keeps
    the incumbent's own gain array is not tried.

    blocks holds the BlockTally of F1, then of a_1..a_L, and the map
    updates them. A move resets a block's streak of failed tries; a block
    whose streak reaches FAILS_TO_REST sits out the next map, plain or
    stabilizing, and then runs again. F2, which always moves, runs in
    every map.
    """
    for b, tally in enumerate(blocks):
        if tally.resting:
            tally.resting = False
            tally.rested += 1
            continue
        if b == 0:
            new, obj = _step(cur, obj, target, cur.a, update_f1(cur, target, budget), cur.f2)
        else:
            a_l, change = update_a(cur, target, b)
            new = cur
            if a_l is not cur.a[b - 1]:
                a = list(cur.a)
                a[b - 1] = a_l
                new, obj = _step(cur, obj, target, a, cur.f1, cur.f2, change)
        if new is not cur:
            tally.moved += 1
            tally.streak = 0
        else:
            tally.failed += 1
            tally.streak += 1
            tally.resting = tally.streak >= FAILS_TO_REST
        cur = new
    return _step(cur, obj, target, cur.a, cur.f1, *_f2_move(cur, target))


def solve(est: ChannelSet, target: TargetLayer, noise: NoiseModel,
          budget: PowerBudget, cfg: SolverConfig = SolverConfig(),
          start: OtaParams = None) -> SolveResult:
    """Run the alternating optimization from a feasible starting point.

    With start=None the AO starts cold: F1 at full power on the first
    in_dim antennas, every relay at its cap. A start design (an OtaParams,
    say the result of a nearby problem) is made feasible the way an
    extrapolated point is below: its F1 scaled into the power ball and its
    gains fitted by a capped Cascade on these estimates. Either way F2 then
    takes its closed-form update. A start whose shapes do not fit the
    problem raises ValueError before any map (its OtaParams has already
    refused a non-finite entry).

    The AO repeats _map, which may rest a block that keeps failing.
    SQUAREM, scheme S3 (Varadhan & Roland 2008), extrapolates the maps: from
    x0, two maps give x1 and x2 of the design flattened to [F1, a, F2], and
    with r = x1 - x0, v = x2 - 2 x1 + x0, alpha = min(-||r|| / ||v||, -1)
    the point x0 - 2 alpha r + alpha^2 v (x2 at alpha = -1: skipped) has
    its F1 scaled into the power ball and its gains fitted by a capped
    Cascade. One stabilizing map from it is kept if it ends at or below
    x2's objective. So every iterate is feasible and the trace, the
    incumbent's objective after each map, is non-increasing. iterations
    counts the maps, stabilizing ones included; the relative-decrease test
    follows plain maps only.

    Only a map that ran every block may end the solve as converged: a map
    that rested a block and passed the relative-decrease test clears every
    block's streak and starts a fresh SQUAREM cycle. No block rests before
    map 3, so up to two maps solve is the plain AO.
    """
    if start is None:
        f1 = (np.sqrt(budget.p_max_bs / est.n_tx)
              * np.eye(est.n_tx, target.in_dim, dtype=complex))
        cur = Cascade(est, [None] * est.num_groups, f1, None, noise, budget.p_relay)
    else:
        # the noise model and caps first, so that the only error the start's
        # cascade can raise is about the start's gains
        check_noise_model(est, noise)
        check_caps(est, budget.p_relay)
        _check_start(est, target, start)
        try:
            cur = Cascade(est, start.a, _in_ball(start.f1, budget), start.f2, noise,
                          budget.p_relay)
        except ValueError as exc:
            raise ValueError(f"start gains: {exc}") from None
    cur = cur.moved(cur.a, cur.f1, update_f2(cur, target))
    obj = objective(cur, target)
    if not np.isfinite(obj):
        raise SolverDivergenceError("non-finite objective at initialization")
    trace = [obj]
    status = "max_iters"
    blocks = [BlockTally() for _ in range(est.num_groups + 1)]  # F1, then a_1..a_L
    splits = np.cumsum([cur.f1.size, *est.group_sizes])

    x = []  # the flattened starts of this cycle's two plain maps
    while len(trace) <= cfg.max_outer_iters:
        x.append(_flat(cur))
        prev, ran_all = obj, not any(t.resting for t in blocks)
        cur, obj = _map(cur, obj, target, budget, blocks)
        trace.append(obj)
        if prev - obj <= cfg.objective_tolerance * max(prev, 1e-300):
            if ran_all:
                status = "converged"
                break
            # fresh streaks: the next map runs every block
            blocks = [replace(t, streak=0, resting=False) for t in blocks]
            x = []
            continue
        if len(x) < 2:
            continue
        (x0, x1), x = x, []
        r, v = x1 - x0, _flat(cur) - 2.0 * x1 + x0
        alpha = _s3_alpha(r, v)
        if alpha == -1.0 or len(trace) > cfg.max_outer_iters:
            continue  # the extrapolated point is cur itself, or no map is left
        f1, *a, f2 = np.split(x0 - 2.0 * alpha * r + alpha ** 2 * v, splits)
        # split to the design's shapes, so moved's unchecked walk fits it
        ext = cur.moved(a, _in_ball(f1.reshape(cur.f1.shape), budget),
                        f2.reshape(cur.f2.shape))
        ext_obj = objective(ext, target)
        if not np.isfinite(ext_obj):
            continue
        ext, ext_obj = _map(ext, ext_obj, target, budget, blocks)  # the stabilizing map
        if ext_obj <= obj:
            cur, obj = ext, ext_obj
        del ext  # a rejected design is not kept alive through the next cycle
        trace.append(obj)

    return SolveResult(params=OtaParams(f1=cur.f1, f2=cur.f2, a=cur.a),
                       objective_trace=np.asarray(trace),
                       iterations=len(trace) - 1, status=status, tallies=tuple(blocks))


@dataclass(frozen=True)
class TrueEvaluation:
    """Deployment-side metrics: design built on estimates, run on the truth."""

    nmse: float
    objective_true: float
    relay_power_overrun: float  # max relative cap violation, 0 when compliant


def evaluate_true(params: OtaParams, true_ch: ChannelSet, target: TargetLayer,
                  noise: NoiseModel, budget: PowerBudget) -> TrueEvaluation:
    """Re-evaluate a design on the true channels.

    nmse is ||F2 Heff F1 - W||_F^2 / ||W||_F^2; objective_true re-runs the
    design objective on the true channels. relay_power_overrun reports how
    far the true incident powers push any relay past its cap in budget
    (diagnostic only, never enforced).
    """
    check_caps(true_ch, budget.p_relay)
    cas = Cascade.of(true_ch, params, noise)
    resid = cas.f2 @ cas.b - target.w
    nmse = float(np.sum(np.abs(resid) ** 2) / np.sum(np.abs(target.w) ** 2))
    obj = objective(cas, target)

    overrun = 0.0
    for l in range(1, true_ch.num_groups + 1):
        used = np.abs(cas.a[l - 1]) ** 2 * cas.incident_powers(l)
        ratio = float(np.max(used / budget.p_relay[l - 1]))
        overrun = max(overrun, ratio - 1.0)
    return TrueEvaluation(nmse=nmse, objective_true=obj, relay_power_overrun=overrun)
