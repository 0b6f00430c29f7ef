import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otafc import (Cascade, ChannelSet, NoiseModel, OtaParams, PowerBudget,
                   TargetLayer, evaluate_true, inject_error, objective,
                   relay_input_powers, solve, update_a, update_f1, update_f2)
from otafc import channel, solver
from otafc.channel import project_gains
from otafc.estimation import PilotPlan
from otafc.utils import complex_normal, hermitize

from test_channel import effective_channel, noise_covariance, random_channel_set

TINY_NOISE = 1e-30


def cn(rng, shape, var=1.0):
    return complex_normal(rng, shape, var)


def identity_channel(n):
    """Direct link = I, relay chain with zero gains: Heff == I."""
    return ChannelSet(h_direct=np.eye(n, dtype=complex),
                      h_hop=(np.zeros((1, n), dtype=complex),),
                      h_last=np.zeros((n, 1), dtype=complex))


def random_instance(seed, n=4, groups=(5, 4, 6), direct=False, noise_scale=0.05):
    rng = np.random.default_rng(seed)
    ch = random_channel_set(rng, n, n, groups, direct=direct)
    noise = NoiseModel(relay_noise_var=tuple(noise_scale * rng.uniform(0.5, 1.5, len(groups))),
                       rx_noise_var=noise_scale)
    w = cn(rng, (n, n), 1.0 / n)
    target = TargetLayer(w=w, bias=np.zeros(n))
    budget = PowerBudget.uniform(groups, float(n), 2.0)
    params = OtaParams(f1=cn(rng, (n, n)), f2=cn(rng, (n, n)),
                       a=tuple(cn(rng, (k,)) for k in groups))
    return rng, ch, noise, target, budget, params


def fd_gradient(fun, mat, h=1e-5):
    """Central finite differences over the real and imaginary parts."""
    grad = np.zeros(mat.shape + (2,))
    for idx in np.ndindex(mat.shape):
        for part, delta in enumerate((h, 1j * h)):
            bumped = mat.copy()
            bumped[idx] += delta
            f_plus = fun(bumped)
            bumped[idx] -= 2 * delta
            f_minus = fun(bumped)
            grad[idx + (part,)] = (f_plus - f_minus) / (2 * h)
    return grad


# ---------------------------------------------------------------- objective

def test_objective_zero_combiner_gives_target_energy():
    rng, ch, noise, target, budget, params = random_instance(0)
    params = OtaParams(f1=params.f1, f2=np.zeros_like(params.f2), a=params.a)
    assert objective(Cascade.of(ch, params, noise), target) == pytest.approx(
        np.sum(np.abs(target.w) ** 2), rel=1e-12)


def test_objective_exact_emulation_zero_noise():
    n = 3
    ch = identity_channel(n)
    noise = NoiseModel(relay_noise_var=(TINY_NOISE,), rx_noise_var=TINY_NOISE)
    rng = np.random.default_rng(1)
    w = cn(rng, (n, n))
    target = TargetLayer(w=w, bias=np.zeros(n))
    params = OtaParams(f1=np.eye(n, dtype=complex), f2=w.copy(),
                       a=(np.zeros(1, dtype=complex),))
    assert objective(Cascade.of(ch, params, noise), target) <= 1e-20


def test_objective_scalar_chain_formula():
    h1, h2 = 0.8 - 0.1j, 1.2 + 0.4j
    a, f1, f2, w = 0.9 + 0.2j, 1.1, 0.7 - 0.3j, 0.5 + 0.5j
    su, sc = 0.4, 0.6
    ch = ChannelSet(h_direct=np.zeros((1, 1), dtype=complex),
                    h_hop=(np.array([[h1]]),), h_last=np.array([[h2]]))
    noise = NoiseModel(relay_noise_var=(su,), rx_noise_var=sc)
    target = TargetLayer(w=np.array([[w]]), bias=np.zeros(1))
    params = OtaParams(f1=np.array([[f1]]), f2=np.array([[f2]]),
                       a=(np.array([a]),))
    want = (abs(f2 * h2 * a * h1 * f1 - w) ** 2
            + abs(f2) ** 2 * (sc + abs(h2 * a) ** 2 * su))
    assert objective(Cascade.of(ch, params, noise), target) == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------- update_f2

def test_update_f2_identity_case():
    n = 3
    ch = identity_channel(n)
    noise = NoiseModel(relay_noise_var=(1.0,), rx_noise_var=1.0)  # R = I
    rng = np.random.default_rng(2)
    w = cn(rng, (n, n))
    target = TargetLayer(w=w, bias=np.zeros(n))
    params = OtaParams(f1=np.eye(n, dtype=complex), f2=np.zeros((n, n), dtype=complex),
                       a=(np.zeros(1, dtype=complex),))
    f2 = update_f2(Cascade.of(ch, params, noise), target)
    assert np.allclose(f2, w / 2.0, rtol=1e-12)


def test_update_f2_noiseless_limit_inverts():
    rng, ch, noise, target, budget, params = random_instance(3)
    noise = NoiseModel(relay_noise_var=(TINY_NOISE,) * 3, rx_noise_var=TINY_NOISE)
    f2 = update_f2(Cascade.of(ch, params, noise), target)
    b = effective_channel(ch, params.a) @ params.f1
    assert np.allclose(f2, target.w @ np.linalg.inv(b), rtol=1e-6)
    new = OtaParams(f1=params.f1, f2=f2, a=params.a)
    assert objective(Cascade.of(ch, new, noise), target) <= 1e-12


def test_update_f2_beats_random_combiners_and_is_stationary():
    rng, ch, noise, target, budget, params = random_instance(4)
    f2 = update_f2(Cascade.of(ch, params, noise), target)
    best = OtaParams(f1=params.f1, f2=f2, a=params.a)
    val = objective(Cascade.of(ch, best, noise), target)
    for _ in range(1000):
        alt = OtaParams(f1=params.f1, f2=f2 + cn(rng, f2.shape, 0.3), a=params.a)
        assert objective(Cascade.of(ch, alt, noise), target) >= val - 1e-12

    def fun(m):
        return objective(Cascade.of(ch, OtaParams(f1=params.f1, f2=m, a=params.a), noise),
                         target)
    grad = fd_gradient(fun, f2)
    assert np.max(np.abs(grad)) <= 1e-8 * max(1.0, val)


@pytest.mark.parametrize("direct", [False, True])
@pytest.mark.parametrize("seed", [5, 6, 7])
def test_f2_move_change_is_the_objective_change(seed, direct):
    # the F2 quadratic is exact: moving F2 to its minimizer changes the
    # objective by -tr(E G E^H) <= 0, from a random F2 and from one near
    # the minimizer
    rng, ch, noise, target, budget, params = random_instance(seed, direct=direct)
    best = update_f2(Cascade.of(ch, params, noise), target)
    for start in (params.f2, best + cn(rng, best.shape, 1e-6)):
        before = Cascade(ch, params.a, params.f1, start, noise)
        f2, change = solver._f2_move(before, target)
        assert np.array_equal(f2, best)
        after = Cascade(ch, params.a, params.f1, f2, noise)
        old, new = objective(before, target), objective(after, target)
        assert change <= 0
        assert abs(change - (new - old)) <= 1e-12 * old


# ---------------------------------------------------------------- update_f1

def test_update_f1_identity_unconstrained():
    n = 3
    ch = identity_channel(n)
    noise = NoiseModel(relay_noise_var=(1.0,), rx_noise_var=1.0)
    target = TargetLayer(w=np.eye(n, dtype=complex), bias=np.zeros(n))
    params = OtaParams(f1=np.zeros((n, n), dtype=complex),
                       f2=np.eye(n, dtype=complex), a=(np.zeros(1, dtype=complex),))
    budget = PowerBudget(p_max_bs=float(2 * n), p_relay=(np.ones(1),))
    f1 = update_f1(Cascade.of(ch, params, noise), target, budget)
    assert np.allclose(f1, np.eye(n), atol=1e-9)


def test_update_f1_scalar_binding_kkt():
    # C = 1, W = 2, P = 1: mu solves 2/(1+mu) = 1 -> mu = 1, f1 = 1
    ch = identity_channel(1)
    noise = NoiseModel(relay_noise_var=(1.0,), rx_noise_var=1.0)
    target = TargetLayer(w=np.array([[2.0 + 0j]]), bias=np.zeros(1))
    params = OtaParams(f1=np.zeros((1, 1), dtype=complex),
                       f2=np.eye(1, dtype=complex), a=(np.zeros(1, dtype=complex),))
    budget = PowerBudget(p_max_bs=1.0, p_relay=(np.ones(1),))
    f1 = update_f1(Cascade.of(ch, params, noise), target, budget, tol=1e-12)
    assert abs(f1[0, 0] - 1.0) <= 1e-6


def test_update_f1_binding_norm_and_sampling_optimality():
    rng, ch, noise, target, budget, params = random_instance(5)
    # big target forces the power constraint to bind
    target = TargetLayer(w=10.0 * target.w, bias=target.bias)
    f1 = update_f1(Cascade.of(ch, params, noise), target, budget, tol=1e-9)
    p = np.linalg.norm(f1) ** 2
    assert p == pytest.approx(budget.p_max_bs, abs=1e-6)
    best = objective(Cascade.of(ch, OtaParams(f1=f1, f2=params.f2, a=params.a), noise), target)
    for _ in range(1000):
        alt = f1 + cn(rng, f1.shape, 0.2)
        nrm = np.linalg.norm(alt)
        if nrm ** 2 > budget.p_max_bs:
            alt = alt * np.sqrt(budget.p_max_bs) / nrm
        val = objective(Cascade.of(ch, OtaParams(f1=alt, f2=params.f2, a=params.a), noise),
                        target)
        assert val >= best - 1e-12


def test_update_f1_kkt_stationarity_via_lagrangian():
    rng, ch, noise, target, budget, params = random_instance(6)
    target = TargetLayer(w=10.0 * target.w, bias=target.bias)
    f1 = update_f1(Cascade.of(ch, params, noise), target, budget, tol=1e-12)
    c = params.f2 @ effective_channel(ch, params.a)
    # recover the multiplier from the normal equations residual
    resid = c.conj().T @ target.w - c.conj().T @ (c @ f1)
    mu = float((np.vdot(f1, resid) / np.vdot(f1, f1)).real)
    assert mu > 0

    def lagrangian(m):
        o = objective(Cascade.of(ch, OtaParams(f1=m, f2=params.f2, a=params.a), noise), target)
        return o + mu * (np.linalg.norm(m) ** 2 - budget.p_max_bs)
    grad = fd_gradient(lagrangian, f1)
    at_f1 = OtaParams(f1=f1, f2=params.f2, a=params.a)
    scale = max(1.0, objective(Cascade.of(ch, at_f1, noise), target))
    assert np.max(np.abs(grad)) <= 1e-6 * scale


def bisection_f1(c, w, p_max, tol):
    """The bisection update_f1 used before the Newton search, as an oracle.

    F1(mu) = (C^H C + mu I)^{-1} C^H W with mu = 0 when the minimum-norm
    solution fits p_max, otherwise mu bisected until ||F1||^2 lands in
    [p_max - tol, p_max]. Unlike the original, the bracket stops relative
    to mu, so mu is resolved to the last bits when the window is narrower
    than that. Returns F1 and whether the cap binds.
    """
    cc = c.conj().T @ c
    lam, u = np.linalg.eigh(0.5 * (cc + cc.conj().T))
    lam = np.maximum(lam, 0.0)
    gt = u.conj().T @ (c.conj().T @ w)
    row_energy = np.sum(np.abs(gt) ** 2, axis=1)
    lam_floor = lam.max() * 1e-12 if lam.size else 0.0
    coef0 = np.where(lam > lam_floor, 1.0 / np.where(lam > lam_floor, lam, 1.0), 0.0)
    if np.sum(row_energy * coef0 ** 2) <= p_max * (1.0 + 1e-12):
        return u @ (coef0[:, None] * gt), False

    def power(mu):
        return float(np.sum(row_energy / (lam + mu) ** 2))

    lo, hi = 0.0, np.sqrt(float(np.sum(row_energy)) / p_max)
    while power(hi) > p_max:
        hi *= 2.0
    mu = hi
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if power(mid) > p_max:
            lo = mid
        else:
            hi = mu = mid
            if power(mu) >= p_max - tol:
                break
        if hi - lo <= 4e-16 * hi:
            break
    return u @ ((1.0 / (lam + mu))[:, None] * gt), True


def _unitary(rng, n):
    q, r = np.linalg.qr(cn(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 6), n=st.integers(1, 6),
       k=st.integers(1, 4), rank_cut=st.integers(0, 2),
       log_s_min=st.floats(-8.5, 0.0), log_w=st.floats(-3.0, 3.0),
       log_p=st.floats(-6.0, 6.0), tol=st.sampled_from([1e-9, 1e-12]))
def test_update_f1_matches_bisection_oracle(seed, m, n, k, rank_cut, log_s_min,
                                            log_w, log_p, tol):
    """Newton lands in the one-sided window and on the bisection's precoder.

    C = F2 (the chain is the identity direct link) has singular values from
    10**log_s_min up to about 1.4, so C^H C spans the 2.7e-17..2.0 seen in
    solver runs, and up to rank_cut of them are zero. The two searches may land
    anywhere in the same window, so F1 may differ from the oracle's by the
    spread of the window as well.
    """
    rng = np.random.default_rng(seed)
    r = min(m, n)
    s = np.sqrt(2.0) * 10.0 ** rng.uniform(log_s_min, 0.0, r)
    s[:min(rank_cut, r - 1)] = 0.0
    c = _unitary(rng, m)[:, :r] @ (s[:, None] * _unitary(rng, n)[:r, :])
    w = 10.0 ** log_w * cn(rng, (m, k))
    p_max = 10.0 ** log_p

    ch = identity_channel(n)
    noise = NoiseModel(relay_noise_var=(1.0,), rx_noise_var=1.0)
    params = OtaParams(f1=np.zeros((n, k), dtype=complex), f2=c,
                       a=(np.zeros(1, dtype=complex),))
    budget = PowerBudget(p_max_bs=p_max, p_relay=(np.ones(1),))
    target = TargetLayer(w=w, bias=np.zeros(m))
    f1 = update_f1(Cascade.of(ch, params, noise), target, budget, tol=tol)
    want, binding = bisection_f1(c, w, p_max, tol)

    assert np.isfinite(f1).all()
    power = float(np.sum(np.abs(f1) ** 2))
    rounding = 1e-13 * p_max  # ||F1||^2 against the secular sum, and mu's last bit
    if binding:
        assert p_max - tol - rounding <= power <= p_max + rounding
        edge = bisection_f1(c, w, p_max, 0.0)[0]
        spread = np.linalg.norm(edge - bisection_f1(c, w, p_max - tol, 0.0)[0])
        spread /= np.linalg.norm(edge)
    else:
        assert power <= p_max * (1.0 + 1e-12) + rounding
        spread = 0.0
    assert np.linalg.norm(f1 - want) <= (1e-8 + spread) * np.linalg.norm(want)


# ---------------------------------------------------------------- update_a

def test_update_a_scalar_least_squares():
    # single relay, no direct link, huge caps: a = conj(l r) (w - 0) / |l r|^2
    h1, h2, f1, f2, w = 1.3 - 0.2j, 0.6 + 0.9j, 1.1 + 0.1j, 0.8 - 0.5j, 2.0 + 1.0j
    ch = ChannelSet(h_direct=np.zeros((1, 1), dtype=complex),
                    h_hop=(np.array([[h1]]),), h_last=np.array([[h2]]))
    noise = NoiseModel(relay_noise_var=(TINY_NOISE,), rx_noise_var=TINY_NOISE)
    target = TargetLayer(w=np.array([[w]]), bias=np.zeros(1))
    params = OtaParams(f1=np.array([[f1]]), f2=np.array([[f2]]),
                       a=(np.zeros(1, dtype=complex),))
    budget = PowerBudget(p_max_bs=1.0, p_relay=(np.array([1e30]),))
    cas = Cascade(ch, params.a, params.f1, params.f2, noise, budget.p_relay)
    got = update_a(cas, target, 1)[0][0]
    lft, rgt = f2 * h2, h1 * f1
    want = np.conj(lft * rgt) * w / abs(lft * rgt) ** 2
    assert got == pytest.approx(want, rel=1e-10)


def test_update_a_projection_inactive_when_capped_loosely():
    rng, ch, noise, target, budget, params = random_instance(7)
    loose = PowerBudget(p_max_bs=budget.p_max_bs,
                        p_relay=tuple(np.full_like(p, 1e12) for p in budget.p_relay))
    cas = Cascade(ch, params.a, params.f1, params.f2, noise, loose.p_relay)
    a2 = update_a(cas, target, 2)[0]
    p_in = cas.incident_powers(2)
    assert np.all(np.abs(a2) ** 2 * p_in <= 1e12)
    # with a loose cap the normal-equation solution is returned unclipped:
    # re-running with an even looser cap changes nothing
    looser = PowerBudget(p_max_bs=budget.p_max_bs,
                         p_relay=tuple(np.full_like(p, 1e15) for p in budget.p_relay))
    a2b = update_a(Cascade(ch, params.a, params.f1, params.f2, noise, looser.p_relay),
                   target, 2)[0]
    assert np.allclose(a2, a2b)


def test_projection_is_idempotent_and_meets_caps():
    # a projected vector sits on or inside every cap, so projecting it again
    # hands back that very array; rounding may leave a clipped gain's power
    # a few ulps above its cap, never more
    rng = np.random.default_rng(31)
    for _ in range(2000):
        k = int(rng.integers(1, 60))
        a = cn(rng, (k,), 10.0 ** rng.uniform(-6.0, 14.0))
        p_in = 10.0 ** rng.uniform(-14.0, 2.0, k)
        cap = 10.0 ** rng.uniform(-3.0, 1.0, k)
        once = project_gains(a, np.sqrt(cap / p_in))
        assert project_gains(once, np.sqrt(cap / p_in)) is once
        assert np.all(np.abs(once) ** 2 * p_in <= cap * (1 + 1e-14))


def test_update_a_respects_caps():
    rng, ch, noise, target, budget, params = random_instance(8)
    tight = PowerBudget(p_max_bs=budget.p_max_bs,
                        p_relay=tuple(0.01 * np.abs(cn(rng, p.shape)) ** 2 + 0.005
                                      for p in budget.p_relay))
    for l in (1, 2, 3):
        cas = Cascade(ch, params.a, params.f1, params.f2, noise, tight.p_relay)
        a_l = update_a(cas, target, l)[0]
        p_in = cas.incident_powers(l)
        assert np.all(np.abs(a_l) ** 2 * p_in <= tight.p_relay[l - 1] * (1 + 1e-9))


def test_cascade_without_noise_model_refuses_scoring():
    # the noise model is a required argument, so there is no cascade
    # without one to score
    rng, ch, noise, target, budget, params = random_instance(13)
    for call in (lambda: Cascade(ch, params.a, params.f1, params.f2),
                 lambda: Cascade(ch, params.a, params.f1, caps=budget.p_relay)):
        with pytest.raises(TypeError, match="noise"):
            call()
    with pytest.raises(ValueError, match="noise model group count"):
        Cascade(ch, params.a, params.f1, params.f2, NoiseModel((0.1,), 0.1))


@pytest.mark.parametrize("iters", [0, 2.5, True])
def test_solver_config_refuses_a_bad_iteration_count(iters):
    # solve compares len(trace) with max_outer_iters, so 2.5 would run as 2
    # maps and True as 1
    with pytest.raises(ValueError, match=f"max_outer_iters must be an integer >= 1, got {iters!r}"):
        solver.SolverConfig(max_outer_iters=iters)
    assert solver.SolverConfig(max_outer_iters=np.int64(3)).max_outer_iters == 3


# ---------------------------------------------------------------- solve

def test_solve_scalar_exact_target():
    ch = ChannelSet(h_direct=np.zeros((1, 1), dtype=complex),
                    h_hop=(np.array([[1.0 + 0j]]),), h_last=np.array([[1.0 + 0j]]))
    noise = NoiseModel(relay_noise_var=(TINY_NOISE,), rx_noise_var=TINY_NOISE)
    target = TargetLayer(w=np.array([[0.5 - 0.25j]]), bias=np.zeros(1))
    budget = PowerBudget(p_max_bs=100.0, p_relay=(np.array([100.0]),))
    res = solve(ch, target, noise, budget)
    assert res.terminal_objective <= 1e-10
    assert res.status == "converged"


def test_solve_trace_monotone_over_seeds():
    for seed in range(6):
        rng, ch, noise, target, budget, _ = random_instance(100 + seed)
        res = solve(ch, target, noise, budget)
        tr = res.objective_trace
        assert np.all(np.diff(tr) <= 1e-9 * tr[0])
        assert res.iterations == len(tr) - 1


def test_solve_constraints_at_solution():
    for seed in range(5):
        rng, ch, noise, target, budget, _ = random_instance(200 + seed)
        res = solve(ch, target, noise, budget)
        assert np.linalg.norm(res.params.f1) ** 2 <= budget.p_max_bs * (1 + 1e-9)
        for l in range(1, ch.num_groups + 1):
            p_in = relay_input_powers(ch, res.params.a, res.params.f1, noise, l)
            used = np.abs(res.params.a[l - 1]) ** 2 * p_in
            assert np.all(used <= budget.p_relay[l - 1] * (1 + 1e-9))


def test_perfect_csi_consistency():
    rng, ch, noise, target, budget, _ = random_instance(9)
    res = solve(ch, target, noise, budget)
    ev = evaluate_true(res.params, ch, target, noise, budget)
    assert ev.objective_true == pytest.approx(res.terminal_objective, rel=1e-12)
    assert ev.relay_power_overrun <= 1e-9


def test_evaluate_true_degenerate_values():
    rng, ch, noise, target, budget, params = random_instance(10)
    zero = OtaParams(f1=params.f1, f2=np.zeros_like(params.f2),
                     a=tuple(np.zeros_like(v) for v in params.a))
    ev = evaluate_true(zero, ch, target, noise, budget)
    assert ev.nmse == pytest.approx(1.0, rel=1e-12)


def test_estimated_csi_approaches_perfect_with_pilot_power():
    rng, ch, noise, target, budget, _ = random_instance(11)
    res_perfect = solve(ch, target, noise, budget)
    plan = PilotPlan(pilot_power=1e10, rep=(1, 1, 1, 1), tau_min=(4, 5, 4, 6))
    est = inject_error(ch, plan, noise, 3)
    res_est = solve(est, target, noise, budget)
    ev = evaluate_true(res_est.params, ch, target, noise, budget)
    assert ev.objective_true == pytest.approx(res_perfect.terminal_objective, rel=0.01)


def test_pilot_power_ordering_of_nmse():
    # higher pilot power -> designs deploy better, in most paired seeds
    wins, total = 0, 40
    for seed in range(total):
        rng = np.random.default_rng(400 + seed)
        ch = random_channel_set(rng, 4, 4, (5, 6), direct=False)
        noise = NoiseModel(relay_noise_var=(0.05, 0.05), rx_noise_var=0.05)
        w = cn(rng, (4, 4), 0.25)
        target = TargetLayer(w=w, bias=np.zeros(4))
        budget = PowerBudget.uniform((5, 6), 4.0, 2.0)
        nmses = []
        for p_p in (0.1, 1.0):
            plan = PilotPlan(pilot_power=p_p, rep=(1, 1, 1), tau_min=(4, 5, 6))
            est = inject_error(ch, plan, noise, 500 + seed)
            res = solve(est, target, noise, budget)
            nmses.append(evaluate_true(res.params, ch, target, noise, budget).nmse)
        wins += nmses[1] <= nmses[0]
    assert wins >= 0.8 * total


def test_solve_with_direct_link_monotone_and_feasible():
    rng, ch, noise, target, budget, _ = random_instance(14, direct=True)
    res = solve(ch, target, noise, budget)
    tr = res.objective_trace
    assert np.all(np.diff(tr) <= 1e-9 * tr[0])
    assert np.linalg.norm(res.params.f1) ** 2 <= budget.p_max_bs * (1 + 1e-9)
    for l in range(1, ch.num_groups + 1):
        p_in = relay_input_powers(ch, res.params.a, res.params.f1, noise, l)
        used = np.abs(res.params.a[l - 1]) ** 2 * p_in
        assert np.all(used <= budget.p_relay[l - 1] * (1 + 1e-9))
    # the direct link gives the solver a second path: it must not hurt
    ev = evaluate_true(res.params, ch, target, noise, budget)
    assert ev.nmse < 1.0


def plain_ao(est, target, noise, budget, maps):
    """Unaccelerated AO, the oracle of solve's first two maps: (params, trace,
    status). Each map runs F1 -> a_1..a_L -> F2, and a block move is kept when
    its objective does not rise, scored from update_a's exact change when the
    candidate keeps every gain it was given (candidates lend nothing here).
    The F2 move is scored from its quadratic too: moving F2 to the minimizer
    F2* changes the objective by -tr(E G E^H), E = F2 - F2*, G = B B^H + R."""
    caps = budget.p_relay
    f1 = np.sqrt(budget.p_max_bs / est.n_tx) * np.eye(est.n_tx, target.in_dim, dtype=complex)
    cur = Cascade(est, [None] * est.num_groups, f1, None, noise, caps)
    cur = Cascade(est, cur.a, f1, update_f2(cur, target), noise, caps)
    trace = [objective(cur, target)]

    def keep(gains, f1, f2, change=None):
        cand = Cascade(est, gains, f1, f2, noise, caps)
        if change is not None and all(x is y for x, y in zip(cand.a, gains)):
            score = trace_obj + change
        else:
            score = objective(cand, target)
        return (cand, score) if score <= trace_obj else (cur, trace_obj)

    for _ in range(maps):
        trace_obj = trace[-1]
        cur, trace_obj = keep(cur.a, update_f1(cur, target, budget), cur.f2)
        for l in range(1, est.num_groups + 1):
            a_l, change = update_a(cur, target, l)
            if a_l is not cur.a[l - 1]:
                cur, trace_obj = keep(cur.a[:l - 1] + [a_l] + cur.a[l:], cur.f1, cur.f2,
                                      change)
        f2 = update_f2(cur, target)
        g = hermitize(cur.b @ cur.b.conj().T + cur.stage_noise(est.num_groups + 1))
        e = cur.f2 - f2
        cur, trace_obj = keep(cur.a, cur.f1, f2, -float(np.vdot(e, e @ g).real))
        trace.append(trace_obj)
        if trace[-2] - trace_obj <= 1e-6 * trace[-2]:
            return OtaParams(f1=cur.f1, f2=cur.f2, a=cur.a), trace, "converged"
    return OtaParams(f1=cur.f1, f2=cur.f2, a=cur.a), trace, "max_iters"


@pytest.mark.parametrize("maps", [1, 2])
@pytest.mark.parametrize("direct", [False, True])
def test_solve_first_two_maps_are_plain_ao(maps, direct):
    # the extrapolation needs the iterates of two maps, so up to two maps
    # solve is the unaccelerated AO, bit for bit
    rng, ch, noise, target, budget, _ = random_instance(17, direct=direct)
    tight = PowerBudget(p_max_bs=budget.p_max_bs,
                        p_relay=tuple(0.3 * p for p in budget.p_relay))
    res = solve(ch, target, noise, tight, solver.SolverConfig(max_outer_iters=maps))
    params, trace, status = plain_ao(ch, target, noise, tight, maps)
    assert (res.status, res.iterations) == (status, len(trace) - 1)
    assert res.objective_trace.tolist() == trace
    for got, want in zip((res.params.f1, res.params.f2, *res.params.a),
                         (params.f1, params.f2, *params.a)):
        assert np.array_equal(got, want)


def assert_feasible_monotone(res, ch, noise, budget, cfg):
    tr = res.objective_trace
    assert np.all(np.diff(tr) <= 0) and np.isfinite(tr).all()
    assert res.iterations == len(tr) - 1 <= cfg.max_outer_iters
    assert res.status in ("converged", "max_iters")
    assert np.vdot(res.params.f1, res.params.f1).real <= budget.p_max_bs * (1 + 1e-9)
    cas = Cascade.of(ch, res.params, noise)
    for l in range(1, ch.num_groups + 1):
        used = np.abs(res.params.a[l - 1]) ** 2 * cas.incident_powers(l)
        assert np.all(used <= budget.p_relay[l - 1] * (1 + 1e-9))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), groups=st.lists(st.integers(1, 5), min_size=1,
                                                          max_size=4),
       n=st.integers(1, 4), direct=st.booleans(), cap_scale=st.floats(0.05, 5.0),
       maps=st.integers(1, 40))
def test_solve_iterates_feasible_and_trace_monotone(seed, groups, n, direct, cap_scale,
                                                    maps):
    rng = np.random.default_rng(seed)
    ch = random_channel_set(rng, n, n, groups, direct=direct)
    noise = NoiseModel(relay_noise_var=tuple(0.05 * rng.uniform(0.5, 1.5, len(groups))),
                       rx_noise_var=0.05)
    target = TargetLayer(w=cn(rng, (n, n), 1.0 / n), bias=np.zeros(n))
    budget = PowerBudget.uniform(groups, float(n), 2.0 * cap_scale)
    cfg = solver.SolverConfig(max_outer_iters=maps)
    assert_feasible_monotone(solve(ch, target, noise, budget, cfg), ch, noise, budget, cfg)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), groups=st.lists(st.integers(1, 5), min_size=1,
                                                          max_size=4),
       n=st.integers(1, 4), direct=st.booleans(), cap_scale=st.floats(0.05, 5.0),
       maps=st.integers(1, 40))
def test_solve_from_a_start(seed, groups, n, direct, cap_scale, maps):
    # from a random feasible start every iterate is feasible and the trace
    # does not rise; from a converged design of the same problem the AO has
    # next to nothing left to do
    rng = np.random.default_rng(seed)
    ch = random_channel_set(rng, n, n, groups, direct=direct)
    noise = NoiseModel(relay_noise_var=tuple(0.05 * rng.uniform(0.5, 1.5, len(groups))),
                       rx_noise_var=0.05)
    target = TargetLayer(w=cn(rng, (n, n), 1.0 / n), bias=np.zeros(n))
    budget = PowerBudget.uniform(groups, float(n), 2.0 * cap_scale)
    f1 = cn(rng, (n, n))
    f1 *= np.sqrt(rng.uniform(0.01, 1.0) * budget.p_max_bs / np.vdot(f1, f1).real)
    gains = Cascade(ch, [cn(rng, (k,)) for k in groups], f1, None, noise, budget.p_relay).a
    start = OtaParams(f1=f1, f2=cn(rng, (n, n)), a=gains)
    cfg = solver.SolverConfig(max_outer_iters=maps)
    warm = solve(ch, target, noise, budget, cfg, start=start)
    assert_feasible_monotone(warm, ch, noise, budget, cfg)

    cold = solve(ch, target, noise, budget)
    if cold.status == "converged":
        again = solve(ch, target, noise, budget, start=cold.params)
        # the start is the cold design itself: feasible, with F2 optimal
        assert again.objective_trace[0] <= cold.terminal_objective * (1 + 1e-12)
        assert again.terminal_objective <= again.objective_trace[0]
        # The stopping rule can stop on a slow stretch of the AO: on about one
        # problem in a thousand the maps from the cold result still lower the
        # objective by more than the tolerance, and then the warm AO goes on.
        tol = solver.SolverConfig().objective_tolerance
        assert (again.iterations <= 2
                or again.terminal_objective < cold.terminal_objective * (1 - tol))


def test_solve_projects_a_start_like_an_extrapolated_point():
    # a start outside the power ball and the relay caps is scaled into the
    # ball and fitted by a capped cascade, then F2 takes its closed form
    rng, ch, noise, target, budget, params = random_instance(19)
    f1 = 3.0 * np.sqrt(budget.p_max_bs) * params.f1 / np.linalg.norm(params.f1)
    start = OtaParams(f1=f1, f2=params.f2, a=tuple(10.0 * a for a in params.a))
    res = solve(ch, target, noise, budget, solver.SolverConfig(max_outer_iters=1),
                start=start)
    scaled = f1 * np.sqrt(budget.p_max_bs / np.vdot(f1, f1).real)
    cas = Cascade(ch, list(start.a), scaled, None, noise, budget.p_relay)
    cas = Cascade(ch, cas.a, scaled, update_f2(cas, target), noise, budget.p_relay)
    assert res.objective_trace[0] == objective(cas, target)
    assert any(got is not given for got, given in zip(cas.a, start.a))  # caps bind


def rectangular_instance():
    """n_tx=4, n_rx=2, in_dim=5, out_dim=3: no shape is another's transpose."""
    rng = np.random.default_rng(21)
    ch = random_channel_set(rng, 4, 2, (5, 6))
    noise = NoiseModel(relay_noise_var=(0.05, 0.05), rx_noise_var=0.05)
    target = TargetLayer(w=cn(rng, (3, 5), 0.2), bias=np.zeros(3))
    budget = PowerBudget.uniform((5, 6), 4.0, 1.0)
    start = OtaParams(f1=cn(rng, (4, 5)), f2=cn(rng, (3, 2)), a=(cn(rng, (5,)), cn(rng, (6,))))
    return ch, noise, target, budget, start


def _poisoned(arr, at, value):
    out = np.array(arr)
    out.flat[at] = value
    return out


@pytest.mark.parametrize("change,message", [
    (lambda s: dict(f1=s.f1.T), r"start F1 must have shape \(4, 5\), got \(5, 4\)"),
    (lambda s: dict(f1=s.f1[:, :4]), r"start F1 must have shape \(4, 5\)"),
    (lambda s: dict(f2=s.f2.T), r"start F2 must have shape \(3, 2\), got \(2, 3\)"),
    (lambda s: dict(a=s.a[:1]), "start gains: expected 2 gain vectors, got 1"),
    (lambda s: dict(a=s.a + s.a[:1]), "start gains: expected 2 gain vectors, got 3"),
    (lambda s: dict(a=(s.a[0], s.a[1][:5])), r"start gains: gain vector 1 must have shape \(6,\)"),
    (lambda s: dict(f1=_poisoned(s.f1, 3, np.nan)), "f1 entries must be finite numbers"),
    (lambda s: dict(f2=_poisoned(s.f2, 0, np.inf)), "f2 entries must be finite numbers"),
    (lambda s: dict(a=(s.a[0], _poisoned(s.a[1], 2, complex(0, np.nan)))),
     r"a\[1\] entries must be finite numbers"),
], ids=["f1-transposed", "f1-narrow", "f2-transposed", "one-gain-short", "one-gain-extra",
        "gain-length", "f1-nan", "f2-inf", "gain-nan"])
def test_solve_refuses_a_malformed_start_before_any_map(monkeypatch, change, message):
    ch, noise, target, budget, start = rectangular_instance()
    solve(ch, target, noise, budget, start=start)  # the well-formed start runs

    def never(*args, **kwargs):
        raise AssertionError("an AO block ran before the start was checked")
    for name in ("update_f1", "update_a", "update_f2", "objective"):
        monkeypatch.setattr(solver, name, never)
    fields = {"f1": start.f1, "f2": start.f2, "a": start.a, **change(start)}
    with pytest.raises(ValueError, match=message):
        solve(ch, target, noise, budget, start=OtaParams(**fields))


@pytest.mark.parametrize("direct", [False, True])
def test_solve_survives_a_poisoned_extrapolation(monkeypatch, direct):
    # a wild S3 step lands far outside any sensible design; the safeguard
    # must keep the trace monotone and the iterate feasible, not raise
    rng, ch, noise, target, budget, _ = random_instance(18, direct=direct)
    steps = []

    def alpha(r, v):
        steps.append(v)
        return -1e12

    monkeypatch.setattr(solver, "_s3_alpha", alpha)
    cfg = solver.SolverConfig(max_outer_iters=30, objective_tolerance=1e-12)
    res = solve(ch, target, noise, budget, cfg)
    assert steps
    assert_feasible_monotone(res, ch, noise, budget, cfg)


@pytest.mark.parametrize("direct", [False, True])
def test_solve_calls_each_block_through_the_module(monkeypatch, direct):
    # perfbench --trace 1 times the block updates by swapping these module
    # attributes, so solve must look them up there
    rng, ch, noise, target, budget, _ = random_instance(15, direct=direct)
    calls = dict.fromkeys(("update_f1", "update_a", "update_f2", "objective"), 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    res = solve(ch, target, noise, budget)
    assert all(calls.values()), calls
    assert calls["update_f1"] == res.iterations
    assert calls["update_f2"] == res.iterations + 1  # the F2 step too, not only the start


@pytest.mark.parametrize("direct", [False, True])
def test_solve_never_reprojects_an_incumbent_it_produced(monkeypatch, direct):
    # a gain a projection handed back, projected again against the same
    # limit, is handed back itself, so a candidate keeps the gain arrays it
    # was given and its move is scored from the gain quadratic; update_a
    # projects its own candidate only
    rng, ch, noise, target, budget, _ = random_instance(16, direct=direct)
    tight = PowerBudget(p_max_bs=budget.p_max_bs,
                        p_relay=tuple(0.2 * p for p in budget.p_relay))
    handed = []
    calls = {"update_a": 0, "active": 0, "inside": 0, "clipped": 0, "again": 0}

    def project(a, limit):
        out = project_gains(a, limit)
        if any(a is prev and limit is lim for prev, lim in handed):
            assert out is a
            calls["again"] += 1
        handed.append((out, limit))
        calls["inside"] += calls["active"]
        calls["clipped"] += out is not a
        return out

    def update_a(cas, *args):
        calls["update_a"] += 1
        calls["active"], before = 1, calls["inside"]
        result = real_update_a(cas, *args)
        calls["active"] = 0
        assert calls["inside"] == before + 1  # the candidate's projection
        return result

    real_update_a = solver.update_a
    monkeypatch.setattr(channel, "project_gains", project)
    monkeypatch.setattr(solver, "update_a", update_a)
    solve(ch, target, noise, tight)
    assert calls["update_a"] and calls["clipped"] and calls["again"]


def test_solve_rectangular_dimensions():
    # the stream dimension need not equal the antenna counts
    rng = np.random.default_rng(13)
    ch = random_channel_set(rng, 4, 3, (5, 6))  # n_tx=4, n_rx=3
    noise = NoiseModel(relay_noise_var=(0.05, 0.05), rx_noise_var=0.05)
    target = TargetLayer(w=cn(rng, (3, 5), 0.2), bias=np.zeros(3))
    budget = PowerBudget.uniform((5, 6), 4.0, 1.0)
    res = solve(ch, target, noise, budget)
    assert res.params.f1.shape == (4, 5)
    assert res.params.f2.shape == (3, 3)
    tr = res.objective_trace
    assert np.all(np.diff(tr) <= 1e-9 * tr[0])


@pytest.mark.parametrize("p_max,relay", [
    (float("inf"), 1.0), (float("nan"), 1.0), (0.0, 1.0),
    (1.0, float("inf")), (1.0, float("nan")), (1.0, -1.0)])
def test_power_budget_refuses_non_finite_or_non_positive_caps(p_max, relay):
    with pytest.raises(ValueError, match="positive and finite"):
        PowerBudget(p_max_bs=p_max, p_relay=(np.array([1.0, relay]),))


def test_solver_rejects_mismatched_budget():
    rng, ch, noise, target, budget, params = random_instance(12)
    bad = PowerBudget(p_max_bs=1.0, p_relay=(np.ones(5),))
    with pytest.raises(ValueError):
        solve(ch, target, noise, bad)
    # a budget with a group the channels lack must not score as overrun 0.0
    extra = PowerBudget.uniform((5, 4, 6, 3), 4.0, 2.0)
    with pytest.raises(ValueError, match="budget group count"):
        evaluate_true(params, ch, target, noise, extra)
    # a design whose gains do not fit the channel set is refused, not broadcast
    short = OtaParams(f1=params.f1, f2=params.f2, a=params.a[:-1])
    misshapen = OtaParams(f1=params.f1, f2=params.f2, a=params.a[:-1] + (np.ones(2),))
    for bad_design, message in ((short, "expected 3 gain vectors"),
                                (misshapen, r"gain vector 2 must have shape \(6,\)")):
        for call in (lambda: evaluate_true(bad_design, ch, target, noise, budget),
                     lambda: Cascade.of(ch, bad_design, noise)):
            with pytest.raises(ValueError, match=message):
                call()


@pytest.mark.parametrize("extra", [1, -1])
def test_solver_rejects_mismatched_noise_model(extra):
    # one variance too many would design against the wrong R, one too few
    # would index past the tuple
    rng, ch, noise, target, budget, params = random_instance(12)
    bad = NoiseModel(relay_noise_var=(0.05,) * (ch.num_groups + extra), rx_noise_var=0.05)
    for call in (lambda: solve(ch, target, bad, budget),
                 lambda: evaluate_true(params, ch, target, bad, budget),
                 lambda: noise_covariance(ch, params.a, bad)):
        with pytest.raises(ValueError, match="noise model group count"):
            call()
