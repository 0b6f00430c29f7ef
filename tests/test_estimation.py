import numpy as np
import pytest
from scipy.stats import ks_2samp

from otafc import NoiseModel, PilotPlan, estimate_all, estimation, inject_error
from otafc.utils import complex_normal

from test_channel import random_channel_set


def _plan(tau_min, rep=None, pilot_power=1.0):
    rep = rep or (1,) * len(tau_min)
    return PilotPlan(pilot_power=pilot_power, rep=rep, tau_min=tau_min)


# ---------------------------------------------------------------- pilots

def make_pilots(tau: int, m: int) -> np.ndarray:
    """Orthogonal tau x m pilot matrix with Phi^H Phi = tau * I: the truncated
    DFT columns estimation's closed form stands for, the explicit-pilot
    oracle of that closed form. Every entry has unit modulus, so each column
    carries energy tau."""
    if tau < m:
        raise ValueError(f"pilot length {tau} cannot support {m} orthogonal sequences")
    t = np.arange(tau)[:, None]
    k = np.arange(m)[None, :]
    return np.exp(-2j * np.pi * t * k / tau)


@pytest.mark.parametrize("tau,m", [(2, 2), (4, 2), (49, 49), (64, 40), (1008, 50)])
def test_pilot_orthogonality(tau, m):
    phi = make_pilots(tau, m)
    gram = phi.conj().T @ phi
    assert np.max(np.abs(gram - tau * np.eye(m))) <= 1e-10
    assert np.allclose(np.sum(np.abs(phi) ** 2, axis=0), tau)


def test_pilot_infeasible_length():
    with pytest.raises(ValueError):
        make_pilots(3, 4)


def test_plan_validation():
    with pytest.raises(ValueError, match="equal length"):
        PilotPlan(pilot_power=1.0, rep=(1, 1), tau_min=(4,))
    with pytest.raises(ValueError):
        PilotPlan(pilot_power=1.0, rep=(0,), tau_min=(4,))
    with pytest.raises(ValueError):
        PilotPlan(pilot_power=0.0, rep=(1,), tau_min=(4,))
    with pytest.raises(ValueError, match="pilot power"):
        PilotPlan(pilot_power=float("nan"), rep=(1,), tau_min=(4,))
    # perfect CSI is the estimator "perfect", not an infinite pilot power
    with pytest.raises(ValueError, match="pilot power must be positive and finite"):
        PilotPlan(pilot_power=np.inf, rep=(1,), tau_min=(4,))
    plan = _plan((3, 5), rep=(2, 1))
    assert plan.tau == (6, 5)
    assert plan.tau_total == 11


# ---------------------------------------------------------------- LS paths

def exchange_error(rng, h, tau, pilot_power, noise_var):
    """The LS error of one pilot exchange: Y Phi^* / (sqrt(p) tau) - H with
    Y = sqrt(p) H Phi^T + N, N i.i.d. CN(0, noise_var) on the tau slots and
    Phi the explicit pilots of make_pilots. The reference of the error law
    that estimate_all and inject_error draw directly."""
    phi = make_pilots(tau, h.shape[1])
    y = np.sqrt(pilot_power) * (h @ phi.T) + complex_normal(rng, (h.shape[0], tau), noise_var)
    return (y @ phi.conj()) / (np.sqrt(pilot_power) * tau) - h


def test_noise_free_estimate_is_exact():
    # without noise the exchange returns H; estimate_all at a noise far
    # below H's last bit returns H bit for bit
    rng = np.random.default_rng(0)
    h = complex_normal(rng, (5, 4))
    assert np.max(np.abs(exchange_error(rng, h, 4, 1.0, 0.0))) <= 1e-12
    ch = random_channel_set(rng, 4, 3, (5,), direct=True)
    est = estimate_all(ch, _plan((4, 5)), NoiseModel((1e-300,), 1e-300), 1)
    for got, want in zip([est.h_direct, *est.chain], [ch.h_direct, *ch.chain]):
        assert np.array_equal(got, want)


SHORT_PILOTS = {  # BS of 4 antennas: groups, plan, refusal
    "bs": ((5, 5), _plan((3, 5, 5)), "phase 0: pilot length 3 shorter than 4 transmitters"),
    "relay": ((5, 5), _plan((4, 4, 5)), "phase 1: pilot length 4 shorter than 5 transmitters"),
    "last": ((5, 5), _plan((4, 5, 2)), "phase 2: pilot length 2 shorter than 5 transmitters"),
    "both": ((5,), PilotPlan(1.0, (1, 1), (2, 2)),
             "phase 0: pilot length 2 shorter than 4 transmitters"),
}


@pytest.mark.parametrize("estimator", [estimate_all, inject_error])
@pytest.mark.parametrize("kind", SHORT_PILOTS)
@pytest.mark.parametrize("direct", [False, True])
def test_estimators_reject_short_pilots(monkeypatch, estimator, kind, direct):
    # a phase shorter than its transmitters has no orthogonal pilots, so no
    # estimate: refused before any draw, the direct link's phase 0 included
    groups, plan, message = SHORT_PILOTS[kind]
    ch = random_channel_set(np.random.default_rng(1), 4, 3, groups, direct=direct)
    noise = NoiseModel(relay_noise_var=(0.1,) * len(groups), rx_noise_var=0.1)
    draws = []
    monkeypatch.setattr(estimation, "complex_normal", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match=message):
        estimator(ch, plan, noise, 1)
    assert draws == []


def test_scalar_single_use_error_scaling():
    # tau = 1: estimate is h + n / sqrt(p_p), error variance sigma^2 / p_p
    rng = np.random.default_rng(2)
    p_p, var = 4.0, 0.6
    ch = random_channel_set(rng, 1, 100, (1,))
    noise = NoiseModel(relay_noise_var=(0.3,), rx_noise_var=var)
    plan = _plan((1, 1), pilot_power=p_p)
    errs = [(estimate_all(ch, plan, noise, 1000 + trial).h_last - ch.h_last).ravel()
            for trial in range(100)]
    emp = np.var(np.concatenate(errs))  # 1e4 samples
    assert emp == pytest.approx(var / p_p, rel=0.05)


def test_error_variance_law_per_link_class():
    # variance sigma^2 / (p_p tau) and no bias on the BS hop, the direct
    # link (heard in the BS phase at the receiver's noise), a relay hop and
    # the last hop, each at its own tau, power and noise
    rng = np.random.default_rng(3)
    ch = random_channel_set(rng, 4, 6, (5, 6), direct=True)
    noise = NoiseModel(relay_noise_var=(0.5, 1.5), rx_noise_var=0.8)
    plan = _plan((4, 5, 6), rep=(2, 1, 3), pilot_power=2.0)
    links = {"bs": (lambda c: c.h_hop[0], 0, 0.5), "direct": (lambda c: c.h_direct, 0, 0.8),
             "relay": (lambda c: c.h_hop[1], 1, 1.5), "last": (lambda c: c.h_last, 2, 0.8)}
    errs = {name: [] for name in links}
    for trial in range(450):
        est = estimate_all(ch, plan, noise, 50_000 + trial)
        for name, (link, _, _) in links.items():
            errs[name].append((link(est) - link(ch)).ravel())
    for name, (_, phase, var) in links.items():
        pooled = np.concatenate(errs[name])  # 9000 to 16200 samples
        want = var / (plan.pilot_power * plan.tau[phase])
        assert np.var(pooled) == pytest.approx(want, rel=0.05), name
        # unbiasedness: |mean| within 4 standard errors, per component
        se = np.sqrt(want / 2 / pooled.size)
        assert abs(pooled.real.mean()) <= 4 * se, name
        assert abs(pooled.imag.mean()) <= 4 * se, name


def test_estimate_all_shapes_and_determinism():
    rng = np.random.default_rng(4)
    ch = random_channel_set(rng, 4, 3, (5, 6), direct=True)
    noise = NoiseModel(relay_noise_var=(0.2, 0.3), rx_noise_var=0.4)
    plan = _plan((4, 5, 6))
    e1 = estimate_all(ch, plan, noise, 77)
    e2 = estimate_all(ch, plan, noise, 77)
    assert [h.shape for h in e1.h_hop] == [h.shape for h in ch.h_hop]
    assert np.array_equal(e1.h_last, e2.h_last)
    assert np.array_equal(e1.h_direct, e2.h_direct)
    assert np.any(e1.h_direct != ch.h_direct)  # direct link went through a phase
    e3 = estimate_all(ch, plan, noise, 78)
    assert not np.array_equal(e1.h_hop[0], e3.h_hop[0])


def test_estimate_all_blocked_direct_stays_zero():
    rng = np.random.default_rng(5)
    ch = random_channel_set(rng, 4, 3, (5,), direct=False)
    noise = NoiseModel(relay_noise_var=(0.2,), rx_noise_var=0.4)
    est = estimate_all(ch, _plan((4, 5)), noise, 0)
    assert np.all(est.h_direct == 0)


def test_high_pilot_power_limit():
    rng = np.random.default_rng(6)
    ch = random_channel_set(rng, 3, 3, (4, 4))
    noise = NoiseModel(relay_noise_var=(0.5, 0.5), rx_noise_var=0.5)
    est = estimate_all(ch, _plan((3, 4, 4), pilot_power=1e12), noise, 1)
    for got, want in zip([*est.h_hop, est.h_last], [*ch.h_hop, ch.h_last]):
        assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)


def test_estimate_all_nmse_follows_pilot_energy():
    # per-hop NMSE ~ sigma^2 / (p_p tau E|h|^2) with E|h|^2 = 1 here
    rng = np.random.default_rng(7)
    ch = random_channel_set(rng, 6, 6, (8, 8, 8))
    noise = NoiseModel(relay_noise_var=(0.4, 0.4, 0.4), rx_noise_var=0.4)
    plan = _plan((6, 8, 8, 8), rep=(2, 1, 3, 1))
    sq_errs = np.zeros(4)
    trials = 1000
    for t in range(trials):
        est = estimate_all(ch, plan, noise, 10_000 + t)
        for i, (got, want) in enumerate(zip([*est.h_hop, est.h_last],
                                            [*ch.h_hop, ch.h_last])):
            sq_errs[i] += np.mean(np.abs(got - want) ** 2)
    sq_errs /= trials
    for i in range(4):
        want = 0.4 / (plan.pilot_power * plan.tau[i])
        assert sq_errs[i] == pytest.approx(want, rel=0.10)


def _prime_at_least(n):
    n = max(n, 2)
    while any(n % d == 0 for d in range(2, int(n ** 0.5) + 1)):
        n += 1
    return n


@pytest.mark.parametrize("estimator", [estimate_all, inject_error])
@pytest.mark.parametrize("kind", ["square", "prime", "long"])
def test_ls_error_law_is_the_pilot_exchange(estimator, kind):
    # the errors both estimators draw follow the law of the explicit pilot
    # exchange's: two-sample KS on the real and imaginary parts, 1% level,
    # at a pilot as long as its transmitters, of prime length and much longer
    rng = np.random.default_rng({"square": 40, "prime": 41, "long": 42}[kind])
    m, p_p, var = 3, 2.5, 0.7
    tau = {"square": m, "prime": _prime_at_least(m + 2), "long": 40 * m + 7}[kind]
    ch = random_channel_set(rng, m, 2, (4,))
    noise = NoiseModel(relay_noise_var=(var,), rx_noise_var=0.2)
    plan = _plan((tau, 4), pilot_power=p_p)
    drawn = [(estimator(ch, plan, noise, 70_000 + t).h_hop[0] - ch.h_hop[0]).ravel()
             for t in range(300)]
    exchanged = [exchange_error(rng, ch.h_hop[0], tau, p_p, var).ravel() for _ in range(300)]
    drawn, exchanged = np.concatenate(drawn), np.concatenate(exchanged)  # 3600 samples each
    for part in (np.real, np.imag):
        assert ks_2samp(part(drawn), part(exchanged)).pvalue > 0.01


# ---------------------------------------------------------------- streams

def _errors(est, ch):
    """Every link's estimation error, in _per_phase's draw order."""
    return np.concatenate([(e - h).ravel() for e, h in zip(
        [est.h_hop[0], est.h_direct, *est.chain[1:]], [ch.h_hop[0], ch.h_direct, *ch.chain[1:]])])


def _stream_world():
    ch = random_channel_set(np.random.default_rng(12), 3, 3, (4, 4), direct=True)
    noise = NoiseModel(relay_noise_var=(0.3, 0.6), rx_noise_var=0.9)
    return ch, noise, _plan((3, 4, 4), rep=(1, 1, 2)), _plan((3, 4, 4), rep=(1, 3, 2))


def test_estimate_all_gives_one_estimate_per_seed_and_plan():
    ch, noise, plan, _ = _stream_world()
    child = np.random.SeedSequence(5).spawn(2)[1]
    child.pool.flags.writeable = False  # as Scenario.draw keeps its estimation seed
    pool = child.pool.tobytes()
    for seed, same in [(5, np.random.SeedSequence(5)), (child, child)]:
        want = _errors(estimate_all(ch, plan, noise, seed), ch).tobytes()
        assert _errors(estimate_all(ch, plan, noise, seed), ch).tobytes() == want
        assert _errors(estimate_all(ch, plan, noise, same), ch).tobytes() == want
    # the seed is read, not spawned from
    assert child.n_children_spawned == 0 and child.pool.tobytes() == pool
    assert not np.array_equal(_errors(estimate_all(ch, plan, noise, 5), ch),
                              _errors(estimate_all(ch, plan, noise, child), ch))


def _correlation(a, b):
    """Mean of a * conj(b) over the draws, both scaled to unit variance, and
    its standard error per component for independent a and b."""
    a, b = a / np.sqrt(np.mean(np.abs(a) ** 2)), b / np.sqrt(np.mean(np.abs(b) ** 2))
    return np.mean(a * b.conj()), np.sqrt(0.5 / a.size)


def test_plans_of_one_seed_draw_independent_ls_errors():
    # a plan whose tau differs in one phase gets an independent draw, on the
    # phases of equal length too; inject_error reuses the seed's one draw
    ch, noise, plan_a, plan_b = _stream_world()
    for estimator, want in [(estimate_all, 0.0), (inject_error, 1.0)]:
        pairs = [(_errors(estimator(ch, plan_a, noise, s), ch),
                  _errors(estimator(ch, plan_b, noise, s), ch)) for s in range(300)]
        # by phase, in draw order: hop 1 (12 entries) with the direct link
        # (9), hop 2 (16; the phase whose tau differs), the last hop (12)
        for sl in (slice(0, 21), slice(21, 37), slice(37, 49)):
            a, b = (np.concatenate([p[i][sl] for p in pairs]) for i in (0, 1))
            corr, se = _correlation(a, b)
            assert abs(corr.real - want) <= 4 * se and abs(corr.imag) <= 4 * se


def test_inject_error_scales_one_draw_across_plans():
    # the behaviour the warm-started AO of a chain of budgets sees under
    # inject: the error of phase l under plan b is plan a's times
    # sqrt(tau_a[l] / tau_b[l]), from the same seed
    ch, noise, plan_a, plan_b = _stream_world()
    got_a, got_b = (inject_error(ch, p, noise, 9) for p in (plan_a, plan_b))
    links = [(l, e_a - h, e_b - h) for l, (e_a, e_b, h)
             in enumerate(zip(got_a.chain, got_b.chain, ch.chain))]
    links.append((0, got_a.h_direct - ch.h_direct, got_b.h_direct - ch.h_direct))
    for phase, err_a, err_b in links:
        scale = np.sqrt(plan_a.tau[phase] / plan_b.tau[phase])
        assert np.allclose(err_b, err_a * scale, rtol=0, atol=1e-12)
        assert np.any(err_a != 0)


# ---------------------------------------------------------------- injection

def test_inject_error_variance_by_construction():
    rng = np.random.default_rng(9)
    ch = random_channel_set(rng, 4, 4, (6, 6))
    noise = NoiseModel(relay_noise_var=(0.3, 0.7), rx_noise_var=0.9)
    plan = _plan((4, 6, 6), pilot_power=2.0)
    errs = [[], [], []]
    for t in range(600):
        est = inject_error(ch, plan, noise, 20_000 + t)
        for i, (got, want) in enumerate(zip([*est.h_hop, est.h_last],
                                            [*ch.h_hop, ch.h_last])):
            errs[i].append((got - want).ravel())
    for i, var in enumerate([0.3, 0.7, 0.9]):
        emp = np.var(np.concatenate(errs[i]))
        assert emp == pytest.approx(var / (2.0 * plan.tau[i]), rel=0.05)


def test_inject_matches_estimate_distribution():
    # two-sample KS on the real part of the errors, 1% level
    rng = np.random.default_rng(10)
    ch = random_channel_set(rng, 4, 4, (5, 5))
    noise = NoiseModel(relay_noise_var=(0.5, 0.5), rx_noise_var=0.5)
    plan = _plan((4, 5, 5))
    a_err, b_err = [], []
    for t in range(250):
        ea = estimate_all(ch, plan, noise, 30_000 + t)
        eb = inject_error(ch, plan, noise, 60_000 + t)
        a_err.append((ea.h_hop[1] - ch.h_hop[1]).ravel().real)
        b_err.append((eb.h_hop[1] - ch.h_hop[1]).ravel().real)
    stat = ks_2samp(np.concatenate(a_err), np.concatenate(b_err))
    assert stat.pvalue > 0.01


def test_distinct_sequences_needed_equals_dictionary_size():
    # every TDMA phase needs as many orthogonal sequences as it has
    # transmitters; the run-wide requirement is the max of those
    from otafc import Topology, pilot_dictionary_size
    top = Topology(n_tx=49, n_rx=49, n_stream=49, num_groups=3,
                   group_sizes=(40, 40, 40))
    plan = _plan((49, 40, 40, 40), rep=(2, 1, 3, 1))
    per_phase = []
    for phase, cols in enumerate((49, 40, 40, 40)):
        phi = make_pilots(plan.tau[phase], cols)
        per_phase.append(phi.shape[1])
    assert max(per_phase) == pilot_dictionary_size(top) == 49


def test_phase_count_mismatch_rejected():
    rng = np.random.default_rng(11)
    ch = random_channel_set(rng, 3, 3, (4, 4))
    noise = NoiseModel(relay_noise_var=(0.5, 0.5), rx_noise_var=0.5)
    with pytest.raises(ValueError):
        estimate_all(ch, _plan((3, 4)), noise, 0)
    with pytest.raises(ValueError):
        inject_error(ch, _plan((3, 4)), noise, 0)


@pytest.mark.parametrize("estimator", [estimate_all, inject_error])
@pytest.mark.parametrize("groups", [1, 3])
def test_estimators_refuse_a_noise_model_for_another_group_count(estimator, groups):
    # three relay variances on two groups would estimate the last hop at the
    # third relay's variance, not the receiver's; one would index past it
    ch = random_channel_set(np.random.default_rng(11), 3, 3, (4, 4))
    noise = NoiseModel(relay_noise_var=(5.0,) * groups, rx_noise_var=1e-12)
    with pytest.raises(ValueError, match="noise model group count must match the channel set"):
        estimator(ch, _plan((3, 4, 4)), noise, 0)
