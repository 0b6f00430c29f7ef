import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otafc import (ChannelSet, NoiseModel, PilotPlan, estimate_all,
                   estimate_hop, inject_error, make_pilots)
from otafc.utils import complex_normal

from test_channel import random_channel_set


def _plan(tau_min, rep=None, pilot_power=1.0):
    rep = rep or (1,) * len(tau_min)
    return PilotPlan(pilot_power=pilot_power, rep=rep, tau_min=tau_min)


# ---------------------------------------------------------------- pilots

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
    assert PilotPlan(pilot_power=np.inf, rep=(1,), tau_min=(4,)).pilot_power == np.inf
    plan = _plan((3, 5), rep=(2, 1))
    assert plan.tau == (6, 5)
    assert plan.tau_total == 11


# ---------------------------------------------------------------- LS paths

def test_noise_free_estimate_is_exact():
    rng = np.random.default_rng(0)
    h = complex_normal(rng, (5, 4))
    plan = _plan((4,))
    got = estimate_hop(h, plan, 0, 0.0, 1)
    assert np.max(np.abs(got - h)) <= 1e-12


def test_estimate_hop_rejects_short_pilots():
    rng = np.random.default_rng(1)
    h = complex_normal(rng, (5, 6))
    with pytest.raises(ValueError):
        estimate_hop(h, _plan((4,)), 0, 0.1, 1)


def test_scalar_single_use_error_scaling():
    # tau = 1: estimate is h + n / sqrt(p_p), error variance sigma^2 / p_p
    rng = np.random.default_rng(2)
    p_p, var = 4.0, 0.6
    h = complex_normal(rng, (100, 1))
    plan = _plan((1,), pilot_power=p_p)
    errs = []
    for trial in range(100):
        est = estimate_hop(h, plan, 0, var, 1000 + trial)
        errs.append((est - h).ravel())
    emp = np.var(np.concatenate(errs))  # 1e4 samples
    assert emp == pytest.approx(var / p_p, rel=0.05)


def test_error_variance_law_per_link_class():
    # variance sigma^2 / (p_p tau) for every (tau, power, noise) combination
    rng = np.random.default_rng(3)
    h = complex_normal(rng, (6, 4))
    for tau, p_p, var in [(4, 1.0, 0.5), (8, 2.0, 0.5), (12, 0.5, 1.5)]:
        plan = _plan((tau,), pilot_power=p_p)
        errs = []
        for trial in range(450):
            est = estimate_hop(h, plan, 0, var, 50_000 + trial)
            errs.append((est - h).ravel())
        pooled = np.concatenate(errs)  # 10800 samples
        emp = np.var(pooled)
        assert emp == pytest.approx(var / (p_p * tau), rel=0.05)
        # unbiasedness: |mean| within 4 standard errors, per component
        se = np.sqrt(var / (p_p * tau) / 2 / pooled.size)
        assert abs(pooled.real.mean()) <= 4 * se
        assert abs(pooled.imag.mean()) <= 4 * se


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_rx=st.integers(1, 6), m=st.integers(1, 12),
       kind=st.sampled_from(["square", "prime", "long"]),
       pilot_power=st.floats(0.1, 10.0), noise_var=st.floats(0.01, 1.0))
def test_estimate_hop_is_the_pilot_exchange(seed, n_rx, m, kind, pilot_power, noise_var):
    # the closed form equals Y Phi^* / (sqrt(p) tau), Y = sqrt(p) H Phi^T + N,
    # on the same draw of N, and leaves the generator where the exchange does
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.5, 1.5, (n_rx, m)) * np.exp(2j * np.pi * rng.random((n_rx, m)))
    tau = {"square": m, "prime": _prime_at_least(m), "long": 40 * m + 7}[kind]
    plan = _plan((tau,), pilot_power=pilot_power)
    got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = estimate_hop(h, plan, 0, noise_var, got_rng)
    phi = make_pilots(tau, m)
    y = np.sqrt(pilot_power) * (h @ phi.T) + complex_normal(want_rng, (n_rx, tau), noise_var)
    want = (y @ phi.conj()) / (np.sqrt(pilot_power) * tau)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(h))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # no draw at zero noise or at infinite pilot power: the estimate is h
    state = got_rng.bit_generator.state
    for quiet_plan, var in ((plan, 0.0), (_plan((tau,), pilot_power=np.inf), noise_var)):
        assert np.array_equal(estimate_hop(h, quiet_plan, 0, var, got_rng), h)
        assert got_rng.bit_generator.state == state


# ---------------------------------------------------------------- injection

def test_inject_error_zero_variance_copies():
    rng = np.random.default_rng(8)
    ch = random_channel_set(rng, 3, 3, (4,), direct=True)
    noise = NoiseModel(relay_noise_var=(0.5,), rx_noise_var=0.5)
    est = inject_error(ch, _plan((3, 4), pilot_power=np.inf), noise, 3)
    assert np.array_equal(est.h_hop[0], ch.h_hop[0])
    assert np.array_equal(est.h_last, ch.h_last)
    assert np.array_equal(est.h_direct, ch.h_direct)


def test_estimate_at_infinite_pilot_power_is_exact():
    # perfect training: the LS estimate is the channel itself, as with
    # inject_error, and the pilot exchange draws no noise
    got = estimate_hop(np.ones((2, 2), complex), _plan((2, 2), pilot_power=np.inf), 0, 1e-3, 1)
    assert np.array_equal(got, np.ones((2, 2)))
    rng = np.random.default_rng(8)
    ch = random_channel_set(rng, 3, 3, (4,), direct=True)
    noise = NoiseModel(relay_noise_var=(0.5,), rx_noise_var=0.5)
    plan = _plan((3, 4), pilot_power=np.inf)
    est = estimate_all(ch, plan, noise, 3)
    for got, want in zip([*est.h_hop, est.h_last, est.h_direct],
                         [*ch.h_hop, ch.h_last, ch.h_direct]):
        assert np.array_equal(got, want) and got is not want
    state = rng.bit_generator.state
    estimate_hop(ch.h_hop[0], plan, 0, 0.5, rng)
    assert rng.bit_generator.state == state


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
    from scipy.stats import ks_2samp
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
