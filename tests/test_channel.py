import dataclasses

import numpy as np
import pytest

from otafc import (Cascade, ChannelSet, NoiseModel, PathlossParams, Topology,
                   default_noise_model, draw_channels, generate_placement,
                   hop_statistics, linear_gain, noise_power_watts, pathloss_db)
from otafc.channel import HopStatistics, check_gains
from otafc.utils import complex_normal, hermitize

PL28 = PathlossParams(carrier_ghz=28.0)


def cn(rng, shape, var=1.0):
    return complex_normal(rng, shape, var)


def random_channel_set(rng, n_tx, n_rx, group_sizes, direct=False, scale=1.0):
    """Synthetic O(1)-scale channel set, handy for algebra tests."""
    ks = list(group_sizes)
    hops = [cn(rng, (ks[0], n_tx), scale)]
    for l in range(len(ks) - 1):
        hops.append(cn(rng, (ks[l + 1], ks[l]), scale))
    h_last = cn(rng, (n_rx, ks[-1]), scale)
    h_direct = cn(rng, (n_rx, n_tx), scale) if direct \
        else np.zeros((n_rx, n_tx), dtype=complex)
    return ChannelSet(h_direct=h_direct, h_hop=tuple(hops), h_last=h_last)


def effective_channel(ch, gains):
    """H_direct + H_last A_L H_L ... A_1 H_1: the cascade's b for F1 = I,
    which reads no noise variance."""
    unit = NoiseModel((1.0,) * ch.num_groups, 1.0)
    return Cascade(ch, gains, np.eye(ch.n_tx, dtype=complex), None, unit).b


def noise_covariance(ch, gains, noise):
    """Receiver noise covariance R, the cascade's last stage noise (F1 plays no part)."""
    no_signal = np.zeros((ch.n_tx, 0), dtype=complex)
    return hermitize(Cascade(ch, gains, no_signal, None, noise).stage_noise(ch.num_groups + 1))


def transfer_matrix(ch, gains, j):
    """Naive O(L^2) oracle for the map from group j's input noise to the
    receiver front end (1-based j): T_j = H_last A_L H_L ... H_{j+1} A_j."""
    check_gains(ch, gains)
    if not 1 <= j <= ch.num_groups:
        raise ValueError(f"hop index {j} out of range 1..{ch.num_groups}")
    m = np.diag(np.asarray(gains[j - 1], dtype=complex))
    for l in range(j, ch.num_groups):
        m = ch.h_hop[l] @ m
        m = np.asarray(gains[l])[:, None] * m
    return ch.h_last @ m


# ---------------------------------------------------------------- pathloss

def test_pathloss_reference_values():
    # direct evaluation of the NLoS curve: 35.3 log10(d) + 22.4 + 21.3 log10(28)
    assert pathloss_db(100.0, PL28) == pytest.approx(123.824466, abs=1e-4)
    assert pathloss_db(1.0, PL28) == pytest.approx(53.224466, abs=1e-4)


def test_pathloss_doubling_rule():
    step = 35.3 * np.log10(2.0)
    for fc in (2.0, 28.0):
        params = PathlossParams(carrier_ghz=fc)
        for d in (5.0, 80.0, 300.0):
            got = pathloss_db(2 * d, params) - pathloss_db(d, params)
            assert got == pytest.approx(step, abs=1e-9)


def test_pathloss_clamps_below_one_meter():
    assert pathloss_db(0.25, PL28) == pathloss_db(1.0, PL28)


def test_pathloss_model_selector():
    los = PathlossParams(model="los")
    mixed = PathlossParams(model="mixed")
    for d in (10.0, 60.0, 150.0):
        g_nlos = linear_gain(d, PL28)
        g_los = linear_gain(d, los)
        g_mix = linear_gain(d, mixed)
        assert g_los > g_nlos  # LoS curve is milder
        assert min(g_nlos, g_los) <= g_mix <= max(g_nlos, g_los)
    with pytest.raises(ValueError):
        PathlossParams(model="urban")


def test_noise_power_default():
    # -174 dBm/Hz over 300 MHz -> about -89.23 dBm
    assert noise_power_watts() == pytest.approx(1.1943e-12, rel=1e-3)


# ---------------------------------------------------------------- draws

def _equidistant_placement(d, n_tx, n_rx, group_sizes):
    """All relays of each group at one point: every link distance is known."""
    top = Topology(n_tx=n_tx, n_rx=n_rx, n_stream=n_tx,
                   num_groups=len(group_sizes), group_sizes=group_sizes,
                   direct_link_present=True, area_width=d * (len(group_sizes) + 1),
                   area_depth=1.0)
    place = generate_placement(top, 0)
    # overwrite coordinates: groups on a straight line, spacing d, same height
    from otafc.topology import Placement
    bs = np.array([0.0, 0.0, 0.0])
    rels = tuple(np.tile([d * (l + 1), 0.0, 0.0], (k, 1))
                 for l, k in enumerate(group_sizes))
    rx = np.array([d * (len(group_sizes) + 1), 0.0, 0.0])
    return Placement(topology=top, bs_position=bs, rx_position=rx,
                     relay_positions=rels)


def test_draw_channels_shapes_and_determinism():
    top = Topology(n_tx=4, n_rx=3, n_stream=3, num_groups=2, group_sizes=(5, 6))
    place = generate_placement(top, 1)
    ch1 = draw_channels(place, PL28, 9)
    ch2 = draw_channels(place, PL28, 9)
    assert [h.shape for h in ch1.h_hop] == [(5, 4), (6, 5)]
    assert ch1.h_last.shape == (3, 6)
    assert ch1.h_direct.shape == (3, 4)
    assert np.array_equal(ch1.h_hop[1], ch2.h_hop[1])
    assert np.array_equal(ch1.h_last, ch2.h_last)


def test_blocked_direct_link_is_exactly_zero():
    top = Topology(n_tx=4, n_rx=4, n_stream=4, num_groups=1, group_sizes=(3,),
                   direct_link_present=False)
    ch = draw_channels(generate_placement(top, 0), PL28, 0)
    assert np.all(ch.h_direct == 0)


def test_rich_scattering_second_moment():
    # equal distances: per-entry E|h|^2 must equal the common linear gain
    place = _equidistant_placement(50.0, 2, 2, (150, 150))
    g = float(linear_gain(50.0, PL28))
    ch = draw_channels(place, PL28, 3)
    emp = np.mean(np.abs(ch.h_hop[1]) ** 2)  # 150x150 = 22500 entries
    assert emp == pytest.approx(g, rel=0.05)


def test_ricean_direct_moment():
    # kappa = 0 dB: per-entry power still equals the linear gain; 1e5 entries
    place = _equidistant_placement(40.0, 100, 100, (1,))
    d0 = float(np.linalg.norm(place.rx_position - place.bs_position))
    g = float(linear_gain(d0, PL28))
    rng = np.random.default_rng(11)
    samples = []
    for _ in range(10):
        ch = draw_channels(place, PL28, rng)
        samples.append(np.abs(ch.h_direct) ** 2)
    emp = np.mean(samples)
    assert emp == pytest.approx(g, rel=0.02)


# ---------------------------------------------------------------- algebra

def test_effective_channel_identity_chain():
    ch = ChannelSet(h_direct=np.zeros((2, 2), dtype=complex),
                    h_hop=(np.eye(2, dtype=complex),),
                    h_last=np.eye(2, dtype=complex))
    heff = effective_channel(ch, [np.ones(2, dtype=complex)])
    assert np.allclose(heff, np.eye(2), atol=1e-15)


def test_effective_channel_zero_gains_leave_direct():
    rng = np.random.default_rng(0)
    ch = random_channel_set(rng, 3, 3, (4, 4), direct=True)
    gains = [np.zeros(4, dtype=complex)] * 2
    assert np.allclose(effective_channel(ch, gains), ch.h_direct, atol=1e-15)


def test_effective_channel_matches_naive_chain():
    rng = np.random.default_rng(5)
    ch = random_channel_set(rng, 2, 2, (2, 2), direct=True)
    gains = [cn(rng, (2,)), cn(rng, (2,))]
    # independent naive evaluation with explicit diagonal matrices
    a1 = np.diag(gains[0])
    a2 = np.diag(gains[1])
    want = ch.h_direct + ch.h_last @ a2 @ ch.h_hop[1] @ a1 @ ch.h_hop[0]
    got = effective_channel(ch, gains)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_effective_channel_linear_in_each_gain_vector():
    rng = np.random.default_rng(6)
    ch = random_channel_set(rng, 3, 3, (4, 5, 3))
    gains = [cn(rng, (4,)), cn(rng, (5,)), cn(rng, (3,))]
    base = effective_channel(ch, gains) - ch.h_direct
    for l in range(3):
        scaled = list(gains)
        scaled[l] = 2.5 * gains[l]
        got = effective_channel(ch, scaled) - ch.h_direct
        assert np.allclose(got, 2.5 * base, rtol=1e-12)


def test_transfer_matrix_base_and_zero_cases():
    rng = np.random.default_rng(7)
    ch = random_channel_set(rng, 3, 4, (4, 5))
    gains = [cn(rng, (4,)), cn(rng, (5,))]
    t2 = transfer_matrix(ch, gains, 2)
    assert np.allclose(t2, ch.h_last @ np.diag(gains[1]), atol=1e-14)
    gains0 = [np.zeros(4, dtype=complex), gains[1]]
    assert np.all(transfer_matrix(ch, gains0, 1) == 0)
    with pytest.raises(ValueError):
        transfer_matrix(ch, gains, 3)


def test_transfer_matrix_chain_identities():
    rng = np.random.default_rng(8)
    ch = random_channel_set(rng, 3, 3, (4, 4, 4), direct=True)
    gains = [cn(rng, (4,)) for _ in range(3)]
    heff = effective_channel(ch, gains)
    t1 = transfer_matrix(ch, gains, 1)
    resid = t1 @ ch.h_hop[0] - (heff - ch.h_direct)
    assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(heff - ch.h_direct)
    for j in (1, 2):
        tj = transfer_matrix(ch, gains, j)
        tj1 = transfer_matrix(ch, gains, j + 1)
        want = tj1 @ ch.h_hop[j] @ np.diag(gains[j - 1])
        assert np.allclose(tj, want, rtol=1e-12, atol=1e-15)


def test_noise_covariance_zero_gains():
    rng = np.random.default_rng(9)
    ch = random_channel_set(rng, 3, 3, (4, 4))
    noise = NoiseModel(relay_noise_var=(0.5, 0.25), rx_noise_var=2.0)
    r = noise_covariance(ch, [np.zeros(4, dtype=complex)] * 2, noise)
    assert np.array_equal(r, 2.0 * np.eye(3))


def test_noise_covariance_scalar_chain():
    g, a, su, sc = 0.7 - 0.2j, 1.5 + 0.5j, 0.3, 0.8
    ch = ChannelSet(h_direct=np.zeros((1, 1), dtype=complex),
                    h_hop=(np.array([[1.0 + 0j]]),),
                    h_last=np.array([[g]]))
    noise = NoiseModel(relay_noise_var=(su,), rx_noise_var=sc)
    r = noise_covariance(ch, [np.array([a])], noise)
    want = sc + abs(g) ** 2 * abs(a) ** 2 * su
    assert r[0, 0].real == pytest.approx(want, rel=1e-12)


def test_noise_covariance_hermitian_psd():
    rng = np.random.default_rng(10)
    ch = random_channel_set(rng, 4, 4, (5, 6, 4))
    noise = NoiseModel(relay_noise_var=(0.1, 0.4, 0.2), rx_noise_var=0.9)
    gains = [cn(rng, (5,)), cn(rng, (6,)), cn(rng, (4,))]
    r = noise_covariance(ch, gains, noise)
    assert np.linalg.norm(r - r.conj().T) <= 1e-12 * np.linalg.norm(r)
    eig = np.linalg.eigvalsh(r)
    assert eig.min() >= -1e-10 * np.trace(r).real


def test_noise_covariance_monte_carlo_propagation():
    # simulate the physical noise path and compare the empirical covariance
    rng = np.random.default_rng(12)
    ch = random_channel_set(rng, 2, 3, (3, 2))
    noise = NoiseModel(relay_noise_var=(0.5, 0.3), rx_noise_var=0.2)
    gains = [cn(rng, (3,)), cn(rng, (2,))]
    r = noise_covariance(ch, gains, noise)

    trials = 100_000
    sim = np.random.default_rng(13)
    n1 = complex_normal(sim, (3, trials), noise.relay_noise_var[0])
    v = gains[0][:, None] * n1
    v = ch.h_hop[1] @ v
    v = v + complex_normal(sim, (2, trials), noise.relay_noise_var[1])
    v = gains[1][:, None] * v
    v = ch.h_last @ v
    v = v + complex_normal(sim, (3, trials), noise.rx_noise_var)
    emp = (v @ v.conj().T) / trials
    se = np.sqrt(np.outer(np.diag(r).real, np.diag(r).real) / trials)
    assert np.all(np.abs(emp - r) <= 3.0 * se + 1e-12)


def test_relay_input_power_unit_row():
    ch = ChannelSet(h_direct=np.zeros((2, 2), dtype=complex),
                    h_hop=(np.array([[1.0 + 0j, 0.0], [0.3, 0.4]]),),
                    h_last=np.eye(2, dtype=complex))
    noise = NoiseModel(relay_noise_var=(0.25,), rx_noise_var=1.0)
    f1 = np.eye(2, dtype=complex)
    got = Cascade(ch, [np.ones(2, dtype=complex)], f1, None, noise).incident_powers(1)[0]
    assert got == pytest.approx(1.0 + 0.25, rel=1e-12)


def test_relay_input_power_zero_upstream_gains():
    rng = np.random.default_rng(14)
    ch = random_channel_set(rng, 3, 3, (4, 5))
    noise = NoiseModel(relay_noise_var=(0.1, 0.7), rx_noise_var=1.0)
    gains = [np.zeros(4, dtype=complex), cn(rng, (5,))]
    p = Cascade(ch, gains, np.eye(3, dtype=complex), None, noise).incident_powers(2)
    assert np.allclose(p, 0.7)


def test_relay_input_power_matches_simulated_variance():
    rng = np.random.default_rng(15)
    ch = random_channel_set(rng, 3, 3, (4, 3))
    noise = NoiseModel(relay_noise_var=(0.2, 0.45), rx_noise_var=1.0)
    gains = [cn(rng, (4,)), cn(rng, (3,))]
    f1 = cn(rng, (3, 3))
    want = Cascade(ch, gains, f1, None, noise).incident_powers(2)

    trials = 100_000
    sim = np.random.default_rng(16)
    x = complex_normal(sim, (3, trials))
    v = ch.h_hop[1] @ (gains[0][:, None] * (ch.h_hop[0] @ (f1 @ x)))
    v = v + complex_normal(sim, (3, trials), noise.relay_noise_var[1])
    emp = np.mean(np.abs(v) ** 2, axis=1)
    se = want / np.sqrt(trials)
    assert np.all(np.abs(emp - want) <= 3.0 * se)


def test_relay_input_power_index_errors():
    rng = np.random.default_rng(17)
    ch = random_channel_set(rng, 2, 2, (3,))
    noise = NoiseModel(relay_noise_var=(0.1,), rx_noise_var=0.1)
    f1 = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        Cascade(ch, [np.ones(3)], f1, None, noise).incident_powers(2)


# ---------------------------------------------------------------- hop stats

def test_hop_statistics_equal_distances():
    place = _equidistant_placement(30.0, 2, 2, (4, 4))
    stats = hop_statistics(place, PL28)
    g = float(linear_gain(30.0, PL28))
    assert stats.beta[0] == pytest.approx(g, rel=1e-12)
    assert stats.beta[1] == pytest.approx(g, rel=1e-12)
    assert stats.beta[2] == pytest.approx(g, rel=1e-12)


def test_hop_statistics_monotone_in_distance():
    g1 = hop_statistics(_equidistant_placement(30.0, 2, 2, (4,)), PL28).beta
    g2 = hop_statistics(_equidistant_placement(60.0, 2, 2, (4,)), PL28).beta
    assert np.all(g2 < g1)


def test_hop_statistics_matches_per_link_recompute():
    top = Topology(n_tx=3, n_rx=3, n_stream=3, num_groups=3,
                   group_sizes=(4, 5, 6), area_width=200.0, area_depth=200.0)
    place = generate_placement(top, 21)
    stats = hop_statistics(place, PL28)
    # independent per-link loop
    def gain(p, q):
        return float(linear_gain(np.linalg.norm(p - q), PL28))
    b0 = np.mean([gain(p, place.bs_position) for p in place.relay_positions[0]])
    b1 = np.mean([gain(p, q) for p in place.relay_positions[0]
                  for q in place.relay_positions[1]])
    b3 = np.mean([gain(p, place.rx_position) for p in place.relay_positions[2]])
    assert stats.beta[0] == pytest.approx(b0, rel=1e-12)
    assert stats.beta[1] == pytest.approx(b1, rel=1e-12)
    assert stats.beta[3] == pytest.approx(b3, rel=1e-12)


def test_hop_gains_depend_only_on_placement_and_pathloss():
    # draw_channels and hop_statistics read the placement's read-only
    # positions and keep nothing on it, so a placement used under other
    # pathloss parameters gives the bits of a fresh one
    top = Topology(n_tx=3, n_rx=3, n_stream=3, num_groups=2, group_sizes=(4, 5))
    place = generate_placement(top, 3)
    want = (draw_channels(generate_placement(top, 3), PL28, 9),
            hop_statistics(generate_placement(top, 3), PL28))
    los = PathlossParams(carrier_ghz=28.0, model="los")
    assert not np.array_equal(hop_statistics(place, los).beta, want[1].beta)
    ch, stats = draw_channels(place, PL28, 9), hop_statistics(place, PL28)
    assert all(np.array_equal(x, y) for x, y in zip(ch.chain, want[0].chain))
    assert np.array_equal(stats.beta, want[1].beta)
    assert vars(place).keys() == {f.name for f in dataclasses.fields(place)}
    with pytest.raises(ValueError, match="read-only"):
        place.relay_positions[0][0, 0] = 1.0


@pytest.mark.parametrize("bad", [0.0, -1e-12, np.nan, np.inf])
def test_hop_statistics_refuse_a_gain_that_is_not_positive_and_finite(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        HopStatistics(beta=[bad, 1.0])


def test_complex_normal_is_the_two_draw_form_in_one_draw():
    """One (2, *shape) draw gives the values, and leaves the generator state,
    of the real-then-imaginary pair of draws; with a positive variance, the
    parts scaled in place are the very bits of sqrt(var/2) (re + i im)."""
    for shape, var in (((49, 1), 1.0), ((50, 512), 0.3), ((7,), 2.0), (7, 2.0),
                       ((3, 4, 5), 1e-12), ((0, 3), 1.0), ((4, 2), 0.0), ((6, 5), 1e7)):
        got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = complex_normal(got_rng, shape, var)
        re, im = want_rng.standard_normal(shape), want_rng.standard_normal(shape)
        want = np.sqrt(var / 2.0) * (re + 1j * im)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        if var > 0:  # at zero the product's zeros may differ in sign only
            assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_default_noise_model():
    nm = default_noise_model(3)
    assert len(nm.relay_noise_var) == 3
    assert nm.rx_noise_var == pytest.approx(noise_power_watts())
    with pytest.raises(ValueError):
        NoiseModel(relay_noise_var=(0.0,), rx_noise_var=1.0)
    for bad in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError):
            NoiseModel(relay_noise_var=(1.0, bad), rx_noise_var=1.0)
        with pytest.raises(ValueError):
            NoiseModel(relay_noise_var=(1.0,), rx_noise_var=bad)


def test_noise_model_derives_its_stage_variances():
    # the variance heard by each stage, relay groups then the receiver, read
    # from the checked fields: no constructor argument, no part of repr or ==
    nm = NoiseModel(relay_noise_var=(0.5, 0.25), rx_noise_var=2)
    assert nm.stage_var == (0.5, 0.25, 2.0) and type(nm.stage_var[-1]) is float
    assert "stage_var" not in repr(nm)
    assert dataclasses.replace(nm, rx_noise_var=3.0).stage_var == (0.5, 0.25, 3.0)
    assert nm == NoiseModel(relay_noise_var=(0.5, 0.25), rx_noise_var=2.0)
    with pytest.raises(TypeError):
        NoiseModel(relay_noise_var=(0.5,), rx_noise_var=2.0, stage_var=(1.0, 1.0))
