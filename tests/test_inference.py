import re
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otafc import (ChannelSet, HopStatistics, NoiseModel, OtaParams, PowerBudget,
                   SolveResult, TargetLayer, Topology, digital_forward,
                   generate_placement, imported_forward, load_pipeline,
                   make_synthetic_task, ota_forward, save_pipeline)
from otafc import inference
from otafc.inference import (ImportedPipeline, SyntheticTask, _conv2d, _link, _received,
                             draw_samples, ota_accuracy)
from otafc.utils import complex_normal

from test_channel import noise_covariance, random_channel_set

TINY = 1e-30


def cn(rng, shape, var=1.0):
    return complex_normal(rng, shape, var)


def perfect_setup(n, seed=0):
    """Direct link carries W exactly; relay chain silenced."""
    rng = np.random.default_rng(seed)
    w = cn(rng, (n, n))
    ch = ChannelSet(h_direct=w.copy(),
                    h_hop=(np.zeros((1, n), dtype=complex),),
                    h_last=np.zeros((n, 1), dtype=complex))
    params = OtaParams(f1=np.eye(n, dtype=complex), f2=np.eye(n, dtype=complex),
                       a=(np.zeros(1, dtype=complex),))
    noise = NoiseModel(relay_noise_var=(TINY,), rx_noise_var=TINY)
    target = TargetLayer(w=w, bias=cn(rng, (n,)))
    return ch, params, noise, target


# ---------------------------------------------------------------- forward

def chain_walk(x, params, true_ch, bias=None):
    """Stage-by-stage oracle of ota_forward's signal path: precode, let each
    relay group amplify and forward, add the direct signal at the receiver,
    combine and add the bias."""
    x = np.asarray(x, dtype=complex)
    single = x.ndim == 1
    xs = x[:, None] if single else x
    s = params.f1 @ xs
    v = true_ch.h_hop[0] @ s
    for l in range(true_ch.num_groups):
        v = params.a[l][:, None] * v
        v = true_ch.chain[l + 1] @ v
    y = params.f2 @ (v + true_ch.h_direct @ s)
    if bias is not None:
        y = y + np.asarray(bias, dtype=complex)[:, None]
    return y[:, 0] if single else y


def assert_close(got, want):
    """Equal within 1e-12 of want's largest entry."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(initial=0.0))


def assert_link_law(x, params, ch, noise, seed, bias=None):
    """ota_forward's contract on one input. The output is M x + S z (+ bias)
    for the generator's next 2 out_dim S normals, whose consecutive pairs are
    the real and imaginary parts of z's entries, and nothing more is drawn.
    With a zero draw that is the chain walk's noise-free output, and 2 S S^H
    is F2 R F2^H, so S z has the law of the walk's noise; both within 1e-12
    of the largest entry."""
    gen, again = np.random.default_rng(seed), np.random.default_rng(seed)
    got = ota_forward(x, params, ch, noise, gen, bias=bias)
    m, s = _link(params, ch, noise)
    x = np.asarray(x, dtype=complex)
    pairs = again.standard_normal((len(m),) + x.shape[1:] + (2,))
    assert gen.bit_generator.state == again.bit_generator.state
    quiet = m @ x if bias is None else ((m @ x).T + bias).T
    assert_close(quiet, chain_walk(x, params, ch, bias))
    assert_close(got, quiet + s @ (pairs[..., 0] + 1j * pairs[..., 1]))
    c = params.f2 @ noise_covariance(ch, params.a, noise) @ params.f2.conj().T
    assert_close(2.0 * s @ s.conj().T, c)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ota_forward_matches_chain_walk_property(data):
    # 1-4 relay groups of 1-6 relays, direct link on and off, single
    # vectors and batches, with and without a bias; singular output noise
    # covariances from more outputs than receive antennas, a zero row in F2
    # or all-zero gains
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    n_in, n_tx, n_rx, n_out = (data.draw(st.integers(1, 6)) for _ in range(4))
    direct = data.draw(st.booleans())
    batch = data.draw(st.sampled_from([None, 1, 4]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    ch = random_channel_set(rng, n_tx, n_rx, sizes, direct=direct)
    f2 = cn(rng, (n_out, n_rx))
    if data.draw(st.booleans()):
        f2[data.draw(st.integers(0, n_out - 1))] = 0
    zero_gains = data.draw(st.booleans())
    params = OtaParams(f1=cn(rng, (n_tx, n_in)), f2=f2,
                       a=tuple(np.zeros(k, complex) if zero_gains else cn(rng, (k,))
                               for k in sizes))
    noise = NoiseModel(relay_noise_var=tuple(rng.uniform(0.01, 1.0, len(sizes))),
                       rx_noise_var=rng.uniform(0.01, 1.0))
    x = cn(rng, (n_in,) if batch is None else (n_in, batch))
    bias = cn(rng, (n_out,)) if data.draw(st.booleans()) else None
    assert_link_law(x, params, ch, noise, data.draw(st.integers(0, 2 ** 32 - 1)), bias)


def test_ota_forward_link_follows_the_channels_and_noise_it_runs_on():
    # one design run in turn on two channel sets and two noise models: each
    # run keeps the contract, the link is M and one out_dim x out_dim noise
    # factor, and the memo is not part of the design
    rng = np.random.default_rng(22)
    chs = (random_channel_set(rng, 3, 4, (4, 2), direct=True),
           random_channel_set(rng, 3, 4, (4, 2)))
    noises = (NoiseModel(relay_noise_var=(0.2, 0.5), rx_noise_var=0.1),
              NoiseModel(relay_noise_var=(0.7, 0.05), rx_noise_var=0.4))
    params = OtaParams(f1=cn(rng, (3, 3)), f2=cn(rng, (3, 4)),
                       a=(cn(rng, (4,)), cn(rng, (2,))))
    shown = repr(params)
    for step, (c, n) in enumerate([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (0, 0)]):
        x = cn(rng, (3,) if step % 2 else (3, 5))
        assert_link_law(x, params, chs[c], noises[n], step, bias=cn(rng, (3,)))
    link = _link(params, chs[0], noises[0])
    assert link is _link(params, chs[0], noises[0])
    assert [arr.shape for arr in link] == [(3, 3), (3, 3)]
    assert not any(arr.flags.writeable for arr in link)
    # the memo is no dataclass field, so neither repr nor == reads it
    assert repr(params) == shown and [f.name for f in fields(params)] == ["f1", "f2", "a"]


@pytest.mark.parametrize("batch", [None, 1, 5])
@pytest.mark.parametrize("n_out", [2, 4, 6])
def test_ota_forward_draws_two_normals_per_output_and_sample(batch, n_out):
    # 4 receive antennas, 2 + 3 relays: the draw is 2 out_dim per sample
    # whatever the relay count, also when out_dim is not N_r
    rng = np.random.default_rng(25)
    ch = random_channel_set(rng, 3, 4, (2, 3))
    params = OtaParams(f1=cn(rng, (3, 3)), f2=cn(rng, (n_out, 4)),
                       a=(cn(rng, (2,)), cn(rng, (3,))))
    noise = NoiseModel(relay_noise_var=(0.2, 0.5), rx_noise_var=0.1)
    gen, again = np.random.default_rng(6), np.random.default_rng(6)
    ota_forward(cn(rng, (3,) if batch is None else (3, batch)), params, ch, noise, gen)
    again.standard_normal(2 * n_out * (batch or 1))
    assert gen.bit_generator.state == again.bit_generator.state


def test_ota_forward_single_vector_is_a_one_column_batch():
    rng = np.random.default_rng(26)
    ch = random_channel_set(rng, 4, 5, (3, 2), direct=True)
    params = OtaParams(f1=cn(rng, (4, 3)), f2=cn(rng, (5, 5)),
                       a=(cn(rng, (3,)), cn(rng, (2,))))
    noise = NoiseModel(relay_noise_var=(0.3, 0.1), rx_noise_var=0.2)
    x, bias = cn(rng, (3,)), cn(rng, (5,))
    single, column = np.random.default_rng(8), np.random.default_rng(8)
    y = ota_forward(x, params, ch, noise, single, bias=bias)
    ys = ota_forward(x[:, None], params, ch, noise, column, bias=bias)
    assert y.shape == (5,) and ys.shape == (5, 1)
    assert np.array_equal(y, ys[:, 0])
    assert single.bit_generator.state == column.bit_generator.state


@pytest.mark.parametrize("shape", [(4,), (2, 3), (4, 3), (3, 2, 2), (3, 1, 1)])
def test_ota_forward_refuses_an_input_of_the_wrong_shape_before_drawing(shape):
    # a design with 3 inputs: a wrong first dimension or a 3-D input fails
    # with the shape it needs, not numpy's message, and draws nothing
    rng = np.random.default_rng(27)
    ch = random_channel_set(rng, 2, 2, (2,))
    params = OtaParams(f1=cn(rng, (2, 3)), f2=cn(rng, (2, 2)), a=(cn(rng, (2,)),))
    noise = NoiseModel(relay_noise_var=(0.1,), rx_noise_var=0.1)
    gen = np.random.default_rng(9)
    before = gen.bit_generator.state
    with pytest.raises(ValueError, match=re.escape(
            f"x must have shape (3,) or (3, S), got {shape}")):
        ota_forward(np.ones(shape, complex), params, ch, noise, gen)
    assert gen.bit_generator.state == before


def test_designs_channel_sets_and_pipelines_compare_by_identity():
    # == on the array-holding dataclasses never raises: a twin built from the
    # same arrays is another object, and an object equals itself
    rng = np.random.default_rng(28)
    params = OtaParams(f1=cn(rng, (3, 3)), f2=cn(rng, (3, 4)), a=(cn(rng, (4,)),))
    ch = random_channel_set(rng, 3, 4, (4,))
    pipe = _random_pipeline(6)
    top = Topology(n_tx=3, n_rx=3, n_stream=3, num_groups=2, group_sizes=(4, 5))
    target = TargetLayer(w=cn(rng, (3, 3)), bias=np.zeros(3))
    trace = np.array([2.0, 1.0])
    twins = ((params, OtaParams(f1=params.f1, f2=params.f2, a=params.a)),
             (ch, ChannelSet(h_direct=ch.h_direct, h_hop=ch.h_hop, h_last=ch.h_last)),
             (pipe, ImportedPipeline(**{f.name: getattr(pipe, f.name) for f in fields(pipe)})),
             (generate_placement(top, 1), generate_placement(top, 1)),
             (HopStatistics(beta=[1.0, 2.0, 3.0]), HopStatistics(beta=[1.0, 2.0, 3.0])),
             (target, TargetLayer(w=target.w, bias=target.bias)),
             (PowerBudget.uniform((4, 5), 3.0, 1.0), PowerBudget.uniform((4, 5), 3.0, 1.0)),
             (make_synthetic_task(target, 3, 0.5, 2), make_synthetic_task(target, 3, 0.5, 2)),
             (SolveResult(params, trace, 1, "converged"),
              SolveResult(params, trace, 1, "converged")))
    for one, twin in twins:
        assert (one == twin) is False and (one != twin) is True
        assert (one == one) is True


def test_designs_and_channel_sets_hold_read_only_copies():
    # the link is reused while the design and channel set are the same
    # objects, so an in-place write to either raises rather than leaving a
    # stale link, and the caller's own arrays stay writable and unshared
    rng = np.random.default_rng(24)
    f1, f2, a = cn(rng, (3, 3)), cn(rng, (3, 4)), cn(rng, (4,))
    h_direct, h_hop, h_last = cn(rng, (4, 3)), cn(rng, (4, 3)), cn(rng, (4, 4))
    params = OtaParams(f1=f1, f2=f2, a=(a,))
    ch = ChannelSet(h_direct=h_direct, h_hop=(h_hop,), h_last=h_last)
    noise = NoiseModel(relay_noise_var=(0.2,), rx_noise_var=0.1)
    x = cn(rng, (3,))
    before = ota_forward(x, params, ch, noise, 5)
    for held in (params.f1, params.f2, *params.a, ch.h_direct, *ch.h_hop, ch.h_last):
        with pytest.raises(ValueError, match="read-only"):
            held[...] = 0
    for given in (f1, f2, a, h_direct, h_hop, h_last):
        given[...] = 0
    assert np.array_equal(ota_forward(x, params, ch, noise, 5), before)


@pytest.mark.parametrize("case", ["extra gain vector", "length-1 gain vector"])
def test_malformed_design_fails_loudly(case):
    # one relay group of 4: a second gain vector, or one gain for all four
    # relays, is refused by every forward pass, not ignored or broadcast
    n = 49
    rng = np.random.default_rng(23)
    ch = random_channel_set(rng, n, n, (4,))
    gains = {"extra gain vector": (cn(rng, (4,)), cn(rng, (4,))),
             "length-1 gain vector": (cn(rng, (1,)),)}[case]
    params = OtaParams(f1=np.eye(n, dtype=complex), f2=np.eye(n, dtype=complex), a=gains)
    noise = NoiseModel(relay_noise_var=(0.1,), rx_noise_var=0.1)
    target = TargetLayer(w=cn(rng, (n, n)), bias=np.zeros(n, dtype=complex))
    task = make_synthetic_task(target, num_classes=3, rng_seed=0)
    with pytest.raises(ValueError, match="gain vector"):
        ota_forward(cn(rng, (n,)), params, ch, noise, 1)
    with pytest.raises(ValueError, match="gain vector"):
        ota_accuracy(task, draw_samples(task, target, 8, 2), target, params, ch, noise)
    with pytest.raises(ValueError, match="gain vector"):
        imported_forward(_random_pipeline(1), rng.standard_normal((28, 28)), params,
                         ch, noise, 3)


@pytest.mark.parametrize("batch", [None, 3])
@pytest.mark.parametrize("shape", [(1,), (2,), (4, 1)])
def test_ota_forward_refuses_a_bias_of_the_wrong_shape(batch, shape):
    # a 4-output design: a length-1 bias is not broadcast onto every output,
    # and a length-2 one fails with the shape it needs, not numpy's message
    rng = np.random.default_rng(24)
    ch = random_channel_set(rng, 3, 5, (2,))
    params = OtaParams(f1=cn(rng, (3, 3)), f2=cn(rng, (4, 5)), a=(cn(rng, (2,)),))
    noise = NoiseModel(relay_noise_var=(0.1,), rx_noise_var=0.1)
    x = cn(rng, (3,) if batch is None else (3, batch))
    with pytest.raises(ValueError, match=re.escape(f"bias must have shape (4,), got {shape}")):
        ota_forward(x, params, ch, noise, 1, bias=np.full(shape, 0.5))
    assert ota_forward(x, params, ch, noise, 1, bias=np.full(4, 0.5)).shape == (4,) + x.shape[1:]


def test_ota_forward_perfect_emulation_zero_noise():
    ch, params, noise, target = perfect_setup(5)
    rng = np.random.default_rng(1)
    x = cn(rng, (5,))
    y = ota_forward(x, params, ch, noise, 2, bias=target.bias)
    assert np.allclose(y, target.w @ x + target.bias, atol=1e-12)


def test_ota_forward_batch_matches_single():
    rng = np.random.default_rng(2)
    ch = random_channel_set(rng, 3, 3, (4, 5))
    noise = NoiseModel(relay_noise_var=(TINY, TINY), rx_noise_var=TINY)
    params = OtaParams(f1=cn(rng, (3, 3)), f2=cn(rng, (3, 3)),
                       a=(cn(rng, (4,)), cn(rng, (5,))))
    xs = cn(rng, (3, 7))
    ys = ota_forward(xs, params, ch, noise, 3)
    for i in range(7):
        yi = ota_forward(xs[:, i], params, ch, noise, 4)
        assert np.allclose(ys[:, i], yi, atol=1e-12)


def test_ota_forward_noise_covariance_matches_aggregate():
    # x = 0: output covariance must equal F2 R F2^H
    rng = np.random.default_rng(3)
    ch = random_channel_set(rng, 3, 3, (4, 3))
    noise = NoiseModel(relay_noise_var=(0.4, 0.6), rx_noise_var=0.3)
    params = OtaParams(f1=cn(rng, (3, 3)), f2=cn(rng, (3, 3)),
                       a=(cn(rng, (4,)), cn(rng, (3,))))
    want = params.f2 @ noise_covariance(ch, params.a, noise) @ params.f2.conj().T

    trials = 100_000
    ys = ota_forward(np.zeros((3, trials), dtype=complex), params, ch, noise, 4)
    emp = (ys @ ys.conj().T) / trials
    se = np.sqrt(np.outer(np.diag(want).real, np.diag(want).real) / trials)
    assert np.all(np.abs(emp - want) <= 3.0 * se + 1e-12)


def test_ota_forward_linear_in_input_at_fixed_noise():
    rng = np.random.default_rng(5)
    ch = random_channel_set(rng, 4, 4, (5,))
    noise = NoiseModel(relay_noise_var=(0.3,), rx_noise_var=0.2)
    params = OtaParams(f1=cn(rng, (4, 4)), f2=cn(rng, (4, 4)), a=(cn(rng, (5,)),))
    x1, x2 = cn(rng, (4,)), cn(rng, (4,))
    seed = 99  # same seed -> same noise draw for equal-shaped inputs
    y12 = ota_forward(x1 + x2, params, ch, noise, seed)
    y0 = ota_forward(np.zeros(4, dtype=complex), params, ch, noise, seed)
    y1 = ota_forward(x1, params, ch, noise, seed)
    y2 = ota_forward(x2, params, ch, noise, seed)
    assert np.allclose(y12 - y0, (y1 - y0) + (y2 - y0), atol=1e-10)


def test_ota_forward_deterministic():
    rng = np.random.default_rng(6)
    ch = random_channel_set(rng, 3, 3, (4,))
    noise = NoiseModel(relay_noise_var=(0.5,), rx_noise_var=0.5)
    params = OtaParams(f1=cn(rng, (3, 3)), f2=cn(rng, (3, 3)), a=(cn(rng, (4,)),))
    x = cn(rng, (3,))
    assert np.array_equal(ota_forward(x, params, ch, noise, 7),
                          ota_forward(x, params, ch, noise, 7))


# ---------------------------------------------------------------- accuracy

def test_accuracy_perfect_emulation_matches_digital():
    ch, params, noise, target = perfect_setup(6)
    task = make_synthetic_task(target, num_classes=4, sample_noise_var=0.2,
                               rng_seed=0)
    samples = draw_samples(task, target, 400, 1)
    assert ota_accuracy(task, samples, target, params, ch, noise) == samples.digital_acc


def test_accuracy_noiseless_separated_means_is_one():
    ch, params, noise, target = perfect_setup(6, seed=3)
    task = make_synthetic_task(target, num_classes=5, sample_noise_var=0.0,
                               rng_seed=2)
    samples = draw_samples(task, target, 500, 3)
    assert samples.digital_acc == 1.0
    assert ota_accuracy(task, samples, target, params, ch, noise) == 1.0


def test_accuracy_head_scaling_invariance():
    rng = np.random.default_rng(8)
    ch = random_channel_set(rng, 4, 4, (5,))
    noise = NoiseModel(relay_noise_var=(0.01,), rx_noise_var=0.01)
    params = OtaParams(f1=cn(rng, (4, 4)), f2=cn(rng, (4, 4)), a=(cn(rng, (5,)),))
    target = TargetLayer(w=cn(rng, (4, 4)), bias=np.zeros(4))
    task = make_synthetic_task(target, num_classes=3, sample_noise_var=0.5,
                               rng_seed=4)
    scaled = SyntheticTask(num_classes=task.num_classes,
                           class_means=task.class_means,
                           sample_noise_var=task.sample_noise_var,
                           classifier_head=3.7 * task.classifier_head)
    s1, s2 = draw_samples(task, target, 300, 5), draw_samples(scaled, target, 300, 5)
    assert s1.digital_acc == s2.digital_acc
    assert (ota_accuracy(task, s1, target, params, ch, noise)
            == ota_accuracy(scaled, s2, target, params, ch, noise))


def test_accuracy_gap_shrinks_with_pilot_power():
    # more pilot energy -> lower deployed NMSE -> smaller digital-OTA gap,
    # in at least 80% of paired (seed, adjacent pilot power) comparisons
    from otafc import Scenario, SweepPoint, config_from_dict, run_trial
    cfg = config_from_dict(dict(topology=dict(n_antennas=8, area_m=200.0),
                                task=dict(num_samples=256),
                                sweep=dict(num_groups=[2], group_size=[8])))
    ok, total = 0, 0
    for seed in range(20):
        gaps = []
        for pp in (0.01, 0.1, 1.0):
            pt = SweepPoint(heuristic="uniform", excess_budget=100,
                            pilot_power=pp, num_groups=2, group_size=8)
            t = run_trial(Scenario.draw(cfg, 2, 8, seed), pt, None)
            gaps.append(t.digital_acc - t.ota_acc)
        for lo, hi in zip(gaps[1:], gaps[:-1]):
            total += 1
            ok += lo <= hi + 1e-12
    assert ok >= 0.8 * total


@pytest.mark.parametrize("svar", [0.0, 0.7])
def test_accuracy_is_one_drawn_sample_set_scored(svar):
    # a sample set holds what one generator gives, in its order: the labels,
    # the sample noise, then ota_forward's receiver-noise normals; scoring a
    # design on it is ota_forward on that generator, bit for bit
    rng = np.random.default_rng(12)
    ch = random_channel_set(rng, 4, 4, (5, 3), direct=True)
    noise = NoiseModel(relay_noise_var=(0.01, 0.02), rx_noise_var=0.03)
    params = OtaParams(f1=cn(rng, (4, 4)), f2=cn(rng, (4, 4)),
                       a=(cn(rng, (5,)), cn(rng, (3,))))
    target = TargetLayer(w=cn(rng, (4, 4)), bias=cn(rng, (4,)))
    task = make_synthetic_task(target, num_classes=3, sample_noise_var=svar, rng_seed=4)
    gen, oracle = np.random.default_rng(9), np.random.default_rng(9)
    samples = draw_samples(task, target, 50, gen)
    labels = oracle.integers(0, 3, size=50)
    xs = task.class_means[labels].T
    if svar > 0:
        xs = xs + complex_normal(oracle, xs.shape, svar)
    y = ota_forward(xs, params, ch, noise, oracle, bias=target.bias)
    assert gen.bit_generator.state == oracle.bit_generator.state
    assert samples.labels.tobytes() == labels.tobytes()
    assert samples.x.tobytes() == xs.tobytes() and samples.z.shape == (4, 100)
    assert not any(a.flags.writeable for a in (samples.labels, samples.x, samples.z))
    got = _received(*_link(params, ch, noise), samples.x, samples.z, target.bias)
    assert got.tobytes() == y.tobytes()
    head = task.classifier_head
    want = {"ota_acc": float(np.mean(np.argmax((head @ y).real, axis=0) == labels)),
            "digital_acc": float(np.mean(np.argmax(
                (head @ (target.w @ xs + target.bias[:, None])).real, axis=0) == labels))}
    assert ota_accuracy(task, samples, target, params, ch, noise) == want["ota_acc"]
    assert samples.digital_acc == want["digital_acc"]
    assert 0 < want["ota_acc"] < 1  # the noise decides some samples


def test_accuracy_validates_sample_count():
    ch, params, noise, target = perfect_setup(3)
    task = make_synthetic_task(target, num_classes=2, rng_seed=0)
    with pytest.raises(ValueError, match="at least one sample"):
        draw_samples(task, target, 0, 1)


def test_synthetic_task_validation():
    with pytest.raises(ValueError):
        SyntheticTask(num_classes=1, class_means=np.zeros((1, 3), dtype=complex),
                      sample_noise_var=0.1, classifier_head=np.zeros((1, 3), dtype=complex))
    # NaN would draw noise-free samples (NaN > 0 is false) and inf infinite ones
    for var in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="sample noise variance must be finite and >= 0"):
            SyntheticTask(num_classes=2, class_means=np.zeros((2, 3), dtype=complex),
                          sample_noise_var=var, classifier_head=np.zeros((2, 3), dtype=complex))
    assert SyntheticTask(num_classes=2, class_means=np.zeros((2, 3), dtype=complex),
                         sample_noise_var=0.0,
                         classifier_head=np.zeros((2, 3), dtype=complex)).sample_noise_var == 0


# ---------------------------------------------------------------- pipeline

def _random_pipeline(seed=0, n=49, classes=10):
    rng = np.random.default_rng(seed)
    return ImportedPipeline(
        conv_kernel=rng.standard_normal((2, 1, 3, 3)).astype(np.float32),
        conv_bias=rng.standard_normal(2).astype(np.float32),
        bn_scale=(rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex64),
        bn_shift=(0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))).astype(np.complex64),
        fc_mid_weight=((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                       / np.sqrt(2 * n)).astype(np.complex64),
        fc_mid_bias=(0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))).astype(np.complex64),
        fc_out_weight=rng.standard_normal((classes, 2 * n)).astype(np.float32),
        fc_out_bias=rng.standard_normal(classes).astype(np.float32),
    )


def test_conv_geometry_produces_49_complex_features():
    # 28x28 input, kernel 3, stride 4, padding 1 -> 7x7 per channel
    rng = np.random.default_rng(9)
    img = rng.standard_normal((28, 28))
    kernel = rng.standard_normal((2, 1, 3, 3))
    out = _conv2d(img, kernel, np.zeros(2), stride=4, padding=1)
    assert out.shape == (2, 7, 7)
    assert out[0].size == 49  # == N_t in the reference configuration


def test_conv_matches_naive_loops():
    rng = np.random.default_rng(10)
    img = rng.standard_normal((9, 9))
    kernel = rng.standard_normal((2, 1, 3, 3))
    bias = rng.standard_normal(2)
    out = _conv2d(img, kernel, bias, stride=4, padding=1)
    padded = np.pad(img, 1)
    for c in range(2):
        for i in range(out.shape[1]):
            for j in range(out.shape[2]):
                want = np.sum(padded[4 * i:4 * i + 3, 4 * j:4 * j + 3] * kernel[c, 0]) + bias[c]
                assert out[c, i, j] == pytest.approx(want, rel=1e-12)


def _naive_conv(img, kernel, bias, stride, padding):
    """Padded loops: the conv and, per output, the sum of absolute terms."""
    padded = np.pad(img, ((0, 0), (padding, padding), (padding, padding)))
    kh, kw = kernel.shape[2:]
    out_h = (padded.shape[1] - kh) // stride + 1
    out_w = (padded.shape[2] - kw) // stride + 1
    want = np.empty((kernel.shape[0], out_h, out_w))
    mag = np.empty_like(want)
    for o in range(kernel.shape[0]):
        for i in range(out_h):
            for j in range(out_w):
                win = padded[:, stride * i:stride * i + kh, stride * j:stride * j + kw]
                want[o, i, j] = np.sum(win * kernel[o]) + bias[o]
                mag[o, i, j] = np.sum(np.abs(win * kernel[o])) + abs(bias[o])
    return want, mag


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_conv_matches_naive_padded_loops_property(data):
    # non-square images, 1-3 channels in and out, kernels 1-4 that may
    # exceed the unpadded image, stride 1-4, padding 0-2
    in_ch = data.draw(st.integers(1, 3))
    out_ch = data.draw(st.integers(1, 3))
    kh, kw = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    stride, padding = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2))
    height = data.draw(st.integers(max(1, kh - 2 * padding), 11))
    width = data.draw(st.integers(max(1, kw - 2 * padding), 11))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    img = rng.standard_normal((in_ch, height, width))
    kernel = rng.standard_normal((out_ch, in_ch, kh, kw))
    bias = rng.standard_normal(out_ch)
    want, mag = _naive_conv(img, kernel, bias, stride, padding)
    out = _conv2d(img[0] if in_ch == 1 else img, kernel, bias, stride, padding)
    assert out.shape == want.shape
    assert np.all(np.abs(out - want) <= 1e-12 * mag)
    wrong = data.draw(st.sampled_from([c for c in (1, 2, 3, 4) if c != in_ch]))
    with pytest.raises(ValueError, match="input channels"):
        _conv2d(rng.standard_normal((wrong, height, width)), kernel, bias,
                stride, padding)
    too_tall = np.zeros((out_ch, in_ch, height + 2 * padding + 1, kw))
    with pytest.raises(ValueError, match="does not fit"):
        _conv2d(img, too_tall, bias, stride, padding)


def test_pipeline_round_trip(tmp_path):
    pipe = _random_pipeline(1)
    path, again = tmp_path / "weights.otaw", tmp_path / "again.otaw"
    save_pipeline(pipe, path)
    back = load_pipeline(path)
    for name in ("conv_kernel", "conv_bias", "bn_scale", "bn_shift",
                 "fc_mid_weight", "fc_mid_bias", "fc_out_weight", "fc_out_bias"):
        assert np.array_equal(getattr(pipe, name), getattr(back, name))
        held = getattr(back, name)  # widened once, and never written
        assert held.dtype in (np.float64, np.complex128) and not held.flags.writeable
    save_pipeline(back, again)  # a loaded file writes back bit for bit
    assert again.read_bytes() == path.read_bytes()


def test_pipeline_rejects_bad_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAWEIGHTFILE")
    with pytest.raises(ValueError):
        load_pipeline(path)


def _record(name, values):
    """One float32 tensor record of the weight file, as save_pipeline writes it."""
    arr = np.asarray(values, dtype="<f4")
    return (struct.pack("<H", len(name)) + name.encode() + struct.pack("<BB", 0, arr.ndim)
            + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes())


def _with_record(raw, name, values):
    """raw with one more tensor record appended and counted."""
    (count,) = struct.unpack_from("<I", raw, 8)
    return raw[:8] + struct.pack("<I", count + 1) + raw[12:] + _record(name, values)


def _corrupt(raw, case):
    # conv_kernel's type code follows the magic, the version and count, the
    # name length and its 11-byte name
    code_at = 4 + 8 + 2 + len(b"conv_kernel")
    if case == "cut at 6 bytes":
        return raw[:6]
    if case == "cut in the last tensor":
        return raw[:-1]
    if case == "conv_bias twice":
        return _with_record(raw, "conv_bias", [5, 6])
    if case == "a byte after the last tensor":
        return raw + b"\0"
    if case == "a NaN in the last tensor":  # fc_out_bias, float32, ends the file
        return raw[:-4] + np.float32(np.nan).tobytes()
    code = {"code 7": 7, "complex code on a float tensor": 1}[case]
    return raw[:code_at] + bytes([code]) + raw[code_at + 1:]


@pytest.mark.parametrize("case", ["cut at 6 bytes", "cut in the last tensor", "code 7",
                                  "complex code on a float tensor", "conv_bias twice",
                                  "a byte after the last tensor", "a NaN in the last tensor"])
def test_pipeline_rejects_corrupt_file_naming_it(tmp_path, case):
    path = tmp_path / "weights.otaw"
    save_pipeline(_random_pipeline(4), path)
    path.write_bytes(_corrupt(path.read_bytes(), case))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_pipeline(path)


def test_pipeline_ignores_a_tensor_of_another_name(tmp_path):
    pipe, path = _random_pipeline(4), tmp_path / "weights.otaw"
    save_pipeline(pipe, path)
    path.write_bytes(_with_record(path.read_bytes(), "conv_bias_v2", [5, 6]))
    back = load_pipeline(path)
    assert np.array_equal(back.conv_bias, pipe.conv_bias)


def test_pipeline_shape_validation():
    pipe = _random_pipeline(2)
    with pytest.raises(ValueError):
        ImportedPipeline(conv_kernel=pipe.conv_kernel, conv_bias=pipe.conv_bias,
                         bn_scale=pipe.bn_scale[:-1], bn_shift=pipe.bn_shift,
                         fc_mid_weight=pipe.fc_mid_weight, fc_mid_bias=pipe.fc_mid_bias,
                         fc_out_weight=pipe.fc_out_weight, fc_out_bias=pipe.fc_out_bias)


def test_imported_forward_layer_substitution_identity():
    pipe = _random_pipeline(3)
    target = pipe.target_layer
    n = target.w.shape[0]
    ch = ChannelSet(h_direct=target.w.copy(),
                    h_hop=(np.zeros((1, n), dtype=complex),),
                    h_last=np.zeros((n, 1), dtype=complex))
    params = OtaParams(f1=np.eye(n, dtype=complex), f2=np.eye(n, dtype=complex),
                       a=(np.zeros(1, dtype=complex),))
    noise = NoiseModel(relay_noise_var=(TINY,), rx_noise_var=TINY)
    rng = np.random.default_rng(11)
    img = rng.standard_normal((28, 28))
    scores_ota = imported_forward(pipe, img, params, ch, noise, 12)
    scores_dig = digital_forward(pipe, img)
    assert np.allclose(scores_ota, scores_dig, atol=1e-9)


def test_imported_forward_deterministic_batch():
    pipe = _random_pipeline(4)
    target = pipe.target_layer
    n = target.w.shape[0]
    rng = np.random.default_rng(13)
    ch = ChannelSet(h_direct=cn(rng, (n, n)),
                    h_hop=(cn(rng, (3, n)),), h_last=cn(rng, (n, 3)))
    params = OtaParams(f1=np.eye(n, dtype=complex), f2=np.eye(n, dtype=complex),
                       a=(cn(rng, (3,)),))
    noise = NoiseModel(relay_noise_var=(0.1,), rx_noise_var=0.1)
    imgs = rng.standard_normal((100, 28, 28))
    s1 = [imported_forward(pipe, im, params, ch, noise, 1000 + i)
          for i, im in enumerate(imgs)]
    s2 = [imported_forward(pipe, im, params, ch, noise, 1000 + i)
          for i, im in enumerate(imgs)]
    assert all(np.array_equal(a, b) for a, b in zip(s1, s2))


# The front end and head as the image pipeline ran them before each conv
# became one gather over all channels and the pairing and the complex ReLU
# worked in place: the bit-exact oracle of _pre_layers and _post_layers.

def oracle_window_index(height, width, kh, kw, stride, padding):
    """Flat index, into one channel with a zero appended, of every tap."""
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    rows = np.arange(kh)[:, None] + stride * np.arange(out_h) - padding
    cols = np.arange(kw)[:, None] + stride * np.arange(out_w) - padding
    r = rows[:, None, :, None]
    c = cols[None, :, None, :]
    inside = (r >= 0) & (r < height) & (c >= 0) & (c < width)
    return np.where(inside, r * width + c, height * width).reshape(kh * kw, out_h, out_w)


def oracle_conv2d(image, kernel, bias, stride, padding):
    if image.ndim == 2:
        image = image[None, :, :]
    out_ch, in_ch, kh, kw = kernel.shape
    height, width = image.shape[1], image.shape[2]
    idx = oracle_window_index(height, width, kh, kw, stride, padding)
    flat = np.zeros((in_ch, height * width + 1), dtype=image.dtype)
    flat[:, :-1] = image.reshape(in_ch, -1)
    taps = flat[:, idx].reshape(in_ch * kh * kw, -1)
    out = kernel.reshape(out_ch, -1) @ taps + bias[:, None]
    return out.reshape(out_ch, *idx.shape[1:])


def oracle_features(pipe, image, stride, padding):
    """Conv, conv[0] + 1j conv[1], batch norm and power normalization."""
    conv = oracle_conv2d(np.asarray(image, dtype=float), pipe.conv_kernel,
                         pipe.conv_bias, stride, padding)
    z = (conv[0] + 1j * conv[1]).ravel()
    z = pipe.bn_scale * z + pipe.bn_shift
    mean_power = np.vdot(z, z).real / z.size
    return z if mean_power == 0 else z / np.sqrt(mean_power)


def oracle_head(pipe, y):
    """Complex ReLU, then the real head on the concatenated [Re; Im]."""
    y = np.maximum(y.real, 0.0) + 1j * np.maximum(y.imag, 0.0)
    return pipe.fc_out_weight @ np.concatenate([y.real, y.imag]) + pipe.fc_out_bias


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_image_pipeline_matches_the_oracle_bit_for_bit_property(data):
    # random pipelines: 1-3 input channels, kernels of 1-4, stride 1-4,
    # padding 0-2, the feature count matched to the middle FC layer, and
    # random OTA designs; some images are all zero with a zero conv bias and
    # batch-norm shift, so the features take the zero-power branch
    in_ch = data.draw(st.integers(1, 3))
    kh, kw = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    stride, padding = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2))
    height = data.draw(st.integers(max(1, kh - 2 * padding), 11))
    width = data.draw(st.integers(max(1, kw - 2 * padding), 11))
    f = ((height + 2 * padding - kh) // stride + 1) * ((width + 2 * padding - kw) // stride + 1)
    m, classes = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 4))
    zero = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    shift = np.zeros(f) if zero else 0.1 * cn(rng, (f,))
    pipe = ImportedPipeline(
        conv_kernel=rng.standard_normal((2, in_ch, kh, kw)).astype(np.float32),
        conv_bias=(np.zeros(2) if zero else rng.standard_normal(2)).astype(np.float32),
        bn_scale=(1.0 + 0.3 * cn(rng, (f,))).astype(np.complex64),
        bn_shift=shift.astype(np.complex64),
        fc_mid_weight=cn(rng, (m, f), 1.0 / f).astype(np.complex64),
        fc_mid_bias=(0.1 * cn(rng, (m,))).astype(np.complex64),
        fc_out_weight=rng.standard_normal((classes, 2 * m)).astype(np.float32),
        fc_out_bias=rng.standard_normal(classes).astype(np.float32))
    shape = (height, width) if in_ch == 1 and data.draw(st.booleans()) else (in_ch, height, width)
    img = np.zeros(shape) if zero else rng.standard_normal(shape)
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n_tx, n_rx = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    ch = random_channel_set(rng, n_tx, n_rx, sizes, direct=data.draw(st.booleans()))
    params = OtaParams(f1=cn(rng, (n_tx, f)), f2=cn(rng, (m, n_rx)),
                       a=tuple(cn(rng, (k,)) for k in sizes))
    noise = NoiseModel(relay_noise_var=tuple(rng.uniform(0.01, 1.0, len(sizes))),
                       rx_noise_var=rng.uniform(0.01, 1.0))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    z = oracle_features(pipe, img, stride, padding)
    assert not zero or not z.any()

    def check(image, way):
        """Score image one way; equal to the oracle bit for bit."""
        z = oracle_features(pipe, image, stride, padding)
        if way == "dig":
            want_dig = oracle_head(pipe, pipe.fc_mid_weight @ z + pipe.fc_mid_bias)
            assert np.array_equal(digital_forward(pipe, image), want_dig)
            return
        # a single vector runs as the batch of one it used to be run as
        want_gen, got_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        want_ota = oracle_head(pipe, ota_forward(z[:, None], params, ch, noise, want_gen,
                                                 bias=pipe.fc_mid_bias)[:, 0])
        got_ota = imported_forward(pipe, image, params, ch, noise, got_gen)
        assert np.array_equal(got_ota, want_ota)
        assert got_gen.bit_generator.state == want_gen.bit_generator.state

    # the image both ways in both orders, each way twice in a row, then once
    # more after an in-place edit of the image between two calls
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "CONV_STRIDE", stride)
        mp.setattr(inference, "CONV_PADDING", padding)
        for way in ("ota", "dig", "dig", "ota", "ota", "dig"):
            check(img, way)
        img.flat[data.draw(st.integers(0, img.size - 1))] += 1.0
        for way in ("dig", "ota"):
            check(img, way)



def oracle_scores(pipe, image, ch, params, noise, seed):
    """The oracle's OTA scores for noise seed seed, and its digital scores,
    at the default conv geometry."""
    z = oracle_features(pipe, image, inference.CONV_STRIDE, inference.CONV_PADDING)
    y = ota_forward(z[:, None], params, ch, noise, seed, bias=pipe.fc_mid_bias)[:, 0]
    return oracle_head(pipe, y), oracle_head(pipe, pipe.fc_mid_weight @ z + pipe.fc_mid_bias)


def small_design(rng, n=49):
    ch = random_channel_set(rng, 4, 5, (3, 2))
    params = OtaParams(f1=cn(rng, (4, n)), f2=cn(rng, (n, 5)), a=(cn(rng, (3,)), cn(rng, (2,))))
    return ch, params, NoiseModel(relay_noise_var=(0.1, 0.2), rx_noise_var=0.1)


def test_front_end_features_are_read_only_and_shared_by_content():
    pipe = _random_pipeline(8)
    img = np.random.default_rng(30).standard_normal((28, 28))
    z = inference._pre_layers(pipe, img)
    assert not z.flags.writeable
    with pytest.raises(ValueError):
        z[0] = 0
    assert inference._pre_layers(pipe, img.copy()) is z
    assert np.array_equal(z, oracle_features(pipe, img, inference.CONV_STRIDE,
                                             inference.CONV_PADDING))


def test_a_pipeline_never_reads_another_pipelines_front_end():
    rng = np.random.default_rng(31)
    pipes = (_random_pipeline(8), _random_pipeline(9))
    img = rng.standard_normal((28, 28))
    ch, params, noise = small_design(rng)
    for pipe in pipes + pipes:
        want_ota, want_dig = oracle_scores(pipe, img, ch, params, noise, 5)
        assert np.array_equal(imported_forward(pipe, img, params, ch, noise, 5), want_ota)
        assert np.array_equal(digital_forward(pipe, img), want_dig)


def test_a_2d_image_and_its_one_channel_twin_both_score_right():
    rng = np.random.default_rng(32)
    pipe = _random_pipeline(10)
    img = rng.standard_normal((28, 28))
    ch, params, noise = small_design(rng)
    want_ota, want_dig = oracle_scores(pipe, img, ch, params, noise, 6)
    for image in (img, img[None], img, img[None]):
        assert np.array_equal(digital_forward(pipe, image), want_dig)
        assert np.array_equal(imported_forward(pipe, image, params, ch, noise, 6), want_ota)


def test_front_end_follows_the_conv_geometry_in_force(monkeypatch):
    # a 3x3 kernel makes 7x7 features of a 9x9 image at stride 1 and padding
    # 0 and at stride 2 and padding 3, from different pixels
    pipe = _random_pipeline(11)
    img = np.random.default_rng(33).standard_normal((9, 9))
    for stride, padding in ((1, 0), (2, 3), (1, 0)):
        monkeypatch.setattr(inference, "CONV_STRIDE", stride)
        monkeypatch.setattr(inference, "CONV_PADDING", padding)
        z = oracle_features(pipe, img, stride, padding)
        assert np.array_equal(digital_forward(pipe, img),
                              oracle_head(pipe, pipe.fc_mid_weight @ z + pipe.fc_mid_bias))

# Captured on the pipeline, channel draw, image and noise seed below: the
# digital scores from the pad-and-window conv the gather replaced, the OTA
# scores and generator state from the receiver-side noise draw.
_GOLDEN_OTA = [18.313822969891447, 0.11166203766511984, -183.38205147892623,
               -125.18255195914381, 160.67130322183186, -90.61758695790309,
               29.25877396752776, 60.70099609997038, -169.93864400512243,
               20.35672200460261]
_GOLDEN_DIG = [1.8792261864774886, 6.550888476994173, -10.74805293746922,
               -4.832379998374707, 3.207858741233764, -5.159087355734547,
               7.982695779285343, -2.991460278107647, 1.79042366926876,
               8.997709672876947]
_GOLDEN_STATE = {"bit_generator": "PCG64",
                 "state": {"state": 268519871752150324332507025123174202879,
                           "inc": 336983293413220778415499640756163231851},
                 "has_uint32": 0, "uinteger": 0}


def test_image_path_golden():
    pipe = _random_pipeline(7)
    n = 49
    rng = np.random.default_rng(20261018)
    ch = ChannelSet(h_direct=np.zeros((n, n), dtype=complex),
                    h_hop=(cn(rng, (6, n)), cn(rng, (5, 6))), h_last=cn(rng, (n, 5)))
    params = OtaParams(f1=cn(rng, (n, n)) / 7, f2=cn(rng, (n, n)) / 7,
                       a=(cn(rng, (6,)), cn(rng, (5,))))
    noise = NoiseModel(relay_noise_var=(0.05, 0.02), rx_noise_var=0.03)
    img = rng.standard_normal((28, 28))
    gen = np.random.default_rng(77)
    ota = imported_forward(pipe, img, params, ch, noise, gen)
    dig = digital_forward(pipe, img)
    assert np.allclose(ota, _GOLDEN_OTA, rtol=1e-12, atol=0)
    assert np.allclose(dig, _GOLDEN_DIG, rtol=1e-12, atol=0)
    assert np.argmax(ota) == np.argmax(_GOLDEN_OTA)
    assert np.argmax(dig) == np.argmax(_GOLDEN_DIG)
    # the noise stream: imported_forward draws 2 N_r normals and no more
    assert gen.bit_generator.state == _GOLDEN_STATE


def test_imported_forward_rejects_wrong_image_size():
    pipe = _random_pipeline(5)
    target = pipe.target_layer
    n = target.w.shape[0]
    ch = ChannelSet(h_direct=np.eye(n, dtype=complex),
                    h_hop=(np.zeros((1, n), dtype=complex),),
                    h_last=np.zeros((n, 1), dtype=complex))
    params = OtaParams(f1=np.eye(n, dtype=complex), f2=np.eye(n, dtype=complex),
                       a=(np.zeros(1, dtype=complex),))
    noise = NoiseModel(relay_noise_var=(TINY,), rx_noise_var=TINY)
    with pytest.raises(ValueError):
        imported_forward(pipe, np.zeros((12, 12)), params, ch, noise, 0)
