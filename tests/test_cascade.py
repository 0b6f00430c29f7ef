"""Property tests: the Cascade's O(L) recursions against the naive chain,
candidates built from an incumbent against candidates built from scratch,
and the solver's invariants.

Instances cover L = 1..4, rectangular targets, the direct link on and off,
and per-hop power gains from 1 down to the ~1e-13 of real pathloss. Gains
and the combiner are scaled up by the inverse amplitude, as the solver's
designs are, so the signal and noise terms stay comparable at every scale.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otafc import (Cascade, NoiseModel, OtaParams, PowerBudget, SolverConfig,
                   TargetLayer, objective, solve, update_a)
from otafc.channel import project_gains
from otafc.solver import _gain_quadratic
from otafc.utils import complex_normal

from test_channel import noise_covariance, random_channel_set, transfer_matrix

RTOL = 1e-9


@st.composite
def instances(draw):
    L = draw(st.integers(1, 4))
    groups = tuple(draw(st.lists(st.integers(1, 5), min_size=L, max_size=L)))
    n_tx, n_rx, in_dim, out_dim = (draw(st.integers(1, 4)) for _ in range(4))
    direct = draw(st.booleans())
    scale = 10.0 ** draw(st.floats(-13.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ch = random_channel_set(rng, n_tx, n_rx, groups, direct=direct, scale=scale)
    params = OtaParams(f1=complex_normal(rng, (n_tx, in_dim)),
                       f2=complex_normal(rng, (out_dim, n_rx), 1.0 / scale),
                       a=tuple(complex_normal(rng, (k,), 1.0 / scale) for k in groups))
    noise = NoiseModel(relay_noise_var=tuple(scale * rng.uniform(0.5, 1.5, L)),
                       rx_noise_var=scale)
    target = TargetLayer(w=complex_normal(rng, (out_dim, in_dim)),
                         bias=np.zeros(out_dim))
    return ch, params, noise, target, rng


def naive_chain(ch, gains):
    """H_last A_L H_L ... A_1 H_1 with dense diagonal matrices."""
    m = ch.h_hop[0]
    for l, a in enumerate(gains):
        nxt = ch.h_hop[l + 1] if l + 1 < ch.num_groups else ch.h_last
        m = nxt @ np.diag(a) @ m
    return m


def reference_r(ch, gains, noise):
    r = noise.rx_noise_var * np.eye(ch.n_rx, dtype=complex)
    for j in range(1, ch.num_groups + 1):
        t = transfer_matrix(ch, gains, j)
        r = r + noise.relay_noise_var[j - 1] * (t @ t.conj().T)
    return r


def reference_objective(ch, params, noise, target):
    heff = ch.h_direct + naive_chain(ch, params.a)
    resid = params.f2 @ heff @ params.f1 - target.w
    r = reference_r(ch, params.a, noise)
    return (np.sum(np.abs(resid) ** 2)
            + np.trace(params.f2 @ r @ params.f2.conj().T).real)


def assert_close(got, want):
    assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want) + 1e-300


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(instances())
def test_cascade_b_matches_naive_chain(inst):
    ch, params, noise, target, _ = inst
    cas = Cascade(ch, params.a, params.f1, params.f2, noise)
    want = ch.h_direct @ params.f1 + naive_chain(ch, params.a) @ params.f1
    assert_close(cas.b, want)


@SETTINGS
@given(instances())
def test_cascade_r_matches_transfer_matrix_sum(inst):
    ch, params, noise, target, _ = inst
    r = noise_covariance(ch, params.a, noise)
    assert_close(r, reference_r(ch, params.a, noise))
    assert np.array_equal(r, r.conj().T)
    assert np.linalg.eigvalsh(r).min() >= -RTOL * np.trace(r).real


@SETTINGS
@given(instances())
def test_cascade_objective_matches_reference(inst):
    ch, params, noise, target, _ = inst
    got = objective(Cascade.of(ch, params, noise), target)
    want = reference_objective(ch, params, noise, target)
    assert abs(got - want) <= RTOL * want


@SETTINGS
@given(instances())
def test_cascade_incident_powers_match_per_group_walk(inst):
    ch, params, noise, target, _ = inst
    m = ch.h_hop[0] @ params.f1
    for l in range(1, ch.num_groups + 1):
        want = np.sum(np.abs(m) ** 2, axis=1) + noise.relay_noise_var[l - 1]
        assert_close(Cascade(ch, params.a, params.f1, None, noise).incident_powers(l), want)
        if l < ch.num_groups:
            m = ch.h_hop[l] @ np.diag(params.a[l - 1]) @ m


@SETTINGS
@given(instances())
def test_gain_quadratic_reproduces_objective_in_each_group(inst):
    ch, params, noise, target, rng = inst
    cas = Cascade(ch, params.a, params.f1, params.f2, noise)

    def with_gain(l, x):
        a = list(params.a)
        a[l - 1] = x
        return reference_objective(ch, OtaParams(f1=params.f1, f2=params.f2, a=a),
                                   noise, target)

    for l in range(1, ch.num_groups + 1):
        g, b = _gain_quadratic(cas, target, l)
        a_l = params.a[l - 1]
        const = with_gain(l, np.zeros_like(a_l))
        for x in (a_l, a_l * complex_normal(rng, a_l.shape)):
            quad = (x.conj() @ g @ x).real
            model = quad - 2.0 * (b.conj() @ x).real + const
            want = with_gain(l, x)
            assert abs(model - want) <= RTOL * (abs(want) + abs(const) + abs(quad))


# ------------------------------------------- candidates built from a base

def relay_caps(ch, params, noise, level, rng):
    """Per-relay caps at which the gains of a design near params clip
    nowhere ("none"), everywhere ("all"), or at about half of the relays
    ("some")."""
    cas = Cascade(ch, params.a, params.f1, None, noise)
    caps = []
    for l, a in enumerate(cas.a, start=1):
        used = np.abs(a) ** 2 * cas.incident_powers(l)
        factor = {"none": 1e30, "all": 1e-30}.get(level)
        caps.append(used * (factor or rng.uniform(0.5, 1.5, used.shape)))
    return tuple(caps)


def assert_same_products(got, want, target):
    L = len(want.a)
    assert all(np.array_equal(x, y) for x, y in zip(got.a, want.a))
    assert all(np.array_equal(x, y) for x, y in zip(got.u, want.u))
    assert np.array_equal(got.b, want.b)
    assert all(np.array_equal(x, y) for x, y in zip(got.d, want.d))
    for l in range(1, L + 2):
        assert np.array_equal(got.stage_noise(l), want.stage_noise(l))
    assert np.array_equal(got.f2_direct, want.f2_direct)
    assert np.array_equal(got.direct_residual(target.w), want.direct_residual(target.w))
    for l in range(1, L + 1):
        assert np.array_equal(got.incident_powers(l), want.incident_powers(l))
        assert np.array_equal(got.limit(l), want.limit(l))
        # a gain array the cascade knows to fit, it hands back unlooked at:
        # a projection from scratch must hand back that array too
        a = got.a[l - 1]
        fresh = project_gains(a, want.limit(l))
        projected = got.project(l, a)
        assert np.array_equal(projected, fresh) and (projected is a) == (fresh is a)


@pytest.mark.parametrize("level", ["none", "some", "all"])
@settings(max_examples=40, deadline=None)
@given(inst=instances(), data=st.data())
def test_candidate_from_base_equals_candidate_from_scratch(level, inst, data):
    ch, params, noise, target, rng = inst
    L = ch.num_groups
    move = data.draw(st.sampled_from(["f1", "f2"] + [f"a{l}" for l in range(1, L + 1)]))
    # the products the incumbent holds before the move: scored or not, its
    # first `built` stage noises, and the gain updates of its first
    # `updated` groups (limits, projections, the direct residual)
    scored = data.draw(st.booleans())
    built = data.draw(st.integers(0, L + 1))
    updated = data.draw(st.integers(0, L))
    # a gain move to update_a's gains, as in solve, or to a random vector
    solved = data.draw(st.booleans())

    caps = relay_caps(ch, params, noise, level, rng)
    inc = Cascade(ch, params.a, params.f1, params.f2, noise, caps)
    if scored:
        objective(inc, target)
    for l in range(1, built + 1):
        inc.stage_noise(l)
    for l in range(1, updated + 1):
        update_a(inc, target, l)

    gains, f1, f2 = list(inc.a), inc.f1, inc.f2
    if move == "f1":
        f1 = complex_normal(rng, params.f1.shape)
    elif move == "f2":
        f2 = complex_normal(rng, params.f2.shape)
    else:
        l = int(move[1:])
        if solved:
            gains[l - 1] = update_a(inc, target, l)[0]
        else:
            gains[l - 1] = complex_normal(rng, gains[l - 1].shape) * np.abs(gains[l - 1])
    cand = inc.moved(gains, f1, f2)
    fresh = Cascade(ch, gains, f1, f2, noise, caps)
    assert_same_products(cand, fresh, target)
    assert objective(cand, target) == objective(fresh, target)

    # the walk hands back the very array where nothing clips
    for j in range(L):
        kept = project_gains(gains[j], fresh.limit(j + 1)) is gains[j]
        assert (cand.a[j] is gains[j]) == kept
    if level == "none":
        assert all(x is y for x, y in zip(cand.a, gains))
    if not ch.has_direct:  # the skipped direct terms are exact zeros
        assert np.array_equal(fresh.b, ch.h_direct @ f1 + fresh.b)
        assert np.array_equal(fresh.direct_residual(target.w),
                              target.w - fresh.f2_direct @ f1)

    # the incumbent's products are untouched, and the candidate keeps no
    # reference to it
    assert_same_products(inc, Cascade(ch, params.a, params.f1, params.f2, noise, caps),
                         target)
    ref = weakref.ref(inc)
    del inc
    gc.collect()
    assert ref() is None


@SETTINGS
@given(inst=instances(), data=st.data())
def test_capped_cascade_gains_meet_their_caps(inst, data):
    # whatever gains a capped cascade is given, None, random or lent from
    # its base, the walk fits each to the caps at its own incident powers
    ch, params, noise, target, rng = inst
    caps = relay_caps(ch, params, noise, "some", rng)
    base = Cascade(ch, params.a, params.f1, params.f2, noise, caps)
    kinds = data.draw(st.lists(st.sampled_from(["none", "random", "lent"]),
                               min_size=ch.num_groups, max_size=ch.num_groups))
    gains = [None if kind == "none" else base.a[l] if kind == "lent"
             else complex_normal(rng, a.shape, 2.0) * np.abs(a)
             for l, (kind, a) in enumerate(zip(kinds, params.a))]
    f1 = data.draw(st.sampled_from([base.f1, complex_normal(rng, params.f1.shape)]))
    for cas in (base, base.moved(gains, f1, base.f2)):
        for l, cap in enumerate(caps, start=1):
            used = np.abs(cas.a[l - 1]) ** 2 * cas.incident_powers(l)
            assert np.all(used <= cap * (1 + 1e-14))


def test_uncapped_cascade_has_no_limits():
    rng = np.random.default_rng(3)
    ch = random_channel_set(rng, 2, 2, (3, 2))
    noise = NoiseModel(relay_noise_var=(1.0, 1.0), rx_noise_var=1.0)
    with pytest.raises(ValueError, match="no relay caps"):
        Cascade(ch, [np.ones(3), np.ones(2)], np.eye(2, dtype=complex), None, noise).limit(1)


@pytest.mark.parametrize("gains,message", [
    ([np.array([2 + 0j])], r"gain vector 0 must have shape \(3,\)"),
    ([None], "the cascade has no relay caps"),
    ([np.ones(3), np.ones(3)], "expected 1 gain vectors, got 2"),
], ids=["length-1 gain vector", "None without caps", "extra gain vector"])
def test_cascade_refuses_gains_that_do_not_fit(gains, message):
    # one group of three relays: one gain is not broadcast over all three,
    # and a gain of None starts at its cap, so it needs the caps
    rng = np.random.default_rng(4)
    ch = random_channel_set(rng, 2, 2, (3,))
    noise = NoiseModel(relay_noise_var=(0.1,), rx_noise_var=0.1)
    f1, f2 = complex_normal(rng, (2, 2)), complex_normal(rng, (2, 2))
    with pytest.raises(ValueError, match=message):
        Cascade(ch, gains, f1, f2, noise)
    cold = Cascade(ch, [None], f1, f2, noise, (np.full(3, 0.5),))  # the cold start
    assert np.array_equal(cold.a[0], cold.limit(1))


@pytest.mark.parametrize("caps,message", [
    ((np.array([0.5]),), r"cap vector 0 must have shape \(3,\)"),
    ((np.full(3, 0.5), np.full(3, 0.5)), "expected 1 cap vectors, got 2"),
    ((), "expected 1 cap vectors, got 0"),
    ((np.array([0.5, 0.0, 0.5]),), "cap vector 0 entries must be positive and finite"),
    ((np.array([0.5, np.nan, 0.5]),), "cap vector 0 entries must be positive and finite"),
], ids=["length-1 cap vector", "extra cap vector", "no cap vectors", "zero cap", "nan cap"])
def test_cascade_refuses_caps_that_do_not_fit(caps, message):
    # one group of three relays: one cap is not broadcast over all three, a
    # cap vector too many is not ignored, and none at all fails here, not
    # as an IndexError from limit; with or without a gain to fit
    rng = np.random.default_rng(4)
    ch = random_channel_set(rng, 2, 2, (3,))
    noise = NoiseModel(relay_noise_var=(0.1,), rx_noise_var=0.1)
    f1, f2 = complex_normal(rng, (2, 2)), complex_normal(rng, (2, 2))
    for gains in ([None], [np.ones(3)]):
        with pytest.raises(ValueError, match=message):
            Cascade(ch, gains, f1, f2, noise, caps)


@pytest.mark.parametrize("where", ["0", "-1", "L+1"])
@pytest.mark.parametrize("name,last", [("incident_powers", 0), ("limit", 0), ("suffix", 0),
                                       ("stage_noise", 1), ("update_a", 0)])
def test_cascade_refuses_a_hop_index_out_of_range(name, last, where):
    # on two groups, hop 0 and hop -1 would wrap to the last stage, and
    # L + 1 is past it (stage_noise reaches the receiver at L + 1)
    rng = np.random.default_rng(5)
    ch = random_channel_set(rng, 2, 2, (3, 2))
    noise = NoiseModel(relay_noise_var=(0.1, 0.2), rx_noise_var=0.1)
    cas = Cascade(ch, [None, None], complex_normal(rng, (2, 2)), complex_normal(rng, (2, 2)),
                  noise, (np.ones(3), np.ones(2)))
    target = TargetLayer(w=complex_normal(rng, (2, 2)), bias=np.zeros(2))
    accessor = (lambda l: update_a(cas, target, l)) if name == "update_a" \
        else getattr(cas, name)
    top = ch.num_groups + last
    for l in range(1, top + 1):
        accessor(l)
    l = {"0": 0, "-1": -1, "L+1": top + 1}[where]
    with pytest.raises(ValueError, match=rf"^hop index {l} out of range 1\.\.{top}$"):
        accessor(l)


@SETTINGS
@given(instances())
def test_gain_move_scored_from_its_quadratic(inst):
    # a gain move whose candidate keeps every downstream gain changes a_l
    # alone, so update_a's change of the quadratic is the change of the
    # objective. The rounding scales with the incumbent's objective, which
    # on a random incumbent can sit far above the candidate's.
    ch, params, noise, target, rng = inst
    caps = relay_caps(ch, params, noise, "none", rng)
    inc = Cascade(ch, params.a, params.f1, params.f2, noise, caps)
    for l in range(1, ch.num_groups + 1):
        a_l, change = update_a(inc, target, l)
        gains = list(inc.a)
        gains[l - 1] = a_l
        cand = inc.moved(gains, inc.f1, inc.f2)
        assert all(x is y for x, y in zip(cand.a[l:], inc.a[l:]))
        before = objective(inc, target)
        assert abs(before + change - objective(cand, target)) <= 1e-12 * before


@settings(max_examples=30, deadline=None)
@given(inst=instances(), data=st.data())
def test_solve_keeps_invariants(inst, data):
    ch, params, noise, target, rng = inst
    p_max = 10.0 ** data.draw(st.floats(-2.0, 2.0))
    caps = tuple(10.0 ** rng.uniform(-2.0, 2.0, k) for k in ch.group_sizes)
    budget = PowerBudget(p_max_bs=p_max, p_relay=caps)
    res = solve(ch, target, noise, budget, SolverConfig(max_outer_iters=6))

    design = (res.params.f1, res.params.f2) + res.params.a
    assert all(np.isfinite(x).all() for x in design)
    assert np.isfinite(res.objective_trace).all()
    assert np.all(np.diff(res.objective_trace) <= 0)
    assert np.sum(np.abs(res.params.f1) ** 2) <= p_max * (1 + 1e-9)
    for l in range(1, ch.num_groups + 1):
        p_in = Cascade(ch, res.params.a, res.params.f1, None, noise).incident_powers(l)
        used = np.abs(res.params.a[l - 1]) ** 2 * p_in
        assert np.all(used <= caps[l - 1] * (1 + 1e-9))
