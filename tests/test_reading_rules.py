"""The library constructors read counts and positive reals by the rules the
config readers use (otafc.utils.integer, real and positive): a value a
config file may not hold is refused in code too, never truncated. Every
array a constructor keeps is read by otafc.utils.read_only: finite numbers,
never booleans, and never complex for a real field."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from otafc import (ChannelSet, Heuristic, HopStatistics, ImportedPipeline, NoiseModel,
                   OtaParams, PilotPlan, Placement, PowerBudget, SolverConfig,
                   SyntheticTask, TargetLayer, Topology, allocate, config_from_dict,
                   make_synthetic_task)
from otafc.inference import draw_samples
from otafc.utils import complex_normal, read_only


def _topology(**kw):
    return Topology(**{**dict(n_tx=2, n_rx=2, n_stream=2, num_groups=1, group_sizes=(3,)),
                       **kw})


def _task(**kw):
    return SyntheticTask(**{**dict(num_classes=2, class_means=np.zeros((2, 3), dtype=complex),
                                   sample_noise_var=0.1,
                                   classifier_head=np.zeros((2, 3), dtype=complex)), **kw})


def _pipeline(**kw):
    """A pipeline with 2 complex features, 2 middle outputs and 2 classes."""
    ones = dict(conv_kernel=np.ones((2, 1, 3, 3)), conv_bias=np.ones(2), bn_scale=np.ones(2),
                bn_shift=np.ones(2), fc_mid_weight=np.ones((2, 2)), fc_mid_bias=np.ones(2),
                fc_out_weight=np.ones((2, 4)), fc_out_bias=np.ones(2))
    return ImportedPipeline(**{**ones, **kw})


def _first_true(nested):
    """nested, a list of lists, with its first number replaced by True."""
    return [_first_true(nested[0]), *nested[1:]] if isinstance(nested, list) else True


def _poisoned(good, at, value):
    out = np.array(good, dtype=complex if np.iscomplexobj(good) else float)
    out.flat[at] = value
    return out


# array field, as a refusal names it -> (a valid value, the constructor
# given v there); one field of every constructor that keeps arrays
_ARRAYS = {
    "w": (np.ones((2, 3)), lambda v: TargetLayer(v, np.zeros(2))),
    "bias": (np.ones(2), lambda v: TargetLayer(np.ones((2, 3)), v)),
    "f1": (np.ones((2, 2)), lambda v: OtaParams(v, np.ones((2, 2)), (np.ones(3),))),
    "a[0]": (np.ones(3, dtype=complex), lambda v: OtaParams(np.ones((2, 2)), np.ones((2, 2)),
                                                             (v,))),
    "p_relay[0]": (np.ones(3), lambda v: PowerBudget(1.0, (v,))),
    "beta": (np.array([1.0, 2.0]), HopStatistics),
    "h_direct": (np.ones((2, 2)), lambda v: ChannelSet(v, (np.ones((3, 2)),), np.ones((2, 3)))),
    "h_hop[0]": (np.ones((3, 2)), lambda v: ChannelSet(np.ones((2, 2)), (v,), np.ones((2, 3)))),
    "bs_position": (np.zeros(3), lambda v: Placement(_topology(), v, np.ones(3),
                                                     (np.ones((3, 3)),))),
    "relay_positions[0]": (np.ones((3, 3)), lambda v: Placement(_topology(), np.zeros(3),
                                                                np.ones(3), (v,))),
    "class_means": (np.ones((2, 3)), lambda v: _task(class_means=v)),
    "classifier_head": (np.ones((2, 3)), lambda v: _task(classifier_head=v)),
    "conv_bias": (np.ones(2), lambda v: _pipeline(conv_bias=v)),
    "fc_mid_weight": (np.ones((2, 2)), lambda v: _pipeline(fc_mid_weight=v)),
}


def _refused(field, build, value):
    """build(value), checked to raise a ValueError whose message names field."""
    def run():
        with pytest.raises(ValueError, match=f"^{re.escape(field)} ") as info:
            build(value)
        raise info.value
    return run


_ARRAY_REFUSALS = [
    pytest.param(_refused(field, build, bad), id=f"{field}-{case}")
    for field, (good, build) in _ARRAYS.items()
    for case, bad in (("bool-array", np.ones(np.shape(good), dtype=bool)),
                      ("bool-in-list", _first_true(good.tolist())),
                      ("nan", _poisoned(good, 0, np.nan)),
                      ("inf", _poisoned(good, -1, -np.inf)))]

def _imaginary(good):
    """good as a complex array with 1j added to its first entry."""
    out = np.array(good, dtype=complex)
    out.flat[0] += 1j
    return out


# a complex entry for a real field is refused, not cast to its real part
_COMPLEX_REFUSALS = [
    pytest.param(_refused(field, _ARRAYS[field][1], bad), id=f"{field}-{case}")
    for field in ("p_relay[0]", "beta", "bs_position", "relay_positions[0]", "conv_bias")
    for case, bad in (("complex-array", _imaginary(_ARRAYS[field][0])),
                      ("complex-zero-imag", _ARRAYS[field][0].astype(complex)),
                      ("complex-in-list", [1j, *_ARRAYS[field][0].tolist()[1:]]))]


def _target():
    return TargetLayer(np.ones((2, 3)), np.zeros(2))


def _draw(num_samples):
    target = _target()
    return draw_samples(make_synthetic_task(target, 2, rng_seed=0), target, num_samples, 1)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: PilotPlan(1.0, (1.5, 1), (4, 3)), id="rep-1.5"),
    pytest.param(lambda: PilotPlan(1.0, (True, 1), (4, 3)), id="rep-True"),
    pytest.param(lambda: PilotPlan(1.0, (1, 0), (4, 3)), id="rep-0"),
    pytest.param(lambda: PilotPlan(1.0, (1, 1), (4, 1.5)), id="tau_min-1.5"),
    pytest.param(lambda: PilotPlan(1.0, (1, 1), (True, 3)), id="tau_min-True"),
    pytest.param(lambda: PilotPlan(1.0, (1, 1), (0, 3)), id="tau_min-0"),
    pytest.param(lambda: _topology(n_tx=2.5), id="n_tx-2.5"),
    pytest.param(lambda: _topology(group_sizes=(2.7,)), id="group_sizes-2.7"),
    pytest.param(lambda: _topology(group_sizes=(True,)), id="group_sizes-True"),
    pytest.param(lambda: allocate(Heuristic.UNIFORM, _topology(), 7.9), id="budget-7.9"),
    pytest.param(lambda: allocate(Heuristic.UNIFORM, _topology(), True), id="budget-True"),
    pytest.param(lambda: NoiseModel((True,), 0.1), id="relay-var-True"),
    pytest.param(lambda: NoiseModel((0.1,), True), id="rx-var-True"),
    pytest.param(lambda: NoiseModel((np.nan,), 0.1), id="relay-var-nan"),
    pytest.param(lambda: NoiseModel((0.1,), np.nan), id="rx-var-nan"),
    pytest.param(lambda: PowerBudget(p_max_bs=True, p_relay=(np.ones(3),)),
                 id="p_max_bs-True"),
    pytest.param(lambda: complex_normal(np.random.default_rng(0), (2,), np.nan),
                 id="complex_normal-var-nan"),
    pytest.param(_refused("p_relay[0]", lambda v: PowerBudget(1.0, v), ((True, True),)),
                 id="p_relay-True-tuple"),
    pytest.param(_refused("beta", HopStatistics, [True, 2.0]), id="beta-True-list"),
    pytest.param(_refused("p_relay[0]", lambda v: PowerBudget(1.0, (v,)), [1.0, 0.0]),
                 id="p_relay-0"),
    pytest.param(_refused("beta", HopStatistics, [-1.0, 2.0]), id="beta-negative"),
    pytest.param(_refused("f1", lambda v: OtaParams(v, np.ones((2, 2)), ()), [["1", "2"]]),
                 id="f1-strings"),
    pytest.param(_refused("bias", lambda v: TargetLayer(np.ones((1, 1)), v), [None]),
                 id="bias-None"),
    *_ARRAY_REFUSALS,
    *_COMPLEX_REFUSALS,
    pytest.param(_refused("num_classes", lambda v: make_synthetic_task(_target(), v), 3.5),
                 id="num_classes-3.5"),
    pytest.param(_refused("num_classes", lambda v: make_synthetic_task(_target(), v), True),
                 id="num_classes-True"),
    pytest.param(_refused("num_samples", _draw, 2.5), id="num_samples-2.5"),
    pytest.param(_refused("num_samples", _draw, True), id="num_samples-True"),
])
def test_constructors_refuse_what_the_readers_refuse(build):
    with pytest.raises(ValueError):
        build()


def test_integral_floats_read_as_integers():
    plan = PilotPlan(1, (2.0, np.int64(1)), (4.0, 3))
    assert plan.rep == (2, 1) and plan.tau_min == (4, 3) and plan.pilot_power == 1.0
    top = _topology(n_tx=2.0, num_groups=np.int64(1), group_sizes=(3.0,))
    assert (top.n_tx, top.num_groups, top.group_sizes) == (2, 1, (3,))
    assert allocate(Heuristic.UNIFORM, top, 8.0) == allocate(Heuristic.UNIFORM, top, 8)
    assert SolverConfig(max_outer_iters=2.0).max_outer_iters == 2
    assert _task(num_classes=2.0).num_classes == 2
    target = _target()
    task = make_synthetic_task(target, 3.0, rng_seed=0)
    assert type(task.num_classes) is int and task.num_classes == 3
    drawn, want = draw_samples(task, target, 2.0, 1), draw_samples(task, target, 2, 1)
    assert all(np.array_equal(getattr(drawn, f), getattr(want, f)) for f in ("labels", "inputs"))
    assert all(type(v) is int for v in (*plan.rep, *plan.tau_min, top.n_tx, top.num_groups,
                                         *top.group_sizes))


def _accepts(build, value) -> bool:
    try:
        build(value)
    except ValueError:  # a ConfigError is one
        return False
    return True


# config key -> (the config tree that sets it to v, the constructor that
# reads the same quantity in code)
_PAIRS = {
    "n_antennas": (lambda v: {"topology": {"n_antennas": v}},
                   lambda v: Topology(n_tx=v, n_rx=v, n_stream=v, num_groups=1,
                                      group_sizes=(1,))),
    "pilot_power": (lambda v: {"sweep": {"pilot_power": [v]}},
                    lambda v: PilotPlan(v, (1,), (1,))),
    "max_outer_iters": (lambda v: {"solver": {"max_outer_iters": v}},
                        lambda v: SolverConfig(max_outer_iters=v)),
    "sample_noise_var": (lambda v: {"task": {"sample_noise_var": v}},
                         lambda v: _task(sample_noise_var=v)),
}

# numbers, booleans and strings; integers stay within int64, since a larger
# one makes float() raise OverflowError, which the reader turns into a
# ConfigError and a constructor passes on
_VALUES = st.one_of(
    st.integers(-2 ** 63, 2 ** 63), st.integers(-3, 3).map(np.int64), st.booleans(),
    st.floats(), st.floats(-3, 3).map(np.float64), st.integers(-3, 3).map(float),
    st.sampled_from(["2", "2.5", "-1", "nan", "inf", "3.0e8", "x"]))


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(_PAIRS)), value=_VALUES)
def test_reader_accepts_a_value_exactly_when_the_constructor_does(key, value):
    tree, build = _PAIRS[key]
    assert _accepts(lambda v: config_from_dict(tree(v)), value) == _accepts(build, value)


@pytest.mark.parametrize("key", sorted(_PAIRS))
def test_each_pair_reads_two_and_refuses_true(key):
    tree, build = _PAIRS[key]
    for read in (lambda v: config_from_dict(tree(v)), build):
        assert _accepts(read, 2) and not _accepts(read, True)


def test_valid_arrays_read_as_before():
    # the values the refusals start from are accepted as they are
    for field, (good, build) in _ARRAYS.items():
        build(good)
        build(good.tolist())
    assert PowerBudget(1.0, ((1, 2.5),)).p_relay[0].tolist() == [1.0, 2.5]


_DTYPES = {"i": (None, int, float, complex), "f": (None, float, complex), "c": (None, complex)}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_DTYPES)), as_list=st.booleans())
def test_read_only_copies_a_valid_array_bit_for_bit(data, kind, as_list):
    dtype = {"i": np.int64, "f": np.float64, "c": np.complex128}[kind]
    elements = (hnp.from_dtype(np.dtype(dtype), allow_nan=False, allow_infinity=False)
                if kind != "i" else st.integers(-2 ** 53, 2 ** 53))
    a = data.draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
                             elements=elements))
    want = data.draw(st.sampled_from(_DTYPES[kind]))
    given_a = a.tolist() if as_list else a
    before = a.copy()
    out = read_only(given_a, want, "x")
    expected = np.array(a, dtype=want)  # a list reads as its array does
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    assert not out.flags.writeable and not np.shares_memory(out, a)
    assert a.tobytes() == before.tobytes() and a.flags.writeable
