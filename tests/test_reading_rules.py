"""The library constructors read counts and positive reals by the rules the
config readers use (otafc.utils.integer, real and positive): a value a
config file may not hold is refused in code too, never truncated."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otafc import (Heuristic, NoiseModel, PilotPlan, PowerBudget, SolverConfig,
                   SyntheticTask, Topology, allocate, config_from_dict)
from otafc.utils import complex_normal


def _topology(**kw):
    return Topology(**{**dict(n_tx=2, n_rx=2, n_stream=2, num_groups=1, group_sizes=(3,)),
                       **kw})


def _task(**kw):
    return SyntheticTask(**{**dict(num_classes=2, class_means=np.zeros((2, 3), dtype=complex),
                                   sample_noise_var=0.1,
                                   classifier_head=np.zeros((2, 3), dtype=complex)), **kw})


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
