import numpy as np
import pytest

from otafc import (Heuristic, HopStatistics, Topology, allocate,
                   heuristic_weights, pilot_dictionary_size, tau_min_total,
                   tau_minimums)


def _top(n_tx, group_sizes):
    return Topology(n_tx=n_tx, n_rx=n_tx, n_stream=n_tx,
                    num_groups=len(group_sizes), group_sizes=group_sizes)


TOP_3HOP = _top(49, (40, 40, 40))
TOP_1HOP = _top(49, (120,))


def _state(tau_min, rep=None):
    """(rep, tau_min) arrays of one greedy step; every rep is 1 by default."""
    rep = rep if rep is not None else np.ones(len(tau_min), dtype=int)
    return np.asarray(rep), np.asarray(tau_min)


# ---------------------------------------------------------------- tau_min

def test_minimum_training_time_worked_example():
    assert tau_minimums(TOP_3HOP).tolist() == [49, 40, 40, 40]
    assert tau_min_total(TOP_3HOP) == 169
    assert pilot_dictionary_size(TOP_3HOP) == 49


def test_single_hop_same_total_bigger_dictionary():
    assert tau_minimums(TOP_1HOP).tolist() == [49, 120]
    assert tau_min_total(TOP_1HOP) == 169
    assert pilot_dictionary_size(TOP_1HOP) == 120


def test_degenerate_single_antenna():
    top = _top(1, (1,))
    assert tau_minimums(top).tolist() == [1, 1]
    assert tau_min_total(top) == 2


# ---------------------------------------------------------------- weights

def test_uniform_weights_equal_at_start():
    w = heuristic_weights(Heuristic.UNIFORM, *_state((49, 40, 40, 40)))
    assert np.allclose(w, 1.0)
    w2 = heuristic_weights(Heuristic.UNIFORM, *_state((49, 40), rep=(2, 1)))
    assert w2.tolist() == [0.5, 1.0]


def test_proportional_weights():
    w = heuristic_weights(Heuristic.PROPORTIONAL_TO_MIN,
                          *_state((49, 40, 40, 40), rep=(1, 2, 1, 1)))
    assert w.tolist() == [49.0, 20.0, 40.0, 40.0]


def test_front_loaded_weights_formula():
    w = heuristic_weights(Heuristic.FRONT_LOADED, *_state((49, 40, 40, 40)))
    want = [1 / 49, 1 / 80, 1 / 120, 1 / 160]
    assert np.allclose(w, want, rtol=1e-12)
    assert np.argmax(w) == 0


def test_channel_aware_weights_favor_weak_hops():
    state = _state((49, 40, 40, 40))
    beta = np.array([1e-14, 1e-11, 1e-11, 1e-11])  # hop 0 much weaker
    w = heuristic_weights(Heuristic.CHANNEL_AWARE, *state, HopStatistics(beta))
    assert np.argmax(w) == 0
    with pytest.raises(ValueError):
        heuristic_weights(Heuristic.CHANNEL_AWARE, *state, None)


def test_all_first_weights_one_hot():
    w = heuristic_weights(Heuristic.ALL_TO_FIRST_HOP, *_state((49, 40, 40)))
    assert w.tolist() == [1.0, 0.0, 0.0]


# ---------------------------------------------------------------- allocate

def test_zero_excess_keeps_minimum():
    for h in Heuristic:
        stats = HopStatistics(np.full(4, 1e-12))
        plan = allocate(h, TOP_3HOP, 0, stats)
        assert plan.rep == (1, 1, 1, 1)
        assert plan.tau_total == 169


def test_all_first_worked_example():
    plan = allocate(Heuristic.ALL_TO_FIRST_HOP, TOP_3HOP, 200)
    assert plan.rep == (5, 1, 1, 1)  # 4 x 49 = 196 spent, 4 discarded
    assert plan.tau_total == 169 + 196


def test_all_first_general_pattern():
    for excess in (0, 48, 49, 137, 500):
        plan = allocate(Heuristic.ALL_TO_FIRST_HOP, TOP_3HOP, excess)
        assert plan.rep[0] == 1 + excess // 49
        assert plan.rep[1:] == (1, 1, 1)


def test_uniform_round_robin_example():
    plan = allocate(Heuristic.UNIFORM, TOP_3HOP, 169)
    assert plan.rep == (2, 2, 2, 2)
    assert plan.tau_total == 2 * 169


def test_uniform_spread_stays_within_one():
    top = _top(40, (40, 40, 40))  # equal tau_min so every hop always fits
    for excess in (0, 40, 85, 200, 777):
        plan = allocate(Heuristic.UNIFORM, top, excess)
        assert max(plan.rep) - min(plan.rep) <= 1


def test_proportional_equalizes_normalized_repetition():
    # weights tau_min/m water-fill: no hop's priority may still exceed the
    # pre-increment priority of any hop that was incremented
    plan = allocate(Heuristic.PROPORTIONAL_TO_MIN, TOP_3HOP, 1000)
    assert plan.rep == (8, 7, 6, 6)  # m roughly proportional to tau_min
    tmin = np.array(plan.tau_min, dtype=float)
    m = np.array(plan.rep, dtype=float)
    final_w = tmin / m
    pre_increment_w = tmin[m > 1] / (m[m > 1] - 1)
    assert final_w.max() <= pre_increment_w.min() + 1e-12


def test_front_loaded_favors_early_hops():
    top = _top(40, (40, 40, 40))  # equal tau_min isolates the position factor
    plan = allocate(Heuristic.FRONT_LOADED, top, 1200)
    reps = np.array(plan.rep)
    assert np.all(np.diff(reps) <= 0)  # repetitions never increase down the chain
    assert reps[0] > reps[-1]


def test_budget_feasibility_and_slack():
    rng = np.random.default_rng(0)
    for _ in range(50):
        sizes = tuple(int(k) for k in rng.integers(1, 30, size=rng.integers(1, 5)))
        top = _top(int(rng.integers(1, 30)), sizes)
        excess = int(rng.integers(0, 800))
        h = list(Heuristic)[rng.integers(0, len(Heuristic))]
        stats = HopStatistics(rng.uniform(1e-13, 1e-10, len(sizes) + 1))
        plan = allocate(h, top, excess, stats)
        tmin = tau_minimums(top)
        spent = plan.tau_total - tau_min_total(top)
        assert spent <= excess
        if h is Heuristic.ALL_TO_FIRST_HOP:
            assert excess - spent < tmin[0]
        else:
            assert excess - spent < tmin.min()


def _greedy_reference(heuristic, top, excess, stats):
    """The greedy rule as a plain loop: among the hops of positive weight
    whose block still fits, the highest weight, the earliest on a tie."""
    tmin = tau_minimums(top)
    rep, remaining = [1] * len(tmin), excess
    while True:
        w = heuristic_weights(heuristic, rep, tmin, stats)
        fits = [l for l in range(len(tmin)) if w[l] > 0 and tmin[l] <= remaining]
        if not fits:
            return tuple(rep)
        chosen = min(fits, key=lambda l: (-w[l], l))
        rep[chosen] += 1
        remaining -= tmin[chosen]


def test_allocate_is_the_greedy_loop():
    # repeated group sizes and gains give tied weights
    rng = np.random.default_rng(1)
    for _ in range(60):
        sizes = tuple(int(k) for k in rng.choice([3, 7, 12], size=rng.integers(1, 6)))
        top = _top(int(rng.choice([3, 7, 20])), sizes)
        stats = HopStatistics(rng.choice([1e-12, 2e-12], size=len(sizes) + 1))
        for h in Heuristic:
            for excess in (0, 5, 40, 333):
                assert (allocate(h, top, excess, stats).rep
                        == _greedy_reference(h, top, excess, stats)), (h, sizes, excess)


def test_allocation_deterministic():
    stats = HopStatistics(np.array([2e-12, 1e-12, 3e-12, 1.5e-12]))
    p1 = allocate(Heuristic.CHANNEL_AWARE, TOP_3HOP, 500, stats)
    p2 = allocate(Heuristic.CHANNEL_AWARE, TOP_3HOP, 500, stats)
    assert p1.rep == p2.rep


def test_allocate_accepts_cli_names():
    plan = allocate("uniform", TOP_3HOP, 0)
    assert plan.rep == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        allocate("fastest", TOP_3HOP, 0)
    with pytest.raises(ValueError):
        allocate(Heuristic.UNIFORM, TOP_3HOP, -1)
