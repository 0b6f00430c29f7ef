import numpy as np
import pytest

from otafc import Topology, generate_placement
from otafc.topology import BS_RX_HEIGHT_M, RELAY_HEIGHT_M, region_bounds


def test_single_region_degenerate_case():
    top = Topology(n_tx=1, n_rx=1, n_stream=1, num_groups=1, group_sizes=(1,),
                   area_width=100.0, area_depth=100.0)
    place = generate_placement(top, 0)
    (pos,) = place.relay_positions
    assert pos.shape == (1, 3)
    assert 0.0 <= pos[0, 0] <= 100.0
    assert 0.0 <= pos[0, 1] <= 100.0
    assert pos[0, 2] == RELAY_HEIGHT_M


def test_region_containment_three_groups():
    top = Topology(n_tx=4, n_rx=4, n_stream=4, num_groups=3,
                   group_sizes=(40, 40, 40), area_width=200.0, area_depth=200.0)
    place = generate_placement(top, 123)
    for l, pts in enumerate(place.relay_positions):
        lo, hi = region_bounds(top, l)
        assert np.all(pts[:, 0] >= lo) and np.all(pts[:, 0] <= hi)
        assert np.all(pts[:, 1] >= 0) and np.all(pts[:, 1] <= 200.0)
        assert np.all(pts[:, 2] == RELAY_HEIGHT_M)
    # middle group sits in the middle 200/3 slab
    mid = place.relay_positions[1][:, 0]
    assert np.all(mid >= 200.0 / 3) and np.all(mid <= 2 * 200.0 / 3)


def test_bs_rx_endpoints():
    top = Topology(n_tx=2, n_rx=2, n_stream=2, num_groups=2, group_sizes=(3, 3),
                   area_width=150.0, area_depth=80.0)
    place = generate_placement(top, 7)
    assert place.bs_position.tolist() == [0.0, 40.0, BS_RX_HEIGHT_M]
    assert place.rx_position.tolist() == [150.0, 40.0, BS_RX_HEIGHT_M]


def test_same_seed_identical_placement():
    top = Topology(n_tx=4, n_rx=4, n_stream=4, num_groups=3,
                   group_sizes=(5, 6, 7))
    p1 = generate_placement(top, 42)
    p2 = generate_placement(top, 42)
    for a, b in zip(p1.relay_positions, p2.relay_positions):
        assert np.array_equal(a, b)
    p3 = generate_placement(top, 43)
    assert not np.array_equal(p1.relay_positions[0], p3.relay_positions[0])


@pytest.mark.parametrize("kwargs", [
    dict(num_groups=0, group_sizes=()),
    dict(num_groups=2, group_sizes=(3,)),
    dict(num_groups=2, group_sizes=(3, 0)),
    dict(num_groups=1, group_sizes=(1,), area_width=-5.0),
    dict(num_groups=1, group_sizes=(1,), area_width=float("nan")),
    dict(num_groups=1, group_sizes=(1,), area_depth=float("inf")),
    dict(num_groups=1, group_sizes=(1,), area_width=float("inf")),
    dict(num_groups=1, group_sizes=(1,), area_depth=float("nan")),
])
def test_invalid_topology_rejected(kwargs):
    base = dict(n_tx=2, n_rx=2, n_stream=2)
    with pytest.raises(ValueError):
        Topology(**{**base, **kwargs})


def test_region_bounds_index_checked():
    top = Topology(n_tx=1, n_rx=1, n_stream=1, num_groups=2, group_sizes=(1, 1))
    with pytest.raises(ValueError):
        region_bounds(top, 2)
