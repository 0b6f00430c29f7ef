"""Network geometry: antenna/group bookkeeping and relay placement.

The coverage area is a rectangle of ``area_width`` x ``area_depth`` meters.
The transmitter sits at the center of the x=0 face, the receiver at the
center of the opposite face, and the L relay groups occupy L consecutive
slabs of width ``area_width / L`` along the x axis between them.
"""

from dataclasses import dataclass

import numpy as np

from .utils import read_only

BS_RX_HEIGHT_M = 5.0
RELAY_HEIGHT_M = 1.5


@dataclass(frozen=True)
class Topology:
    """Dimension bookkeeping for one network configuration.

    n_tx / n_rx are the transmitter / receiver antenna counts, n_stream the
    signal dimension carried end to end (the reference setting uses
    n_stream == n_tx == n_rx). group_sizes lists the relay count of each of
    the num_groups serial groups.
    """

    n_tx: int
    n_rx: int
    n_stream: int
    num_groups: int
    group_sizes: tuple
    direct_link_present: bool = False
    area_width: float = 100.0
    area_depth: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "group_sizes", tuple(int(k) for k in self.group_sizes))
        if min(self.n_tx, self.n_rx, self.n_stream) < 1:
            raise ValueError("antenna and stream counts must be >= 1")
        if self.num_groups < 1:
            raise ValueError(f"need at least one relay group, got {self.num_groups}")
        if len(self.group_sizes) != self.num_groups:
            raise ValueError(
                f"expected {self.num_groups} group sizes, got {len(self.group_sizes)}"
            )
        if any(k < 1 for k in self.group_sizes):
            raise ValueError(f"every group needs >= 1 relay, got {self.group_sizes}")
        if not (0 < self.area_width < np.inf and 0 < self.area_depth < np.inf):  # NaN too
            raise ValueError("area dimensions must be positive and finite")


@dataclass(frozen=True, eq=False)  # == is identity: fields are arrays
class Placement:
    """Concrete 3-D coordinates (meters) for one geometry realization.

    The positions are read-only float copies of the arrays given, so the hop
    gains that channel keeps on a placement cannot go stale."""

    topology: Topology
    bs_position: np.ndarray
    rx_position: np.ndarray
    relay_positions: tuple  # one (K_l, 3) array per group

    def __post_init__(self):
        object.__setattr__(self, "bs_position", read_only(self.bs_position, float))
        object.__setattr__(self, "rx_position", read_only(self.rx_position, float))
        object.__setattr__(self, "relay_positions",
                           tuple(read_only(p, float) for p in self.relay_positions))


def region_bounds(topology: Topology, group: int):
    """x-interval [lo, hi) of the slab assigned to `group` (0-based)."""
    if not 0 <= group < topology.num_groups:
        raise ValueError(f"group index {group} out of range")
    slab = topology.area_width / topology.num_groups
    return group * slab, (group + 1) * slab


def generate_placement(topology: Topology, rng_seed) -> Placement:
    """Place relays uniformly inside their slab; deterministic given the seed.

    Group l occupies x in [l*W/L, (l+1)*W/L), y in [0, area_depth], at relay
    height. BS and Rx sit at mid-depth on the two opposite faces.
    """
    rng = np.random.default_rng(rng_seed)

    w, d = topology.area_width, topology.area_depth
    bs = np.array([0.0, d / 2.0, BS_RX_HEIGHT_M])
    rx = np.array([w, d / 2.0, BS_RX_HEIGHT_M])

    groups = []
    for l, k in enumerate(topology.group_sizes):
        xs = rng.uniform(*region_bounds(topology, l), size=k)
        ys = rng.uniform(0.0, d, size=k)
        zs = np.full(k, RELAY_HEIGHT_M)
        groups.append(np.column_stack([xs, ys, zs]))
    return Placement(topology=topology, bs_position=bs, rx_position=rx,
                     relay_positions=tuple(groups))
