"""The sharded streaming driver and the sharded contention runner.

:class:`ShardedDriver` is the PR-6 :class:`~repro.sessions.SessionDriver`
with exactly one behavioural override: its topology is a
:class:`~repro.shard.cluster.ShardedCluster`, so a mobility tick becomes
:meth:`~repro.shard.cluster.ShardedCluster.advance_mobility` — movers
get per-shard **delta rebuilds** and boundary-crossers are re-homed —
instead of a full O(n²) rebuild of the world. Everything else (one
logical clock, keepalives, crash detection, drain, in-place
renegotiation) is inherited verbatim; crash events resolve the victim
through the facade's global node table, so a node that migrated between
scheduling and firing still crashes in its *current* shard, and the
driver's post-crash ``rebuild()`` touches only the dirty shard.

:func:`run_sharded_contention` mirrors
:func:`repro.workloads.run_contention` stream for stream — same
``fleet`` / ``placement`` / ``arrivals:req<k>`` / ``failures`` /
``mobility`` consumption order — which is what makes a 1 × 1 grid run
bit-identical to the unsharded path (pinned in ``tests/test_shard.py``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.resources.node import Node
from repro.resources.provider import QoSProvider
from repro.sessions.driver import SessionDriver
from repro.shard.cluster import ShardedCluster
from repro.shard.partition import ShardGrid
from repro.sim.rng import RngRegistry
from repro.workloads.contention import (
    ContentionConfig,
    ContentionResult,
    _run_admission_only,
    _run_streaming,
    merge_arrival_events,
)


class ShardedDriver(SessionDriver):
    """A :class:`SessionDriver` over a :class:`ShardedCluster`.

    Construction matches the base class (`topology` being the sharded
    facade); only mobility maintenance is specialized.
    """

    def attach_mobility(self, mobility, nodes, tick=None) -> None:
        """Advance mobility every tick via the cluster's delta path:
        only the distance-matrix rows of nodes that actually moved are
        recomputed, per shard, and cell-boundary crossers are re-homed.
        Ticking stops with the last pending/active session, like the
        base driver's."""
        dt = self.policy.mobility_tick if tick is None else tick

        def _tick(now: float) -> None:
            if self._pending == 0 and self._active == 0:
                return
            self.topology.advance_mobility(mobility, nodes, dt)
            self.engine.schedule(dt, _tick)

        self.engine.schedule(dt, _tick)


# -- the seeded fleet ---------------------------------------------------------


def _cluster_config(config: ContentionConfig):
    # Lazy: repro.shard must stay importable without the experiment layer.
    from repro.experiments.config import FLEET_MIXES, ClusterConfig

    return ClusterConfig(
        n_nodes=config.n_nodes,
        requester_class=config.requester_class,
        mix=dict(FLEET_MIXES[config.mix]),
        area=config.area,
        radio_range=config.radio_range,
    )


def _seeded_fleet(
    registry: RngRegistry, config: ContentionConfig
) -> List[Node]:
    """The fleet + placement draws of :func:`run_contention`, verbatim:
    requesters first, helpers from the ``fleet`` stream, positions from
    the ``placement`` stream."""
    from repro.experiments.scenario import multi_requester_fleet
    from repro.network.mobility import StaticPlacement

    nodes = multi_requester_fleet(
        _cluster_config(config), registry.stream("fleet"), config.n_requesters
    )
    StaticPlacement(
        config.area, config.area, registry.stream("placement")
    ).place(nodes)
    return nodes


# -- the sharded runner ------------------------------------------------------


def run_sharded_contention(
    seed: int,
    config: Optional[ContentionConfig] = None,
    grid: Optional[ShardGrid] = None,
    backhaul_hop_cost: Optional[float] = None,
) -> ContentionResult:
    """Run one contention scenario on a spatially sharded cluster.

    The sharded analogue of :func:`repro.workloads.run_contention`:
    identical RNG stream consumption, identical arrival merge, identical
    streaming lifecycle — but the cluster is a :class:`ShardedCluster`
    over ``grid`` (:meth:`ShardGrid.auto` when omitted) and streaming
    runs use :class:`ShardedDriver` (delta topology maintenance). With a
    single shard the results are bit-identical to the unsharded runner.

    Args:
        seed: Master seed; the run is a pure function of it.
        config: The contention configuration (default-constructed when
            omitted, like the unsharded runner).
        grid: Spatial partition override.
        backhaul_hop_cost: Gateway backhaul cost override
            (see :class:`ShardedCluster`).
    """
    from repro.network.radio import DiscRadio

    if config is None:
        config = ContentionConfig()
    registry = RngRegistry(seed)
    nodes = _seeded_fleet(registry, config)
    providers = {n.node_id: QoSProvider(n) for n in nodes}
    if grid is None:
        grid = ShardGrid.auto(config.area, config.radio_range, config.n_nodes)
    cluster = ShardedCluster(
        nodes,
        DiscRadio(range_m=config.radio_range),
        grid,
        backhaul_hop_cost=backhaul_hop_cost,
    )
    events, family_of = merge_arrival_events(config, registry)
    if config.sessions.operate:
        return _run_streaming(
            config, registry, cluster, providers, nodes, events, family_of,
            driver_cls=ShardedDriver,
        )
    return _run_admission_only(config, cluster, providers, events, family_of)
