"""Spatially-partitioned cluster simulation (the E22 subsystem).

The paper's protocol targets large ad-hoc deployments; this package
joins the two halves the ROADMAP names — the numpy topology arena and
the shared work-queue scheduler — into a sharded simulator:

* :mod:`repro.shard.partition` — the :class:`ShardGrid` spatial
  partition and the deterministic gateway backhaul paths;
* :mod:`repro.shard.cluster` — :class:`ShardedCluster`, per-shard
  topology arenas (independent epochs, delta rebuilds) behind the
  duck-typed ``Topology`` facade, with gateway election and
  cross-shard routing; gated by the :data:`USE_SHARDING` feature
  switch (``shard`` in :mod:`repro.features`);
* :mod:`repro.shard.driver` — :class:`ShardedDriver` (streaming
  sessions with delta topology maintenance) and
  :func:`run_sharded_contention`, the sharded twin of
  :func:`repro.workloads.run_contention` — bit-identical to it on a
  single shard.

See ``docs/sharding.md`` for the partitioning scheme and the gateway
cost model.
"""

from repro.shard.cluster import USE_SHARDING, ShardedCluster
from repro.shard.driver import ShardedDriver, run_sharded_contention
from repro.shard.partition import DEFAULT_SHARD_OCCUPANCY, ShardGrid

__all__ = [
    "USE_SHARDING",
    "ShardedCluster",
    "ShardedDriver",
    "ShardGrid",
    "DEFAULT_SHARD_OCCUPANCY",
    "run_sharded_contention",
]
